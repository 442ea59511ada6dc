#include "vp/bus.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "support/check.hpp"

namespace amsvp::vp {

namespace {

/// Out of line and cold, so the throw stays off the per-instruction path.
[[noreturn, gnu::cold, gnu::noinline]] void throw_unmapped(const char* access,
                                                          std::uint32_t address) {
    char text[64];
    std::snprintf(text, sizeof text, "bus: %s unmapped address 0x%08x", access, address);
    throw std::runtime_error(text);
}

}  // namespace

void SystemBus::map_region(std::string name, std::uint32_t base, std::uint32_t size,
                           BusTarget& target) {
    AMSVP_CHECK(size > 0, "empty bus region");
    for (const Region& r : regions_) {
        const bool overlap = base < r.base + r.size && r.base < base + size;
        AMSVP_CHECK(!overlap, "overlapping bus regions");
    }
    regions_.push_back(Region{std::move(name), base, size, &target});
    const std::span<std::uint8_t> bytes = target.direct_memory();
    const std::size_t reach = std::min<std::size_t>(size, bytes.size());
    if (window_ == nullptr && reach >= 4) {
        window_ = bytes.data();
        window_base_ = base;
        window_limit_ = static_cast<std::uint32_t>(reach - 3);
    }
}

SystemBus::Region* SystemBus::decode(std::uint32_t address) {
    for (Region& r : regions_) {
        if (address >= r.base && address - r.base < r.size) {
            return r.target->maps(address - r.base) ? &r : nullptr;
        }
    }
    return nullptr;
}

std::uint32_t SystemBus::decoded_read32(std::uint32_t address) {
    Region* r = decode(address);
    if (r == nullptr) {
        throw_unmapped("read from", address);
    }
    return r->target->read32(address - r->base);
}

void SystemBus::decoded_write32(std::uint32_t address, std::uint32_t value) {
    Region* r = decode(address);
    if (r == nullptr) {
        throw_unmapped("write to", address);
    }
    r->target->write32(address - r->base, value);
}

std::uint8_t SystemBus::read8(std::uint32_t address) {
    const std::uint32_t word = read32(address & ~3u);
    const std::uint32_t lane = address & 3u;
    return static_cast<std::uint8_t>(word >> (8 * lane));
}

void SystemBus::write8(std::uint32_t address, std::uint8_t value) {
    const std::uint32_t aligned = address & ~3u;
    const std::uint32_t lane = address & 3u;
    std::uint32_t word = read32(aligned);
    word &= ~(0xFFu << (8 * lane));
    word |= static_cast<std::uint32_t>(value) << (8 * lane);
    write32(aligned, word);
}

std::uint32_t Ram::read32(std::uint32_t offset) {
    AMSVP_CHECK(offset + 4 <= bytes_.size(), "RAM read out of range");
    return detail::load_le32(bytes_.data() + offset);
}

void Ram::write32(std::uint32_t offset, std::uint32_t value) {
    AMSVP_CHECK(offset + 4 <= bytes_.size(), "RAM write out of range");
    detail::store_le32(bytes_.data() + offset, value);
}

void Ram::load(std::uint32_t offset, const std::vector<std::uint32_t>& words) {
    for (std::size_t i = 0; i < words.size(); ++i) {
        write32(offset + static_cast<std::uint32_t>(4 * i), words[i]);
    }
}

void ApbBridge::attach(std::string name, std::uint32_t base, std::uint32_t size,
                       BusTarget& peripheral) {
    for (const Slot& s : slots_) {
        const bool overlap = base < s.base + s.size && s.base < base + size;
        AMSVP_CHECK(!overlap, "overlapping APB slots");
    }
    slots_.push_back(Slot{std::move(name), base, size, &peripheral});
}

const ApbBridge::Slot* ApbBridge::decode(std::uint32_t offset) const {
    for (const Slot& s : slots_) {
        if (offset >= s.base && offset < s.base + s.size) {
            return &s;
        }
    }
    return nullptr;
}

bool ApbBridge::maps(std::uint32_t offset) const { return decode(offset) != nullptr; }

std::uint32_t ApbBridge::read32(std::uint32_t offset) {
    const Slot* s = decode(offset);
    AMSVP_CHECK(s != nullptr, "APB read decodes to no peripheral");
    ++transfers_;  // setup phase + access phase
    return s->peripheral->read32(offset - s->base);
}

void ApbBridge::write32(std::uint32_t offset, std::uint32_t value) {
    const Slot* s = decode(offset);
    AMSVP_CHECK(s != nullptr, "APB write decodes to no peripheral");
    ++transfers_;
    s->peripheral->write32(offset - s->base, value);
}

}  // namespace amsvp::vp
