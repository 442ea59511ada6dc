// Memory bus of the virtual platform (Fig. 1's digital interconnect).
//
// The CPU issues 32-bit transactions into a SystemBus that decodes them to
// RAM or to the APB bridge; the bridge forwards to peripherals with the
// two-phase (setup/access) bookkeeping of a real APB, so bus statistics in
// the Table III experiments mean something. RAM is decoded once, when it
// is mapped: the bus keeps a window onto its bytes (the idea of TLM-2.0's
// direct memory interface) and serves every fetch, load and store inside
// it without a decode or a virtual call, counting each as before.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace amsvp::vp {

namespace detail {

/// Little-endian word access to host bytes (the bus's byte-lane order).
[[nodiscard]] inline std::uint32_t load_le32(const std::uint8_t* bytes) {
    return static_cast<std::uint32_t>(bytes[0]) | (static_cast<std::uint32_t>(bytes[1]) << 8) |
           (static_cast<std::uint32_t>(bytes[2]) << 16) |
           (static_cast<std::uint32_t>(bytes[3]) << 24);
}
inline void store_le32(std::uint8_t* bytes, std::uint32_t value) {
    bytes[0] = static_cast<std::uint8_t>(value);
    bytes[1] = static_cast<std::uint8_t>(value >> 8);
    bytes[2] = static_cast<std::uint8_t>(value >> 16);
    bytes[3] = static_cast<std::uint8_t>(value >> 24);
}

}  // namespace detail

/// A slave on the bus: offsets are relative to the mapped base.
class BusTarget {
public:
    virtual ~BusTarget() = default;
    [[nodiscard]] virtual std::uint32_t read32(std::uint32_t offset) = 0;
    virtual void write32(std::uint32_t offset, std::uint32_t value) = 0;

    /// True when a word at `offset` reaches something in this target; the
    /// bus decodes an address to the target only then, and otherwise throws
    /// naming the address. Every offset inside the region by default.
    [[nodiscard]] virtual bool maps(std::uint32_t /*offset*/) const { return true; }

    /// Direct memory access: a target whose contents are plain host bytes,
    /// little-endian, at an address fixed for its lifetime, returns them,
    /// and the bus then reads and writes them itself instead of calling
    /// read32/write32. Empty (null) by default: every access stays a call.
    [[nodiscard]] virtual std::span<std::uint8_t> direct_memory() { return {}; }
};

struct BusStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
};

class SystemBus {
public:
    /// Map `target` at [base, base + size). Regions must not overlap. The
    /// first region whose target offers direct_memory() becomes the window.
    void map_region(std::string name, std::uint32_t base, std::uint32_t size,
                    BusTarget& target);

    /// Throw std::runtime_error naming the address when no region maps the
    /// whole word there (see BusTarget::maps). A word wholly inside the
    /// window is served inline.
    [[nodiscard]] std::uint32_t read32(std::uint32_t address) {
        ++stats_.reads;
        const std::uint32_t offset = address - window_base_;
        if (offset < window_limit_) [[likely]] {
            return detail::load_le32(window_ + offset);
        }
        return decoded_read32(address);
    }
    void write32(std::uint32_t address, std::uint32_t value) {
        ++stats_.writes;
        const std::uint32_t offset = address - window_base_;
        if (offset < window_limit_) [[likely]] {
            detail::store_le32(window_ + offset, value);
            return;
        }
        decoded_write32(address, value);
    }

    /// Sub-word access implemented over aligned 32-bit transactions
    /// (little-endian byte lanes, as a real bus bridge would).
    [[nodiscard]] std::uint8_t read8(std::uint32_t address);
    void write8(std::uint32_t address, std::uint8_t value);

    [[nodiscard]] const BusStats& stats() const { return stats_; }

private:
    struct Region {
        std::string name;
        std::uint32_t base;
        std::uint32_t size;
        BusTarget* target;
    };
    [[nodiscard]] Region* decode(std::uint32_t address);
    [[nodiscard]] std::uint32_t decoded_read32(std::uint32_t address);
    void decoded_write32(std::uint32_t address, std::uint32_t value);

    std::vector<Region> regions_;
    BusStats stats_;
    /// The window: bytes of the mapped target at window_base_. An offset
    /// from the base is in the window when a whole word fits there, i.e.
    /// below window_limit_ (0 while nothing is mapped with direct memory).
    std::uint8_t* window_ = nullptr;
    std::uint32_t window_base_ = 0;
    std::uint32_t window_limit_ = 0;
};

/// Byte-addressable RAM (little-endian).
class Ram final : public BusTarget {
public:
    explicit Ram(std::size_t size_bytes) : bytes_(size_bytes, 0) {}

    [[nodiscard]] std::uint32_t read32(std::uint32_t offset) override;
    void write32(std::uint32_t offset, std::uint32_t value) override;
    /// A word maps when all four of its bytes lie in RAM.
    [[nodiscard]] bool maps(std::uint32_t offset) const override {
        return bytes_.size() >= 4 && offset <= bytes_.size() - 4;
    }
    /// The bytes never move: the vector is sized once, at construction.
    [[nodiscard]] std::span<std::uint8_t> direct_memory() override { return bytes_; }

    /// Bulk load (program images).
    void load(std::uint32_t offset, const std::vector<std::uint32_t>& words);

    [[nodiscard]] std::size_t size() const { return bytes_.size(); }

private:
    std::vector<std::uint8_t> bytes_;
};

/// APB bridge: decodes a peripheral window and forwards with setup/access
/// phase accounting.
class ApbBridge final : public BusTarget {
public:
    void attach(std::string name, std::uint32_t base, std::uint32_t size, BusTarget& peripheral);

    [[nodiscard]] std::uint32_t read32(std::uint32_t offset) override;
    void write32(std::uint32_t offset, std::uint32_t value) override;
    /// An offset maps when a peripheral slot decodes it.
    [[nodiscard]] bool maps(std::uint32_t offset) const override;

    /// Completed APB transfers (each costs a setup + an access phase).
    [[nodiscard]] std::uint64_t transfers() const { return transfers_; }
    /// Total APB cycles consumed (2 per transfer).
    [[nodiscard]] std::uint64_t cycles() const { return 2 * transfers_; }

private:
    struct Slot {
        std::string name;
        std::uint32_t base;
        std::uint32_t size;
        BusTarget* peripheral;
    };
    [[nodiscard]] const Slot* decode(std::uint32_t offset) const;

    std::vector<Slot> slots_;
    std::uint64_t transfers_ = 0;
};

}  // namespace amsvp::vp
