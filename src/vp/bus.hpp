// Memory bus of the virtual platform (Fig. 1's digital interconnect).
//
// The CPU issues 32-bit transactions into a SystemBus that decodes them to
// RAM or to the APB bridge; the bridge forwards to peripherals with the
// two-phase (setup/access) bookkeeping of a real APB, so bus statistics in
// the Table III experiments mean something.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace amsvp::vp {

/// A slave on the bus: offsets are relative to the mapped base.
class BusTarget {
public:
    virtual ~BusTarget() = default;
    [[nodiscard]] virtual std::uint32_t read32(std::uint32_t offset) = 0;
    virtual void write32(std::uint32_t offset, std::uint32_t value) = 0;
};

struct BusStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
};

class SystemBus {
public:
    /// Map `target` at [base, base + size). Regions must not overlap.
    void map_region(std::string name, std::uint32_t base, std::uint32_t size,
                    BusTarget& target);

    /// Throw std::runtime_error naming the address when no region maps it.
    [[nodiscard]] std::uint32_t read32(std::uint32_t address);
    void write32(std::uint32_t address, std::uint32_t value);

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

    std::vector<Region> regions_;
    BusStats stats_;
};

/// Byte-addressable RAM (little-endian).
class Ram final : public BusTarget {
public:
    explicit Ram(std::size_t size_bytes) : bytes_(size_bytes, 0) {}

    [[nodiscard]] std::uint32_t read32(std::uint32_t offset) override;
    void write32(std::uint32_t offset, std::uint32_t value) override;

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
    [[nodiscard]] Slot* decode(std::uint32_t offset);

    std::vector<Slot> slots_;
    std::uint64_t transfers_ = 0;
};

}  // namespace amsvp::vp
