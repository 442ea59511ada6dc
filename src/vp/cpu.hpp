// MIPS-I-subset instruction-set simulator: the digital core of the virtual
// platform ("a MIPS-based CPU executing assembly instructions contained in
// the memory", Section V-B).
//
// Supported instructions (no branch delay slots — the assembler in this
// repository never schedules them):
//   R-type: sll srl sra jr addu subu and or xor nor slt sltu break
//   I-type: beq bne addi addiu slti sltiu andi ori xori lui lw sw lbu sb
//   J-type: j jal
#pragma once

#include <array>
#include <cstdint>

#include "vp/bus.hpp"

namespace amsvp::vp {

struct CpuStats {
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches_taken = 0;
};

class Cpu {
public:
    explicit Cpu(SystemBus& bus, std::uint32_t reset_pc = 0) : bus_(bus), pc_(reset_pc) {}

    /// Execute one instruction. No-op when halted. Throws std::runtime_error
    /// naming the word and its address for an instruction outside the
    /// subset above, and the bus's error for an unmapped access.
    void step();

    [[nodiscard]] bool halted() const { return halted_; }
    [[nodiscard]] std::uint32_t pc() const { return pc_; }
    [[nodiscard]] std::uint32_t reg(int index) const {
        return regs_[static_cast<std::size_t>(index)];
    }
    void set_reg(int index, std::uint32_t value) {
        if (index != 0) {
            regs_[static_cast<std::size_t>(index)] = value;
        }
    }
    void reset(std::uint32_t pc);

    [[nodiscard]] const CpuStats& stats() const { return stats_; }

    /// Set by the last executed instruction: true when it touched the bus
    /// beyond the fetch (used by the RTL-fidelity wrapper to mirror data-bus
    /// activity onto kernel signals).
    [[nodiscard]] bool last_was_memory_access() const { return last_memory_access_; }
    [[nodiscard]] std::uint32_t last_fetch_address() const { return last_fetch_address_; }

private:
    void execute(std::uint32_t instruction);

    SystemBus& bus_;
    std::array<std::uint32_t, 32> regs_{};
    std::uint32_t pc_ = 0;
    bool halted_ = false;
    CpuStats stats_;
    bool last_memory_access_ = false;
    std::uint32_t last_fetch_address_ = 0;
};

}  // namespace amsvp::vp
