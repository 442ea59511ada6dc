#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/diagnostics.hpp"
#include "vp/assembler.hpp"
#include "vp/cpu.hpp"
#include "vp/firmware.hpp"
#include "vp/uart.hpp"

namespace amsvp::vp {
namespace {

/// Assemble + load + run until halt (bounded), returning the CPU for
/// register inspection.
struct TestMachine {
    explicit TestMachine(std::string_view source) : ram(64 * 1024) {
        support::DiagnosticEngine diags;
        auto program = assemble(source, 0, diags);
        EXPECT_TRUE(program.has_value()) << diags.render_all();
        if (program) {
            ram.load(0, program->words);
        }
        bus.map_region("ram", 0, 64 * 1024, ram);
        bus.map_region("apb", kApbBase, 0x10000, apb);
        apb.attach("uart", 0, 0x1000, uart);
        cpu = std::make_unique<Cpu>(bus, 0);
    }

    void run(int max_instructions = 100000) {
        for (int i = 0; i < max_instructions && !cpu->halted(); ++i) {
            cpu->step();
        }
        EXPECT_TRUE(cpu->halted()) << "program did not halt";
    }

    Ram ram;
    Uart uart;
    ApbBridge apb;
    SystemBus bus;
    std::unique_ptr<Cpu> cpu;
};

int reg_index(const char* name) {
    static const std::map<std::string, int> names = {
        {"t0", 8}, {"t1", 9}, {"t2", 10}, {"t3", 11}, {"v0", 2}, {"s0", 16}, {"ra", 31}};
    return names.at(name);
}

TEST(Cpu, ArithmeticAndLogic) {
    TestMachine m(R"(
        li   $t0, 7
        li   $t1, 5
        addu $t2, $t0, $t1    # 12
        subu $t3, $t0, $t1    # 2
        and  $s0, $t0, $t1    # 5
        or   $v0, $t0, $t1    # 7
        halt
    )");
    m.run();
    EXPECT_EQ(m.cpu->reg(reg_index("t2")), 12u);
    EXPECT_EQ(m.cpu->reg(reg_index("t3")), 2u);
    EXPECT_EQ(m.cpu->reg(reg_index("s0")), 5u);
    EXPECT_EQ(m.cpu->reg(reg_index("v0")), 7u);
}

TEST(Cpu, ShiftsAndSetLessThan) {
    TestMachine m(R"(
        li   $t0, 0x80000000
        srl  $t1, $t0, 4      # logical: 0x08000000
        sra  $t2, $t0, 4      # arithmetic: 0xF8000000
        li   $t3, 1
        sll  $t3, $t3, 10     # 1024
        slt  $s0, $t0, $t3    # signed: 0x80000000 < 1024 -> 1
        sltu $v0, $t0, $t3    # unsigned: -> 0
        halt
    )");
    m.run();
    EXPECT_EQ(m.cpu->reg(reg_index("t1")), 0x08000000u);
    EXPECT_EQ(m.cpu->reg(reg_index("t2")), 0xF8000000u);
    EXPECT_EQ(m.cpu->reg(reg_index("t3")), 1024u);
    EXPECT_EQ(m.cpu->reg(reg_index("s0")), 1u);
    EXPECT_EQ(m.cpu->reg(reg_index("v0")), 0u);
}

TEST(Cpu, ImmediateOperations) {
    TestMachine m(R"(
        li    $t0, 100
        addiu $t1, $t0, -30    # 70
        andi  $t2, $t0, 0x6C   # 100 & 0x6C = 0x64 & 0x6C = 0x64? compute below
        ori   $t3, $t0, 0x03
        xori  $s0, $t0, 0xFF
        slti  $v0, $t0, 200    # 1
        halt
    )");
    m.run();
    EXPECT_EQ(m.cpu->reg(reg_index("t1")), 70u);
    EXPECT_EQ(m.cpu->reg(reg_index("t2")), 100u & 0x6Cu);
    EXPECT_EQ(m.cpu->reg(reg_index("t3")), 100u | 0x03u);
    EXPECT_EQ(m.cpu->reg(reg_index("s0")), 100u ^ 0xFFu);
    EXPECT_EQ(m.cpu->reg(reg_index("v0")), 1u);
}

TEST(Cpu, LoadStoreWordAndByte) {
    TestMachine m(R"(
        li   $t0, 0x1000       # scratch
        li   $t1, 0x12345678
        sw   $t1, 0($t0)
        lw   $t2, 0($t0)
        lbu  $t3, 0($t0)       # little endian: 0x78
        lbu  $s0, 3($t0)       # 0x12
        li   $v0, 0xAB
        sb   $v0, 1($t0)
        lw   $v0, 0($t0)       # 0x1234AB78
        halt
    )");
    m.run();
    EXPECT_EQ(m.cpu->reg(reg_index("t2")), 0x12345678u);
    EXPECT_EQ(m.cpu->reg(reg_index("t3")), 0x78u);
    EXPECT_EQ(m.cpu->reg(reg_index("s0")), 0x12u);
    EXPECT_EQ(m.cpu->reg(reg_index("v0")), 0x1234AB78u);
    EXPECT_EQ(m.cpu->stats().loads, 4u);
    EXPECT_EQ(m.cpu->stats().stores, 2u);
}

TEST(Cpu, BranchesAndLoop) {
    TestMachine m(R"(
        li   $t0, 0          # sum
        li   $t1, 1          # i
        li   $t2, 11
loop:   addu $t0, $t0, $t1
        addiu $t1, $t1, 1
        bne  $t1, $t2, loop
        halt
    )");
    m.run();
    EXPECT_EQ(m.cpu->reg(reg_index("t0")), 55u);
    EXPECT_GT(m.cpu->stats().branches_taken, 0u);
}

TEST(Cpu, JalAndJrImplementCalls) {
    TestMachine m(R"(
        li   $t0, 5
        jal  double
        jal  double
        halt
double: addu $t0, $t0, $t0
        jr   $ra
    )");
    m.run();
    EXPECT_EQ(m.cpu->reg(reg_index("t0")), 20u);
}

TEST(Cpu, RegisterZeroIsImmutable) {
    TestMachine m(R"(
        li   $t0, 99
        addu $zero, $t0, $t0
        move $t1, $zero
        halt
    )");
    m.run();
    EXPECT_EQ(m.cpu->reg(0), 0u);
    EXPECT_EQ(m.cpu->reg(reg_index("t1")), 0u);
}

TEST(Cpu, SelftestFirmwarePrintsOk) {
    TestMachine m(firmware_selftest());
    m.run();
    EXPECT_EQ(m.uart.transmitted(), "OK");
    EXPECT_GT(m.apb.transfers(), 0u);
}

TEST(Cpu, UartReceivePathEchoesTransformed) {
    // Drain the RX FIFO, add 1 to every byte, transmit, halt when empty.
    TestMachine m(R"(
        li   $t1, 0x10000000
loop:   lw   $t2, 4($t1)       # UART status
        andi $t3, $t2, 2       # rx available?
        beq  $t3, $zero, done
        lw   $t4, 8($t1)       # rx data
        addiu $t4, $t4, 1
        sw   $t4, 0($t1)       # tx data
        j    loop
done:   halt
    )");
    m.uart.receive("HAL");
    m.run();
    EXPECT_EQ(m.uart.transmitted(), "IBM");
}

TEST(Cpu, UartRxStatusClearsWhenDrained) {
    TestMachine m(R"(
        li   $t1, 0x10000000
        lw   $t2, 4($t1)       # status with a pending byte
        lw   $t3, 8($t1)       # drain it
        lw   $t4, 4($t1)       # status after drain
        halt
    )");
    m.uart.receive("X");
    m.run();
    EXPECT_EQ(m.cpu->reg(10) & 0x2u, 0x2u);  // $t2: rx was available
    EXPECT_EQ(m.cpu->reg(11), 'X');          // $t3: the byte
    EXPECT_EQ(m.cpu->reg(12) & 0x2u, 0x0u);  // $t4: fifo empty again
}

TEST(Cpu, HaltStopsExecution) {
    TestMachine m("halt\n");
    m.run(10);
    const auto executed = m.cpu->stats().instructions;
    m.cpu->step();  // no-op once halted
    EXPECT_EQ(m.cpu->stats().instructions, executed);
}

// The bus serves RAM from a decoded-once window (the idea of TLM-2.0's
// direct memory interface); these pin what the window must keep: fetches
// see stores, the window's last word is in range, and an address past RAM
// still decodes and throws.

TEST(BusWindow, StoredInstructionRunsWhenJumpedTo) {
    // A subroutine written at run time, called, overwritten and called
    // again: the second call must run the new instruction, not a stale one.
    TestMachine m(R"(
        li   $t1, 0x1000
        li   $t2, 0x25080001   # addiu $t0, $t0, 1
        sw   $t2, 0($t1)
        li   $t2, 0x03E00008   # jr $ra
        sw   $t2, 4($t1)
        jal  call
        li   $t2, 0x25080064   # addiu $t0, $t0, 100
        sw   $t2, 0($t1)
        jal  call
        halt
call:   jr   $t1
    )");
    m.run();
    EXPECT_EQ(m.cpu->reg(reg_index("t0")), 101u);
}

TEST(BusWindow, FetchesAndLoadsRamsLastWord) {
    TestMachine m(R"(
        li   $t0, 0xFFFC       # RAM's last word
        li   $t1, 0x0000000D   # break
        sw   $t1, 0($t0)
        lw   $t2, 0($t0)
        jr   $t0
    )");
    m.run();
    EXPECT_EQ(m.cpu->reg(reg_index("t2")), 0x0000000Du);
    EXPECT_EQ(m.cpu->pc(), 0x10000u);
}

TEST(BusWindow, AccessPastRamThrowsNamingTheAddress) {
    const auto expect_unmapped = [](std::string_view source, const std::string& message) {
        TestMachine m(source);
        try {
            for (int i = 0; i < 16; ++i) {
                m.cpu->step();
            }
            ADD_FAILURE() << "no exception; expected: " << message;
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), message);
        }
    };
    expect_unmapped("li $t0, 0x10000\njr $t0\n", "bus: read from unmapped address 0x00010000");
    expect_unmapped("li $t0, 0x10000\nlw $t1, 0($t0)\n",
                    "bus: read from unmapped address 0x00010000");
    expect_unmapped("li $t0, 0x10000\nsw $t0, 0($t0)\n",
                    "bus: write to unmapped address 0x00010000");
}

}  // namespace
}  // namespace amsvp::vp
