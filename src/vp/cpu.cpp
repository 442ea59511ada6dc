#include "vp/cpu.hpp"

#include <cstdio>
#include <stdexcept>

namespace amsvp::vp {

namespace {

/// Out of line and cold, so the throw stays off the per-instruction path.
[[noreturn, gnu::cold, gnu::noinline]] void throw_unimplemented(std::uint32_t instruction,
                                                               std::uint32_t address) {
    char text[80];
    std::snprintf(text, sizeof text, "cpu: unimplemented instruction 0x%08x at 0x%08x",
                  instruction, address);
    throw std::runtime_error(text);
}

constexpr std::uint32_t kOpSpecial = 0x00;
constexpr std::uint32_t kOpJ = 0x02;
constexpr std::uint32_t kOpJal = 0x03;
constexpr std::uint32_t kOpBeq = 0x04;
constexpr std::uint32_t kOpBne = 0x05;
constexpr std::uint32_t kOpAddi = 0x08;
constexpr std::uint32_t kOpAddiu = 0x09;
constexpr std::uint32_t kOpSlti = 0x0a;
constexpr std::uint32_t kOpSltiu = 0x0b;
constexpr std::uint32_t kOpAndi = 0x0c;
constexpr std::uint32_t kOpOri = 0x0d;
constexpr std::uint32_t kOpXori = 0x0e;
constexpr std::uint32_t kOpLui = 0x0f;
constexpr std::uint32_t kOpLw = 0x23;
constexpr std::uint32_t kOpLbu = 0x24;
constexpr std::uint32_t kOpSb = 0x28;
constexpr std::uint32_t kOpSw = 0x2b;

constexpr std::uint32_t kFnSll = 0x00;
constexpr std::uint32_t kFnSrl = 0x02;
constexpr std::uint32_t kFnSra = 0x03;
constexpr std::uint32_t kFnJr = 0x08;
constexpr std::uint32_t kFnBreak = 0x0d;
constexpr std::uint32_t kFnAddu = 0x21;
constexpr std::uint32_t kFnSubu = 0x23;
constexpr std::uint32_t kFnAnd = 0x24;
constexpr std::uint32_t kFnOr = 0x25;
constexpr std::uint32_t kFnXor = 0x26;
constexpr std::uint32_t kFnNor = 0x27;
constexpr std::uint32_t kFnSlt = 0x2a;
constexpr std::uint32_t kFnSltu = 0x2b;

constexpr std::int32_t sign_extend16(std::uint32_t v) {
    return static_cast<std::int32_t>(static_cast<std::int16_t>(v & 0xFFFF));
}

}  // namespace

void Cpu::reset(std::uint32_t pc) {
    regs_.fill(0);
    pc_ = pc;
    halted_ = false;
    stats_ = {};
}

void Cpu::step() {
    if (halted_) {
        return;
    }
    last_fetch_address_ = pc_;
    const std::uint32_t instruction = bus_.read32(pc_);
    pc_ += 4;
    execute(instruction);
    ++stats_.instructions;
}

void Cpu::execute(std::uint32_t ins) {
    last_memory_access_ = false;
    const std::uint32_t op = ins >> 26;
    const int rs = static_cast<int>((ins >> 21) & 0x1F);
    const int rt = static_cast<int>((ins >> 16) & 0x1F);
    const int rd = static_cast<int>((ins >> 11) & 0x1F);
    const std::uint32_t shamt = (ins >> 6) & 0x1F;
    const std::uint32_t funct = ins & 0x3F;
    const std::uint32_t imm_u = ins & 0xFFFF;
    const std::int32_t imm_s = sign_extend16(ins);

    auto r = [this](int i) { return regs_[static_cast<std::size_t>(i)]; };

    switch (op) {
        case kOpSpecial:
            switch (funct) {
                case kFnSll:
                    set_reg(rd, r(rt) << shamt);
                    break;
                case kFnSrl:
                    set_reg(rd, r(rt) >> shamt);
                    break;
                case kFnSra:
                    set_reg(rd, static_cast<std::uint32_t>(
                                    static_cast<std::int32_t>(r(rt)) >> shamt));
                    break;
                case kFnJr:
                    pc_ = r(rs);
                    break;
                case kFnBreak:
                    halted_ = true;
                    break;
                case kFnAddu:
                    set_reg(rd, r(rs) + r(rt));
                    break;
                case kFnSubu:
                    set_reg(rd, r(rs) - r(rt));
                    break;
                case kFnAnd:
                    set_reg(rd, r(rs) & r(rt));
                    break;
                case kFnOr:
                    set_reg(rd, r(rs) | r(rt));
                    break;
                case kFnXor:
                    set_reg(rd, r(rs) ^ r(rt));
                    break;
                case kFnNor:
                    set_reg(rd, ~(r(rs) | r(rt)));
                    break;
                case kFnSlt:
                    set_reg(rd, static_cast<std::int32_t>(r(rs)) <
                                        static_cast<std::int32_t>(r(rt))
                                    ? 1
                                    : 0);
                    break;
                case kFnSltu:
                    set_reg(rd, r(rs) < r(rt) ? 1 : 0);
                    break;
                default:
                    throw_unimplemented(ins, last_fetch_address_);
            }
            break;
        case kOpJ:
            pc_ = (pc_ & 0xF0000000u) | ((ins & 0x03FFFFFFu) << 2);
            break;
        case kOpJal:
            set_reg(31, pc_);
            pc_ = (pc_ & 0xF0000000u) | ((ins & 0x03FFFFFFu) << 2);
            break;
        case kOpBeq:
            if (r(rs) == r(rt)) {
                pc_ += static_cast<std::uint32_t>(imm_s << 2);
                ++stats_.branches_taken;
            }
            break;
        case kOpBne:
            if (r(rs) != r(rt)) {
                pc_ += static_cast<std::uint32_t>(imm_s << 2);
                ++stats_.branches_taken;
            }
            break;
        case kOpAddi:  // no overflow traps: behaves as addiu
        case kOpAddiu:
            set_reg(rt, r(rs) + static_cast<std::uint32_t>(imm_s));
            break;
        case kOpSlti:
            set_reg(rt, static_cast<std::int32_t>(r(rs)) < imm_s ? 1 : 0);
            break;
        case kOpSltiu:
            set_reg(rt, r(rs) < static_cast<std::uint32_t>(imm_s) ? 1 : 0);
            break;
        case kOpAndi:
            set_reg(rt, r(rs) & imm_u);
            break;
        case kOpOri:
            set_reg(rt, r(rs) | imm_u);
            break;
        case kOpXori:
            set_reg(rt, r(rs) ^ imm_u);
            break;
        case kOpLui:
            set_reg(rt, imm_u << 16);
            break;
        case kOpLw:
            set_reg(rt, bus_.read32(r(rs) + static_cast<std::uint32_t>(imm_s)));
            ++stats_.loads;
            last_memory_access_ = true;
            break;
        case kOpLbu:
            set_reg(rt, bus_.read8(r(rs) + static_cast<std::uint32_t>(imm_s)));
            ++stats_.loads;
            last_memory_access_ = true;
            break;
        case kOpSw:
            bus_.write32(r(rs) + static_cast<std::uint32_t>(imm_s), r(rt));
            ++stats_.stores;
            last_memory_access_ = true;
            break;
        case kOpSb:
            bus_.write8(r(rs) + static_cast<std::uint32_t>(imm_s),
                        static_cast<std::uint8_t>(r(rt)));
            ++stats_.stores;
            last_memory_access_ = true;
            break;
        default:
            throw_unimplemented(ins, last_fetch_address_);
    }
}

}  // namespace amsvp::vp
