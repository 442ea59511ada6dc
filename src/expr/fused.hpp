// Fused register-machine compilation of assignment lists.
//
// The one expression engine of the library: signal-flow models, the SPICE
// engine's residual rows and the ELN engine's right-hand-side offsets all
// compile here. All assignments of a program become a single flat stream of
// three-address instructions that read and write the slot file directly:
//
//  * every operand names a slot, every result lands in one;
//  * constant folding and a constant pool shared across assignments;
//  * common-subexpression elimination across assignment boundaries
//    (pointer identity for shared subtrees plus structural hashing for
//    rebuilt ones), invalidated when a depended-on slot is rewritten;
//  * superinstructions: immediate-operand arithmetic (load-op), fused
//    multiply-add, and a linear-combination instruction
//    y = c0 + sum(ci * xi) — the dominant shape of discretized RC/opamp
//    models, where one instruction replaces an entire assignment.
//
// Temporaries live in scratch slots appended after the caller's slot file;
// scratch registers are single-assignment during compilation, which keeps
// CSE sound. A liveness post-pass (last-use scan over the straight-line
// stream) then compacts them onto a small recycled register pool, so the
// scratch area stays cache-resident even on large models — and, replicated
// per lane, cheap in batch execution.
//
// Execution has two entry points over the same instruction semantics:
// execute() for one instance (contiguous slot file, stride 1), and
// execute_batch() for N instances stored in one padded strided slot file
// following runtime::LaneLayout: slot i of lane l at
// slots[i * LaneLayout::padded_width(batch) + l], lanes row-minor. Pinned
// row-multiple widths run constant-trip lane loops; every other width runs
// constant-trip row blocks over the whole padded width — ghost lanes
// compute as throwaway instances, so odd widths vectorize with no scalar
// tail. The scalar path is the batch == 1 specialization of the same
// interpreter body — there is one source of truth for operator semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "expr/expr.hpp"

namespace amsvp::expr {

enum class FusedOp : std::uint8_t {
    kConst,  ///< s[dst] = imm
    kCopy,   ///< s[dst] = s[a]
    // Unary: s[dst] = op(s[a]).
    kNeg,
    kNot,
    kExp,
    kLn,
    kLog10,
    kSqrt,
    kSin,
    kCos,
    kTan,
    kAbs,
    // Binary: s[dst] = s[a] op s[b].
    kAdd,
    kSub,
    kMul,
    kDiv,
    kPow,
    kMin,
    kMax,
    kLt,
    kLe,
    kGt,
    kGe,
    kEq,
    kNe,
    kAnd,
    kOr,
    // Immediate-operand forms (load-op fusion for constant operands).
    kAddImm,   ///< s[dst] = s[a] + imm
    kSubImm,   ///< s[dst] = s[a] - imm
    kRSubImm,  ///< s[dst] = imm - s[a]
    kMulImm,   ///< s[dst] = s[a] * imm
    kDivImm,   ///< s[dst] = s[a] / imm
    kRDivImm,  ///< s[dst] = imm / s[a]
    // Fused multiply-add family (two roundings, same as the unfused pair).
    kMulAdd,     ///< s[dst] = s[a] * s[b] + s[c]
    kMulSub,     ///< s[dst] = s[a] * s[b] - s[c]
    kMulRSub,    ///< s[dst] = s[c] - s[a] * s[b]
    kMulAddImm,  ///< s[dst] = s[a] * imm + s[b]
    kSelect,     ///< s[dst] = s[a] != 0 ? s[b] : s[c]
    kLinComb,    ///< s[dst] = imm + sum over lin_terms()[a .. a+b)
};

[[nodiscard]] std::string_view to_string(FusedOp op);

struct FusedInstr {
    FusedOp op;
    std::int32_t dst = 0;
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::int32_t c = 0;
    double imm = 0.0;
};

/// One term of a kLinComb instruction: coeff * s[slot].
struct LinTerm {
    std::int32_t slot = 0;
    double coeff = 0.0;
};

class FusedProgram {
public:
    /// One model assignment: `target_slot := value`.
    struct AssignmentSpec {
        int target_slot = 0;
        ExprPtr value;
    };

    FusedProgram() = default;

    /// Compile all assignments (in execution order) against a slot file of
    /// `slot_file_size` slots. Scratch registers and the constant pool are
    /// allocated at indices [slot_file_size, slot_file_size + scratch_count()).
    /// Expressions must be free of ddt/idt (discretized); violations abort.
    [[nodiscard]] static FusedProgram compile(const std::vector<AssignmentSpec>& assignments,
                                              const SlotResolver& resolver, int slot_file_size);

    /// Extra slots the caller must append to the slot file (after liveness
    /// compaction; constants and recycled temporaries).
    [[nodiscard]] int scratch_count() const { return scratch_count_; }

    /// Scratch registers the compiler allocated before the liveness pass
    /// compacted them (diagnostics / regression tests).
    [[nodiscard]] int uncompacted_scratch_count() const { return uncompacted_scratch_count_; }

    /// Write the constant pool into the slot file. Call once after the slot
    /// file is (re)initialised, before the first execute().
    void initialize_constants(double* slots) const;

    /// Batch variant: broadcast every pooled constant across the `batch`
    /// live lanes of a runtime::LaneLayout slot file (row stride
    /// LaneLayout::padded_width(batch); padding lanes stay untouched).
    void initialize_constants_batch(double* slots, int batch) const;

    /// Run the whole program: every assignment, in order, one pass.
    void execute(double* slots) const;

    /// Run the whole program over `batch` instances at once. The slot file
    /// follows runtime::LaneLayout — slot i of lane l at
    /// slots[i * LaneLayout::padded_width(batch) + l] — and every
    /// instruction runs whole kVectorRow-wide lane rows across the padded
    /// width (SIMD across instances at any width; ghost lanes compute as
    /// throwaway instances, never observed). Per-lane arithmetic is
    /// exactly execute()'s.
    void execute_batch(double* slots, int batch) const;

    [[nodiscard]] const std::vector<FusedInstr>& instructions() const { return code_; }
    [[nodiscard]] const std::vector<LinTerm>& lin_terms() const { return lin_terms_; }

    /// The constant pool as (slot, value) pairs. Consumers that re-render
    /// the program textually (the codegen emitters) inline these as
    /// literals instead of materializing pool slots.
    [[nodiscard]] const std::vector<std::pair<std::int32_t, double>>& constants() const {
        return const_pool_;
    }

    /// Number of instructions with opcode `op` (fusion statistics, tests).
    [[nodiscard]] std::size_t count_op(FusedOp op) const;

    /// Human-readable listing for debugging and compiler tests.
    [[nodiscard]] std::string describe() const;

private:
    friend class FusedCompiler;

    /// Shared interpreter body; kStaticBatch > 0 pins the lane count at
    /// compile time (1 = the scalar specialization), 0 reads `batch`.
    /// kStaticStride likewise pins the slot-row stride (the pinned batch
    /// widths are row-multiples, so their stride equals the lane count;
    /// the scalar execute() runs stride 1, a width-1 batch row stride
    /// LaneLayout::padded_width(1)). The dynamic form (0, 0) iterates
    /// constant-trip row blocks over the whole padded width, per
    /// LaneLayout — ghost lanes included, no scalar tail.
    template <int kStaticBatch, int kStaticStride>
    void execute_impl(double* slots, int batch, std::ptrdiff_t stride) const;

    std::vector<FusedInstr> code_;
    std::vector<LinTerm> lin_terms_;
    std::vector<std::pair<std::int32_t, double>> const_pool_;  ///< slot -> value
    int scratch_count_ = 0;
    int uncompacted_scratch_count_ = 0;
};

}  // namespace amsvp::expr
