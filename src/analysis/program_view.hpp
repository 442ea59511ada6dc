// The facts every static-analysis pass needs about one compiled fused
// program, decoupled from FusedProgram's ownership.
//
// FusedProgram hands out const references to its instruction stream, term
// table and constant pool but (deliberately) no mutable access. The passes
// in src/analysis therefore operate on a ProgramView — borrowed pointers to
// those vectors plus the layout facts (model-slot prefix size, outputs,
// history-rotation groups) that give slot indices their meaning. Production
// callers build one with view_of(ModelLayout); the verifier's mutation
// tests build views over locally corrupted copies of the same vectors,
// which is what makes every corruption class testable without a backdoor
// into the compiler.
//
// This header also owns the one def-use decode shared by every pass:
// for_each_read_slot / instruction arity mirror the operand semantics of
// FusedProgram::execute_impl (and of FusedCompiler's internal liveness
// pass). If an opcode's operand roles ever change, this is the single
// place the analyses learn about it.
#pragma once

#include <cstdint>
#include <vector>

#include "expr/fused.hpp"

namespace amsvp::runtime {
class ModelLayout;
}  // namespace amsvp::runtime

namespace amsvp::analysis {

/// One history-rotation group: slots [base, base + depth] belong to one
/// symbol; after every step, slot base+k receives slot base+k-1 (deepest
/// first). The program may write only the base (current-value) slot.
struct Rotation {
    std::int32_t base = 0;
    std::int32_t depth = 0;
};

/// Borrowed view of one compiled program plus its layout facts. The
/// pointed-to vectors must outlive the view (they live in the FusedProgram
/// / ModelLayout for production callers, in test-local copies for the
/// mutation suite).
struct ProgramView {
    const std::vector<expr::FusedInstr>* code = nullptr;
    const std::vector<expr::LinTerm>* lin_terms = nullptr;
    const std::vector<std::pair<std::int32_t, double>>* constants = nullptr;

    /// Slots holding model symbols (inputs, targets, history, $abstime);
    /// everything at or above this index is fused scratch / constant pool.
    std::int32_t model_slot_count = 0;
    /// Scratch slots appended behind the model slots (pooled constants
    /// first, then the recycled temporary registers) — must equal
    /// FusedProgram::scratch_count().
    std::int32_t scratch_count = 0;

    // Layout facts; empty/-1 when verifying a bare program (no layout).
    std::vector<std::int32_t> output_slots;
    std::vector<std::int32_t> input_slots;
    std::vector<Rotation> rotations;
    std::int32_t time_slot = -1;

    [[nodiscard]] std::int32_t total_slot_count() const {
        return model_slot_count + scratch_count;
    }
    [[nodiscard]] bool is_model_slot(std::int32_t slot) const {
        return slot >= 0 && slot < model_slot_count;
    }
    [[nodiscard]] bool is_scratch_slot(std::int32_t slot) const {
        return slot >= model_slot_count && slot < total_slot_count();
    }
    /// True when `slot` holds a pooled constant (immutable after
    /// initialize_constants; no instruction may write it).
    [[nodiscard]] bool is_constant_slot(std::int32_t slot) const;
    /// True when `slot` is a history slot (base+1 .. base+depth of some
    /// rotation group) — written only by the post-step rotation.
    [[nodiscard]] bool is_history_slot(std::int32_t slot) const;
};

/// The view of a layout's fused program. The layout must outlive the view.
[[nodiscard]] ProgramView view_of(const runtime::ModelLayout& layout);

/// True when `op` is one of the defined FusedOp values (a corrupted stream
/// can carry any byte).
[[nodiscard]] bool opcode_valid(expr::FusedOp op);

/// Apply `fn(slot, role_index)` to every slot the instruction READS, in
/// operand order. For kLinComb the reads are the term-table slots
/// [a, a+b); role_index is the term index there, and the operand position
/// (0 = a, 1 = b, 2 = c) for every other opcode. Term-table indices out of
/// range are skipped (the structural verifier reports them first).
/// Mirrors FusedProgram::execute_impl — every analysis pass and the
/// compiler's own liveness pass must agree on these roles.
template <typename Fn>
void for_each_read_slot(const expr::FusedInstr& instr,
                        const std::vector<expr::LinTerm>& lin_terms, Fn&& fn) {
    using expr::FusedOp;
    switch (instr.op) {
        case FusedOp::kConst:
            return;  // no reads; a/b/c unused
        case FusedOp::kLinComb:
            for (std::int32_t k = 0; k < instr.b; ++k) {
                const auto idx = static_cast<std::size_t>(instr.a) +
                                 static_cast<std::size_t>(k);
                if (instr.a < 0 || idx >= lin_terms.size()) {
                    continue;
                }
                fn(lin_terms[idx].slot, static_cast<int>(k));
            }
            return;
        case FusedOp::kMulAdd:
        case FusedOp::kMulSub:
        case FusedOp::kMulRSub:
        case FusedOp::kSelect:
            fn(instr.a, 0);
            fn(instr.b, 1);
            fn(instr.c, 2);
            return;
        case FusedOp::kAdd:
        case FusedOp::kSub:
        case FusedOp::kMul:
        case FusedOp::kDiv:
        case FusedOp::kPow:
        case FusedOp::kMin:
        case FusedOp::kMax:
        case FusedOp::kLt:
        case FusedOp::kLe:
        case FusedOp::kGt:
        case FusedOp::kGe:
        case FusedOp::kEq:
        case FusedOp::kNe:
        case FusedOp::kAnd:
        case FusedOp::kOr:
        case FusedOp::kMulAddImm:
            fn(instr.a, 0);
            fn(instr.b, 1);
            return;
        default:  // copy, unary ops, single-operand immediate forms
            fn(instr.a, 0);
            return;
    }
}

}  // namespace amsvp::analysis
