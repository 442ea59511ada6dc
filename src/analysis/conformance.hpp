// Lowering conformance: re-verify the program each backend actually runs.
//
// The structural verifier proves the IR itself well-formed; these checks
// prove each *lowering* still carries that IR faithfully. They are
// deliberately shape-level (counts, destinations, operand mentions) rather
// than full parsers of the generated text — strong enough to catch the
// real drift modes (an emitter case falling out of sync with an opcode, a
// dropped statement, rotation reordering, the ORC row width diverging from
// runtime::LaneLayout) while staying cheap enough to run on every
// `codegen_tool --verify`.
//
//  * verify_emit_plan: the C++/SystemC emitters' EmitPlan must carry one
//    statement per fused instruction, each assigning the instruction's dst
//    under the documented naming (named model slots / `_t<n>` scratch
//    locals), mentioning every non-constant read operand, with one scratch
//    local per distinct scratch register and one rotation statement per
//    history slot.
//  * verify_orc_lowering: the ORC JIT's unoptimized IR, for both kernels,
//    must define only that kernel, store one row per instruction, and load
//    one row per distinct upward-exposed slot — the count
//    compute_reaching_defs derives independently of the lowering. The
//    batch kernel's rows are whole LaneLayout::kVectorRow-wide vectors; the
//    scalar kernel's are single doubles, with no vector row anywhere.
#pragma once

#include <memory>

#include "support/diagnostics.hpp"

namespace amsvp::runtime {
class ModelLayout;
}  // namespace amsvp::runtime
namespace amsvp::codegen::detail {
struct EmitPlan;
}  // namespace amsvp::codegen::detail

namespace amsvp::analysis {

/// Check `plan` (built from `layout`) against the fused IR. Returns true
/// when conformant; problems are errors in `diags` naming the instruction.
[[nodiscard]] bool verify_emit_plan(const runtime::ModelLayout& layout,
                                    const codegen::detail::EmitPlan& plan,
                                    support::DiagnosticEngine& diags);

/// Lower `layout` through the ORC pipeline, as the batch and as the scalar
/// kernel, and check each unoptimized IR's row load/store counts, row width
/// and entry point. Without LLVM
/// (AMSVP_WITH_LLVM=OFF) this records a note and returns true — there is
/// no lowering to drift.
[[nodiscard]] bool verify_orc_lowering(
    const std::shared_ptr<const runtime::ModelLayout>& layout,
    support::DiagnosticEngine& diags);

}  // namespace amsvp::analysis
