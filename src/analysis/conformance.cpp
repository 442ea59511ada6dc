#include "analysis/conformance.hpp"

#include <set>
#include <string>

#include "analysis/dataflow.hpp"
#include "analysis/program_view.hpp"
#include "codegen/emit_common.hpp"
#include "codegen/llvm_lowering.hpp"
#include "codegen/orc_jit.hpp"
#include "runtime/lane_layout.hpp"
#include "runtime/model_layout.hpp"

namespace amsvp::analysis {
namespace {

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
    std::size_t count = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size())) {
        ++count;
    }
    return count;
}

/// The name the renderer gives `slot`: a model slot's variable name or a
/// scratch register's `_t<n>` local.
std::string slot_name(const codegen::detail::EmitPlan& plan, std::int32_t slot) {
    if (slot < static_cast<std::int32_t>(plan.slot_names.size())) {
        return plan.slot_names[static_cast<std::size_t>(slot)];
    }
    return "_t" +
           std::to_string(slot - static_cast<std::int32_t>(plan.slot_names.size()));
}

/// Check the rendered statement stream against the IR.
void check_statements(const ProgramView& view, const codegen::detail::EmitPlan& plan,
                      support::DiagnosticEngine& diags) {
    const std::vector<std::string>& statements = plan.assignments;
    if (statements.size() != view.code->size()) {
        diags.error({}, "statement count " + std::to_string(statements.size()) +
                            " != instruction count " +
                            std::to_string(view.code->size()));
        return;
    }
    for (std::size_t i = 0; i < statements.size(); ++i) {
        const expr::FusedInstr& instr = (*view.code)[i];
        const std::string& text = statements[i];
        const std::string prefix = "instr #" + std::to_string(i) + ": statement ";
        const std::string expected_dst = slot_name(plan, instr.dst) + " = ";
        if (text.rfind(expected_dst, 0) != 0) {
            diags.error({}, prefix + "does not assign dst slot " +
                                std::to_string(instr.dst) + " (expected \"" +
                                expected_dst + "\", got \"" + text + "\")");
            continue;
        }
        const std::string rhs = text.substr(expected_dst.size());
        for_each_read_slot(instr, *view.lin_terms, [&](std::int32_t slot, int role) {
            if (view.is_constant_slot(slot)) {
                return;  // pooled constants inline as literals
            }
            const std::string name = slot_name(plan, slot);
            if (rhs.find(name) == std::string::npos) {
                diags.error({}, prefix + "never reads operand " +
                                    std::to_string(role) + " (slot " +
                                    std::to_string(slot) + ", \"" + name +
                                    "\") in \"" + rhs + "\"");
            }
        });
    }
}

}  // namespace

bool verify_emit_plan(const runtime::ModelLayout& layout,
                      const codegen::detail::EmitPlan& plan,
                      support::DiagnosticEngine& diags) {
    const std::size_t before = diags.error_count();
    const ProgramView view = view_of(layout);

    check_statements(view, plan, diags);

    std::set<std::int32_t> scratch_regs;
    for (const expr::FusedInstr& instr : *view.code) {
        if (instr.dst >= view.model_slot_count) {
            scratch_regs.insert(instr.dst);
        }
    }
    if (plan.scratch_locals.size() != scratch_regs.size()) {
        diags.error({}, "scratch local count " +
                            std::to_string(plan.scratch_locals.size()) +
                            " != distinct scratch registers " +
                            std::to_string(scratch_regs.size()));
    }

    std::size_t history_slots = 0;
    for (const auto& r : layout.rotations()) {
        history_slots += static_cast<std::size_t>(r.depth);
    }
    if (plan.rotations.size() != history_slots) {
        diags.error({}, "rotation statement count " +
                            std::to_string(plan.rotations.size()) +
                            " != history slot count " + std::to_string(history_slots));
    }
    return diags.error_count() == before;
}

bool verify_orc_lowering(const std::shared_ptr<const runtime::ModelLayout>& layout,
                         support::DiagnosticEngine& diags) {
    if (!codegen::orc_available()) {
        diags.note({}, "ORC lowering conformance skipped: built without LLVM");
        return true;
    }
    const std::size_t before = diags.error_count();

    // One row load per distinct upward-exposed slot — a use that reaching
    // definitions traces to no def in the pass. The dataflow pass is the
    // oracle here, independent of the lowering's own SSA bookkeeping.
    const ProgramView view = view_of(*layout);
    const DefUse du = compute_def_use(view);
    const ReachingDefs reaching = compute_reaching_defs(view, du);
    std::set<std::int32_t> exposed;
    for (std::size_t u = 0; u < du.uses.size(); ++u) {
        if (reaching.use_defs[u] < 0) {
            exposed.insert(du.uses[u]);
        }
    }
    const std::string vector_row =
        "<" + std::to_string(runtime::LaneLayout::kVectorRow) + " x double>";
    for (const int row_width : {runtime::LaneLayout::kVectorRow, 1}) {
        const bool scalar = row_width == 1;
        const std::string prefix = scalar ? "ORC scalar kernel: " : "ORC batch kernel: ";
        std::string error;
        const auto lowered = codegen::lower_to_ir_text(layout, row_width, &error);
        if (!lowered) {
            diags.error({}, prefix + "lowering failed: " + error);
            continue;
        }
        const std::string& ir = lowered->unoptimized;
        const auto expect_count = [&](const std::string& needle, std::size_t expected,
                                      const std::string& why) {
            const std::size_t found = count_occurrences(ir, needle);
            if (found != expected) {
                diags.error({}, prefix + std::to_string(found) + " \"" + needle +
                                    "\", expected " + std::to_string(expected) + " (" + why +
                                    ")");
            }
        };
        // One row store per instruction (history rotation uses llvm.memcpy,
        // never a store); a wrong row width drops them all. The batch
        // kernel moves whole <kVectorRow x double> rows, the scalar kernel
        // single doubles and no vector rows at all.
        const std::string row = scalar ? "double" : vector_row;
        expect_count("store " + row, layout->fused_program().instructions().size(),
                     "one per instruction; row width drifted from the kernel's?");
        expect_count("load " + row, exposed.size(), "one per distinct upward-exposed slot");
        expect_count("define ", 1, "the kernel is the only function defined");
        expect_count(scalar ? "define void @amsvp_orc_step(" : "define void @amsvp_orc_step_batch(",
                     1, "the kernel's entry point");
        if (scalar) {
            expect_count(vector_row, 0, "no vector rows");
        } else {
            expect_count("load double", 0, "rows move whole");
            expect_count("store double", 0, "rows move whole");
        }
    }
    return diags.error_count() == before;
}

}  // namespace amsvp::analysis
