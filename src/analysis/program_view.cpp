#include "analysis/program_view.hpp"

#include <algorithm>

#include "runtime/model_layout.hpp"
#include "support/check.hpp"

namespace amsvp::analysis {

bool ProgramView::is_constant_slot(std::int32_t slot) const {
    if (constants == nullptr) {
        return false;
    }
    return std::any_of(constants->begin(), constants->end(),
                       [slot](const auto& c) { return c.first == slot; });
}

bool ProgramView::is_history_slot(std::int32_t slot) const {
    return std::any_of(rotations.begin(), rotations.end(), [slot](const Rotation& r) {
        return slot > r.base && slot <= r.base + r.depth;
    });
}

ProgramView view_of(const runtime::ModelLayout& layout) {
    const expr::FusedProgram& program = layout.fused_program();
    ProgramView view;
    view.code = &program.instructions();
    view.lin_terms = &program.lin_terms();
    view.constants = &program.constants();
    view.model_slot_count = static_cast<std::int32_t>(layout.model_slot_count());
    view.scratch_count = program.scratch_count();
    view.output_slots.assign(layout.output_slots().begin(), layout.output_slots().end());
    view.input_slots.assign(layout.input_slots().begin(), layout.input_slots().end());
    view.rotations.reserve(layout.rotations().size());
    for (const auto& r : layout.rotations()) {
        view.rotations.push_back(Rotation{r.base, r.depth});
    }
    view.time_slot = layout.time_slot();
    return view;
}

bool opcode_valid(expr::FusedOp op) {
    return static_cast<std::uint8_t>(op) <=
           static_cast<std::uint8_t>(expr::FusedOp::kLinComb);
}

}  // namespace amsvp::analysis
