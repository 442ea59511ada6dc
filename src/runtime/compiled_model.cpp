#include "runtime/compiled_model.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace amsvp::runtime {

using expr::Symbol;

CompiledModel::CompiledModel(const abstraction::SignalFlowModel& model)
    : CompiledModel(ModelLayout::compile(model)) {}

CompiledModel::CompiledModel(std::shared_ptr<const ModelLayout> layout)
    : layout_(std::move(layout)) {
    AMSVP_CHECK(layout_ != nullptr, "CompiledModel needs a layout");
    slots_.assign(layout_->slot_count(), 0.0);
    reset();
}

void CompiledModel::reset() {
    std::fill(slots_.begin(), slots_.end(), 0.0);
    for (const auto& [slot, value] : layout_->initial_values()) {
        slots_[static_cast<std::size_t>(slot)] = value;
    }
    layout_->fused_program().initialize_constants(slots_.data());
}

void CompiledModel::set_input(std::size_t index, double value) {
    AMSVP_CHECK(index < layout_->input_count(), "input index out of range");
    slots_[static_cast<std::size_t>(layout_->input_slots()[index])] = value;
}

void CompiledModel::step(double time_seconds) {
    const ModelLayout& l = *layout_;
    slots_[static_cast<std::size_t>(l.time_slot())] = time_seconds;
    double* slots = slots_.data();
    l.fused_program().execute(slots);
    // Rotate history: current value becomes delay-1, and so on.
    for (const ModelLayout::SymbolSlots& r : l.rotations()) {
        for (int k = r.depth; k >= 1; --k) {
            slots[r.base + k] = slots[r.base + k - 1];
        }
    }
}

double CompiledModel::output(std::size_t index) const {
    AMSVP_CHECK(index < layout_->output_count(), "output index out of range");
    return slots_[static_cast<std::size_t>(layout_->output_slots()[index])];
}

double CompiledModel::value_of(const Symbol& symbol) const {
    return slots_[static_cast<std::size_t>(layout_->slot_for(symbol, 0))];
}

}  // namespace amsvp::runtime
