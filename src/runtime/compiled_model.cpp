#include "runtime/compiled_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "support/check.hpp"

namespace amsvp::runtime {

using expr::Symbol;

namespace {

/// Out of line and cold: set_input and output run on every analog step of
/// the DE platform, so their check must cost one compare, not a string.
[[noreturn]] [[gnu::cold]] [[gnu::noinline]] void throw_index_out_of_range(
    const char* what, std::size_t index, std::size_t count) {
    throw std::out_of_range(std::string(what) + " index " + std::to_string(index) +
                            " out of range: the model has " + std::to_string(count));
}

}  // namespace

CompiledModel::CompiledModel(const abstraction::SignalFlowModel& model)
    : CompiledModel(ModelLayout::compile(model)) {}

CompiledModel::CompiledModel(std::shared_ptr<const ModelLayout> layout)
    : layout_(std::move(layout)) {
    AMSVP_CHECK(layout_ != nullptr, "CompiledModel needs a layout");
    input_slots_ = layout_->input_slots();
    output_slots_ = layout_->output_slots();
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
    if (index >= input_slots_.size()) [[unlikely]] {
        throw_index_out_of_range("input", index, input_slots_.size());
    }
    slots_[static_cast<std::size_t>(input_slots_[index])] = value;
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
    if (index >= output_slots_.size()) [[unlikely]] {
        throw_index_out_of_range("output", index, output_slots_.size());
    }
    return slots_[static_cast<std::size_t>(output_slots_[index])];
}

double CompiledModel::value_of(const Symbol& symbol) const {
    return slots_[static_cast<std::size_t>(layout_->slot_for(symbol, 0))];
}

}  // namespace amsvp::runtime
