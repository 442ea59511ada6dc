// Independent reference for the fused-engine differentials: every
// assignment tree-walked on its own (expr::evaluate_tree) over the fused
// layout's model slots, in model order, then history rotated. No fusion, no
// CSE, no scratch registers — the plain per-assignment semantics the fused
// compiler must preserve.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "expr/expr.hpp"
#include "runtime/executor.hpp"
#include "runtime/model_layout.hpp"

namespace amsvp::testing_support {

class ReferenceExecutor final : public runtime::ModelExecutor {
public:
    explicit ReferenceExecutor(const abstraction::SignalFlowModel& model)
        : layout_(runtime::ModelLayout::compile(model)), slots_(layout_->model_slot_count()) {
        resolver_ = [layout = layout_](const expr::Symbol& s, int delay) {
            return layout->slot_for(s, delay);
        };
        for (const abstraction::Assignment& a : model.assignments) {
            assignments_.emplace_back(layout_->slot_for(a.target, 0), a.value);
        }
        reset();
    }

    void reset() override {
        std::fill(slots_.begin(), slots_.end(), 0.0);
        for (const auto& [slot, value] : layout_->initial_values()) {
            slots_[static_cast<std::size_t>(slot)] = value;
        }
    }
    void set_input(std::size_t index, double value) override {
        slots_[static_cast<std::size_t>(layout_->input_slots().at(index))] = value;
    }
    void step(double time_seconds) override {
        slots_[static_cast<std::size_t>(layout_->time_slot())] = time_seconds;
        for (const auto& [slot, value] : assignments_) {
            slots_[static_cast<std::size_t>(slot)] =
                expr::evaluate_tree(value, resolver_, slots_.data());
        }
        for (const runtime::ModelLayout::SymbolSlots& r : layout_->rotations()) {
            for (int k = r.depth; k >= 1; --k) {
                slots_[static_cast<std::size_t>(r.base + k)] =
                    slots_[static_cast<std::size_t>(r.base + k - 1)];
            }
        }
    }
    [[nodiscard]] double output(std::size_t index) const override {
        return slots_[static_cast<std::size_t>(layout_->output_slots().at(index))];
    }
    [[nodiscard]] std::size_t input_count() const override { return layout_->input_count(); }
    [[nodiscard]] std::size_t output_count() const override { return layout_->output_count(); }
    [[nodiscard]] double timestep() const override { return layout_->timestep(); }

    [[nodiscard]] double value_of(const expr::Symbol& symbol) const {
        return slots_[static_cast<std::size_t>(layout_->slot_for(symbol, 0))];
    }

private:
    std::shared_ptr<const runtime::ModelLayout> layout_;
    std::vector<double> slots_;
    expr::SlotResolver resolver_;
    std::vector<std::pair<int, expr::ExprPtr>> assignments_;
};

}  // namespace amsvp::testing_support
