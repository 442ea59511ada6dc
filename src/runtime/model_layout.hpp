// Shared, immutable compile artifact of a SignalFlowModel.
//
// A model's expensive part — the symbol→slot layout map, history depths and
// the fused register-machine program — depends only on the model, never on
// runtime state. ModelLayout captures exactly that, built once and shared
// by any number of executing instances: scalar CompiledModel objects (each
// a cheap slot vector over the layout) and BatchCompiledModel lanes (all
// instances in one strided slot file).
// Parameter sweeps and Monte-Carlo runs therefore pay one compile for N
// instances instead of N.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "abstraction/signal_flow_model.hpp"
#include "expr/fused.hpp"

namespace amsvp::runtime {

/// How a layout's assignments execute. The whole-model fused register
/// machine is the only strategy; the enum survives so call sites that
/// name it in compile() still build.
enum class EvalStrategy {
    kFused,
};

class ModelLayout {
public:
    struct SymbolSlots {
        int base = 0;   ///< slot of the current value
        int depth = 0;  ///< number of history slots behind it
    };

    /// Compile `model` once. The result is immutable and safe to share
    /// across any number of instances (and threads, read-only).
    [[nodiscard]] static std::shared_ptr<const ModelLayout> compile(
        const abstraction::SignalFlowModel& model);
    [[nodiscard]] static std::shared_ptr<const ModelLayout> compile(
        const abstraction::SignalFlowModel& model, EvalStrategy /*strategy*/) {
        return compile(model);
    }

    [[nodiscard]] double timestep() const { return timestep_; }

    /// Slots one instance occupies: model slots plus fused scratch.
    [[nodiscard]] std::size_t slot_count() const { return slot_count_; }

    /// Slots holding model symbols (inputs, targets, history, $abstime) —
    /// everything below the fused scratch area. Generated code renders
    /// these as named variables and the scratch slots as locals, so a
    /// generated model and the fused interpreter are comparable
    /// slot-for-slot over this prefix.
    [[nodiscard]] std::size_t model_slot_count() const { return model_slot_count_; }

    /// The full symbol -> slots map (codegen emitters, diagnostics).
    [[nodiscard]] const std::unordered_map<expr::Symbol, SymbolSlots, expr::SymbolHash>&
    symbol_slots() const {
        return layout_;
    }

    [[nodiscard]] std::size_t input_count() const { return input_slots_.size(); }
    [[nodiscard]] std::size_t output_count() const { return output_slots_.size(); }
    [[nodiscard]] const std::vector<int>& input_slots() const { return input_slots_; }
    [[nodiscard]] const std::vector<int>& output_slots() const { return output_slots_; }
    [[nodiscard]] int time_slot() const { return time_slot_; }

    /// Input index by stimulus name; throws std::invalid_argument naming an
    /// unknown one.
    [[nodiscard]] std::size_t input_index(const std::string& name) const;

    /// Slot of `s` delayed by `delay` steps; aborts on unknown symbols.
    [[nodiscard]] int slot_for(const expr::Symbol& s, int delay) const;

    /// Current-value + history slots of `s`; aborts on unknown symbols.
    [[nodiscard]] const SymbolSlots& slots_of(const expr::Symbol& s) const;

    [[nodiscard]] const std::vector<std::pair<int, double>>& initial_values() const {
        return initial_values_;
    }
    /// (base, depth) pairs whose history rotates after each step.
    [[nodiscard]] const std::vector<SymbolSlots>& rotations() const { return rotations_; }

    /// The fused instruction stream every engine executes or lowers.
    [[nodiscard]] const expr::FusedProgram& fused_program() const { return fused_; }

private:
    ModelLayout() = default;

    double timestep_ = 0.0;
    std::size_t slot_count_ = 0;
    std::size_t model_slot_count_ = 0;
    expr::FusedProgram fused_;
    std::unordered_map<expr::Symbol, SymbolSlots, expr::SymbolHash> layout_;
    std::vector<int> input_slots_;
    std::vector<int> output_slots_;
    int time_slot_ = -1;
    std::vector<std::pair<int, double>> initial_values_;  // slot -> value
    std::vector<SymbolSlots> rotations_;
    std::unordered_map<std::string, std::size_t> input_names_;
};

}  // namespace amsvp::runtime
