// In-process execution of SignalFlowModel programs.
//
// This is the "plain C++" backend of the paper's evaluation: the generated
// model runs as a flat sequence of compiled expressions over a slot file,
// with no simulation kernel around it. The same compiled form is reused by
// the SystemC-DE and TDF wrappers, so backend comparisons measure kernel
// overhead, not evaluation differences.
//
// The compile artifact lives in a shared, immutable ModelLayout; a
// CompiledModel is one executing instance over it — a slot vector plus thin
// step logic. N instances of the same model can (and should) share one
// layout: see ModelLayout::compile and BatchCompiledModel for the batched
// form that also shares the slot file. codegen::OrcModel is a CompiledModel
// whose step() runs the ORC-JITed scalar kernel over the same slot file.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "abstraction/signal_flow_model.hpp"
#include "runtime/executor.hpp"
#include "runtime/model_layout.hpp"

namespace amsvp::runtime {

class CompiledModel : public ModelExecutor {
public:
    explicit CompiledModel(const abstraction::SignalFlowModel& model);

    /// Instance over a pre-compiled layout (no compilation happens here).
    explicit CompiledModel(std::shared_ptr<const ModelLayout> layout);

    /// Reset state to the model's initial values (zeros by default).
    void reset() final;

    [[nodiscard]] std::size_t input_count() const final { return input_slots_.size(); }
    [[nodiscard]] std::size_t output_count() const final { return output_slots_.size(); }
    [[nodiscard]] double timestep() const final { return layout_->timestep(); }

    /// Input index by stimulus name; throws std::invalid_argument naming an
    /// unknown one.
    [[nodiscard]] std::size_t input_index(const std::string& name) const {
        return layout_->input_index(name);
    }

    /// Throws std::out_of_range for an index at or past input_count().
    void set_input(std::size_t index, double value) final;

    /// Evaluate one step at absolute time `time_seconds` (drives $abstime),
    /// then rotate history.
    void step(double time_seconds) override;

    /// Throws std::out_of_range for an index at or past output_count().
    [[nodiscard]] double output(std::size_t index) const final;

    /// Value of an arbitrary model symbol at the current step (testing).
    [[nodiscard]] double value_of(const expr::Symbol& symbol) const;

    /// Raw slot value (testing: slot-for-slot differentials against
    /// generated code, which exposes the same layout via slot_value()).
    [[nodiscard]] double slot_value(int slot) const {
        return slots_.at(static_cast<std::size_t>(slot));
    }

    [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

    /// The shared compile artifact (pass to more instances to reuse it).
    [[nodiscard]] const std::shared_ptr<const ModelLayout>& layout() const { return layout_; }

    /// The fused instruction stream (tests/diagnostics).
    [[nodiscard]] const expr::FusedProgram& fused_program() const {
        return layout_->fused_program();
    }

protected:
    /// The slot file, slot_count() doubles in layout order.
    [[nodiscard]] double* slot_data() { return slots_.data(); }

private:
    std::shared_ptr<const ModelLayout> layout_;
    std::vector<double> slots_;
    /// The layout's input and output slot indices, held here so set_input
    /// and output (every analog step of the DE and TDF wrappers) reach
    /// them without going through layout_. The immutable layout owns them.
    std::span<const int> input_slots_;
    std::span<const int> output_slots_;
};

}  // namespace amsvp::runtime
