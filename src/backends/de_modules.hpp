// Reusable DE-kernel modules for the SystemC-DE backend: a clocked stimulus
// driver, the abstracted-model wrapper, and a sampling sink.
//
// Timing discipline (race-free, as in RTL testbenches): the stimulus writes
// the input signal on the falling edge with the value the model will sample
// on the *next* rising edge, the model evaluates on rising edges. Samples
// therefore land at t = dt, 2dt, ... — identical to every other backend.
#pragma once

#include <memory>

#include "de/clock.hpp"
#include "de/signal.hpp"
#include "numeric/sources.hpp"
#include "numeric/waveform.hpp"
#include "runtime/batch_model.hpp"
#include "runtime/compiled_model.hpp"

namespace amsvp::backends {

class DeSource {
public:
    DeSource(de::Simulator& sim, de::Clock& clock, std::string name,
             numeric::SourceFunction source);

    [[nodiscard]] de::Signal<double>& out() { return *out_; }

private:
    void on_negedge();

    de::Simulator& sim_;
    de::Clock& clock_;
    numeric::SourceFunction source_;
    std::unique_ptr<de::Signal<double>> out_;
};

class DeModel {
public:
    /// Default: in-process fused register-machine execution.
    DeModel(de::Simulator& sim, de::Clock& clock, std::string name,
            const abstraction::SignalFlowModel& model,
            std::vector<de::Signal<double>*> inputs);
    /// Custom executor (e.g. the native-compiled generated model).
    DeModel(de::Simulator& sim, de::Clock& clock, std::string name,
            const abstraction::SignalFlowModel& model,
            std::vector<de::Signal<double>*> inputs,
            std::unique_ptr<runtime::ModelExecutor> executor);

    [[nodiscard]] de::Signal<double>& output(std::size_t i) { return *outputs_[i]; }
    [[nodiscard]] std::size_t output_count() const { return outputs_.size(); }

private:
    void on_posedge();

    de::Simulator& sim_;
    std::unique_ptr<runtime::ModelExecutor> compiled_;
    std::vector<de::Signal<double>*> inputs_;
    std::vector<std::unique_ptr<de::Signal<double>>> outputs_;
};

/// N instances of one model behind a single DE process: the kernel platform
/// time-multiplexes all lanes through one BatchCompiledModel, with ONE
/// process activation per rising edge for the whole batch (instead of N
/// separately scheduled model processes). Lane l reads its own input
/// signals and drives its own output signals; lane results agree
/// bit-for-bit with N scalar DeModel wrappers on the same clock.
class BatchDeModel {
public:
    /// `inputs[l]` holds lane l's input signals, model input order.
    BatchDeModel(de::Simulator& sim, de::Clock& clock, std::string name,
                 std::shared_ptr<const runtime::ModelLayout> layout,
                 std::vector<std::vector<de::Signal<double>*>> inputs);
    /// Convenience: compile the model (fused) and batch it.
    BatchDeModel(de::Simulator& sim, de::Clock& clock, std::string name,
                 const abstraction::SignalFlowModel& model,
                 std::vector<std::vector<de::Signal<double>*>> inputs);

    [[nodiscard]] int lanes() const { return batch_.batch(); }
    [[nodiscard]] de::Signal<double>& output(int lane, std::size_t i) {
        return *outputs_[static_cast<std::size_t>(lane) * batch_.output_count() + i];
    }
    [[nodiscard]] std::size_t output_count() const { return batch_.output_count(); }

    /// Rising edges processed so far (== one kernel activation each).
    [[nodiscard]] std::uint64_t activations() const { return activations_; }

    [[nodiscard]] runtime::BatchCompiledModel& batch() { return batch_; }

private:
    void on_posedge();

    de::Simulator& sim_;
    runtime::BatchCompiledModel batch_;
    std::vector<std::vector<de::Signal<double>*>> inputs_;  ///< [lane][input]
    std::vector<std::unique_ptr<de::Signal<double>>> outputs_;  ///< lane-major
    std::uint64_t activations_ = 0;
};

/// Samples a signal on each rising edge into a waveform.
class DeSink {
public:
    DeSink(de::Simulator& sim, de::Clock& clock, de::Signal<double>& observed);

    [[nodiscard]] const numeric::Waveform& trace() const { return trace_; }

private:
    de::Signal<double>& observed_;
    numeric::Waveform trace_;
};

}  // namespace amsvp::backends
