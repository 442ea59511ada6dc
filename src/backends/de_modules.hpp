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
