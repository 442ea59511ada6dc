#include "backends/de_modules.hpp"

#include "support/check.hpp"

namespace amsvp::backends {

DeSource::DeSource(de::Simulator& sim, de::Clock& clock, std::string name,
                   numeric::SourceFunction source)
    : sim_(sim), clock_(clock), source_(std::move(source)) {
    // Pre-load the value the model samples on the first rising edge.
    const double first_posedge = de::to_seconds(sim.now() + clock.period());
    out_ = std::make_unique<de::Signal<double>>(sim, std::move(name), source_(first_posedge));
    const de::ProcessId pid = sim_.add_process("source:" + out_->name(),
                                               [this] { on_negedge(); });
    clock_.neg_sensitive(pid);
}

void DeSource::on_negedge() {
    // Falling edge at t: drive the value for the next rising edge t + T/2.
    const double next_posedge = de::to_seconds(sim_.now() + clock_.period() / 2);
    out_->write(source_(next_posedge));
}

DeModel::DeModel(de::Simulator& sim, de::Clock& clock, std::string name,
                 const abstraction::SignalFlowModel& model,
                 std::vector<de::Signal<double>*> inputs,
                 std::unique_ptr<runtime::ModelExecutor> executor)
    : sim_(sim), compiled_(std::move(executor)), inputs_(std::move(inputs)) {
    AMSVP_CHECK(compiled_ != nullptr, "DeModel needs an executor");
    AMSVP_CHECK(inputs_.size() == compiled_->input_count(), "input signal count mismatch");
    for (std::size_t i = 0; i < model.outputs.size(); ++i) {
        outputs_.push_back(std::make_unique<de::Signal<double>>(
            sim, name + ".out" + std::to_string(i), 0.0));
    }
    const de::ProcessId pid = sim_.add_process("model:" + name, [this] { on_posedge(); });
    clock.pos_sensitive(pid);
}

void DeModel::on_posedge() {
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        compiled_->set_input(i, inputs_[i]->read());
    }
    compiled_->step(de::to_seconds(sim_.now()));
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
        outputs_[i]->write(compiled_->output(i));
    }
}

DeSink::DeSink(de::Simulator& sim, de::Clock& clock, de::Signal<double>& observed)
    : observed_(observed),
      trace_(de::to_seconds(clock.period()), de::to_seconds(clock.period())) {
    // Sample on falling edges: the value written at the preceding rising
    // edge has committed by then (sample-and-hold half a cycle later).
    const de::ProcessId pid = sim.add_process("sink", [this] { trace_.append(observed_.read()); });
    clock.neg_sensitive(pid);
}

}  // namespace amsvp::backends
