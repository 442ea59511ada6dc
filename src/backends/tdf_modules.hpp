// Reusable TDF modules: stimulus source, abstracted-model wrapper and
// waveform sink. Together they form the "component under test stimulated
// by a generator of the same MoC" arrangement of the paper's Section V-A.
#pragma once

#include <memory>

#include "numeric/sources.hpp"
#include "numeric/waveform.hpp"
#include "runtime/compiled_model.hpp"
#include "tdf/tdf.hpp"

namespace amsvp::backends {

/// Emits source(t) once per firing.
class TdfSource final : public tdf::TdfModule {
public:
    TdfSource(std::string name, numeric::SourceFunction source)
        : TdfModule(std::move(name)), out(*this, "out"), source_(std::move(source)) {}

    void processing() override { out.write(source_(time())); }

    tdf::TdfOut out;

private:
    numeric::SourceFunction source_;
};

/// Wraps an executing signal-flow model: one input port per model input,
/// one output port per model output, one model step per firing.
class TdfModel final : public tdf::TdfModule {
public:
    TdfModel(std::string name, const abstraction::SignalFlowModel& model,
             std::unique_ptr<runtime::ModelExecutor> executor);

    void processing() override;

    [[nodiscard]] tdf::TdfIn& input(std::size_t i) { return *inputs_[i]; }
    [[nodiscard]] tdf::TdfOut& output(std::size_t i) { return *outputs_[i]; }
    [[nodiscard]] std::size_t input_count() const { return inputs_.size(); }
    [[nodiscard]] std::size_t output_count() const { return outputs_.size(); }

private:
    std::unique_ptr<runtime::ModelExecutor> compiled_;
    std::vector<std::unique_ptr<tdf::TdfIn>> inputs_;
    std::vector<std::unique_ptr<tdf::TdfOut>> outputs_;
};

/// Collects every received sample into a waveform.
class TdfSink final : public tdf::TdfModule {
public:
    explicit TdfSink(std::string name) : TdfModule(std::move(name)), in(*this, "in") {}

    void initialize() override { trace_ = numeric::Waveform(timestep(), timestep()); }
    void processing() override {
        last_ = in.read();
        trace_.append(last_);
    }

    [[nodiscard]] const numeric::Waveform& trace() const { return trace_; }
    /// Most recent sample (0 before the first firing).
    [[nodiscard]] double last() const { return last_; }

    tdf::TdfIn in;

private:
    numeric::Waveform trace_;
    double last_ = 0.0;
};

}  // namespace amsvp::backends
