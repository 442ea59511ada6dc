// Reusable TDF modules: stimulus source, abstracted-model wrapper (scalar
// and batched), and waveform sink. Together they form the "component under
// test stimulated by a generator of the same MoC" arrangement of the
// paper's Section V-A.
#pragma once

#include <memory>

#include "numeric/sources.hpp"
#include "numeric/waveform.hpp"
#include "runtime/batch_model.hpp"
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
    /// Default: in-process fused register-machine execution.
    TdfModel(std::string name, const abstraction::SignalFlowModel& model);
    /// Custom executor (e.g. the native-compiled generated model).
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

/// N instances of one model behind a single TDF module: one firing steps
/// all lanes through one BatchCompiledModel (one fused instruction stream,
/// one strided slot file, SIMD across lanes), so the MoC kernel schedules
/// and activates the whole batch once per timestep instead of N times.
/// Lane (l) ports carry lane l's samples; lane results agree bit-for-bit
/// with N scalar TdfModel wrappers fed the same streams.
class BatchTdfModel final : public tdf::TdfModule {
public:
    /// `lanes` instances over a pre-compiled (kFused) layout.
    BatchTdfModel(std::string name, std::shared_ptr<const runtime::ModelLayout> layout,
                  int lanes);
    /// Convenience: compile the model (fused) and batch it.
    BatchTdfModel(std::string name, const abstraction::SignalFlowModel& model, int lanes);

    void processing() override;

    [[nodiscard]] int lanes() const { return batch_.batch(); }
    [[nodiscard]] std::size_t input_count() const { return batch_.input_count(); }
    [[nodiscard]] std::size_t output_count() const { return batch_.output_count(); }

    [[nodiscard]] tdf::TdfIn& input(int lane, std::size_t i) {
        return *inputs_[port_index(lane, i, batch_.input_count())];
    }
    [[nodiscard]] tdf::TdfOut& output(int lane, std::size_t i) {
        return *outputs_[port_index(lane, i, batch_.output_count())];
    }

    [[nodiscard]] runtime::BatchCompiledModel& batch() { return batch_; }

private:
    [[nodiscard]] std::size_t port_index(int lane, std::size_t i, std::size_t per_lane) const {
        return static_cast<std::size_t>(lane) * per_lane + i;
    }

    runtime::BatchCompiledModel batch_;
    std::vector<std::unique_ptr<tdf::TdfIn>> inputs_;    ///< lane-major
    std::vector<std::unique_ptr<tdf::TdfOut>> outputs_;  ///< lane-major
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
