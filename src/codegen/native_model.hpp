// Native execution of generated models: emit the plain-C++ form (Step 4),
// compile it with the system compiler into a shared object, and load it via
// dlopen. This is precisely the deployment path the paper measures in its
// "C++" rows — the generated code runs as machine code, with no interpreter
// or simulation kernel in the loop.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "codegen/native_jit.hpp"
#include "runtime/executor.hpp"

namespace amsvp::codegen {

class NativeModel final : public runtime::ModelExecutor {
public:
    /// Generate, compile and load. Returns nullptr (with `error` set) when
    /// no compiler is available or compilation fails.
    [[nodiscard]] static std::unique_ptr<NativeModel> compile(
        const abstraction::SignalFlowModel& model, std::string* error = nullptr);

    ~NativeModel() override;
    NativeModel(const NativeModel&) = delete;
    NativeModel& operator=(const NativeModel&) = delete;

    /// Reset the generated model to its initial values, matching
    /// CompiledModel::reset() observably: the cached input vector is
    /// cleared (the interpreter zeroes input slots, so the next step must
    /// not re-apply stale inputs) and the cached outputs are refreshed
    /// from the re-initialized model (so output() before the next step
    /// reads initial values, not the last pre-reset step).
    void reset() override {
        reset_fn_();
        std::fill(inputs_.begin(), inputs_.end(), 0.0);
        outputs_fn_(outputs_.data());
    }
    void set_input(std::size_t index, double value) override { inputs_.at(index) = value; }
    void step(double time_seconds) override {
        step_fn_(inputs_.data(), time_seconds, outputs_.data());
    }
    [[nodiscard]] double output(std::size_t index) const override {
        return outputs_.at(index);
    }
    [[nodiscard]] std::size_t input_count() const override { return inputs_.size(); }
    [[nodiscard]] std::size_t output_count() const override { return outputs_.size(); }
    [[nodiscard]] double timestep() const override { return timestep_; }

    /// Model slots of the generated code (== runtime ModelLayout's
    /// model_slot_count() for the same model): generated models expose
    /// their slot file so tests can compare them against the fused
    /// interpreter slot-for-slot.
    [[nodiscard]] int model_slot_count() const { return slot_count_fn_(); }
    /// Value of model slot `i` (runtime ModelLayout slot order).
    [[nodiscard]] double slot_value(int i) const { return slot_fn_(i); }

private:
    NativeModel() = default;

    using ResetFn = void (*)();
    using StepFn = void (*)(const double*, double, double*);
    using OutputsFn = void (*)(double*);
    using SlotFn = double (*)(int);
    using SlotCountFn = int (*)();

    std::unique_ptr<detail::JitLibrary> library_;
    ResetFn reset_fn_ = nullptr;
    StepFn step_fn_ = nullptr;
    OutputsFn outputs_fn_ = nullptr;
    SlotFn slot_fn_ = nullptr;
    SlotCountFn slot_count_fn_ = nullptr;
    std::vector<double> inputs_;
    std::vector<double> outputs_;
    double timestep_ = 0.0;
};

/// True when a usable `c++` compiler is on PATH (cached after first call).
[[nodiscard]] bool native_compilation_available();

/// Executor factory: a NativeModel when the compile succeeds, otherwise a
/// runtime::CompiledModel on the default fused interpreter (bit-identical,
/// just slower; a note is printed once on fallback).
[[nodiscard]] runtime::ExecutorFactory native_executor_factory();

}  // namespace amsvp::codegen
