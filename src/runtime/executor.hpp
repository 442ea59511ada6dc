// Abstract execution interface for signal-flow models.
//
// Two implementations exist:
//  * runtime::CompiledModel — the in-process fused interpreter (always
//    available), the reference and the fallback;
//  * codegen::OrcModel      — a CompiledModel whose step() runs the
//    generated program as machine code: the scalar kernel the in-process
//    ORC JIT lowers from the same fused program (the paper's "C++" rows).
//
// Backends accept a factory so callers can swap the execution strategy
// without touching the MoC wrappers. An empty factory means the model's
// cached scalar ORC kernel (runtime::ModelCache::scalar_executor), or the
// interpreter when the kernel cannot be had; a factory returning a
// CompiledModel pins the interpreter.
#pragma once

#include <functional>
#include <memory>

#include "abstraction/signal_flow_model.hpp"

namespace amsvp::runtime {

class ModelExecutor {
public:
    virtual ~ModelExecutor() = default;

    virtual void reset() = 0;
    virtual void set_input(std::size_t index, double value) = 0;
    virtual void step(double time_seconds) = 0;
    [[nodiscard]] virtual double output(std::size_t index) const = 0;
    [[nodiscard]] virtual std::size_t input_count() const = 0;
    [[nodiscard]] virtual std::size_t output_count() const = 0;
    [[nodiscard]] virtual double timestep() const = 0;
};

using ExecutorFactory =
    std::function<std::unique_ptr<ModelExecutor>(const abstraction::SignalFlowModel&)>;

}  // namespace amsvp::runtime
