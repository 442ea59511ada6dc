// One wiring for the paper's five modelling styles. KernelAnalog builds the
// analog component on a DE kernel under any of the four kernel styles;
// run_isolated (Tables I/II and the accuracy tests) runs it alone, and
// vp::run_platform (Table III) runs it under the CPU and firmware. Both
// take the component from one AnalogSetup and execute generated models
// through one make_executor.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "abstraction/signal_flow_model.hpp"
#include "backends/de_modules.hpp"
#include "backends/tdf_modules.hpp"
#include "cosim/coupler.hpp"
#include "eln/engine.hpp"
#include "netlist/circuit.hpp"
#include "numeric/sources.hpp"
#include "numeric/waveform.hpp"
#include "runtime/executor.hpp"
#include "spice/engine.hpp"

namespace amsvp::backends {

/// The five rows of Table I, and the analog side of Table III's rows.
enum class AnalogIntegration {
    kVamsCosim,  ///< conservative engine behind the co-simulation coupler
    kEln,        ///< ELN engine embedded in the DE kernel
    kTdf,        ///< generated model in the TDF MoC (DE-embedded cluster)
    kDe,         ///< generated model as a clocked DE module
    kCpp,        ///< generated model in a bare C++ loop (no kernel)
};

[[nodiscard]] std::string_view to_string(AnalogIntegration integration);
[[nodiscard]] const std::vector<AnalogIntegration>& all_backends();

struct BackendRun {
    numeric::Waveform trace;
    double wall_seconds = 0.0;
};

/// The analog component and how to run it, for every modelling style.
struct AnalogSetup {
    const netlist::Circuit* circuit = nullptr;             ///< conservative form (cosim, ELN)
    const abstraction::SignalFlowModel* model = nullptr;   ///< abstracted form (TDF, DE, C++)
    std::map<std::string, numeric::SourceFunction> stimuli;
    std::string observed_pos = "out";
    std::string observed_neg = "gnd";
    /// Step of the cosim and ELN solvers. Generated models step at
    /// model->timestep.
    double timestep = 50e-9;
    spice::SpiceOptions spice;  ///< timestep is overridden by `timestep`
    /// How generated models execute (TDF / DE / C++ rows). Empty = the
    /// generated program as machine code, as the paper runs it: the
    /// model's scalar ORC kernel from runtime::ModelCache::global()
    /// (ModelCache::scalar_executor), compiled by the first executor of
    /// the model on the calling thread and reused by every later one — the
    /// in-process LLVM build where the paper used g++. Without LLVM, or
    /// when the compile fails, the fused interpreter (bit-identical). A
    /// factory replaces that, e.g. to wrap or time an executor.
    /// Executor construction (including compilation) happens outside the
    /// timed region.
    runtime::ExecutorFactory executor_factory;
};

/// setup.model's executor: the factory's, else the cached scalar ORC
/// kernel (the fused interpreter when it cannot be had).
[[nodiscard]] std::unique_ptr<runtime::ModelExecutor> make_executor(const AnalogSetup& setup);
/// The stimulus of each model input, in model input order.
[[nodiscard]] std::vector<const numeric::SourceFunction*> input_stimuli(const AnalogSetup& setup);

/// The analog component under one kernel style (any but kCpp), built on
/// `sim`: the cosim coupler, the ELN module, a TDF cluster of sources, model
/// and sink, or sources and model on their own DE clock at model->timestep.
class KernelAnalog {
public:
    KernelAnalog(de::Simulator& sim, AnalogIntegration integration, const AnalogSetup& setup);

    /// The observed voltage now: what an ADC samples.
    [[nodiscard]] double observed() const {
        return tdf_sink_ != nullptr ? tdf_sink_->last() : output_->read();
    }
    /// The observed voltage once per analog step. kDe keeps none (a sampling
    /// process would add kernel activity): attach a DeSink to de_clock() and
    /// de_output() instead.
    [[nodiscard]] const numeric::Waveform& trace() const;

    [[nodiscard]] de::Clock& de_clock() { return *clock_; }
    [[nodiscard]] de::Signal<double>& de_output() { return *output_; }

private:
    std::unique_ptr<cosim::CosimCoupler> coupler_;
    std::unique_ptr<eln::ElnDeModule> eln_;
    std::vector<std::unique_ptr<TdfSource>> tdf_sources_;
    std::unique_ptr<TdfModel> tdf_model_;
    std::unique_ptr<TdfSink> tdf_sink_;
    std::unique_ptr<tdf::TdfCluster> cluster_;  ///< after its modules: destroyed first
    std::unique_ptr<de::Clock> clock_;
    std::vector<std::unique_ptr<DeSource>> de_sources_;
    std::unique_ptr<DeModel> de_model_;
    de::Signal<double>* output_ = nullptr;  ///< observed signal (all but kTdf)
};

/// Run one modelling style in isolation for `duration` simulated seconds.
/// kDe samples its output with a DeSink and runs half a clock period past
/// the end, so the sink records the final step; kCpp runs
/// runtime::simulate_transient.
[[nodiscard]] BackendRun run_isolated(AnalogIntegration integration, const AnalogSetup& setup,
                                      double duration);

}  // namespace amsvp::backends
