// Unified backend runner: simulate the same analog component under each of
// the paper's five modelling styles and return a comparable trace plus wall
// time. This is the engine behind the Table I / Table II benches and the
// accuracy integration tests.
#pragma once

#include <map>
#include <string>

#include "abstraction/signal_flow_model.hpp"
#include "netlist/circuit.hpp"
#include "numeric/sources.hpp"
#include "numeric/waveform.hpp"
#include "runtime/compiled_model.hpp"
#include "spice/engine.hpp"

namespace amsvp::backends {

/// The five rows of Table I.
enum class BackendKind {
    kVerilogAmsCosim,  ///< conservative engine behind the co-simulation coupler
    kElnSystemC,       ///< ELN engine embedded in the DE kernel
    kTdfSystemC,       ///< generated model in the TDF MoC (DE-embedded cluster)
    kDeSystemC,        ///< generated model as a clocked DE module
    kCpp,              ///< generated model in a bare C++ loop
};

[[nodiscard]] std::string_view to_string(BackendKind kind);
[[nodiscard]] const std::vector<BackendKind>& all_backends();

struct BackendRun {
    numeric::Waveform trace;
    double wall_seconds = 0.0;
};

struct IsolationSetup {
    const netlist::Circuit* circuit = nullptr;             ///< conservative form
    const abstraction::SignalFlowModel* model = nullptr;   ///< abstracted form
    std::map<std::string, numeric::SourceFunction> stimuli;
    std::string observed_pos = "out";
    std::string observed_neg = "gnd";
    double timestep = 50e-9;
    spice::SpiceOptions spice;  ///< timestep is overridden by `timestep`
    /// How generated models execute (TDF / DE / C++ rows). Null = the
    /// in-process fused interpreter (runtime::CompiledModel); benches install
    /// codegen::native_executor_factory() to run the generated C++ as
    /// compiled machine code, like the paper does.
    /// Executor construction (including compilation) happens outside the
    /// timed region.
    runtime::ExecutorFactory executor_factory;
};

/// Run one backend in isolation for `duration` simulated seconds. The
/// conservative backends (kVerilogAmsCosim, kElnSystemC) need `circuit`;
/// the generated backends need `model`.
[[nodiscard]] BackendRun run_isolated(BackendKind kind, const IsolationSetup& setup,
                                      double duration);

}  // namespace amsvp::backends
