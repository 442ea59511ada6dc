// The complete smart-system virtual platform of Fig. 1 / Table III:
// MIPS CPU + RAM + APB bridge + UART + ADC, with the analog component
// integrated through any of the paper's six configurations.
#pragma once

#include <map>
#include <string>

#include "abstraction/signal_flow_model.hpp"
#include "de/kernel.hpp"
#include "netlist/circuit.hpp"
#include "numeric/sources.hpp"
#include "runtime/executor.hpp"
#include "spice/engine.hpp"
#include "vp/firmware.hpp"

namespace amsvp::vp {

/// How the analog device is integrated (rows of Table III). The first two
/// rows differ in the *digital* side's fidelity, see DigitalFidelity.
enum class AnalogIntegration {
    kVamsCosim,  ///< conservative solver behind the co-simulation coupler
    kEln,        ///< ELN engine inside the kernel
    kTdf,        ///< generated model in a TDF cluster
    kDe,         ///< generated model as a clocked DE module
    kCpp,        ///< generated model in the pure-C++ platform (no kernel)
};

/// Digital-platform fidelity: kRtl mirrors per-instruction bus activity onto
/// kernel signals (the "VP in Verilog, RTL" row); kTlm executes instructions
/// without per-access signal traffic (the "VP in SystemC" rows).
enum class DigitalFidelity {
    kRtl,
    kTlm,
};

[[nodiscard]] std::string_view to_string(AnalogIntegration integration);

struct PlatformConfig {
    AnalogIntegration integration = AnalogIntegration::kCpp;
    DigitalFidelity fidelity = DigitalFidelity::kTlm;

    /// Conservative form (needed for kVamsCosim / kEln).
    const netlist::Circuit* circuit = nullptr;
    /// Abstracted form (needed for kTdf / kDe / kCpp).
    const abstraction::SignalFlowModel* model = nullptr;

    std::map<std::string, numeric::SourceFunction> stimuli;
    std::string observed_pos = "out";
    std::string observed_neg = "gnd";
    double analog_timestep = 50e-9;

    /// CPU clock period; the default 50 ns (20 MHz) aligns one instruction
    /// per analog timestep.
    de::Time cpu_period = 50 * de::kNanosecond;

    std::string firmware;  ///< assembly source; empty = threshold monitor
    spice::SpiceOptions spice;

    /// Execution strategy for generated models (kTdf/kDe/kCpp rows); null =
    /// the in-process fused interpreter (runtime::CompiledModel). Benches
    /// install the native factory so the generated C++ runs as machine code.
    runtime::ExecutorFactory executor_factory;

    /// ADC full-scale range (the paper's circuits swing within [-6, 6] V
    /// across all four test cases).
    double adc_v_min = -6.0;
    double adc_v_max = 6.0;
};

struct PlatformResult {
    double wall_seconds = 0.0;
    std::uint64_t instructions = 0;
    std::string uart_output;
    std::uint64_t adc_conversions = 0;
    std::uint64_t bus_reads = 0;
    std::uint64_t bus_writes = 0;
    std::uint64_t apb_transfers = 0;
    std::uint64_t timer_ticks = 0;  ///< vp::Timer expirations (kernel platforms)
    de::KernelStats kernel;         ///< zeroed for the pure-C++ platform
};

/// Build and run the platform for `duration` simulated seconds, which must
/// be finite and non-negative (kernel platforms also need it below 2^64 fs).
[[nodiscard]] PlatformResult run_platform(const PlatformConfig& config, double duration);

}  // namespace amsvp::vp
