// The complete smart-system virtual platform of Fig. 1 / Table III:
// MIPS CPU + RAM + APB bridge + UART + ADC, with the analog component
// integrated in any of the paper's five modelling styles. The kernel styles
// get their analog side from backends::KernelAnalog, the wiring the
// isolation runs of Tables I-II use; kCpp steps the model in the CPU loop.
#pragma once

#include <string>

#include "backends/runner.hpp"
#include "de/kernel.hpp"

namespace amsvp::vp {

/// How the analog device is integrated (rows of Table III). The first two
/// rows differ in the *digital* side's fidelity, see DigitalFidelity.
using AnalogIntegration = backends::AnalogIntegration;

/// Digital-platform fidelity: kRtl mirrors per-instruction bus activity onto
/// kernel signals (the "VP in Verilog, RTL" row); kTlm executes instructions
/// without per-access signal traffic (the "VP in SystemC" rows).
enum class DigitalFidelity {
    kRtl,
    kTlm,
};

/// The analog component (circuit, model, stimuli, executor factory, ...)
/// plus the digital platform around it.
struct PlatformConfig : backends::AnalogSetup {
    AnalogIntegration integration = AnalogIntegration::kCpp;
    DigitalFidelity fidelity = DigitalFidelity::kTlm;
    std::string firmware;  ///< assembly source; empty = threshold monitor
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
/// be finite, non-negative and below 2^64 fs for every integration. Throws
/// std::invalid_argument (the assembler's diagnostics) when
/// `config.firmware` does not assemble, and std::runtime_error when the
/// firmware touches a bus address no region maps a whole word at (naming
/// the address), executes an instruction the CPU does not implement (naming
/// the word and its address), or the co-simulated analog solver
/// (kVamsCosim) fails to converge.
[[nodiscard]] PlatformResult run_platform(const PlatformConfig& config, double duration);

}  // namespace amsvp::vp
