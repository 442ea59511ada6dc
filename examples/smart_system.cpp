// The complete smart system of the paper's Fig. 1: a MIPS CPU running a
// threshold-monitor application, a UART, an APB bus — and the analog active
// filter integrated at every abstraction level of Table III.
//
// The firmware's UART output must be identical regardless of how the analog
// component is integrated; only the simulation cost changes. Exits 1 when
// the rows disagree on instructions, ADC conversions or UART output.
#include <cstdio>
#include <optional>

#include "abstraction/abstraction.hpp"
#include "netlist/builder.hpp"
#include "vp/platform.hpp"

int main() {
    using namespace amsvp;

    const netlist::Circuit circuit = netlist::make_opamp();
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    if (!model) {
        std::fprintf(stderr, "abstraction failed: %s\n", error.c_str());
        return 1;
    }

    constexpr double kDuration = 2e-3;  // 2 ms of simulated time
    std::printf("smart system: OA active filter + MIPS platform, %g ms simulated\n\n",
                kDuration * 1e3);
    std::printf("%-20s %12s %14s %10s  %s\n", "integration", "wall [s]", "instructions",
                "ADC conv", "UART output");

    bool agree = true;
    std::optional<vp::PlatformResult> first;
    const vp::AnalogIntegration integrations[] = {
        vp::AnalogIntegration::kVamsCosim, vp::AnalogIntegration::kEln,
        vp::AnalogIntegration::kTdf,       vp::AnalogIntegration::kDe,
        vp::AnalogIntegration::kCpp,
    };
    for (const auto integration : integrations) {
        vp::PlatformConfig config;
        config.integration = integration;
        config.circuit = &circuit;
        config.model = &*model;
        // Bipolar square wave: the inverting filter output swings across the
        // ADC mid-scale, so the monitor reports a transition every half
        // period.
        config.stimuli = {{"u0", numeric::square_wave(1e-3, -1.0, 1.0)}};
        const vp::PlatformResult result = vp::run_platform(config, kDuration);
        std::printf("%-20s %12.4f %14llu %10llu  \"%s\"\n",
                    std::string(to_string(integration)).c_str(), result.wall_seconds,
                    static_cast<unsigned long long>(result.instructions),
                    static_cast<unsigned long long>(result.adc_conversions),
                    result.uart_output.c_str());
        if (!first) {
            first = result;
        } else if (result.instructions != first->instructions ||
                   result.adc_conversions != first->adc_conversions ||
                   result.uart_output != first->uart_output) {
            agree = false;
        }
    }

    std::printf("\nThe application reports '0'/'1' transitions of the filtered square\n"
                "wave; every integration style must produce the same report.\n");
    if (!agree) {
        std::fprintf(stderr, "integration styles disagree on instructions, ADC conversions "
                             "or UART output\n");
        return 1;
    }
    return 0;
}
