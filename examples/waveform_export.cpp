// Holistic waveform inspection (Fig. 1's promise): run the OA active filter
// under the conservative reference and the abstracted model, export both
// traces plus the stimulus to a VCD file viewable in GTKWave next to the
// digital platform activity.
//
// Usage: waveform_export [output.vcd]     (default: oa_traces.vcd)
#include <cstdio>

#include "abstraction/abstraction.hpp"
#include "backends/runner.hpp"
#include "netlist/builder.hpp"
#include "numeric/metrics.hpp"
#include "numeric/vcd.hpp"

int main(int argc, char** argv) {
    using namespace amsvp;
    const std::string path = argc > 1 ? argv[1] : "oa_traces.vcd";

    const netlist::Circuit circuit = netlist::make_opamp();
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    if (!model) {
        std::fprintf(stderr, "abstraction failed: %s\n", error.c_str());
        return 1;
    }

    backends::AnalogSetup setup;
    setup.circuit = &circuit;
    setup.model = &*model;
    setup.stimuli = {{"u0", numeric::square_wave(1e-3, -1.0, 1.0)}};
    setup.timestep = model->timestep;

    constexpr double kDuration = 2e-3;
    std::printf("simulating the OA filter for %.1f ms under two backends...\n",
                kDuration * 1e3);
    const auto reference =
        backends::run_isolated(backends::AnalogIntegration::kVamsCosim, setup, kDuration);
    const auto abstracted =
        backends::run_isolated(backends::AnalogIntegration::kCpp, setup, kDuration);

    // Stimulus trace at the same instants.
    numeric::Waveform stimulus(setup.timestep, setup.timestep);
    for (std::size_t k = 1; k <= reference.trace.size(); ++k) {
        stimulus.append(setup.stimuli.at("u0")(static_cast<double>(k) * setup.timestep));
    }

    numeric::VcdWriter vcd(1e-9);
    vcd.add_waveform("u0", stimulus);
    vcd.add_waveform("vout_conservative", reference.trace);
    vcd.add_waveform("vout_abstracted", abstracted.trace);
    if (!vcd.write_file(path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }

    std::printf("wrote %s (%zu samples per channel)\n", path.c_str(),
                reference.trace.size());
    std::printf("NRMSE(abstracted vs conservative) = %.2E\n",
                numeric::nrmse(reference.trace, abstracted.trace));
    std::printf("open with: gtkwave %s\n", path.c_str());
    return 0;
}
