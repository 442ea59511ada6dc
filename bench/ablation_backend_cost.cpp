// Ablation: where does the speed-up come from?  The paper's argument is a
// stack of removals — conservative solve, AMS synchronisation, DE kernel,
// and finally everything but the equations. This bench isolates each layer
// on the RC ladder sweep:
//
//   refactor-per-step (SPICE policy)  vs  factor-once (ELN policy)
//   analog solver inside the kernel   vs  generated model inside the kernel
//   kernel-hosted generated model     vs  bare C++ loop
//
// plus the co-simulation surcharge and the cost of the reference solver's
// internal substepping. The TDF, DE and C++ columns run the default
// executor: the model's cached scalar ORC kernel.
#include <cstdio>

#include "backends/runner.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace amsvp;
    const double duration =
        bench::Args(argc, argv, {bench::kDurationFlag}).duration_seconds(2e-3);

    std::printf("ABLATION — PER-LAYER COST OF THE SIMULATION STACK (RC ladder sweep)\n");
    std::printf("# duration %.3f ms per cell; columns are wall seconds.\n\n", duration * 1e3);
    std::printf("%-6s %12s %12s %12s %12s %12s %12s\n", "Model", "VAMS(sub=8)", "VAMS(sub=1)",
                "ELN", "TDF", "DE", "C++");

    for (const int n : {1, 2, 5, 10, 20}) {
        const netlist::Circuit circuit = netlist::make_rc_ladder(n);
        abstraction::AbstractionOptions options;
        std::string error;
        auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, options, &error);
        if (!model) {
            std::fprintf(stderr, "RC%d: %s\n", n, error.c_str());
            return 1;
        }

        backends::AnalogSetup setup;
        setup.circuit = &circuit;
        setup.model = &*model;
        setup.stimuli = bench::paper_stimuli();
        setup.timestep = model->timestep;

        // Full SPICE policy (8 internal substeps) vs single-step re-factorise.
        setup.spice.internal_substeps = 8;
        const double vams8 =
            backends::run_isolated(backends::AnalogIntegration::kVamsCosim, setup, duration)
                .wall_seconds;
        setup.spice.internal_substeps = 1;
        const double vams1 =
            backends::run_isolated(backends::AnalogIntegration::kVamsCosim, setup, duration)
                .wall_seconds;
        const double eln =
            backends::run_isolated(backends::AnalogIntegration::kEln, setup, duration)
                .wall_seconds;
        const double tdf =
            backends::run_isolated(backends::AnalogIntegration::kTdf, setup, duration)
                .wall_seconds;
        const double de =
            backends::run_isolated(backends::AnalogIntegration::kDe, setup, duration)
                .wall_seconds;
        const double cpp =
            backends::run_isolated(backends::AnalogIntegration::kCpp, setup, duration).wall_seconds;

        std::printf("RC%-4d %12.4f %12.4f %12.4f %12.4f %12.4f %12.4f\n", n, vams8, vams1,
                    eln, tdf, de, cpp);
    }

    std::printf(
        "\n# Reading the columns left to right reproduces the paper's argument:\n"
        "#   VAMS(sub=8) -> VAMS(sub=1): the analog solver's own refinement;\n"
        "#   VAMS(sub=1) -> ELN:         re-stamp+refactor vs factor-once (conservative\n"
        "#                               representation removed at equal step);\n"
        "#   ELN -> TDF -> DE:           AMS layer and MoC interfaces removed;\n"
        "#   DE  -> C++:                 the event kernel itself removed.\n");
    return 0;
}
