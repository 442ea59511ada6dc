// Table II: the same isolation experiment over a longer simulated time with
// the Verilog-AMS row removed; speed-ups are relative to SC-AMS/ELN. As in
// Table I, the generated rows run the default executor, the model's cached
// scalar ORC kernel: the generated program compiled by in-process LLVM
// where the paper used g++ -O2.
#include <cstdio>

#include "backends/runner.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace amsvp;
    const double duration =
        bench::Args(argc, argv, {bench::kDurationFlag}).duration_seconds(20e-3);

    std::printf("TABLE II — LONGER RUN, SPEED-UP RELATIVE TO SC-AMS/ELN\n");
    bench::print_scaling_note(duration, 10000e-3);
    std::printf("%-10s %-14s %-10s %14s %10s\n", "Component", "Target", "Generation",
                "Sim. time (s)", "Speed-up");

    for (const bench::BenchCircuit& c : bench::paper_circuits()) {
        backends::AnalogSetup setup;
        setup.circuit = &c.circuit;
        setup.model = &c.model;
        setup.stimuli = bench::paper_stimuli();
        setup.timestep = c.model.timestep;

        struct Row {
            backends::AnalogIntegration kind;
            const char* generation;
        };
        const Row rows[] = {
            {backends::AnalogIntegration::kEln, "manual"},
            {backends::AnalogIntegration::kTdf, "algo"},
            {backends::AnalogIntegration::kDe, "algo"},
            {backends::AnalogIntegration::kCpp, "algo"},
        };

        double eln_seconds = 0.0;
        for (const Row& row : rows) {
            const backends::BackendRun run =
                backends::run_isolated(row.kind, setup, duration);
            double speedup = 0.0;
            if (row.kind == backends::AnalogIntegration::kEln) {
                eln_seconds = run.wall_seconds;
            } else {
                speedup = eln_seconds / run.wall_seconds;
            }
            if (speedup == 0.0) {
                std::printf("%-10s %-14s %-10s %14.4f %10s\n", c.name.c_str(),
                            std::string(to_string(row.kind)).c_str(), row.generation,
                            run.wall_seconds, "0x");
            } else {
                std::printf("%-10s %-14s %-10s %14.4f %9.2fx\n", c.name.c_str(),
                            std::string(to_string(row.kind)).c_str(), row.generation,
                            run.wall_seconds, speedup);
            }
        }
        std::printf("\n");
    }
    return 0;
}
