// Table I: simulation performance and accuracy for the abstracted models in
// isolation. Five rows per circuit: Verilog-AMS (conservative reference,
// co-simulated), manual SC-AMS/ELN, generated SC-AMS/TDF, SC-DE and C++.
// NRMSE is measured against the Verilog-AMS trace, speed-up against its
// simulation time — exactly the paper's columns. Each row's time is the
// best of kRunsPerRow runs: one run spreads wider than the differences
// between rows the table is read for.
//
// The generated rows (TDF, DE, C++) run the default executor, the generated
// program as machine code: the same program the C++ emitter renders,
// compiled by in-process LLVM (the model's cached scalar ORC kernel) where
// the paper compiled it with g++ -O2.
#include <cstdio>
#include <string>
#include <utility>

#include "backends/runner.hpp"
#include "bench_common.hpp"
#include "numeric/metrics.hpp"

namespace {

constexpr int kRunsPerRow = 3;

/// The fastest of kRunsPerRow runs. Every run computes the same trace, so
/// only the time differs between them.
amsvp::backends::BackendRun best_run(amsvp::backends::AnalogIntegration kind,
                                     const amsvp::backends::AnalogSetup& setup,
                                     double duration) {
    amsvp::backends::BackendRun best = amsvp::backends::run_isolated(kind, setup, duration);
    for (int run = 1; run < kRunsPerRow; ++run) {
        amsvp::backends::BackendRun next = amsvp::backends::run_isolated(kind, setup, duration);
        if (next.wall_seconds < best.wall_seconds) {
            best = std::move(next);
        }
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace amsvp;
    const bench::Args args(argc, argv, {bench::kDurationFlag, bench::kJsonFlag});
    const double duration = args.duration_seconds(1e-3);
    const std::string json_path = args.json_path();
    bench::JsonReport report("table1_isolation");

    std::printf("TABLE I — SIMULATION PERFORMANCE AND ACCURACY, MODELS IN ISOLATION\n");
    bench::print_scaling_note(duration, 100e-3);
    std::printf("# Sim. time: best of %d runs per row.\n", kRunsPerRow);
    std::printf("%-10s %-14s %-10s %14s %12s %10s\n", "Component", "Target", "Generation",
                "Sim. time (s)", "NRMSE", "Speed-up");

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
            {backends::AnalogIntegration::kVamsCosim, "manual"},
            {backends::AnalogIntegration::kEln, "manual"},
            {backends::AnalogIntegration::kTdf, "algo"},
            {backends::AnalogIntegration::kDe, "algo"},
            {backends::AnalogIntegration::kCpp, "algo"},
        };

        backends::BackendRun reference;
        for (const Row& row : rows) {
            const backends::BackendRun run = best_run(row.kind, setup, duration);
            double error = 0.0;
            double speedup = 0.0;
            if (row.kind == backends::AnalogIntegration::kVamsCosim) {
                reference = run;
            } else {
                error = numeric::nrmse(reference.trace, run.trace);
                speedup = reference.wall_seconds / run.wall_seconds;
            }
            std::printf("%-10s %-14s %-10s %14.4f %12.2E %9.0fx\n", c.name.c_str(),
                        std::string(to_string(row.kind)).c_str(), row.generation,
                        run.wall_seconds, error, speedup);
            const double steps = duration / c.model.timestep;
            report.add({{"name", "backend_run"},
                        {"circuit", c.name},
                        {"backend", std::string(to_string(row.kind))},
                        {"generation", row.generation},
                        {"timing", "best of " + std::to_string(kRunsPerRow)}},
                       {{"wall_seconds", run.wall_seconds},
                        {"ns_per_step", run.wall_seconds * 1e9 / steps},
                        {"nrmse", error},
                        {"speedup_vs_vams", speedup}});
        }
        std::printf("\n");
    }
    if (!report.write(json_path)) {
        return 1;
    }
    return 0;
}
