// Table I: simulation performance and accuracy for the abstracted models in
// isolation. Five rows per circuit: Verilog-AMS (conservative reference,
// co-simulated), manual SC-AMS/ELN, generated SC-AMS/TDF, SC-DE and C++.
// NRMSE is measured against the Verilog-AMS trace, speed-up against its
// simulation time — exactly the paper's columns.
#include <cstdio>

#include "backends/runner.hpp"
#include "codegen/native_model.hpp"
#include "bench_common.hpp"
#include "numeric/metrics.hpp"

int main(int argc, char** argv) {
    using namespace amsvp;
    const bench::Args args(argc, argv, {bench::kDurationFlag, bench::kJsonFlag});
    const double duration = args.duration_seconds(1e-3);
    const std::string json_path = args.json_path();
    bench::JsonReport report("table1_isolation");

    std::printf("TABLE I — SIMULATION PERFORMANCE AND ACCURACY, MODELS IN ISOLATION\n");
    bench::print_scaling_note(duration, 100e-3);
    std::printf("%-10s %-14s %-10s %14s %12s %10s\n", "Component", "Target", "Generation",
                "Sim. time (s)", "NRMSE", "Speed-up");

    for (const bench::BenchCircuit& c : bench::paper_circuits()) {
        backends::AnalogSetup setup;
        setup.circuit = &c.circuit;
        setup.model = &c.model;
        setup.stimuli = bench::paper_stimuli();
        setup.timestep = c.model.timestep;
        setup.executor_factory = codegen::native_executor_factory();

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
            const backends::BackendRun run =
                backends::run_isolated(row.kind, setup, duration);
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
                        {"generation", row.generation}},
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
