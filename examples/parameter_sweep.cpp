// Batched parameter sweep / Monte-Carlo: many instances of one model, one
// compile, one strided slot file.
//
//   circuit --abstract--> signal-flow model --ModelLayout::compile--> layout
//     --BatchCompiledModel--> N lanes stepped by one fused instruction
//     stream (SIMD across instances), per-lane stimuli and overrides,
//     per-lane waveforms out.
//
// Build & run:  ./build/example_parameter_sweep
#include <algorithm>
#include <cstdio>
#include <random>

#include "abstraction/abstraction.hpp"
#include "netlist/builder.hpp"
#include "runtime/simulate.hpp"
#include "runtime/sweep_service.hpp"

int main() {
    using namespace amsvp;

    // The paper's RC20 ladder, abstracted once.
    const netlist::Circuit circuit = netlist::make_rc_ladder(20);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    if (!model) {
        std::fprintf(stderr, "abstraction failed: %s\n", error.c_str());
        return 1;
    }

    // 1. Amplitude sweep: 8 lanes, each driving the ladder with a different
    //    square-wave amplitude. One compile, one batched run.
    constexpr int kLanes = 8;
    std::vector<runtime::SweepLane> lanes(kLanes);
    for (int l = 0; l < kLanes; ++l) {
        const double amplitude = 0.25 * static_cast<double>(l + 1);
        lanes[static_cast<std::size_t>(l)].stimuli["u0"] =
            numeric::square_wave(1e-3, 0.0, amplitude);
    }
    const auto sweep = runtime::simulate_sweep(*model, {}, lanes, 2e-3);
    std::printf("--- Amplitude sweep (%d lanes, %zu steps each) -------------\n",
                kLanes, sweep.steps);
    const std::size_t last = sweep.steps - 1;
    for (int l = 0; l < kLanes; ++l) {
        std::printf("  lane %d: amplitude %.2f V -> V(out) at t=2ms: %+.6f V\n", l,
                    0.25 * static_cast<double>(l + 1),
                    sweep.outputs[0].value(static_cast<std::size_t>(l), last));
    }

    // 2. Monte-Carlo corners: randomize the initial state of the last
    //    ladder node per lane (e.g. power-up uncertainty) under a shared
    //    stimulus, and report the settled spread.
    std::mt19937 rng(42);
    std::normal_distribution<double> v0(0.0, 0.5);
    std::vector<runtime::SweepLane> corners(16);
    const expr::Symbol out_node = model->outputs.front();
    for (auto& lane : corners) {
        lane.overrides[out_node] = v0(rng);
    }
    const auto mc = runtime::simulate_sweep(
        *model, {{"u0", numeric::square_wave(1e-3)}}, corners, 0.5e-3);
    double lo = 1e9;
    double hi = -1e9;
    for (std::size_t l = 0; l < corners.size(); ++l) {
        const double v = mc.outputs[0].value(l, mc.steps - 1);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    std::printf("\n--- Monte-Carlo start-state spread (16 lanes) --------------\n"
                "  V(out) at t=0.5ms: min %+.6f V, max %+.6f V (spread %.3e)\n",
                lo, hi, hi - lo);

    // 3. Worker-pool sharded Monte-Carlo with steady-state retirement: a
    //    wide pure-decay sweep (zero input, per-lane initial charge on every
    //    capacitor) on a coarse timestep, sharded across all hardware
    //    threads. Lanes retire as they settle (per-shard compaction) and
    //    every lane reports its time-to-settle; results are bit-identical
    //    to the single-threaded path at any thread count.
    abstraction::AbstractionOptions coarse;
    coarse.timestep = 1e-3;
    auto decay_model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, coarse, &error);
    if (!decay_model) {
        std::fprintf(stderr, "abstraction failed: %s\n", error.c_str());
        return 1;
    }
    const auto states = decay_model->state_symbols();
    constexpr int kWide = 64;
    std::normal_distribution<double> charge(0.0, 1.0);
    std::vector<runtime::SweepLane> wide(kWide);
    for (auto& lane : wide) {
        const double q = charge(rng);
        for (const expr::Symbol& s : states) {
            lane.overrides[s] = q;
        }
    }
    runtime::SweepOptions options;
    options.steady_tolerance = 1e-6;
    options.steady_window = 16;
    options.threads = 0;  // all hardware threads, one shard per worker
    const auto sharded = runtime::simulate_sweep(
        *decay_model, {{"u0", [](double) { return 0.0; }}}, wide, 1.5,
        options);
    std::size_t first_settled = sharded.steps;
    std::size_t last_settled = 0;
    for (const std::size_t settled : sharded.settled_at) {
        first_settled = std::min(first_settled, settled);
        last_settled = std::max(last_settled, settled);
    }
    std::printf("\n--- Worker-pool decay sweep (%d lanes, steady retirement) --\n"
                "  time-to-settle: first lane %.1f ms, last lane %.1f ms "
                "(of %.1f ms simulated)\n",
                kWide, 1e3 * static_cast<double>(first_settled) * decay_model->timestep,
                1e3 * static_cast<double>(last_settled) * decay_model->timestep,
                1e3 * static_cast<double>(sharded.steps) * decay_model->timestep);

    // 4. The same sharded sweep through the machine-code backend this build
    //    prefers: with LLVM the fused program is JIT-compiled in process
    //    (ORC) once, then every shard steps through that machine code — no
    //    interpreter in the loop. Results are bit-identical to the
    //    interpreter backend; a build without LLVM simply interprets.
    options.backend = runtime::preferred_native_backend();
    const auto native = runtime::simulate_sweep(
        *decay_model, {{"u0", [](double) { return 0.0; }}}, wide, 1.5, options);
    bool identical = native.settled_at == sharded.settled_at;
    for (std::size_t o = 0; identical && o < native.outputs.size(); ++o) {
        for (std::size_t l = 0; identical && l < native.outputs[o].lanes(); ++l) {
            for (std::size_t k = 0; identical && k < native.outputs[o].size(); ++k) {
                identical = native.outputs[o].value(l, k) == sharded.outputs[o].value(l, k);
            }
        }
    }
    std::printf("\n--- Machine-code sweep (%s) ---\n"
                "  %d lanes, %zu steps: %s the interpreter backend\n",
                options.backend == runtime::SweepBackend::kNativeOrc
                    ? "ORC JIT kernel"
                    : "built without LLVM: interpreter",
                kWide, native.steps, identical ? "bit-identical to" : "DIVERGED from");
    if (!identical) {
        return 1;
    }

    // 5. The same workload as a served one: a long-lived SweepService owns
    //    the compile cache and one persistent worker pool, and accepts jobs
    //    from any number of client threads (submit() returns a future).
    //    Repeat jobs of a seen model skip the recompiles — watch the stats —
    //    and stay bit-identical to the direct simulate_sweep calls above.
    runtime::SweepService service;
    runtime::SweepJob job;
    job.model = *decay_model;
    job.stimuli = {{"u0", [](double) { return 0.0; }}};
    job.lanes = wide;
    job.duration_seconds = 1.5;
    job.options = options;  // machine-code backend, sharded, steady retirement
    auto first_future = service.submit(job);    // cold: compiles + builds
    const auto served_cold = first_future.get();
    const auto served_warm = service.run(job);  // warm: cached artifacts
    bool service_identical = served_cold.settled_at == sharded.settled_at &&
                             served_warm.settled_at == sharded.settled_at;
    for (std::size_t o = 0; service_identical && o < served_warm.outputs.size(); ++o) {
        for (std::size_t l = 0; service_identical && l < served_warm.outputs[o].lanes();
             ++l) {
            for (std::size_t k = 0; service_identical && k < served_warm.outputs[o].size();
                 ++k) {
                service_identical =
                    served_warm.outputs[o].value(l, k) == sharded.outputs[o].value(l, k) &&
                    served_cold.outputs[o].value(l, k) == sharded.outputs[o].value(l, k);
            }
        }
    }
    const runtime::ServiceStats stats = service.stats();
    std::printf("\n--- Sweep service (persistent cache + worker pool) ---------\n"
                "  2 jobs served: %s direct simulate_sweep\n"
                "  executors built %llu; layout compiles %llu; "
                "ORC compiles %llu, hits %llu (%.1f ms saved warm)\n",
                service_identical ? "bit-identical to" : "DIVERGED from",
                static_cast<unsigned long long>(stats.executors_built),
                static_cast<unsigned long long>(stats.cache.layout_misses),
                static_cast<unsigned long long>(stats.cache.orc_misses),
                static_cast<unsigned long long>(stats.cache.orc_hits),
                stats.cache.orc_compile_seconds_saved * 1e3);
    return service_identical ? 0 : 1;
}
