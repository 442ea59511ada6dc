// Micro-benchmarks for the two hot kernels of the library:
//
//  * evaluation of generated signal-flow models on the fused register
//    machine, on the four paper circuits (its agreement with an independent
//    per-assignment reference is tests/fused_engine_test.cpp's job);
//  * the dense LU factorise/solve pair under the ELN (factor once) and
//    SPICE (refactor every step) usage patterns.
//
//  * batched multi-instance execution — BatchCompiledModel (one fused
//    stream, strided slot file, SIMD across lanes) vs N independent
//    CompiledModel instances on RC20: per-lane ns/step per batch width;
//
//  * the DE kernel's periodic machinery — schedule_periodic,
//    Event::notify_every and the memory-mapped vp::Timer device: ns per
//    periodic tick including the heap re-arm and delta-cycle plumbing.
//
// Self-timed (steady_clock, calibrated batch counts) — no external
// benchmark dependency. `--json <path>` emits machine-readable results
// for the perf gate table in bench/compare.py.
#include <algorithm>
#include <chrono>
#include <functional>
#include <random>

#include "analysis/verifier.hpp"
#include "bench_common.hpp"
#include "de/event.hpp"
#include "de/kernel.hpp"
#include "numeric/lu.hpp"
#include "runtime/batch_model.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/simulate.hpp"
#include "support/thread_pool.hpp"
#include "vp/timer.hpp"

namespace {

using namespace amsvp;
using Clock = std::chrono::steady_clock;

/// ns per call of `fn`, with batch size calibrated towards ~0.2 s of
/// wall time (min 10^4 calls) after a small warm-up.
double time_ns(const std::function<void()>& fn) {
    constexpr long kProbe = 10000;
    for (long i = 0; i < kProbe; ++i) {
        fn();
    }
    auto probe_start = Clock::now();
    for (long i = 0; i < kProbe; ++i) {
        fn();
    }
    const double probe_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - probe_start).count();
    const double per_call = probe_ns / kProbe;
    const long reps = std::max<long>(kProbe, static_cast<long>(0.2e9 / std::max(per_call, 0.1)));
    auto start = Clock::now();
    for (long i = 0; i < reps; ++i) {
        fn();
    }
    const double total =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    return total / static_cast<double>(reps);
}

/// ns per call for whole-sweep-sized workloads: calibrated towards ~0.3 s
/// of wall time but with a floor of only 3 calls — one call here is a full
/// multi-millisecond sweep, not a nanosecond kernel.
double time_whole_ns(const std::function<void()>& fn) {
    fn();  // warm-up
    auto probe_start = Clock::now();
    fn();
    const double per_call =
        std::chrono::duration<double, std::nano>(Clock::now() - probe_start).count();
    const long reps = std::max<long>(3, static_cast<long>(0.3e9 / std::max(per_call, 1.0)));
    auto start = Clock::now();
    for (long i = 0; i < reps; ++i) {
        fn();
    }
    const double total =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    return total / static_cast<double>(reps);
}

numeric::Matrix random_spd(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    numeric::Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t col = 0; col < n; ++col) {
            a(r, col) = dist(rng);
        }
        a(r, r) += static_cast<double>(n);
    }
    return a;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string json_path = bench::json_path_from_args(argc, argv);
    bench::JsonReport report("micro_kernels");

    std::printf("MICRO KERNELS — fused model step, batching, periodic kernel, dense LU\n\n");
    std::printf("%-8s %14s\n", "Circuit", "ns/step");

    const std::vector<bench::BenchCircuit> circuits = bench::paper_circuits();
    for (const bench::BenchCircuit& c : circuits) {
        runtime::CompiledModel compiled(c.model);
        compiled.set_input(0, 1.0);
        double t = 0.0;
        const double dt = c.model.timestep;
        const double ns = time_ns([&] {
            t += dt;
            compiled.step(t);
        });
        std::printf("%-8s %14.1f\n", c.name.c_str(), ns);
        report.add({{"name", "model_step"}, {"circuit", c.name}}, {{"ns_per_step", ns}});
    }
    std::printf("\n");

    // The batch, scan, verifier and worker-pool sections all measure RC20,
    // the largest paper circuit.
    const auto rc20 = std::find_if(circuits.begin(), circuits.end(), [](const auto& c) {
        return c.name == "RC20";
    });
    if (rc20 == circuits.end()) {
        std::fprintf(stderr, "RC20 missing from paper_circuits()\n");
        return 1;
    }

    // Batched execution: per-lane cost of one strided BatchCompiledModel vs
    // N independent scalar instances. Lane results are bit-identical to the
    // scalar engine (enforced by tests/batch_model_test.cpp), so this is a
    // pure locality/SIMD number.
    {
        std::printf("%-22s %6s %18s %18s %10s\n", "batch_sweep (RC20)", "lanes",
                    "scalar ns/st/lane", "batch ns/st/lane", "speedup");
        const double dt = rc20->model.timestep;
        for (const int lanes : {1, 4, 8, 16, 32}) {
            // Baseline: N independent compiles + N scattered slot files,
            // stepped in a loop — what running N instances costs today
            // without the batch API.
            std::vector<runtime::CompiledModel> scalars;
            scalars.reserve(static_cast<std::size_t>(lanes));
            for (int l = 0; l < lanes; ++l) {
                scalars.emplace_back(rc20->model);
                scalars.back().set_input(0, 1.0);
            }
            double t_scalar = 0.0;
            const double scalar_ns = time_ns([&] {
                              t_scalar += dt;
                              for (runtime::CompiledModel& m : scalars) {
                                  m.step(t_scalar);
                              }
                          }) /
                          static_cast<double>(lanes);

            runtime::BatchCompiledModel batch(rc20->model, lanes);
            for (int l = 0; l < lanes; ++l) {
                batch.set_input(l, 0, 1.0);
            }
            double t_batch = 0.0;
            const double batch_ns = time_ns([&] {
                             t_batch += dt;
                             batch.step(t_batch);
                         }) /
                         static_cast<double>(lanes);

            std::printf("%-22s %6d %18.1f %18.1f %9.2fx\n", "", lanes, scalar_ns,
                        batch_ns, scalar_ns / batch_ns);
            report.add({{"name", "batch_sweep"}, {"circuit", "RC20"}, {"mode", "scalar"}},
                       {{"lanes", static_cast<double>(lanes)},
                        {"ns_per_step_per_lane", scalar_ns}});
            report.add({{"name", "batch_sweep"}, {"circuit", "RC20"}, {"mode", "batch"}},
                       {{"lanes", static_cast<double>(lanes)},
                        {"ns_per_step_per_lane", batch_ns}});
        }
        std::printf("\n");
    }

    // Lane health scan: the periodic whole-slot-file non-finite sweep
    // behind lane quarantine (SweepOptions::lane_health_interval). The
    // number that matters is the *amortized* cost — one scan every
    // `interval` steps — relative to a batch step at the same width;
    // bench/compare.py keeps it under 2% on RC20 at width 32, so leaving
    // quarantine on by default stays effectively free.
    {
        constexpr int kLanes = 32;
        runtime::BatchCompiledModel batch(rc20->model, kLanes);
        for (int l = 0; l < kLanes; ++l) {
            batch.set_input(l, 0, 1.0);
        }
        double t = 0.0;
        const double dt = rc20->model.timestep;
        const double step_ns = time_ns([&] {
            t += dt;
            batch.step(t);
        });
        std::vector<runtime::LaneStatus> status;
        const double scan_ns = time_ns([&] { batch.scan_lane_health(0.0, status); });
        const double interval =
            static_cast<double>(runtime::SweepOptions{}.lane_health_interval);
        const double amortized_pct = 100.0 * scan_ns / interval / step_ns;
        std::printf("%-22s %6s %12s %12s %10s\n", "lane_health_scan", "lanes", "scan ns",
                    "step ns", "amortized");
        std::printf("%-22s %6d %12.1f %12.1f %9.2f%%\n", "  (RC20, interval 32)", kLanes,
                    scan_ns, step_ns, amortized_pct);
        std::printf("\n");
        report.add({{"name", "lane_health_scan"}, {"circuit", "RC20"}},
                   {{"lanes", static_cast<double>(kLanes)},
                    {"ns_per_scan", scan_ns},
                    {"step_ns", step_ns},
                    {"interval", interval},
                    {"amortized_pct", amortized_pct}});
    }

    // IR verifier overhead: Release builds pay one verify_layout per model
    // at ModelCache admission, so the number that matters is verification
    // relative to the cold fused compile it rides on. bench/compare.py
    // keeps it under 5% on RC20 — cheap enough that mandatory verification
    // never shows up in sweep-service cold-start latency.
    {
        const void* volatile sink = nullptr;
        const double compile_ns = time_whole_ns([&] {
            auto layout = runtime::ModelLayout::compile(rc20->model);
            sink = layout.get();
        });
        const auto layout = runtime::ModelLayout::compile(rc20->model);
        volatile bool ok_sink = false;
        const double verify_ns = time_ns([&] {
            support::DiagnosticEngine diags;
            ok_sink = analysis::verify_layout(*layout, diags);
        });
        (void)sink;
        (void)ok_sink;
        const double pct = 100.0 * verify_ns / compile_ns;
        std::printf("%-22s %14s %14s %10s\n", "ir_verifier (RC20)", "verify ns",
                    "compile ns", "of compile");
        std::printf("%-22s %14.1f %14.1f %9.2f%%\n", "", verify_ns, compile_ns, pct);
        std::printf("\n");
        report.add({{"name", "ir_verifier"}, {"circuit", "RC20"}},
                   {{"ns_per_verify", verify_ns},
                    {"compile_ns", compile_ns},
                    {"pct_of_compile", pct}});
    }

    // Worker-pool sharded sweeps: aggregate throughput of a full
    // simulate_sweep (inputs, stepping, waveform capture) at wide batches,
    // single-thread vs the worker pool. Results are
    // bit-identical at any thread count (tests/threaded_sweep_test.cpp),
    // so this is a pure scaling number; compare.py enforces a >= 2x floor
    // at batch >= 32 when the host has >= 4 hardware threads.
    {
        const int hw = support::ThreadPool::hardware_threads();
        const int pool_threads = std::min(4, hw);
        std::printf("%-22s %6s %8s %18s %10s\n", "batch_sweep_threads", "lanes", "threads",
                    "sweep ns/st/lane", "speedup");
        report.add({{"name", "host_info"}}, {{"hardware_threads", static_cast<double>(hw)}});

        const double dt = rc20->model.timestep;
        constexpr std::size_t kSteps = 2000;
        const double duration = static_cast<double>(kSteps) * dt;
        const auto layout = runtime::ModelLayout::compile(rc20->model);

        for (const int lanes : {32, 64}) {
            std::vector<runtime::SweepLane> sweep_lanes(static_cast<std::size_t>(lanes));
            for (int l = 0; l < lanes; ++l) {
                sweep_lanes[static_cast<std::size_t>(l)].stimuli["u0"] =
                    numeric::square_wave(1e-3, 0.0, 0.5 + 0.05 * static_cast<double>(l));
            }
            runtime::BatchCompiledModel batch(layout, lanes);
            double single_ns = 0.0;
            for (const int threads : {1, pool_threads}) {
                runtime::SweepOptions options;
                options.threads = threads;
                const double sweep_ns = time_whole_ns([&] {
                    const auto result = runtime::simulate_sweep(
                        batch, rc20->model.inputs, {}, sweep_lanes, duration, options);
                    if (result.steps != kSteps) {
                        std::fprintf(stderr, "batch_sweep_threads: bad step count\n");
                        std::exit(1);
                    }
                });
                const double per_lane_step =
                    sweep_ns / static_cast<double>(kSteps) / static_cast<double>(lanes);
                if (threads == 1) {
                    single_ns = per_lane_step;
                }
                std::printf("%-22s %6d %8d %18.1f %9.2fx\n", "", lanes, threads,
                            per_lane_step, single_ns / per_lane_step);
                report.add({{"name", "batch_sweep_threads"},
                            {"circuit", "RC20"},
                            {"mode", threads == 1 ? "single" : "pool"}},
                           {{"lanes", static_cast<double>(lanes)},
                            {"threads", static_cast<double>(threads)},
                            {"ns_per_step_per_lane", per_lane_step}});
                if (pool_threads == 1) {
                    break;  // no point measuring the pool path twice
                }
            }
        }
        std::printf("\n");
    }

    // Periodic kernel machinery: one tick of each periodic primitive —
    // schedule_periodic (the allocation-free fast path itself), a
    // notify_every Event waking a sensitive process, and the vp::Timer
    // device (bus-programmed, event + status flag per tick). Each fn()
    // advances the kernel by exactly one period, so the number is ns per
    // tick including heap re-arm and delta-cycle processing.
    {
        std::printf("%-22s %14s\n", "periodic tick", "ns/tick");
        const de::Time period = de::from_seconds(1e-6);

        {
            de::Simulator sim;
            std::uint64_t ticks = 0;
            sim.schedule_periodic(period, period, [&] { ++ticks; });
            const double ns = time_ns([&] { sim.run(period); });
            std::printf("%-22s %14.1f\n", "schedule_periodic", ns);
            report.add({{"name", "periodic_tick"}, {"kernel", "schedule_periodic"}},
                       {{"ns_per_tick", ns}});
        }
        {
            de::Simulator sim;
            std::uint64_t wakeups = 0;
            const de::ProcessId pid = sim.add_process("counter", [&] { ++wakeups; });
            de::Event event(sim, "tick");
            event.add_sensitive(pid);
            event.notify_every(period, period);
            const double ns = time_ns([&] { sim.run(period); });
            std::printf("%-22s %14.1f\n", "event_notify_every", ns);
            report.add({{"name", "periodic_tick"}, {"kernel", "event_notify_every"}},
                       {{"ns_per_tick", ns}});
        }
        {
            de::Simulator sim;
            vp::Timer timer(sim);
            timer.write32(vp::Timer::kPeriodNs, 1000);  // 1 us
            timer.write32(vp::Timer::kCtrl, 1);         // enable
            const double ns = time_ns([&] { sim.run(period); });
            std::printf("%-22s %14.1f\n", "vp_timer", ns);
            report.add({{"name", "periodic_tick"}, {"kernel", "vp_timer"}},
                       {{"ns_per_tick", ns}});
        }
        std::printf("\n");
    }

    // Dense LU: the ELN pattern (factor once, back-substitute per step) vs
    // the SPICE pattern (refactor every step). 62 is the RC20 tableau size
    // (21 node potentials + 41 branch currents).
    std::printf("%-22s %6s %14s\n", "LU kernel", "n", "ns/solve");
    for (const std::size_t n : {std::size_t{8}, std::size_t{16}, std::size_t{32},
                                std::size_t{62}}) {
        const numeric::Matrix a = random_spd(n, 42);
        const auto lu = numeric::LuFactorization::factorise(a);
        numeric::Vector b(n, 1.0);
        numeric::Vector x(n, 0.0);

        const double solve_ns = time_ns([&] {
            x = b;
            lu->solve_in_place(x);
        });
        std::printf("%-22s %6zu %14.1f\n", "factor_once_solve", n, solve_ns);
        report.add({{"name", "lu_solve"}, {"variant", "factor_once"}},
                   {{"n", static_cast<double>(n)}, {"ns_per_solve", solve_ns}});

        const double refactor_ns = time_ns([&] {
            auto f = numeric::LuFactorization::factorise(a);
            x = b;
            f->solve_in_place(x);
        });
        std::printf("%-22s %6zu %14.1f\n", "refactor_every_step", n, refactor_ns);
        report.add({{"name", "lu_solve"}, {"variant", "refactor_each_step"}},
                   {{"n", static_cast<double>(n)}, {"ns_per_solve", refactor_ns}});
    }

    if (!report.write(json_path)) {
        return 1;
    }
    return 0;
}
