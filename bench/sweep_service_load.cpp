// Load generator for runtime::SweepService: N concurrent closed-loop
// client threads (each submits a job, waits for its future, submits the
// next) hammering one service, reporting sustained sweeps/sec and p50/p99
// job latency, plus the warm-path comparison the service exists for: a
// warm interpreter repeat (cached layout, persistent worker pool) against
// calling simulate_sweep directly, which spins up a worker pool every
// call. Both build the job's executors per call.
//
// `--json <path>` emits results for bench/compare.py, whose gate table
// enforces the warm-path floor and a p99-vs-p50 latency-stability cap.
// Closed-loop clients keep the gate meaningful on small hosts: queue depth
// is bounded by the client count, so percentiles measure service overhead,
// not unbounded backlog.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "runtime/simulate.hpp"
#include "runtime/sweep_service.hpp"

namespace {

using namespace amsvp;
using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
    return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

/// Percentile over a copy (nearest-rank on the sorted sample).
double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(rank, samples.size() - 1)];
}

/// One job's worth of sweep: wide batch, short duration — the regime where
/// per-job fixed costs (pool spin-up, compile) actually show.
runtime::SweepJob make_job(const abstraction::SignalFlowModel& model, int width,
                           double duration, runtime::SweepBackend backend) {
    runtime::SweepJob job;
    job.model = model;
    job.lanes.resize(static_cast<std::size_t>(width));
    for (int l = 0; l < width; ++l) {
        job.lanes[static_cast<std::size_t>(l)].stimuli["u0"] =
            numeric::square_wave(1e-3, 0.0, 0.5 + 0.25 * static_cast<double>(l % 8));
    }
    job.duration_seconds = duration;
    job.options.backend = backend;
    job.options.threads = 2;
    return job;
}

int int_arg(int argc, char** argv, const char* flag, int fallback) {
    const char* value = bench::option_value(argc, argv, flag);
    return value != nullptr ? std::atoi(value) : fallback;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string json_path = bench::json_path_from_args(argc, argv);
    const int clients = int_arg(argc, argv, "--clients", 4);
    const int jobs_per_client = int_arg(argc, argv, "--jobs", 25);
    bench::JsonReport report("sweep_service_load");

    std::printf("SWEEP SERVICE LOAD — persistent service vs per-call rebuild\n\n");

    const auto circuits = bench::paper_circuits();
    const bench::BenchCircuit* rc20 = nullptr;
    for (const bench::BenchCircuit& c : circuits) {
        if (c.name == "RC20") {
            rc20 = &c;
        }
    }
    if (rc20 == nullptr) {
        std::fprintf(stderr, "sweep_service_load: RC20 missing from paper_circuits()\n");
        return 1;
    }
    constexpr int kWidth = 64;
    const double duration = 32 * rc20->model.timestep;

    // --- Arm 1: per-call rebuild (the floor the warm service must beat) ---
    // The model-compiling overload already serves the layout from the
    // global cache after the first call, so this measures exactly what the
    // service additionally removes: the worker-pool spin-up, per job.
    const auto percall_job = make_job(rc20->model, kWidth, duration,
                                      runtime::SweepBackend::kInterpreter);
    std::vector<double> percall_ns;
    percall_ns.reserve(static_cast<std::size_t>(jobs_per_client));
    (void)simulate_sweep(rc20->model, {}, percall_job.lanes, duration,
                         percall_job.options);  // warm the layout cache
    for (int j = 0; j < jobs_per_client; ++j) {
        const auto start = Clock::now();
        (void)simulate_sweep(rc20->model, {}, percall_job.lanes, duration,
                             percall_job.options);
        percall_ns.push_back(ns_since(start));
    }
    const double percall_p50 = percentile(percall_ns, 50.0);

    // --- Arm 2: warm service, one closed-loop client ---
    runtime::SweepService service;
    (void)service.run(make_job(rc20->model, kWidth, duration,
                               runtime::SweepBackend::kInterpreter));  // cold job
    std::vector<double> warm_ns;
    warm_ns.reserve(static_cast<std::size_t>(jobs_per_client));
    for (int j = 0; j < jobs_per_client; ++j) {
        const auto start = Clock::now();
        (void)service.run(make_job(rc20->model, kWidth, duration,
                                   runtime::SweepBackend::kInterpreter));
        warm_ns.push_back(ns_since(start));
    }
    const double warm_p50 = percentile(warm_ns, 50.0);
    const double warm_p99 = percentile(warm_ns, 99.0);

    std::printf("%-28s %12s %12s %12s\n", "interpreter (RC20 x64)", "p50 us", "p99 us",
                "jobs/s");
    std::printf("%-28s %12.1f %12s %12.0f\n", "  per-call rebuild", percall_p50 / 1e3, "-",
                1e9 / percall_p50);
    std::printf("%-28s %12.1f %12.1f %12.0f  (%.2fx vs per-call)\n", "  warm service",
                warm_p50 / 1e3, warm_p99 / 1e3, 1e9 / warm_p50, percall_p50 / warm_p50);

    report.add({{"name", "sweep_service_load"}, {"mode", "percall_interp"}, {"stat", "p50"}},
               {{"ns_per_job", percall_p50}});
    report.add({{"name", "sweep_service_load"}, {"mode", "warm_interp"}, {"stat", "p50"}},
               {{"ns_per_job", warm_p50}});
    report.add({{"name", "sweep_service_load"}, {"mode", "warm_interp"}, {"stat", "p99"}},
               {{"ns_per_job", warm_p99}});

    // --- Arm 3: N concurrent closed-loop clients on one warm service ---
    std::vector<std::vector<double>> client_ns(static_cast<std::size_t>(clients));
    const auto load_start = Clock::now();
    {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(clients));
        for (int c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                auto& samples = client_ns[static_cast<std::size_t>(c)];
                samples.reserve(static_cast<std::size_t>(jobs_per_client));
                for (int j = 0; j < jobs_per_client; ++j) {
                    const auto start = Clock::now();
                    (void)service.run(make_job(rc20->model, kWidth, duration,
                                               runtime::SweepBackend::kInterpreter));
                    samples.push_back(ns_since(start));
                }
            });
        }
        for (std::thread& t : threads) {
            t.join();
        }
    }
    const double load_total_ns = ns_since(load_start);
    std::vector<double> all_ns;
    for (const auto& samples : client_ns) {
        all_ns.insert(all_ns.end(), samples.begin(), samples.end());
    }
    const double total_jobs = static_cast<double>(clients * jobs_per_client);
    const double sustained_ns_per_job = load_total_ns / total_jobs;
    const double load_p50 = percentile(all_ns, 50.0);
    const double load_p99 = percentile(all_ns, 99.0);
    std::printf("%-28s %12.1f %12.1f %12.0f  (%d clients, closed loop)\n",
                "  concurrent clients", load_p50 / 1e3, load_p99 / 1e3,
                1e9 / sustained_ns_per_job, clients);

    report.add({{"name", "sweep_service_load"}, {"mode", "concurrent_interp"},
                {"stat", "p50"}},
               {{"clients", static_cast<double>(clients)}, {"ns_per_job", load_p50}});
    report.add({{"name", "sweep_service_load"}, {"mode", "concurrent_interp"},
                {"stat", "p99"}},
               {{"clients", static_cast<double>(clients)}, {"ns_per_job", load_p99}});
    report.add({{"name", "sweep_service_load"}, {"mode", "concurrent_interp"},
                {"stat", "sustained"}},
               {{"clients", static_cast<double>(clients)},
                {"ns_per_job", sustained_ns_per_job}});
    std::printf("\n");

    if (!report.write(json_path)) {
        return 1;
    }
    return 0;
}
