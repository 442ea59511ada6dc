// Pipeline benchmark for the amsvp library.
//
//   perfbench --workload <sweep_mc|serve_mix|platform_oa|cold_text>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--perturb-reference]
//   perfbench --setup-only --workload <name> --seed <n>
//
// With --trace 0 a run first times the set-up in fresh processes of this
// binary (--setup-only; setup_s is the median), then sets the workload up
// once more in-process, computes the check references, runs the timed phase
// and reports the end-to-end metrics. With --trace 1 it spends half
// the time on the same untraced phase as a baseline and half on a traced
// phase, and reports the per-layer metrics, the tracing overhead and the
// per-op self-time ledger. Every op's output is checked outside its timing;
// the last stdout line is the JSON result.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>

#include "numeric/metrics.hpp"
#include "spice/engine.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

constexpr int kSetups = 9;
constexpr double kAccuracyWindow = 0.2e-3;
/// The drift check flags a run whose dropped half has an op p50 more than
/// this many times the quieter half's; a shared host's slow regimes alone
/// rarely reach it (README, "End-to-end metrics").
constexpr double kDriftLimit = 1.5;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool perturb_reference = false;
    bool setup_only = false;
    std::string trace_out;
};

/// Every per-layer metric a traced run reports, in output order. A layer
/// that a workload never calls reports 0.
const std::vector<Metric>& layer_metrics() {
    static const std::vector<Metric> metrics = {
        {"vams.parse_us", 0, "us"},
        {"vams.elaborate_us", 0, "us"},
        {"abstraction.abstract_us", 0, "us"},
        {"abstraction.enrich_us", 0, "us"},
        {"abstraction.assemble_us", 0, "us"},
        {"abstraction.solve_us", 0, "us"},
        {"runtime.layout_compile_us", 0, "us"},
        {"analysis.verify_us", 0, "us"},
        {"codegen.orc_materialize_ms", 0, "ms"},
        {"runtime.fingerprint_us", 0, "us"},
        {"runtime.cache_hit_us", 0, "us"},
        {"runtime.service_queue_wait_us", 0, "us"},
        {"runtime.service_pre_run_us", 0, "us"},
        {"runtime.service_post_run_us", 0, "us"},
        {"runtime.executors_built", 0, "count/op"},
        {"runtime.executors_reused", 0, "count/op"},
        {"runtime.orc_misses", 0, "count/op"},
        {"runtime.peak_queue_depth", 0, "count"},
        {"runtime.sweep_kernel_ns_per_lane_step", 0, "ns"},
        {"runtime.sweep_driver_ns_per_lane_step", 0, "ns"},
        {"runtime.sweep_scan_ns_per_lane_step", 0, "ns"},
        {"runtime.sweep_merge_ms", 0, "ms"},
        {"runtime.sweep_shard_imbalance", 0, "ratio"},
        {"runtime.stimulus_calls_per_lane_step", 0, "calls/lane-step"},
        {"runtime.set_input_calls_per_lane_step", 0, "calls/lane-step"},
        {"runtime.stimulus_ns_per_call", 0, "ns"},
        {"runtime.set_input_ns_per_call", 0, "ns"},
        {"support.pool_dispatch_us", 0, "us"},
        {"runtime.scalar_step_ns", 0, "ns"},
        {"vp.digital_ns_per_instr", 0, "ns"},
        {"vp.instructions", 0, "count/op"},
        {"vp.adc_conversions", 0, "count/op"},
        {"vp.bus_reads", 0, "count/op"},
        {"vp.bus_writes", 0, "count/op"},
        {"de.process_activations", 0, "count/op"},
        {"de.delta_cycles", 0, "count/op"},
        {"de.timed_events", 0, "count/op"},
        {"trace.overhead_pct", 0, "%"},
        {"trace.unattributed_pct", 0, "%"},
    };
    return metrics;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "sweep_mc") {
        return make_sweep_mc(seed);
    }
    if (name == "serve_mix") {
        return make_serve_mix(seed);
    }
    if (name == "platform_oa") {
        return make_platform_oa(seed);
    }
    if (name == "cold_text") {
        return make_cold_text(seed);
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

bool parse_args(int argc, char** argv, Args& args) {
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool has_value = i + 1 < argc;
        if (flag == "--perturb-reference") {
            args.perturb_reference = true;
        } else if (flag == "--setup-only") {
            args.setup_only = true;
        } else if (flag == "--workload" && has_value) {
            args.workload = argv[++i];
        } else if (flag == "--seed" && has_value) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (flag == "--seconds" && has_value) {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (flag == "--trace" && has_value) {
            args.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (flag == "--trace-out" && has_value) {
            args.trace_out = argv[++i];
        } else {
            return false;
        }
    }
    return !args.workload.empty() && args.seconds > 0.0;
}

/// The setup_s samples, each a fresh process of this binary in --setup-only
/// mode, timed from just before the spawn until the child reports that its
/// first timed op could run. Process start, static initialisation and the
/// library's one-time start-up (such as LLVM's target set-up) therefore
/// count in every sample.
std::vector<double> measure_setups(const Args& args) {
    std::vector<std::string> words = {"perfbench", "--setup-only", "--workload", args.workload,
                                      "--seed", std::to_string(args.seed)};
    std::vector<char*> argv;
    for (std::string& word : words) {
        argv.push_back(word.data());
    }
    argv.push_back(nullptr);

    std::vector<double> samples;
    for (int i = 0; i < kSetups; ++i) {
        int pipe_fds[2];
        if (pipe(pipe_fds) != 0) {
            throw std::system_error(errno, std::generic_category(), "pipe");
        }
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
        posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
        const Clock::time_point start = Clock::now();
        pid_t child = 0;
        const int spawned =
            posix_spawn(&child, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        close(pipe_fds[1]);
        std::string reply;
        char buffer[64];
        ssize_t n = 0;
        while (spawned == 0 && reply.find('\n') == std::string::npos &&
               (n = read(pipe_fds[0], buffer, sizeof(buffer))) > 0) {
            reply.append(buffer, static_cast<std::size_t>(n));
        }
        const Clock::time_point ready = Clock::now();
        close(pipe_fds[0]);
        if (spawned != 0) {
            throw std::system_error(spawned, std::generic_category(), "posix_spawn");
        }
        int status = 0;
        waitpid(child, &status, 0);
        if (reply != "ready\n" || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            throw std::runtime_error("set-up process failed");
        }
        samples.push_back(seconds_between(start, ready));
    }
    return samples;
}

/// NRMSE of the abstracted OA and RC20 models against the conservative
/// reference engine over a short window of the paper's square wave.
std::string accuracy_line() {
    std::string line = "accuracy: NRMSE of the abstracted model vs the conservative "
                       "reference (spice::SpiceEngine), 0.2 ms of the 1 ms square wave:";
    for (const char* name : {"OA", "RC20"}) {
        const TextModel m = abstract_from_text(name, paper_text(name));
        const std::map<std::string, numeric::SourceFunction> stimuli = {
            {"u0", numeric::square_wave(1e-3)}};
        const runtime::TransientResult abstracted =
            runtime::simulate_transient(m.model, stimuli, kAccuracyWindow);
        amsvp::spice::SpiceOptions options;
        options.timestep = m.model.timestep;
        std::string error;
        auto engine = amsvp::spice::SpiceEngine::create(m.circuit, options, &error);
        if (!engine) {
            throw std::runtime_error(std::string(name) + ": reference engine failed: " + error);
        }
        const numeric::Waveform reference =
            engine->run_transient(stimuli, kAccuracyWindow, "out", "gnd");
        char text[64];
        std::snprintf(text, sizeof(text), " %s %.3e", name,
                      amsvp::numeric::nrmse(reference, abstracted.outputs.front()));
        line += text;
    }
    return line;
}

void print_ledger(const Trace& trace) {
    const double op = trace.mean_op_seconds();
    std::printf("ledger: mean self time per traced op over %zu ops (op = %.4f ms)\n",
                trace.ops(), op * 1e3);
    double sum = 0.0;
    for (const Trace::LedgerRow& row : trace.ledger()) {
        std::printf("  %-36s %12.4f ms %7.2f %%\n", row.layer.c_str(), row.seconds_per_op * 1e3,
                    100.0 * row.seconds_per_op / op);
        sum += row.seconds_per_op;
    }
    std::printf("  %-36s %12.4f ms %7.2f %%\n", "sum", sum * 1e3, 100.0 * sum / op);
}

/// Failure accounting over every op, the deciles of every op time, the
/// median and tail of the quieter half the end-to-end metrics use, the
/// whole-phase figures and the drift check.
void print_phase(const char* label, const Phase& phase, const PhaseTimings& timings,
                 double tail_percentile) {
    std::printf("%s: attempted %llu, failed %llu, failed_op_fraction %.6g\n", label,
                static_cast<unsigned long long>(phase.attempted),
                static_cast<unsigned long long>(phase.failed),
                static_cast<double>(phase.failed) / static_cast<double>(phase.attempted));
    if (!phase.first_failure.empty()) {
        std::printf("%s: first failure: %s\n", label, phase.first_failure.c_str());
    }
    std::vector<double> sorted = phase.op_seconds();
    std::sort(sorted.begin(), sorted.end());
    std::printf("%s: op ms deciles over all ops:", label);
    for (std::size_t d = 0; d <= 10; ++d) {
        std::printf(" %.2f", sorted[(sorted.size() - 1) * d / 10] * 1e3);
    }
    const Tail t = tail(timings.quiet.op_seconds, tail_percentile);
    const double quiet_p50 = op_p50_seconds(timings.quiet);
    std::printf("\n%s: quieter half: op p50 %.4f ms%s, p%g %.4f ms over %zu samples (%zu beyond%s)\n",
                label, quiet_p50 * 1e3,
                phase.rotation > 0 ? " (median of round means)" : "", t.percentile,
                t.value * 1e3, t.samples, t.beyond,
                t.beyond < 10 ? "; fewer than 10, so this tail is not steady" : "");
    const double drift = op_p50_seconds(timings.dropped) / quiet_p50;
    std::printf("%s: whole phase: %.6g ops/s, op p50 %.4f ms over %zu ops; the dropped half's "
                "op p50 is %.3f x the quieter half's\n",
                label, timings.whole.ok_ops / timings.whole.host_seconds,
                op_p50_seconds(timings.whole) * 1e3, timings.whole.op_seconds.size(), drift);
    if (drift > kDriftLimit) {
        std::printf("%s: drift check: the dropped half is more than %.1f x slower than the "
                    "quieter half; the end-to-end timings hide part of this run\n",
                    label, kDriftLimit);
    }
}

int run(const Args& args) {
    std::printf("perfbench: workload %s, seed %llu, %g s, trace %d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);

    const std::vector<double> setups =
        args.trace ? std::vector<double>{} : measure_setups(args);
    std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
    workload->prepare_checks(args.perturb_reference);

    const double phase_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
    const Phase base = workload->run(phase_seconds);
    const PhaseTimings base_timings = split_phase(base);
    const Timing& timing = base_timings.quiet;
    print_phase("untraced", base, base_timings, workload->tail_percentile());
    std::vector<Metric> metrics;
    std::uint64_t attempted = base.attempted;
    std::uint64_t failed = base.failed;
    if (!args.trace) {
        metrics = {
            {"setup_s", median(setups), "s"},
            {"ops_per_s", timing.ok_ops / timing.host_seconds, "ops/s"},
            {"op_p50_ms", op_p50_seconds(timing) * 1e3, "ms"},
            {"op_tail_ms", tail(timing.op_seconds, workload->tail_percentile()).value * 1e3, "ms"},
            {"lane_steps_per_s", timing.lane_steps / timing.host_seconds, "lane-steps/s"},
            {"peak_rss_mb", peak_rss_mb(), "MiB"},
        };
    } else {
        Trace trace;
        std::vector<Metric> layers;
        const double clock_seconds = clock_read_ns() * 1e-9;
        const Phase traced = workload->run_traced(phase_seconds, trace, clock_seconds, layers);
        const PhaseTimings traced_timings = split_phase(traced);
        print_phase("traced", traced, traced_timings, workload->tail_percentile());
        attempted += traced.attempted;
        failed += traced.failed;
        print_ledger(trace);

        metrics = layer_metrics();
        const double overhead =
            op_p50_seconds(traced_timings.quiet) / op_p50_seconds(timing) - 1.0;
        const auto ledger = trace.ledger();
        layers.push_back({"trace.overhead_pct", 100.0 * overhead, "%"});
        layers.push_back(
            {"trace.unattributed_pct", 100.0 * ledger.back().seconds_per_op / trace.mean_op_seconds(),
             "%"});
        for (const Metric& measured : layers) {
            const auto it = std::find_if(metrics.begin(), metrics.end(), [&](const Metric& m) {
                return m.name == measured.name;
            });
            if (it == metrics.end() || it->unit != measured.unit) {
                throw std::logic_error("unregistered layer metric " + measured.name);
            }
            it->value = measured.value;
        }
        std::printf("trace overhead: the traced op p50 is %+.2f %% off the untraced op p50 "
                    "(quieter halves)\n",
                    100.0 * overhead);
        if (!args.trace_out.empty()) {
            if (trace.write_chrome_json(args.trace_out)) {
                std::printf("trace: %s\n", args.trace_out.c_str());
            } else {
                std::printf("trace: could not write %s\n", args.trace_out.c_str());
            }
        }
    }

    std::printf("%s", workload->describe(timing).c_str());
    if (!setups.empty()) {
        std::printf("setup_s samples (fresh processes):");
        for (const double s : setups) {
            std::printf(" %.4f", s);
        }
        std::printf("\n");
    }
    workload.reset();

    const HostRecord host = measure_host();
    std::printf("host: nproc %u, hardware_concurrency %u, effective parallelism %.2f "
                "(%u spin loops vs 1), clock read %.1f ns (subtracted from sampled timings)\n",
                host.nproc, host.hardware_threads, host.effective_parallelism, host.nproc,
                host.clock_read_ns);
    std::printf("%s\n", accuracy_line().c_str());
    std::printf("%s\n", result_json(failed == 0, attempted, failed, metrics).c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <sweep_mc|serve_mix|platform_oa|cold_text> "
                     "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>] "
                     "[--perturb-reference]\n"
                     "       perfbench --setup-only --workload <name> --seed <n>\n");
        return 2;
    }
    try {
        if (args.setup_only) {
            // The workload exists: its first timed op could run now. Exit
            // at once; tearing it down is not part of the set-up.
            const std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
            std::fputs("ready\n", stdout);
            std::fflush(stdout);
            std::_Exit(0);
        }
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
