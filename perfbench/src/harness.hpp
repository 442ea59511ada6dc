// Shared plumbing of the pipeline benchmark: clocks, seeded input
// generation, output checks, sample statistics, the host record, the
// closed-loop timed phase and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "abstraction/signal_flow_model.hpp"
#include "netlist/circuit.hpp"
#include "runtime/simulate.hpp"

namespace perfbench {

namespace runtime = amsvp::runtime;
namespace abstraction = amsvp::abstraction;
namespace numeric = amsvp::numeric;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

/// Deterministic generator behind every seeded input (splitmix64 plus
/// Box-Muller), so generated inputs do not depend on the standard library's
/// distribution implementations.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    double uniform(double lo, double hi);
    /// Zero-mean normal deviate with standard deviation `sigma`.
    double normal(double sigma);
    /// Index drawn with probability proportional to `weights[i]`.
    std::size_t pick(const std::vector<double>& weights);

private:
    std::uint64_t state_;
};

/// FNV-1a digest of the generated inputs; printed with every run so two
/// runs can be shown to have fed the library identical inputs.
class Digest {
public:
    void add(double value);
    void add(std::uint64_t value);
    void add(std::string_view text);
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t hash_ = 1469598103934665603ull;
};

/// One paper circuit taken from Verilog-AMS text to a signal-flow model.
struct TextModel {
    amsvp::netlist::Circuit circuit;
    abstraction::SignalFlowModel model;
};

/// The paper's four circuits as Verilog-AMS text (2IN, RC1, RC20, OA).
struct PaperText {
    std::string name;
    std::string source;
};
[[nodiscard]] std::vector<PaperText> paper_texts();
[[nodiscard]] std::string paper_text(std::string_view name);

/// Parse, elaborate and abstract `source` for V(out, gnd). Throws
/// std::runtime_error carrying the library's diagnostics on failure.
[[nodiscard]] TextModel abstract_from_text(const std::string& name, const std::string& source);

/// Empty when `got` matches `want` bit for bit (every output sample and
/// settled_at) and the run was untroubled (every lane healthy, no
/// diagnostics); otherwise the first problem found.
[[nodiscard]] std::string check_sweep(const runtime::SweepResult& got,
                                      const runtime::SweepResult& want);

/// Flip the lowest mantissa bit of the reference's first sample: the
/// deliberately perturbed reference every op must then fail against.
void perturb(runtime::SweepResult& reference);

// --- statistics --------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile of a sample, with the count strictly beyond it.
struct Tail {
    double percentile = 0.0;
    double value = 0.0;
    std::size_t beyond = 0;
    std::size_t samples = 0;
};
/// The nearest-rank `percentile` of `values`. The percentile never changes
/// with the sample count; a caller reports `beyond` so that a run too short
/// for a steady tail shows as such.
[[nodiscard]] Tail tail(std::vector<double> values, double percentile);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Median host cost of one steady_clock::now() read, in nanoseconds — what
/// the traced run subtracts from every sampled timing.
[[nodiscard]] double clock_read_ns();

struct HostRecord {
    unsigned nproc = 0;             ///< CPUs this process may run on
    unsigned hardware_threads = 0;  ///< std::thread::hardware_concurrency()
    /// N concurrent spin loops against one: N * t(1) / t(N). A host with a
    /// CPU quota reports more hardware threads than it can run at once.
    double effective_parallelism = 0.0;
    double clock_read_ns = 0.0;
};
[[nodiscard]] HostRecord measure_host();

// --- the timed phase ---------------------------------------------------------

/// One timed operation as its workload reports it: host seconds of the op
/// alone (checks excluded), the verdict of the output check and the
/// simulated lane-steps it completed.
struct OpRecord {
    double seconds = 0.0;
    bool ok = true;
    std::string failure;
    double lane_steps = 0.0;
};

struct Phase {
    struct Sample {
        double seconds = 0.0;
        double end = 0.0;  ///< wall seconds from the phase start to the op's end
        double lane_steps = 0.0;
        bool ok = true;
    };
    std::vector<Sample> samples;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double wall_seconds = 0.0;
    /// Closed-loop clients. One client's host time is the sum of its op
    /// times, so the checks between ops do not count; the ops of several
    /// clients overlap, so their host time is wall time.
    int clients = 1;
    std::size_t rotation = 0;  ///< CPUs the ops rotate over (Placement::kRotate)
    std::string first_failure;

    void add(const OpRecord& op, double end);
    [[nodiscard]] std::vector<double> op_seconds() const;
};

/// How a closed loop places its ops on the CPUs.
enum class Placement {
    kScheduler,  ///< leave it to the scheduler (ops that start threads)
    /// Pin each op of a single-threaded workload to the next CPU in turn.
    /// The host's slow regimes come and go per CPU, so a run that rotates
    /// samples every CPU's regime instead of whichever CPU it landed on.
    /// Every op then starts on a CPU whose private caches are cold.
    kRotate,
};

/// Closed loop with one client: call `op` back to back until `seconds` of
/// wall time have passed (at least `min_ops` times).
[[nodiscard]] Phase run_closed_loop(double seconds, std::size_t min_ops, Placement placement,
                                    const std::function<OpRecord()>& op);

/// Timings over a set of the phase's ops.
struct Timing {
    std::vector<double> op_seconds;
    /// On a rotating phase, the mean op time of each round of one op per
    /// CPU; empty otherwise.
    std::vector<double> round_seconds;
    double ok_ops = 0.0;
    double lane_steps = 0.0;    ///< completed by ops that passed their check
    double host_seconds = 0.0;  ///< these ops' host time (see Phase::clients)
};

/// The op p50: the median op time. On a rotating phase it is the median
/// over rounds of the round's mean op time instead. Each CPU is fast or
/// slow for seconds at a time, so a rotating phase's op times mix the two
/// modes in the share of slow CPUs. With about half the CPUs slow, a plain
/// median jumps between the modes from run to run; a round's mean moves
/// smoothly with that share.
[[nodiscard]] double op_p50_seconds(const Timing& timing);

/// The phase cut into ten equal wall-time windows. Each CPU of the shared
/// host switches between a fast and a slow regime for seconds at a time,
/// and the regime, not the library, then decides which mode a phase-wide
/// median lands in. So the end-to-end timings use the quieter half: the
/// five windows that completed the most ops. The dropped half and the
/// whole phase are printed beside them, and a drift check compares the two
/// halves, so a slowdown confined to part of a run stays visible. The
/// failure counts always cover every op.
struct PhaseTimings {
    Timing quiet;
    Timing dropped;
    Timing whole;
};
[[nodiscard]] PhaseTimings split_phase(const Phase& phase);

// --- results -----------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// The last line of a run: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench
