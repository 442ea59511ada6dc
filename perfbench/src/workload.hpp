// The benchmark's named workloads behind one interface. Constructing a
// workload is its set-up (generate inputs from the seed, abstract, compile,
// warm caches and pools) and is what setup_s times, in fresh processes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"

namespace perfbench {

class Workload {
public:
    virtual ~Workload() = default;

    /// The percentile op_tail_ms reports: fixed per workload so that the
    /// quieter half of a run of the benchmark's length leaves at least ten
    /// samples beyond it.
    [[nodiscard]] virtual double tail_percentile() const = 0;

    /// Compute the check references (excluded from setup_s and from the
    /// timed phase). `perturb` corrupts them on purpose, so every op fails.
    virtual void prepare_checks(bool perturb) = 0;

    /// Untraced timed phase. Also records the library's own counters
    /// (cache and service stats) as deltas over the phase.
    [[nodiscard]] virtual Phase run(double seconds) = 0;

    /// Traced timed phase: the same ops and checks, observed from outside
    /// through spans and decorators. Returns the per-layer metrics this
    /// workload measures (counters from the last run() included).
    [[nodiscard]] virtual Phase run_traced(double seconds, Trace& trace, double clock_seconds,
                                           std::vector<Metric>& layers) = 0;

    /// Human-readable lines: the generated inputs' digest and the exact
    /// simulated counts per op, plus workload-specific rates of `timing`.
    [[nodiscard]] virtual std::string describe(const Timing& timing) const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_sweep_mc(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_platform_oa(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_cold_text(std::uint64_t seed);

/// Per-op layer metrics from a trace: the median over ops of the summed
/// span/part durations named `layer`, scaled to `unit_seconds`.
[[nodiscard]] inline double layer_median(const Trace& trace, std::string_view layer,
                                         double unit_seconds) {
    return median(trace.per_op_seconds(layer)) / unit_seconds;
}

}  // namespace perfbench
