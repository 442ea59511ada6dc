// The traced run's instruments, all outside the library: spans recorded
// around calls into each layer's public functions, and timing decorators
// that observe the sweep engine (runtime::BatchExecutor), the scalar
// executor (runtime::ModelExecutor) and the stimuli through the interfaces
// the library already exposes.
//
// Spans live in memory until the run ends, then go out as Chrome
// trace-event JSON. A layer's self time is its span minus its on-path
// children and minus the aggregated parts measured inside it (kernel
// steps, sampled stimulus calls, ...); the op's own self time is the
// explicit unattributed remainder, so a ledger row per layer plus that
// remainder sums to the traced op time.
//
// Calls far below a microsecond (stimulus evaluation, set_input, the scalar
// analog step) are counted on every call but timed only on every
// kSampleEvery-th call, with the measured clock-read cost subtracted:
// timing each of them separately would multiply the op's time.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "runtime/batch_executor.hpp"
#include "runtime/executor.hpp"

namespace perfbench {

inline constexpr std::uint64_t kSampleEvery = 64;

struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  ///< span index; -1 marks an op's root span
    int op = 0;
    int tid = 0;          ///< display row in the trace viewer
    bool on_path = true;  ///< on the op's critical path (counts in the ledger)
    /// Ledger row for the span's self time when it differs from `name`.
    std::string self_name;
    /// Aggregated sub-layer host seconds measured inside this span.
    std::vector<std::pair<std::string, double>> parts;
};

class Trace {
public:
    /// Record a span; returns its index (thread-safe).
    int add(Span span);

    struct LedgerRow {
        std::string layer;
        double seconds_per_op = 0.0;
    };
    /// Mean self seconds per op by layer, in first-seen order, ending with
    /// the "unattributed" remainder; the rows sum to mean_op_seconds().
    [[nodiscard]] std::vector<LedgerRow> ledger() const;
    [[nodiscard]] double mean_op_seconds() const;
    [[nodiscard]] std::size_t ops() const;

    /// Per op, the summed duration of spans and parts named `name`.
    [[nodiscard]] std::vector<double> per_op_seconds(std::string_view name) const;

    /// Chrome trace-event JSON (chrome://tracing, Perfetto).
    [[nodiscard]] bool write_chrome_json(const std::string& path) const;

private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// Host time per call of a sampled call site, net of the clock-read cost.
struct Sampled {
    std::uint64_t calls = 0;
    std::uint64_t samples = 0;
    double sampled_seconds = 0.0;

    /// Mean host seconds of one call, net of the clock read.
    [[nodiscard]] double per_call(double clock_seconds) const;
    /// Estimated total host seconds of all `calls`.
    [[nodiscard]] double estimate(double clock_seconds) const {
        return per_call(clock_seconds) * static_cast<double>(calls);
    }
};

/// The calling thread's tally of wrapped-stimulus calls. Shard decorators
/// read it before and after their work to attribute calls per shard.
[[nodiscard]] const Sampled& thread_stimulus_tally();

/// Wrap a stimulus so every call counts in the calling thread's tally.
[[nodiscard]] numeric::SourceFunction counted_stimulus(numeric::SourceFunction source);

/// What one sweep shard did, as seen from its decorator. Owned by the
/// SweepProbe, so it outlives the shard executor.
struct ShardStats {
    bool started = false;
    Clock::time_point start;  ///< first set_input: the shard began stepping
    Clock::time_point end;    ///< end of its last step or health scan
    std::uint64_t steps = 0;
    std::uint64_t lane_steps = 0;
    std::uint64_t input_lane_steps = 0;  ///< lane-steps times model inputs
    double step_seconds = 0.0;
    double scan_seconds = 0.0;
    Sampled set_input;
    Sampled stimulus;  ///< the stepping thread's stimulus tally over the shard

    [[nodiscard]] double busy_seconds() const { return seconds_between(start, end); }
};

/// One traced sweep: every shard decorator registers its stats here.
class SweepProbe {
public:
    explicit SweepProbe(double clock_seconds) : clock_seconds_(clock_seconds) {}
    [[nodiscard]] std::shared_ptr<ShardStats> new_shard();
    /// The shards that stepped, in registration order.
    [[nodiscard]] std::vector<std::shared_ptr<const ShardStats>> stepped() const;
    /// Executors decorated for this sweep (stepped or not).
    [[nodiscard]] std::size_t registered() const;
    [[nodiscard]] double clock_seconds() const { return clock_seconds_; }

private:
    double clock_seconds_;
    mutable std::mutex mutex_;
    std::vector<std::shared_ptr<ShardStats>> shards_;
};

/// BatchExecutor decorator timing every step and health scan, counting
/// set_input calls, and handing out decorated shards.
class TimedBatch final : public runtime::BatchExecutor {
public:
    TimedBatch(std::unique_ptr<runtime::BatchExecutor> inner, std::shared_ptr<SweepProbe> probe);

    [[nodiscard]] int batch() const override { return inner_->batch(); }
    [[nodiscard]] std::size_t input_count() const override { return inner_->input_count(); }
    [[nodiscard]] std::size_t output_count() const override { return inner_->output_count(); }
    [[nodiscard]] double timestep() const override { return inner_->timestep(); }
    void reset() override { inner_->reset(); }
    void set_input(int lane, std::size_t index, double value) override;
    void set_value(int lane, const amsvp::expr::Symbol& symbol, double value) override {
        inner_->set_value(lane, symbol, value);
    }
    void step(double time_seconds) override;
    [[nodiscard]] const double* output_lanes(std::size_t index) const override {
        return inner_->output_lanes(index);
    }
    void compact_lanes(const std::vector<int>& keep) override { inner_->compact_lanes(keep); }
    void scan_lane_health(double divergence_limit,
                          std::vector<runtime::LaneStatus>& status) const override;
    [[nodiscard]] std::unique_ptr<runtime::BatchExecutor> make_shard(
        int lane_count) const override;
    [[nodiscard]] std::unique_ptr<runtime::BatchExecutor> make_fallback_shard(
        int lane_count) const override;

private:
    std::unique_ptr<runtime::BatchExecutor> inner_;
    std::shared_ptr<SweepProbe> probe_;
    std::shared_ptr<ShardStats> stats_;
    Sampled stimulus_at_start_;
};

/// Everything a traced sweep measured, summed over its shards.
struct SweepTotals {
    Clock::time_point first_start;
    Clock::time_point last_end;
    std::size_t critical = 0;  ///< index of the shard that ended last
    std::uint64_t lane_steps = 0;
    std::uint64_t input_lane_steps = 0;
    double step_seconds = 0.0;
    double scan_seconds = 0.0;
    double busy_seconds = 0.0;
    double max_busy_seconds = 0.0;
    std::vector<std::shared_ptr<const ShardStats>> shards;
};
[[nodiscard]] SweepTotals totals(const SweepProbe& probe);

/// Add one span per stepped shard under `parent` (the critical shard on the
/// path, the rest off it), each carrying its kernel, scan, stimulus and
/// set_input parts; the shard's self time is the rest of the driver loop.
void add_shard_spans(Trace& trace, const SweepTotals& sweep, double clock_seconds, int parent,
                     int op);

/// The sweep engine's per-layer metrics, accumulated over a traced phase.
class SweepLayers {
public:
    void add(const SweepTotals& sweep, std::size_t executors);
    /// Kernel, driver and scan ns per lane-step, shard imbalance, stimulus
    /// and set_input calls per lane-step and input with their sampled cost,
    /// and executors built per op.
    [[nodiscard]] std::vector<Metric> metrics(double clock_seconds, double ops) const;

private:
    double lane_steps_ = 0.0;
    double input_lane_steps_ = 0.0;
    double kernel_ = 0.0;
    double scan_ = 0.0;
    double driver_ = 0.0;
    double executors_ = 0.0;
    Sampled stimulus_;
    Sampled set_input_;
    std::vector<double> imbalance_;
};

/// ModelExecutor decorator for the platform: counts every analog step and
/// times every kSampleEvery-th one; stamps the first step's start and the
/// end of step number `last_step` (0 stamps no end).
class TimedExecutor final : public runtime::ModelExecutor {
public:
    struct Stats {
        Sampled steps;
        Clock::time_point first_start;
        Clock::time_point last_end;
    };

    TimedExecutor(std::unique_ptr<runtime::ModelExecutor> inner, std::uint64_t last_step,
                  std::shared_ptr<Stats> stats);

    void reset() override { inner_->reset(); }
    void set_input(std::size_t index, double value) override { inner_->set_input(index, value); }
    void step(double time_seconds) override;
    [[nodiscard]] double output(std::size_t index) const override { return inner_->output(index); }
    [[nodiscard]] std::size_t input_count() const override { return inner_->input_count(); }
    [[nodiscard]] std::size_t output_count() const override { return inner_->output_count(); }
    [[nodiscard]] double timestep() const override { return inner_->timestep(); }

private:
    std::unique_ptr<runtime::ModelExecutor> inner_;
    std::uint64_t last_step_;
    std::shared_ptr<Stats> stats_;
};

}  // namespace perfbench
