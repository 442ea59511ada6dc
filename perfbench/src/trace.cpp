#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

thread_local Sampled g_stimulus_tally;

double span_seconds(const Span& span) { return seconds_between(span.start, span.end); }

}  // namespace

// --- spans and the ledger ----------------------------------------------------

int Trace::add(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
}

std::size_t Trace::ops() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(), [](const Span& s) { return s.parent < 0; }));
}

double Trace::mean_op_seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    std::size_t ops = 0;
    for (const Span& span : spans_) {
        if (span.parent < 0) {
            total += span_seconds(span);
            ++ops;
        }
    }
    return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

std::vector<Trace::LedgerRow> Trace::ledger() const {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t n = spans_.size();
    // A span counts when it and every ancestor are on the op's path;
    // parents are always recorded before their children.
    std::vector<char> counted(n, 0);
    std::vector<double> self(n, 0.0);
    std::size_t ops = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Span& span = spans_[i];
        counted[i] = span.parent < 0 || (span.on_path && counted[static_cast<std::size_t>(span.parent)]);
        self[i] = span_seconds(span);
        for (const auto& [name, seconds] : span.parts) {
            self[i] -= seconds;
        }
        if (span.parent < 0) {
            ++ops;
        } else if (counted[i]) {
            self[static_cast<std::size_t>(span.parent)] -= span_seconds(span);
        }
    }
    std::vector<LedgerRow> rows;
    double unattributed = 0.0;
    const auto add = [&rows](const std::string& layer, double seconds) {
        const auto it = std::find_if(rows.begin(), rows.end(),
                                     [&](const LedgerRow& row) { return row.layer == layer; });
        if (it == rows.end()) {
            rows.push_back({layer, seconds});
        } else {
            it->seconds_per_op += seconds;
        }
    };
    for (std::size_t i = 0; i < n; ++i) {
        if (!counted[i]) {
            continue;
        }
        const Span& span = spans_[i];
        if (span.parent < 0) {
            unattributed += self[i];
        } else {
            add(span.self_name.empty() ? span.name : span.self_name, self[i]);
        }
        for (const auto& [name, seconds] : span.parts) {
            add(name, seconds);
        }
    }
    rows.push_back({"unattributed", unattributed});
    for (LedgerRow& row : rows) {
        row.seconds_per_op /= static_cast<double>(std::max<std::size_t>(ops, 1));
    }
    return rows;
}

std::vector<double> Trace::per_op_seconds(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<int, double> by_op;
    for (const Span& span : spans_) {
        if (span.parent < 0) {
            by_op.emplace(span.op, 0.0);
        }
    }
    for (const Span& span : spans_) {
        if (span.name == name) {
            by_op[span.op] += span_seconds(span);
        }
        for (const auto& [part, seconds] : span.parts) {
            if (part == name) {
                by_op[span.op] += seconds;
            }
        }
    }
    std::vector<double> out;
    out.reserve(by_op.size());
    for (const auto& [op, seconds] : by_op) {
        out.push_back(seconds);
    }
    return out;
}

bool Trace::write_chrome_json(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        return false;
    }
    Clock::time_point epoch = spans_.empty() ? Clock::now() : spans_.front().start;
    for (const Span& span : spans_) {
        epoch = std::min(epoch, span.start);
    }
    const auto micros = [epoch](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch).count();
    };
    std::fprintf(file, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        std::fprintf(file,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %d, \"parent\": %d, "
                     "\"on_path\": %s",
                     i == 0 ? "" : ",\n", span.name.c_str(), span.tid, micros(span.start),
                     micros(span.end) - micros(span.start), span.op, span.parent,
                     span.on_path ? "true" : "false");
        for (const auto& [name, seconds] : span.parts) {
            std::fprintf(file, ", \"%s_us\": %.3f", name.c_str(), seconds * 1e6);
        }
        std::fprintf(file, "}}");
    }
    std::fprintf(file, "\n], \"displayTimeUnit\": \"ns\"}\n");
    return std::fclose(file) == 0;
}

// --- sampled call sites ------------------------------------------------------

double Sampled::per_call(double clock_seconds) const {
    if (samples == 0) {
        return 0.0;
    }
    return std::max(0.0, sampled_seconds / static_cast<double>(samples) - clock_seconds);
}

const Sampled& thread_stimulus_tally() { return g_stimulus_tally; }

numeric::SourceFunction counted_stimulus(numeric::SourceFunction source) {
    return [source = std::move(source)](double t) {
        Sampled& tally = g_stimulus_tally;
        if (++tally.calls % kSampleEvery != 0) {
            return source(t);
        }
        const Clock::time_point start = Clock::now();
        const double value = source(t);
        tally.sampled_seconds += seconds_between(start, Clock::now());
        ++tally.samples;
        return value;
    };
}

// --- sweep shards ------------------------------------------------------------

std::shared_ptr<ShardStats> SweepProbe::new_shard() {
    auto stats = std::make_shared<ShardStats>();
    std::lock_guard<std::mutex> lock(mutex_);
    shards_.push_back(stats);
    return stats;
}

std::size_t SweepProbe::registered() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return shards_.size();
}

std::vector<std::shared_ptr<const ShardStats>> SweepProbe::stepped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::shared_ptr<const ShardStats>> out;
    for (const auto& shard : shards_) {
        if (shard->steps > 0) {
            out.push_back(shard);
        }
    }
    return out;
}

TimedBatch::TimedBatch(std::unique_ptr<runtime::BatchExecutor> inner,
                       std::shared_ptr<SweepProbe> probe)
    : inner_(std::move(inner)), probe_(std::move(probe)), stats_(probe_->new_shard()) {}

void TimedBatch::set_input(int lane, std::size_t index, double value) {
    ShardStats& stats = *stats_;
    if (!stats.started) {
        stats.started = true;
        stats.start = Clock::now();
        // Every traced stimulus is counted, and the call that produced
        // `value` has already landed in this thread's tally.
        stimulus_at_start_ = thread_stimulus_tally();
        stimulus_at_start_.calls -= std::min<std::uint64_t>(stimulus_at_start_.calls, 1);
    }
    if (++stats.set_input.calls % kSampleEvery != 0) {
        inner_->set_input(lane, index, value);
        return;
    }
    const Clock::time_point start = Clock::now();
    inner_->set_input(lane, index, value);
    stats.set_input.sampled_seconds += seconds_between(start, Clock::now());
    ++stats.set_input.samples;
}

void TimedBatch::step(double time_seconds) {
    const Clock::time_point start = Clock::now();
    inner_->step(time_seconds);
    const Clock::time_point end = Clock::now();
    ShardStats& stats = *stats_;
    stats.step_seconds += seconds_between(start, end) - probe_->clock_seconds();
    ++stats.steps;
    stats.lane_steps += static_cast<std::uint64_t>(inner_->batch());
    stats.input_lane_steps += static_cast<std::uint64_t>(inner_->batch()) * inner_->input_count();
    stats.end = end;
    const Sampled& tally = thread_stimulus_tally();
    stats.stimulus.calls = tally.calls - stimulus_at_start_.calls;
    stats.stimulus.samples = tally.samples - stimulus_at_start_.samples;
    stats.stimulus.sampled_seconds = tally.sampled_seconds - stimulus_at_start_.sampled_seconds;
}

void TimedBatch::scan_lane_health(double divergence_limit,
                                  std::vector<runtime::LaneStatus>& status) const {
    const Clock::time_point start = Clock::now();
    inner_->scan_lane_health(divergence_limit, status);
    const Clock::time_point end = Clock::now();
    stats_->scan_seconds += seconds_between(start, end) - probe_->clock_seconds();
    stats_->end = end;
}

std::unique_ptr<runtime::BatchExecutor> TimedBatch::make_shard(int lane_count) const {
    return std::make_unique<TimedBatch>(inner_->make_shard(lane_count), probe_);
}

std::unique_ptr<runtime::BatchExecutor> TimedBatch::make_fallback_shard(int lane_count) const {
    return std::make_unique<TimedBatch>(inner_->make_fallback_shard(lane_count), probe_);
}

SweepTotals totals(const SweepProbe& probe) {
    SweepTotals sum;
    sum.shards = probe.stepped();
    for (std::size_t i = 0; i < sum.shards.size(); ++i) {
        const ShardStats& shard = *sum.shards[i];
        if (i == 0 || shard.start < sum.first_start) {
            sum.first_start = shard.start;
        }
        if (i == 0 || shard.end > sum.last_end) {
            sum.last_end = shard.end;
            sum.critical = i;
        }
        sum.lane_steps += shard.lane_steps;
        sum.input_lane_steps += shard.input_lane_steps;
        sum.step_seconds += shard.step_seconds;
        sum.scan_seconds += shard.scan_seconds;
        sum.busy_seconds += shard.busy_seconds();
        sum.max_busy_seconds = std::max(sum.max_busy_seconds, shard.busy_seconds());
    }
    return sum;
}

void add_shard_spans(Trace& trace, const SweepTotals& sweep, double clock_seconds, int parent,
                     int op) {
    for (std::size_t i = 0; i < sweep.shards.size(); ++i) {
        const ShardStats& shard = *sweep.shards[i];
        Span span;
        span.name = "runtime.sweep_shard";
        span.self_name = "runtime.sweep_driver_other";
        span.start = shard.start;
        span.end = shard.end;
        span.parent = parent;
        span.op = op;
        span.tid = static_cast<int>(i) + 1;
        span.on_path = i == sweep.critical;
        span.parts = {{"runtime.sweep_kernel", shard.step_seconds},
                      {"runtime.sweep_scan", shard.scan_seconds},
                      {"runtime.stimulus", shard.stimulus.estimate(clock_seconds)},
                      {"runtime.set_input", shard.set_input.estimate(clock_seconds)}};
        trace.add(std::move(span));
    }
}

void SweepLayers::add(const SweepTotals& sweep, std::size_t executors) {
    executors_ += static_cast<double>(executors);
    if (sweep.shards.empty()) {
        return;
    }
    lane_steps_ += static_cast<double>(sweep.lane_steps);
    input_lane_steps_ += static_cast<double>(sweep.input_lane_steps);
    kernel_ += sweep.step_seconds;
    scan_ += sweep.scan_seconds;
    driver_ += sweep.busy_seconds - sweep.step_seconds - sweep.scan_seconds;
    for (const auto& shard : sweep.shards) {
        for (auto [total, part] : {std::pair{&stimulus_, &shard->stimulus},
                                   std::pair{&set_input_, &shard->set_input}}) {
            total->calls += part->calls;
            total->samples += part->samples;
            total->sampled_seconds += part->sampled_seconds;
        }
    }
    imbalance_.push_back(sweep.max_busy_seconds * static_cast<double>(sweep.shards.size()) /
                         sweep.busy_seconds);
}

std::vector<Metric> SweepLayers::metrics(double clock_seconds, double ops) const {
    return {
        {"runtime.sweep_kernel_ns_per_lane_step", kernel_ / lane_steps_ * 1e9, "ns"},
        {"runtime.sweep_driver_ns_per_lane_step", driver_ / lane_steps_ * 1e9, "ns"},
        {"runtime.sweep_scan_ns_per_lane_step", scan_ / lane_steps_ * 1e9, "ns"},
        {"runtime.sweep_shard_imbalance", median(imbalance_), "ratio"},
        {"runtime.stimulus_calls_per_lane_step",
         static_cast<double>(stimulus_.calls) / input_lane_steps_, "calls/lane-step"},
        {"runtime.set_input_calls_per_lane_step",
         static_cast<double>(set_input_.calls) / input_lane_steps_, "calls/lane-step"},
        {"runtime.stimulus_ns_per_call", stimulus_.per_call(clock_seconds) * 1e9, "ns"},
        {"runtime.set_input_ns_per_call", set_input_.per_call(clock_seconds) * 1e9, "ns"},
        {"runtime.executors_built", executors_ / ops, "count/op"},
    };
}

// --- the scalar analog step --------------------------------------------------

TimedExecutor::TimedExecutor(std::unique_ptr<runtime::ModelExecutor> inner,
                             std::uint64_t last_step, std::shared_ptr<Stats> stats)
    : inner_(std::move(inner)), last_step_(last_step), stats_(std::move(stats)) {}

void TimedExecutor::step(double time_seconds) {
    Stats& stats = *stats_;
    const std::uint64_t n = ++stats.steps.calls;
    if (n == 1) {
        stats.first_start = Clock::now();
    }
    if (n % kSampleEvery != 0) {
        inner_->step(time_seconds);
    } else {
        const Clock::time_point start = Clock::now();
        inner_->step(time_seconds);
        stats.steps.sampled_seconds += seconds_between(start, Clock::now());
        ++stats.steps.samples;
    }
    if (n == last_step_) {
        stats.last_end = Clock::now();
    }
}

}  // namespace perfbench
