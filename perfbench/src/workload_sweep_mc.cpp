// sweep_mc — Monte-Carlo corners of RC20: 64 lanes sharing one 1 ms paper
// square wave, each lane's capacitor initial states drawn from the seed
// (sigma 0.5 V). One op is a model-compiling simulate_sweep of 40,000 steps
// (2 ms simulated) on the warm process-wide ModelCache, two shards on the
// preferred native backend. The kernel and the sweep driver do nearly all
// the work here, and every lane shares one stimulus, so kernel and driver
// changes show on this workload; two shards exercise pool dispatch and
// merge while leaving two cores free.
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "codegen/orc_jit.hpp"
#include "runtime/sweep_service.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kLanes = 64;
constexpr double kDuration = 2e-3;
constexpr double kStateSigma = 0.5;

class SweepMc final : public Workload {
public:
    explicit SweepMc(std::uint64_t seed) : rc20_(abstract_from_text("RC20", paper_text("RC20"))) {
        Rng rng(seed);
        const abstraction::SignalFlowModel& model = rc20_.model;
        std::vector<amsvp::expr::Symbol> states;
        for (const amsvp::expr::Symbol& s : model.state_symbols()) {
            if (std::find(model.inputs.begin(), model.inputs.end(), s) == model.inputs.end()) {
                states.push_back(s);
            }
        }
        lanes_.resize(kLanes);
        for (runtime::SweepLane& lane : lanes_) {
            for (const amsvp::expr::Symbol& s : states) {
                const double v = rng.normal(kStateSigma);
                lane.overrides[s] = v;
                digest_.add(v);
            }
        }
        state_count_ = states.size();
        options_.threads = 2;
        options_.backend = runtime::preferred_native_backend();

        // Warm the process-wide cache (layout, verification, kernel) and
        // the first sweep's allocations.
        runtime::ModelCache::global().clear();
        const runtime::SweepResult warm = runtime::simulate_sweep(
            model, shared_stimuli(), lanes_, kDuration, options_);
        lane_steps_per_op_ = static_cast<double>(kLanes) * static_cast<double>(warm.steps);
    }

    double tail_percentile() const override { return 75.0; }

    void prepare_checks(bool perturb_reference) override {
        runtime::SweepOptions reference_options;
        reference_options.backend = runtime::SweepBackend::kInterpreter;
        reference_options.threads = 1;
        reference_ = runtime::simulate_sweep(rc20_.model, shared_stimuli(), lanes_, kDuration,
                                             reference_options);
        if (perturb_reference) {
            perturb(reference_);
        }
    }

    Phase run(double seconds) override {
        const runtime::ModelCache::Stats before = runtime::ModelCache::global().stats();
        const auto stimuli = shared_stimuli();
        Phase phase = run_closed_loop(seconds, 11, Placement::kScheduler, [&] {
            OpRecord record;
            runtime::SweepResult result;
            const Clock::time_point start = Clock::now();
            try {
                result = runtime::simulate_sweep(rc20_.model, stimuli, lanes_, kDuration, options_);
            } catch (const std::exception& e) {
                record.failure = e.what();
            }
            record.seconds = seconds_between(start, Clock::now());
            return finish(record, result);
        });
        const runtime::ModelCache::Stats after = runtime::ModelCache::global().stats();
        orc_misses_per_op_ = static_cast<double>(after.orc_misses - before.orc_misses) /
                             static_cast<double>(phase.attempted);
        return phase;
    }

    Phase run_traced(double seconds, Trace& trace, double clock_seconds,
                     std::vector<Metric>& layers) override {
        std::map<std::string, numeric::SourceFunction> stimuli;
        for (auto& [name, source] : shared_stimuli()) {
            stimuli[name] = counted_stimulus(source);
        }
        SweepLayers sweep_layers;
        int op_id = 0;
        Phase phase = run_closed_loop(seconds, 11, Placement::kScheduler, [&] {
            OpRecord record;
            runtime::SweepResult result;
            auto probe = std::make_shared<SweepProbe>(clock_seconds);
            const Clock::time_point t0 = Clock::now();
            Clock::time_point t1 = t0, t2 = t0, t3 = t0, t4 = t0;
            try {
                const std::string fingerprint = runtime::model_fingerprint(rc20_.model);
                t1 = Clock::now();
                std::string error;
                auto program = runtime::ModelCache::global().orc_program_for(rc20_.model,
                                                                             fingerprint, &error);
                t2 = Clock::now();
                if (program == nullptr) {
                    throw std::runtime_error("no ORC program: " + error);
                }
                TimedBatch batch(std::make_unique<amsvp::codegen::OrcBatchModel>(program, kLanes),
                                 probe);
                t3 = Clock::now();
                result = runtime::simulate_sweep(batch, rc20_.model.inputs, stimuli, lanes_,
                                                 kDuration, options_);
                t4 = Clock::now();
            } catch (const std::exception& e) {
                record.failure = e.what();
            }
            const Clock::time_point t5 = Clock::now();
            record.seconds = seconds_between(t0, t5);

            const SweepTotals sweep = totals(*probe);
            const int op = op_id++;
            const int root = trace.add({"op", t0, t5, -1, op});
            trace.add({"runtime.fingerprint", t0, t1, root, op});
            trace.add({"runtime.cache_hit", t1, t2, root, op});
            trace.add({"runtime.executor_build", t2, t3, root, op});
            if (!sweep.shards.empty()) {
                trace.add({"support.pool_dispatch", t3, sweep.first_start, root, op});
                add_shard_spans(trace, sweep, clock_seconds, root, op);
                trace.add({"runtime.sweep_merge", sweep.last_end, t4, root, op});
            }
            trace.add({"runtime.executor_release", t4, t5, root, op});

            sweep_layers.add(sweep, probe->registered());
            return finish(record, result);
        });
        layers = sweep_layers.metrics(clock_seconds, static_cast<double>(phase.attempted));
        layers.insert(layers.end(), {
            {"runtime.fingerprint_us", layer_median(trace, "runtime.fingerprint", 1e-6), "us"},
            {"runtime.cache_hit_us", layer_median(trace, "runtime.cache_hit", 1e-6), "us"},
            {"support.pool_dispatch_us", layer_median(trace, "support.pool_dispatch", 1e-6), "us"},
            {"runtime.sweep_merge_ms", layer_median(trace, "runtime.sweep_merge", 1e-3), "ms"},
            {"runtime.orc_misses", orc_misses_per_op_, "count/op"},
        });
        return phase;
    }

    std::string describe(const Timing& /*timing*/) const override {
        char text[512];
        std::snprintf(text, sizeof(text),
                      "inputs: RC20, %d lanes x %zu capacitor states ~ N(0, %.1f V), shared 1 ms "
                      "square wave; digest %s\n"
                      "simulated per op: %.0f lane-steps (%.0f steps of %g s)\n",
                      kLanes, state_count_, kStateSigma, digest_.hex().c_str(), lane_steps_per_op_,
                      lane_steps_per_op_ / kLanes, rc20_.model.timestep);
        return text;
    }

private:
    static std::map<std::string, numeric::SourceFunction> shared_stimuli() {
        return {{"u0", numeric::square_wave(1e-3)}};
    }

    OpRecord finish(OpRecord record, const runtime::SweepResult& result) const {
        if (record.failure.empty()) {
            record.failure = check_sweep(result, reference_);
        }
        record.ok = record.failure.empty();
        record.lane_steps = lane_steps_per_op_;
        return record;
    }

    TextModel rc20_;
    std::vector<runtime::SweepLane> lanes_;
    runtime::SweepOptions options_;
    runtime::SweepResult reference_;
    Digest digest_;
    std::size_t state_count_ = 0;
    double lane_steps_per_op_ = 0.0;
    double orc_misses_per_op_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_mc(std::uint64_t seed) {
    return std::make_unique<SweepMc>(seed);
}

}  // namespace perfbench
