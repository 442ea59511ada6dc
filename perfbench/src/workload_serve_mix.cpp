// serve_mix — one SweepService (sweep_threads = 2) under two closed-loop
// clients: each submits a job, waits on its future, then submits the next,
// which is how the service's callers use it. The seeded job stream is 30 %
// RC1 x 8 lanes, 30 % 2IN x 8, 30 % OA x 64 and 10 % RC20 x 64; every job
// runs 256 steps on the ORC backend with threads = 2 and per-lane square
// waves of seeded amplitude. Per-job overhead dominates here (fingerprint,
// cache lookup, executor pools, pool dispatch, merge) and the kernel does a
// small share of the work — the opposite of sweep_mc. Per-lane stimuli are
// the case a shared-stimulus broadcast must leave unchanged, and the class
// weights put p50 and p99 inside one job class rather than on a boundary.
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <thread>

#include "runtime/sweep_service.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kVariants = 16;  ///< distinct seeded jobs per class
constexpr double kSteps = 256.0;
constexpr double kPeriodSteps = 128.0;

struct JobClass {
    const char* circuit;
    int lanes;
    double weight;
};
constexpr JobClass kClasses[] = {
    {"RC1", 8, 0.3}, {"2IN", 8, 0.3}, {"OA", 64, 0.3}, {"RC20", 64, 0.1}};

struct Variant {
    runtime::SweepJob job;  ///< copied for every submit, outside the op
    runtime::SweepResult reference;
};

/// One lane's stimulus activity in a traced job. Lanes of different shards
/// are stepped by different threads, so each gets its own cache line.
struct alignas(64) LaneProbe {
    Sampled calls;
    Clock::time_point first;
    Clock::time_point last;
};

/// Stimulus wrapper for a traced service job: counts and samples calls, and
/// stamps the first call of the first step and the last step's calls.
numeric::SourceFunction probed(numeric::SourceFunction source, LaneProbe* probe, double first_t,
                               double last_t) {
    return [source = std::move(source), probe, first_t, last_t](double t) {
        const std::uint64_t n = ++probe->calls.calls;
        if (n == 1 && t == first_t) {
            probe->first = Clock::now();
        }
        double value = 0.0;
        if (n % kSampleEvery != 0) {
            value = source(t);
        } else {
            const Clock::time_point start = Clock::now();
            value = source(t);
            probe->calls.sampled_seconds += seconds_between(start, Clock::now());
            ++probe->calls.samples;
        }
        if (t == last_t) {
            probe->last = Clock::now();
        }
        return value;
    };
}

/// A traced job's timeline, as the client saw it.
struct JobRecord {
    Clock::time_point submit;
    Clock::time_point first_stimulus;
    Clock::time_point last_stimulus;
    Clock::time_point ready;
    double fingerprint_seconds = 0.0;
    double cache_hit_seconds = 0.0;
    double input_lane_steps = 0.0;
    Sampled stimulus;           ///< every lane
    Sampled critical_stimulus;  ///< the lanes of the shard that stepped last
};

class ServeMix final : public Workload {
public:
    explicit ServeMix(std::uint64_t seed) : seed_(seed) {
        for (const JobClass& c : kClasses) {
            models_.push_back(abstract_from_text(c.circuit, paper_text(c.circuit)));
        }
        Rng rng(seed);
        for (std::size_t c = 0; c < std::size(kClasses); ++c) {
            const abstraction::SignalFlowModel& model = models_[c].model;
            const double dt = model.timestep;
            for (int v = 0; v < kVariants; ++v) {
                Variant variant;
                variant.job.model = model;
                variant.job.duration_seconds = kSteps * dt;
                variant.job.options.threads = 2;
                variant.job.options.backend = runtime::SweepBackend::kNativeOrc;
                variant.job.lanes.resize(static_cast<std::size_t>(kClasses[c].lanes));
                for (runtime::SweepLane& lane : variant.job.lanes) {
                    for (const amsvp::expr::Symbol& input : model.inputs) {
                        const double amplitude = rng.uniform(0.2, 1.0);
                        digest_.add(amplitude);
                        lane.stimuli[input.name] =
                            numeric::square_wave(kPeriodSteps * dt, -amplitude, amplitude);
                    }
                }
                variants_.push_back(std::move(variant));
            }
        }
        runtime::ServiceOptions options;
        options.sweep_threads = 2;
        service_ = std::make_unique<runtime::SweepService>(options);
        // Warm every model's kernel and the executor pools of every width.
        for (std::size_t c = 0; c < std::size(kClasses); ++c) {
            (void)service_->run(variants_[c * kVariants].job);
        }
        for (int client = 0; client < kClients; ++client) {
            Rng stream = client_stream(client);
            for (int i = 0; i < 64; ++i) {
                digest_.add(static_cast<std::uint64_t>(next_variant(stream)));
            }
        }
    }

    double tail_percentile() const override { return 99.0; }

    void prepare_checks(bool perturb_reference) override {
        runtime::SweepOptions reference_options;
        reference_options.backend = runtime::SweepBackend::kInterpreter;
        reference_options.threads = 1;
        for (Variant& v : variants_) {
            v.reference = runtime::simulate_sweep(v.job.model, v.job.stimuli, v.job.lanes,
                                                  v.job.duration_seconds, reference_options);
            if (perturb_reference) {
                perturb(v.reference);
            }
        }
    }

    Phase run(double seconds) override {
        const runtime::ServiceStats before = service_->stats();
        Phase phase = run_clients(seconds, nullptr);
        const runtime::ServiceStats after = service_->stats();
        const double ops = static_cast<double>(phase.attempted);
        counters_ = {
            {"runtime.executors_built",
             static_cast<double>(after.executors_built - before.executors_built) / ops, "count/op"},
            {"runtime.executors_reused",
             static_cast<double>(after.executors_reused - before.executors_reused) / ops,
             "count/op"},
            {"runtime.orc_misses",
             static_cast<double>(after.cache.orc_misses - before.cache.orc_misses) / ops,
             "count/op"},
            {"runtime.peak_queue_depth", static_cast<double>(after.peak_queue_depth), "count"},
        };
        return phase;
    }

    Phase run_traced(double seconds, Trace& trace, double clock_seconds,
                     std::vector<Metric>& layers) override {
        // The cache-hit probe runs on a warm cache of its own, so it leaves
        // the service's counters untouched.
        side_cache_ = std::make_unique<runtime::ModelCache>();
        for (const TextModel& m : models_) {
            (void)side_cache_->orc_program_for(m.model);
        }
        std::vector<JobRecord> records;
        Phase phase = run_clients(seconds, &records);

        std::sort(records.begin(), records.end(), [](const JobRecord& a, const JobRecord& b) {
            return a.first_stimulus < b.first_stimulus;
        });
        std::vector<double> fingerprint, cache_hit, wait, pre_run, post_run;
        double input_lane_steps = 0.0;
        Sampled sampled;
        for (std::size_t i = 0; i < records.size(); ++i) {
            const JobRecord& r = records[i];
            // The single dispatcher picks this job up once the job it ran
            // before is done: wait until then (estimated from the outside as
            // that job's ready time, capped at this job's first stimulus).
            Clock::time_point picked = r.submit;
            if (i > 0) {
                picked = std::clamp(records[i - 1].ready, r.submit, r.first_stimulus);
            }
            // Dispatch covers fingerprint, cache lookup, executor acquire and
            // pool dispatch inside the service; the fingerprint and cache-hit
            // metrics time those calls beside the submit instead.
            const int op = static_cast<int>(i);
            const int root = trace.add({"op", r.submit, r.ready, -1, op});
            trace.add({"runtime.service_queue_wait", r.submit, picked, root, op});
            trace.add({"runtime.service_dispatch", picked, r.first_stimulus, root, op});
            Span body{"runtime.sweep_in_service", r.first_stimulus, r.last_stimulus, root, op};
            body.parts = {{"runtime.stimulus", r.critical_stimulus.estimate(clock_seconds)}};
            trace.add(std::move(body));
            trace.add({"runtime.service_post_run", r.last_stimulus, r.ready, root, op});

            fingerprint.push_back(r.fingerprint_seconds);
            cache_hit.push_back(r.cache_hit_seconds);
            wait.push_back(seconds_between(r.submit, picked));
            pre_run.push_back(seconds_between(r.submit, r.first_stimulus));
            post_run.push_back(seconds_between(r.last_stimulus, r.ready));
            input_lane_steps += r.input_lane_steps;
            sampled.calls += r.stimulus.calls;
            sampled.samples += r.stimulus.samples;
            sampled.sampled_seconds += r.stimulus.sampled_seconds;
        }
        layers = counters_;
        layers.insert(layers.end(), {
            {"runtime.fingerprint_us", median(fingerprint) * 1e6, "us"},
            {"runtime.cache_hit_us", median(cache_hit) * 1e6, "us"},
            {"runtime.service_queue_wait_us", median(wait) * 1e6, "us"},
            {"runtime.service_pre_run_us", median(pre_run) * 1e6, "us"},
            {"runtime.service_post_run_us", median(post_run) * 1e6, "us"},
            {"runtime.stimulus_calls_per_lane_step",
             static_cast<double>(sampled.calls) / input_lane_steps, "calls/lane-step"},
            {"runtime.stimulus_ns_per_call", sampled.per_call(clock_seconds) * 1e9, "ns"},
        });
        side_cache_.reset();
        return phase;
    }

    std::string describe(const Timing& /*timing*/) const override {
        char text[512];
        std::snprintf(text, sizeof(text),
                      "inputs: %d clients, %d seeded variants per class (RC1x8 30%%, 2IN x8 30%%, "
                      "OA x64 30%%, RC20 x64 10%%), per-lane square-wave amplitudes; digest %s\n"
                      "simulated per op: %.0f steps x 8 or 64 lanes\n",
                      kClients, kVariants, digest_.hex().c_str(), kSteps);
        return text;
    }

private:
    Rng client_stream(int client) const {
        return Rng(seed_ * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(client) + 1);
    }

    std::size_t next_variant(Rng& stream) const {
        std::vector<double> weights;
        for (const JobClass& c : kClasses) {
            weights.push_back(c.weight);
        }
        const std::size_t job_class = stream.pick(weights);
        return job_class * kVariants + static_cast<std::size_t>(stream.next() % kVariants);
    }

    /// Fold a finished job's lane probes into its record: the first and
    /// last stimulus stamps, all calls, and the calls of the shard that
    /// stepped last (the service shards lanes exactly like shard_lanes).
    static void summarize(const std::vector<LaneProbe>& probes, const runtime::SweepJob& job,
                          JobRecord& record) {
        record.first_stimulus = record.ready;
        record.last_stimulus = record.submit;
        record.input_lane_steps =
            static_cast<double>(job.lanes.size() * job.model.inputs.size()) * kSteps;
        const auto shards = runtime::BatchCompiledModel::shard_lanes(
            static_cast<int>(probes.size()), job.options.threads);
        for (const auto& range : shards) {
            Sampled shard;
            Clock::time_point shard_last = record.submit;
            for (int l = range.begin; l < range.begin + range.count; ++l) {
                const LaneProbe& p = probes[static_cast<std::size_t>(l)];
                record.first_stimulus = std::min(record.first_stimulus, p.first);
                shard_last = std::max(shard_last, p.last);
                shard.calls += p.calls.calls;
                shard.samples += p.calls.samples;
                shard.sampled_seconds += p.calls.sampled_seconds;
            }
            record.stimulus.calls += shard.calls;
            record.stimulus.samples += shard.samples;
            record.stimulus.sampled_seconds += shard.sampled_seconds;
            if (shard_last >= record.last_stimulus) {
                record.last_stimulus = shard_last;
                record.critical_stimulus = shard;
            }
        }
    }

    /// Both closed-loop clients until `seconds` have passed. With `records`
    /// the jobs are traced: stimuli probed, fingerprint and cache hit timed
    /// beside each submit (outside the op).
    Phase run_clients(double seconds, std::vector<JobRecord>* records) {
        struct Client {
            std::vector<std::pair<OpRecord, double>> ops;  ///< with their end time
            std::vector<JobRecord> records;
        };
        std::vector<Client> clients(kClients);
        const Clock::time_point start = Clock::now();
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                Client& client = clients[static_cast<std::size_t>(c)];
                Rng stream = client_stream(c);
                while (seconds_between(start, Clock::now()) < seconds) {
                    const Variant& variant = variants_[next_variant(stream)];
                    runtime::SweepJob job = variant.job;
                    JobRecord record;
                    std::vector<LaneProbe> probes;
                    if (records != nullptr) {
                        probes.resize(job.lanes.size());
                        const double dt = job.model.timestep;
                        for (std::size_t l = 0; l < job.lanes.size(); ++l) {
                            for (auto& [name, source] : job.lanes[l].stimuli) {
                                source = probed(std::move(source), &probes[l], dt, kSteps * dt);
                            }
                        }
                        const Clock::time_point t0 = Clock::now();
                        const std::string fingerprint = runtime::model_fingerprint(job.model);
                        const Clock::time_point t1 = Clock::now();
                        (void)side_cache_->orc_program_for(job.model, fingerprint);
                        record.fingerprint_seconds = seconds_between(t0, t1);
                        record.cache_hit_seconds = seconds_between(t1, Clock::now());
                    }
                    OpRecord op;
                    runtime::SweepResult result;
                    record.submit = Clock::now();
                    try {
                        result = service_->submit(std::move(job)).get();
                    } catch (const std::exception& e) {
                        op.failure = e.what();
                    }
                    record.ready = Clock::now();
                    op.seconds = seconds_between(record.submit, record.ready);
                    if (op.failure.empty()) {
                        op.failure = check_sweep(result, variant.reference);
                    }
                    op.ok = op.failure.empty();
                    op.lane_steps = static_cast<double>(variant.job.lanes.size()) * kSteps;
                    client.ops.emplace_back(op, seconds_between(start, record.ready));
                    if (records != nullptr && op.ok) {
                        summarize(probes, variant.job, record);
                        client.records.push_back(record);
                    }
                }
            });
        }
        for (std::thread& t : threads) {
            t.join();
        }
        // The phase's wall time runs up to the last op's completion.
        Phase phase;
        phase.clients = kClients;
        for (Client& client : clients) {
            for (const auto& [op, end] : client.ops) {
                phase.add(op, end);
                phase.wall_seconds = std::max(phase.wall_seconds, end);
            }
            if (records != nullptr) {
                records->insert(records->end(), client.records.begin(), client.records.end());
            }
        }
        return phase;
    }

    std::uint64_t seed_;
    std::vector<TextModel> models_;
    std::vector<Variant> variants_;
    std::unique_ptr<runtime::SweepService> service_;
    std::unique_ptr<runtime::ModelCache> side_cache_;
    std::vector<Metric> counters_;
    Digest digest_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed) {
    return std::make_unique<ServeMix>(seed);
}

}  // namespace perfbench
