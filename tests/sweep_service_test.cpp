// runtime::SweepService and runtime::ModelCache: the persistent sweep
// server must return bit-identical results to a direct simulate_sweep call
// on both the cold and the warm path, actually skip the recompiles it
// claims to skip (ModelCache counters,
// codegen::orc_detail::orc_compile_invocations), survive concurrent
// multi-client submission (SweepServiceThreadedSweep* rides the `threads`
// ctest label), and — FaultInjectionService*, riding the `robustness`
// label — never let a failed job poison the artifact cache or the next
// job.
#include <gtest/gtest.h>

#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "codegen/orc_jit.hpp"
#include "netlist/builder.hpp"
#include "runtime/simulate.hpp"
#include "runtime/sweep_service.hpp"
#include "support/fault.hpp"
#include "tiering_support.hpp"

namespace amsvp::runtime {
namespace {

namespace fault = support::fault;

abstraction::SignalFlowModel ladder_model() {
    const netlist::Circuit circuit = netlist::make_rc_ladder(4);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return *model;
}

std::vector<SweepLane> varied_lanes(int count) {
    std::vector<SweepLane> lanes(static_cast<std::size_t>(count));
    for (int l = 0; l < count; ++l) {
        lanes[static_cast<std::size_t>(l)].stimuli["u0"] =
            numeric::square_wave(1e-3, 0.0, 0.5 + 0.25 * static_cast<double>(l));
    }
    return lanes;
}

void expect_identical(const SweepResult& actual, const SweepResult& reference) {
    ASSERT_EQ(actual.steps, reference.steps);
    ASSERT_EQ(actual.settled_at, reference.settled_at);
    ASSERT_EQ(actual.outputs.size(), reference.outputs.size());
    for (std::size_t o = 0; o < reference.outputs.size(); ++o) {
        const numeric::WaveformBatch& a = actual.outputs[o];
        const numeric::WaveformBatch& b = reference.outputs[o];
        ASSERT_EQ(a.lanes(), b.lanes());
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t l = 0; l < b.lanes(); ++l) {
            for (std::size_t k = 0; k < b.size(); ++k) {
                ASSERT_EQ(a.value(l, k), b.value(l, k))
                    << "output " << o << " lane " << l << " step " << k;
            }
        }
    }
    ASSERT_EQ(actual.lane_health.size(), reference.lane_health.size());
    for (std::size_t l = 0; l < reference.lane_health.size(); ++l) {
        EXPECT_EQ(actual.lane_health[l].status, reference.lane_health[l].status);
        EXPECT_EQ(actual.lane_health[l].failed_at, reference.lane_health[l].failed_at);
    }
}

bool diagnostics_mention(const SweepResult& result, const std::string& needle) {
    for (const std::string& d : result.diagnostics) {
        if (d.find(needle) != std::string::npos) {
            return true;
        }
    }
    return false;
}

SweepJob make_job(const abstraction::SignalFlowModel& model, int width, double duration,
                  const SweepOptions& options) {
    SweepJob job;
    job.model = model;
    job.lanes = varied_lanes(width);
    job.duration_seconds = duration;
    job.options = options;
    return job;
}

// --- ModelCache --------------------------------------------------------------

TEST(ModelCacheTest, FingerprintIsDeterministicAndDistinguishesModels) {
    const auto a1 = ladder_model();
    const auto a2 = ladder_model();
    EXPECT_EQ(model_fingerprint(a1), model_fingerprint(a2));

    auto b = ladder_model();
    b.timestep *= 2.0;  // a different discretization is a different kernel
    EXPECT_NE(model_fingerprint(a1), model_fingerprint(b));

    const netlist::Circuit circuit = netlist::make_rc_ladder(6);
    std::string error;
    const auto c = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(c.has_value()) << error;
    EXPECT_NE(model_fingerprint(a1), model_fingerprint(*c));
}

TEST(ModelCacheTest, LayoutServedFromCacheOnRepeatRequest) {
    ModelCache cache;
    const auto model = ladder_model();
    const auto first = cache.layout_for(model);
    const auto second = cache.layout_for(model);
    EXPECT_EQ(first.get(), second.get());  // the same immutable artifact
    const ModelCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.layout_misses, 1u);
    EXPECT_EQ(stats.layout_hits, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ModelCacheTest, ClearDropsEntriesButLiveArtifactsSurvive) {
    ModelCache cache;
    const auto model = ladder_model();
    const auto layout = cache.layout_for(model);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    // The shared_ptr we hold keeps the layout alive and usable.
    BatchCompiledModel batch(layout, 4);
    EXPECT_EQ(batch.batch(), 4);
    // A re-request recompiles (miss), not a stale hit.
    (void)cache.layout_for(model);
    EXPECT_EQ(cache.stats().layout_misses, 2u);
}

TEST(ModelCacheTest, ProgramServedFromCacheSkipsTheCompiler) {
    if (!codegen::orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    ModelCache cache;
    const auto model = ladder_model();
    std::string error;
    const auto first = cache.orc_program_for(model, &error);
    ASSERT_NE(first, nullptr) << error;

    const std::uint64_t invocations_before = codegen::orc_detail::orc_compile_invocations();
    const auto second = cache.orc_program_for(model, &error);
    ASSERT_NE(second, nullptr) << error;
    EXPECT_EQ(second.get(), first.get());
    // The warm request never reached the JIT.
    EXPECT_EQ(codegen::orc_detail::orc_compile_invocations(), invocations_before);

    const ModelCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.orc_misses, 1u);
    EXPECT_EQ(stats.orc_hits, 1u);
    EXPECT_GT(stats.orc_compile_seconds, 0.0);
    EXPECT_GT(stats.orc_compile_seconds_saved, 0.0);
}

// --- Service: bit-identity with simulate_sweep -------------------------------

class SweepServiceTest : public ::testing::Test {};

TEST_F(SweepServiceTest, ColdAndWarmResultsBitIdenticalToSimulateSweep) {
    const auto model = ladder_model();
    const double duration = 150 * model.timestep;

    SweepService service;
    for (const SweepBackend backend : {SweepBackend::kInterpreter, SweepBackend::kNativeOrc}) {
        if (backend == SweepBackend::kNativeOrc && !codegen::orc_available()) {
            continue;
        }
        const bool orc = backend == SweepBackend::kNativeOrc;
        if (orc) {
            // The reference runs the kernel from the first step.
            ASSERT_NE(ModelCache::global().orc_program_for(model), nullptr);
        }
        for (const int width : {1, 7, 8, 33}) {
            for (const int threads : {1, 0}) {
                SweepOptions options;
                options.backend = backend;
                options.threads = threads;
                options.steady_tolerance = 1e-9;  // exercise retirement too
                const auto lanes = varied_lanes(width);
                const SweepResult reference =
                    simulate_sweep(model, {}, lanes, duration, options);

                const SweepResult cold =
                    service.run(make_job(model, width, duration, options));
                if (orc) {
                    // The first cold job queued the compile and may have
                    // ended on the interpreter: join it, so every warm job
                    // runs the kernel from the first step.
                    ASSERT_NE(service.cache()->orc_program_for(model), nullptr);
                }
                const SweepResult warm =
                    service.run(make_job(model, width, duration, options));
                SCOPED_TRACE("backend=" + std::to_string(static_cast<int>(backend)) +
                             " width=" + std::to_string(width) +
                             " threads=" + std::to_string(threads));
                expect_identical(cold, reference);
                expect_identical(warm, reference);
                EXPECT_EQ(cold.diagnostics, reference.diagnostics);
                EXPECT_EQ(warm.diagnostics, reference.diagnostics);
                EXPECT_EQ(reference.promoted_at, orc ? 0u : reference.steps);
                EXPECT_EQ(warm.promoted_at, orc ? 0u : warm.steps);
            }
        }
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.jobs_failed, 0u);
}

TEST_F(SweepServiceTest, WarmRepeatSkipsCompile) {
    const auto model = ladder_model();
    SweepOptions options;
    options.threads = 2;  // multi-shard: shards step the cached artifact too
    options.backend = preferred_native_backend();
    SweepService service;
    SweepJob job = make_job(model, 33, 120 * model.timestep, options);

    const SweepResult cold = service.run(job);
    if (codegen::orc_available()) {
        // The cold job may end before its compile lands: join it, so the
        // warm job below finds the kernel cached.
        ASSERT_NE(service.cache()->orc_program_for(model), nullptr);
    }
    const ServiceStats after_cold = service.stats();
    EXPECT_GT(after_cold.executors_built, 0u);

    const std::uint64_t invocations_before = codegen::orc_detail::orc_compile_invocations();
    const SweepResult warm = service.run(job);
    const ServiceStats after_warm = service.stats();

    // The warm-path contract: zero JIT compiles and zero layout compiles —
    // every compile artifact came from the cache.
    EXPECT_EQ(codegen::orc_detail::orc_compile_invocations(), invocations_before);
    EXPECT_EQ(after_warm.cache.layout_misses, 1u);
    EXPECT_EQ(warm.promoted_at, codegen::orc_available() ? 0u : warm.steps);
    expect_identical(warm, cold);
}

TEST_F(SweepServiceTest, SharedCacheServesManyServices) {
    const auto model = ladder_model();
    auto cache = std::make_shared<ModelCache>();
    ServiceOptions service_options;
    service_options.cache = cache;

    SweepOptions options;
    const SweepJob job = make_job(model, 8, 80 * model.timestep, options);
    {
        SweepService first(service_options);
        (void)first.run(job);
    }
    EXPECT_EQ(cache->stats().layout_misses, 1u);
    {
        SweepService second(service_options);
        (void)second.run(job);
    }
    // The second service inherited the first one's compile work.
    EXPECT_EQ(cache->stats().layout_misses, 1u);
    EXPECT_GE(cache->stats().layout_hits, 1u);
}

TEST_F(SweepServiceTest, DestructorDrainsQueuedJobs) {
    const auto model = ladder_model();
    const SweepOptions options;
    std::vector<std::future<SweepResult>> futures;
    {
        SweepService service;
        for (int j = 0; j < 4; ++j) {
            futures.push_back(
                service.submit(make_job(model, 8, 60 * model.timestep, options)));
        }
    }  // destruction drains the queue before joining
    for (auto& f : futures) {
        const SweepResult result = f.get();
        EXPECT_EQ(result.outputs.at(0).lanes(), 8u);
    }
}

TEST_F(SweepServiceTest, FreeFunctionSharesTheGlobalModelCache) {
    if (!codegen::orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model();
    const auto lanes = varied_lanes(8);
    SweepOptions options;
    options.backend = SweepBackend::kNativeOrc;
    const double duration = 80 * model.timestep;

    const SweepResult first = simulate_sweep(model, {}, lanes, duration, options);
    // The first sweep is under the model's compile budget and queued no
    // compile: compile explicitly.
    ASSERT_NE(ModelCache::global().orc_program_for(model), nullptr);
    const std::uint64_t invocations_before = codegen::orc_detail::orc_compile_invocations();
    const SweepResult second = simulate_sweep(model, {}, lanes, duration, options);
    // The repeat sweep served the kernel from ModelCache::global() — no
    // JIT compile — and stayed bit-identical.
    EXPECT_EQ(codegen::orc_detail::orc_compile_invocations(), invocations_before);
    EXPECT_EQ(second.promoted_at, 0u);
    expect_identical(second, first);
}

TEST_F(SweepServiceTest, MalformedJobsFailTheirFuturesAndTheServiceKeepsServing) {
    const auto model = ladder_model();
    const double duration = 40 * model.timestep;
    std::vector<SweepJob> malformed;
    malformed.push_back(make_job(model, 0, duration, {}));  // no lanes
    malformed.push_back(make_job(model, 4, duration, {}));
    malformed.back().lanes[2].stimuli.clear();  // lane 2 has no stimulus for u0
    SweepOptions zero_window;
    zero_window.steady_tolerance = 1e-9;
    zero_window.steady_window = 0;
    malformed.push_back(make_job(model, 4, duration, zero_window));
    SweepOptions negative_threads;
    negative_threads.threads = -1;
    malformed.push_back(make_job(model, 4, duration, negative_threads));
    malformed.push_back(make_job(model, 4, std::numeric_limits<double>::infinity(), {}));

    SweepService service;
    for (const SweepJob& job : malformed) {
        EXPECT_THROW((void)simulate_sweep(job.model, job.stimuli, job.lanes,
                                          job.duration_seconds, job.options),
                     std::invalid_argument);
        std::future<SweepResult> future = service.submit(job);
        EXPECT_THROW((void)future.get(), std::invalid_argument);
    }
    const SweepJob valid = make_job(model, 4, duration, {});
    expect_identical(service.run(valid), simulate_sweep(model, {}, valid.lanes, duration));
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.jobs_failed, malformed.size());
    EXPECT_EQ(stats.jobs_completed, 1u);
    EXPECT_EQ(stats.executors_built, 1u);  // only the valid job built one
}

TEST_F(SweepServiceTest, NegativeSweepThreadsThrowsAtConstruction) {
    ServiceOptions options;
    options.sweep_threads = -1;
    EXPECT_THROW({ SweepService service(options); }, std::invalid_argument);
}

// --- Service under concurrent clients (runs in the `threads` ctest label) ----

TEST(SweepServiceThreadedSweep, ConcurrentClientsGetBitIdenticalResults) {
    const auto model = ladder_model();
    const double duration = 80 * model.timestep;
    constexpr int kClients = 4;
    constexpr int kJobsPerClient = 3;
    const int widths[kClients] = {1, 7, 8, 33};

    // Per-width references computed up front, single-threaded.
    SweepOptions options;
    options.threads = 2;
    std::vector<SweepResult> references;
    references.reserve(kClients);
    for (const int width : widths) {
        references.push_back(
            simulate_sweep(model, {}, varied_lanes(width), duration, options));
    }

    ServiceOptions service_options;
    service_options.sweep_threads = 2;
    SweepService service(service_options);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int j = 0; j < kJobsPerClient; ++j) {
                const SweepResult result = service.run(
                    make_job(model, widths[c], duration, options));
                expect_identical(result, references[static_cast<std::size_t>(c)]);
            }
        });
    }
    for (std::thread& t : clients) {
        t.join();
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.jobs_submitted, static_cast<std::uint64_t>(kClients * kJobsPerClient));
    EXPECT_EQ(stats.jobs_completed, stats.jobs_submitted);
    EXPECT_EQ(stats.jobs_failed, 0u);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_GE(stats.peak_queue_depth, 1u);
}

// --- Failure containment (FaultInjectionService* rides `robustness`) ---------

class FaultInjectionService : public ::testing::Test {
protected:
    void TearDown() override { fault::reset(); }
};

TEST_F(FaultInjectionService, CompileFailureFallsBackAndDoesNotPoisonTheCache) {
    if (!codegen::orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model();
    SweepOptions options;
    options.backend = SweepBackend::kNativeOrc;
    options.threads = 2;  // shards too: the fallback must not leak into the next job
    const double duration = 80 * model.timestep;
    const SweepResult reference =
        simulate_sweep(model, {}, varied_lanes(16), duration, SweepOptions{});

    SweepService service;
    fault::arm("jit.orc_materialize", fault::Trigger::kAlways);
    // The job starts on the interpreter while its compile runs on the
    // cache's thread: lane 0 holds its shard at the first step until the
    // compile has failed, and the fault stays armed until then.
    SweepJob job = make_job(model, 16, duration, options);
    job.lanes[0].stimuli["u0"] = testing_support::hold_until_compile_fails(
        service.cache(), std::move(job.lanes[0].stimuli["u0"]));
    const SweepResult faulted = service.run(std::move(job));
    fault::disarm("jit.orc_materialize");

    // The job completed on the interpreter, bit-identically, and said so.
    expect_identical(faulted, reference);
    EXPECT_TRUE(diagnostics_mention(faulted, "native sweep backend unavailable"));
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.native_fallbacks, 1u);
    EXPECT_EQ(stats.cache.orc_failures, 1u);
    EXPECT_EQ(stats.cache.orc_misses, 0u);  // the failure was NOT cached
    const std::uint64_t built_by_fallback = stats.executors_built;

    // With the fault gone the same service compiles the kernel after all:
    // a transient failure costs one job its speed, never the model its
    // machine-code backend. Each job builds its own executor, so the healed
    // job steps an ORC one, never the fallback job's interpreter.
    const SweepResult healed = service.run(make_job(model, 16, duration, options));
    expect_identical(healed, reference);
    EXPECT_TRUE(healed.diagnostics.empty());
    // The healed job may end before its compile lands: join it.
    ASSERT_NE(service.cache()->orc_program_for(model), nullptr);
    stats = service.stats();
    EXPECT_EQ(stats.native_fallbacks, 1u);
    EXPECT_EQ(stats.cache.orc_misses, 1u);
    EXPECT_EQ(stats.cache.orc_deferred, 0u);  // service jobs queue the compile at once
    EXPECT_EQ(stats.executors_built, 2 * built_by_fallback);
}

TEST_F(FaultInjectionService, ThrowingStimulusFailsTheJobNotTheService) {
    const auto model = ladder_model();
    SweepOptions options;
    options.threads = 2;
    const double duration = 80 * model.timestep;
    const SweepResult reference = simulate_sweep(model, {}, varied_lanes(8), duration, options);

    SweepService service;
    // A clean job first, so the failing job runs on a warm service — the
    // case where poisoning would actually hurt.
    (void)service.run(make_job(model, 8, duration, options));
    const ServiceStats seeded = service.stats();

    SweepJob bad = make_job(model, 8, duration, options);
    bad.lanes[3].stimuli["u0"] = [](double t) -> double {
        if (t > 0.0) {
            throw std::runtime_error("stimulus hardware went away");
        }
        return 0.0;
    };
    auto future = service.submit(std::move(bad));
    EXPECT_THROW((void)future.get(), std::runtime_error);

    // The service keeps serving and nothing was poisoned: the next clean
    // job is bit-identical to the reference.
    const SweepResult after = service.run(make_job(model, 8, duration, options));
    expect_identical(after, reference);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.jobs_failed, 1u);
    EXPECT_EQ(stats.jobs_completed, seeded.jobs_completed + 1);
    // The failing job's executors died with it; the clean job after it
    // built its own.
    EXPECT_GT(stats.executors_built, seeded.executors_built);
}

TEST_F(FaultInjectionService, ShardAllocFaultDegradesOneShardAndRecovers) {
    const auto model = ladder_model();
    SweepOptions options;
    options.threads = 2;
    const double duration = 80 * model.timestep;
    const SweepResult reference = simulate_sweep(model, {}, varied_lanes(16), duration, options);

    SweepService service;
    fault::arm("sweep.shard_alloc", fault::Trigger::kOnce, 0, /*context=*/1);
    const SweepResult faulted = service.run(make_job(model, 16, duration, options));
    // The job completed bit-identically on the fallback executor and
    // reported the degradation.
    expect_identical(faulted, reference);
    EXPECT_TRUE(diagnostics_mention(faulted, "fallback executor"));

    // The fallback executor died with its job: a clean repeat reports no
    // degradation and stays bit-identical.
    const SweepResult clean = service.run(make_job(model, 16, duration, options));
    expect_identical(clean, reference);
    EXPECT_TRUE(clean.diagnostics.empty());
    EXPECT_EQ(service.stats().jobs_failed, 0u);
}

TEST_F(FaultInjectionService, WorkerFaultHealedBySingleThreadedRetry) {
    const auto model = ladder_model();
    SweepOptions options;
    options.threads = 2;
    const double duration = 80 * model.timestep;
    const SweepResult reference = simulate_sweep(model, {}, varied_lanes(16), duration, options);

    SweepService service;
    fault::arm("pool.worker", fault::Trigger::kOnce);
    const SweepResult healed = service.run(make_job(model, 16, duration, options));
    expect_identical(healed, reference);
    EXPECT_TRUE(diagnostics_mention(healed, "re-ran single-threaded"));
    EXPECT_EQ(service.stats().jobs_failed, 0u);

    // And the persistent worker pool survived for the next job.
    const SweepResult after = service.run(make_job(model, 16, duration, options));
    expect_identical(after, reference);
    EXPECT_TRUE(after.diagnostics.empty());
}

}  // namespace
}  // namespace amsvp::runtime
