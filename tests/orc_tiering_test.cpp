// Tiered kNativeOrc sweeps and the ModelCache compile thread behind them.
//
// A cold kNativeOrc sweep runs on the fused interpreter. A service job
// queues the ORC compile at its model's first job; a simulate_sweep job
// only once its model's planned interpreted lane-steps reach the compile
// budget. The cache's compile thread builds the kernel, and each shard
// switches to it at the first step boundary after the program lands. The
// OrcJitTiering differential forces that switch at chosen steps with a
// deterministic handshake (a shard barrier inside the stimuli) and checks
// the result bit for bit against the interpreter; OrcJitTieringBudget runs
// jobs on either side of the budget; ModelCacheCompile pins the cache
// contract: one compile per model however many requests, jobs buy it only
// at the budget, nothing lands in a cleared or evicted entry, failures are
// not cached, and a cache never leaks its thread. Suite names
// OrcJitTiering* and ModelCacheCompile* feed the `jit` and `service` ctest
// labels and the repeated, shuffled orc_tiering_stress run.
#include <gtest/gtest.h>

#include <bit>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "codegen/orc_jit.hpp"
#include "netlist/builder.hpp"
#include "runtime/simulate.hpp"
#include "runtime/sweep_service.hpp"
#include "support/fault.hpp"
#include "support/thread_pool.hpp"
#include "tiering_support.hpp"

namespace amsvp::codegen {
namespace {

using State = OrcCompileTicket::State;

abstraction::SignalFlowModel ladder_model(int stages, double timestep = 0.0) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(stages);
    abstraction::AbstractionOptions options;
    if (timestep > 0.0) {
        options.timestep = timestep;
    }
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, options, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return std::move(*model);
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Outputs (bit patterns, so held NaN frames compare too), settled_at and
/// lane_health.
void expect_identical(const runtime::SweepResult& a, const runtime::SweepResult& b) {
    ASSERT_EQ(a.steps, b.steps);
    ASSERT_EQ(a.settled_at, b.settled_at);
    ASSERT_EQ(a.lane_health.size(), b.lane_health.size());
    for (std::size_t l = 0; l < b.lane_health.size(); ++l) {
        EXPECT_EQ(a.lane_health[l].status, b.lane_health[l].status) << "lane " << l;
        EXPECT_EQ(a.lane_health[l].failed_at, b.lane_health[l].failed_at) << "lane " << l;
    }
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (std::size_t o = 0; o < b.outputs.size(); ++o) {
        ASSERT_EQ(a.outputs[o].lanes(), b.outputs[o].lanes());
        ASSERT_EQ(a.outputs[o].size(), b.outputs[o].size());
        for (std::size_t l = 0; l < b.outputs[o].lanes(); ++l) {
            for (std::size_t k = 0; k < b.outputs[o].size(); ++k) {
                ASSERT_TRUE(same_bits(a.outputs[o].value(l, k), b.outputs[o].value(l, k)))
                    << "output " << o << " lane " << l << " step " << k;
            }
        }
    }
}

/// Lands `ticket` at step `step` of every shard. Each shard's first lane
/// holds at that step's stimulus until every shard has arrived; the last
/// to arrive lands the program. No shard can have stepped `step` before,
/// and every shard checks the ticket in that step, so each one switches
/// exactly there.
class LandAtStep {
public:
    LandAtStep(std::shared_ptr<OrcCompileTicket> ticket,
               std::shared_ptr<const OrcJitProgram> program, std::size_t step, double dt,
               int shards)
        : ticket_(std::move(ticket)),
          program_(std::move(program)),
          // The sweep driver samples step k at (k + 1) * dt, computed this way.
          at_(static_cast<double>(step + 1) * dt),
          shards_(shards) {}

    numeric::SourceFunction hold(numeric::SourceFunction source) {
        return [this, source = std::move(source)](double t) {
            if (t == at_) {
                arrive();
            }
            return source(t);
        };
    }

private:
    void arrive() {
        std::unique_lock<std::mutex> lock(mutex_);
        if (++arrived_ == shards_) {
            ticket_->land(program_);
            all_arrived_.notify_all();
            return;
        }
        all_arrived_.wait(lock, [this] { return arrived_ == shards_; });
    }

    std::shared_ptr<OrcCompileTicket> ticket_;
    std::shared_ptr<const OrcJitProgram> program_;
    double at_;
    int shards_;
    std::mutex mutex_;
    std::condition_variable all_arrived_;
    int arrived_ = 0;
};

// ---------------------------------------------------------------------------
// Promotion differential.

TEST(OrcJitTiering, PromotionAtAnyStepIsBitIdenticalToTheInterpreter) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    // Decaying ladder: undriven lanes with an initial charge settle and
    // retire, driven lanes run to the end, and lane 1 starts from NaN and
    // is quarantined at the first health scan (step 16), so promotion lands
    // before, between and after lanes leave the batch.
    const auto model = ladder_model(8, 1e-3);
    const auto states = model.state_symbols();
    ASSERT_FALSE(states.empty());
    const double dt = model.timestep;
    constexpr std::size_t kSteps = 400;
    const double duration = static_cast<double>(kSteps) * dt;
    const auto layout = runtime::ModelLayout::compile(model);
    std::string error;
    const auto program = OrcJitProgram::compile(layout, &error);
    ASSERT_NE(program, nullptr) << error;

    runtime::SweepOptions options;
    options.steady_tolerance = 1e-6;
    options.steady_window = 16;
    options.lane_health_interval = 16;

    for (const int width : {1, 3, 8, 33}) {
        // Every kLaneChunk-th lane is driven: shards start on those lanes,
        // so each shard's first lane stays in its batch to the end. The
        // other lanes decay, except lane 1, which is poisoned.
        std::vector<runtime::SweepLane> lanes(static_cast<std::size_t>(width));
        for (int l = 0; l < width; ++l) {
            runtime::SweepLane& lane = lanes[static_cast<std::size_t>(l)];
            if (l % runtime::BatchCompiledModel::kLaneChunk == 0) {
                lane.stimuli["u0"] = numeric::sine_wave(50.0, 0.5 + 0.1 * l);
                continue;
            }
            lane.stimuli["u0"] = numeric::constant(0.0);
            const double charge =
                l == 1 ? std::numeric_limits<double>::quiet_NaN() : 1e-3 * (1 << (l % 10));
            for (const expr::Symbol& s : states) {
                lane.overrides[s] = charge;
            }
        }
        for (const int threads : {1, 0}) {
            runtime::SweepOptions swept = options;
            swept.threads = threads;
            const int workers =
                threads == 0 ? support::ThreadPool::hardware_threads() : threads;
            const int shards =
                workers > 1 ? static_cast<int>(
                                  runtime::BatchCompiledModel::shard_lanes(width, workers).size())
                            : 1;
            runtime::BatchCompiledModel interpreter(layout, width);
            const auto reference =
                runtime::simulate_sweep(interpreter, model.inputs, {}, lanes, duration, swept);
            ASSERT_EQ(reference.steps, kSteps);
            EXPECT_EQ(reference.promoted_at, kSteps);
            if (width >= 3) {
                EXPECT_EQ(reference.lane_health[1].status, runtime::LaneStatus::kNonFinite);
                EXPECT_LT(reference.settled_at[2], kSteps);  // a lane retired
            }

            for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                                        kSteps - 1}) {
                SCOPED_TRACE("width " + std::to_string(width) + " threads " +
                             std::to_string(threads) + " promoted at " + std::to_string(k));
                auto ticket = std::make_shared<OrcCompileTicket>();
                LandAtStep land(ticket, program, k, dt, shards);
                std::vector<runtime::SweepLane> held = lanes;
                for (const auto& range :
                     runtime::BatchCompiledModel::shard_lanes(width, shards)) {
                    auto& first = held[static_cast<std::size_t>(range.begin)].stimuli["u0"];
                    first = land.hold(std::move(first));
                }
                TieredOrcBatchModel tiered(layout, ticket, width);
                const auto result =
                    runtime::simulate_sweep(tiered, model.inputs, {}, held, duration, swept);
                EXPECT_EQ(result.promoted_at, k);
                expect_identical(result, reference);
                if (shards == 1) {
                    // One shard steps the caller's batch: the whole slot
                    // file — scratch rows included — matches the
                    // interpreter's after the last step.
                    ASSERT_EQ(tiered.batch(), interpreter.batch());
                    for (int l = 0; l < tiered.batch(); ++l) {
                        for (int s = 0; s < static_cast<int>(layout->slot_count()); ++s) {
                            ASSERT_TRUE(same_bits(tiered.slot_value(l, s),
                                                  interpreter.slot_value(l, s)))
                                << "lane " << l << " slot " << s;
                        }
                    }
                }
            }
        }
    }
}

TEST(OrcJitTiering, ShardsShareTheTicketAndFallbackShardsInterpret) {
    const auto model = ladder_model(3);
    const auto layout = runtime::ModelLayout::compile(model);
    auto ticket = std::make_shared<OrcCompileTicket>();
    TieredOrcBatchModel tiered(layout, ticket, 4);
    const auto shard = tiered.make_shard(4);
    const auto fallback = tiered.make_fallback_shard(4);
    EXPECT_NE(dynamic_cast<TieredOrcBatchModel*>(shard.get()), nullptr);
    EXPECT_EQ(dynamic_cast<TieredOrcBatchModel*>(fallback.get()), nullptr);
    if (!orc_available()) {
        return;
    }
    std::string error;
    auto program = OrcJitProgram::compile(layout, &error);
    ASSERT_NE(program, nullptr) << error;
    ticket->land(std::move(program));
    for (runtime::BatchExecutor* executor : {static_cast<runtime::BatchExecutor*>(&tiered),
                                             shard.get(), fallback.get()}) {
        executor->step(model.timestep);
    }
    EXPECT_EQ(tiered.promoted_at(), 0u);
    EXPECT_EQ(shard->promoted_at(), 0u);
    EXPECT_EQ(fallback->promoted_at(), runtime::BatchExecutor::kNeverPromoted);
}

TEST(OrcJitTiering, ColdServiceJobSwitchesAtTheStepAfterTheCompileLands) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model(6);
    const double dt = model.timestep;
    // Far under the model's compile budget: a service job queues the
    // compile at its start whatever its size.
    const double duration = 200 * dt;
    // The hold is at the first step: the compile can land before any later
    // step, but never after the first one's hold. The switch at a step in
    // mid-run is pinned by the promotion differential above.
    constexpr std::size_t kHoldAt = 0;
    runtime::SweepOptions options;
    options.backend = runtime::SweepBackend::kNativeOrc;
    std::vector<runtime::SweepLane> lanes(5);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        lanes[l].stimuli["u0"] = numeric::square_wave(40 * dt, 0.0, 0.2 * (l + 1.0));
    }
    runtime::SweepOptions reference_options;
    const auto reference = runtime::simulate_sweep(model, {}, lanes, duration, reference_options);

    runtime::SweepService service;
    runtime::SweepJob job;
    job.model = model;
    job.lanes = lanes;
    job.duration_seconds = duration;
    job.options = options;
    // Lane 0 holds step kHoldAt until the compile has landed in the cache,
    // which happens before its ticket resolves: the job switches there.
    job.lanes[0].stimuli["u0"] = testing_support::hold_until_compile_lands(
        service.cache(), static_cast<double>(kHoldAt + 1) * dt, job.lanes[0].stimuli["u0"]);
    const auto cold = service.run(job);
    EXPECT_TRUE(cold.diagnostics.empty());
    EXPECT_EQ(cold.promoted_at, kHoldAt);
    expect_identical(cold, reference);

    const auto warm = service.run(job);
    EXPECT_EQ(warm.promoted_at, 0u);
    expect_identical(warm, reference);
    const runtime::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.orc_misses, 1u);
    EXPECT_EQ(stats.cache.orc_hits, 1u);
    EXPECT_EQ(stats.cache.orc_deferred, 0u);
    EXPECT_EQ(stats.native_fallbacks, 0u);
}

TEST(OrcJitTiering, ExitWithTheGlobalCompileInFlightIsClean) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    // A fresh process, not a fork: a forked child would inherit the global
    // cache without its thread.
    const std::string style = ::testing::FLAGS_gtest_death_test_style;
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            const auto model = ladder_model(20);
            runtime::SweepOptions options;
            options.backend = runtime::SweepBackend::kNativeOrc;
            std::vector<runtime::SweepLane> lanes(4);
            for (runtime::SweepLane& lane : lanes) {
                lane.stimuli["u0"] = numeric::constant(1.0);
            }
            const std::uint64_t before = orc_detail::orc_compile_invocations();
            // A job this short stays under the compile budget, so the
            // compile is requested explicitly; the sweep then tiers on it.
            (void)runtime::ModelCache::global().request_orc_program(
                model, runtime::model_fingerprint(model));
            (void)runtime::simulate_sweep(model, {}, lanes, 4 * model.timestep, options);
            // Leave once the compile thread has started the compile: the
            // process exits with the compile running.
            while (orc_detail::orc_compile_invocations() == before) {
                std::this_thread::yield();
            }
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
    ::testing::FLAGS_gtest_death_test_style = style;
}

TEST(OrcJitTiering, OneShotColdSweepStartsNoCompileAndExitsCleanly) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const std::string style = ::testing::FLAGS_gtest_death_test_style;
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            // cold_text's shape: 8 lanes, 2000 steps, far under the budget.
            const auto model = ladder_model(20);
            runtime::SweepOptions options;
            options.backend = runtime::SweepBackend::kNativeOrc;
            std::vector<runtime::SweepLane> lanes(8);
            for (runtime::SweepLane& lane : lanes) {
                lane.stimuli["u0"] = numeric::constant(1.0);
            }
            const std::uint64_t before = orc_detail::orc_compile_invocations();
            const std::uint64_t deferred = runtime::ModelCache::global().stats().orc_deferred;
            const auto result =
                runtime::simulate_sweep(model, {}, lanes, 2000 * model.timestep, options);
            const bool rented = orc_detail::orc_compile_invocations() == before &&
                                runtime::ModelCache::global().stats().orc_deferred ==
                                    deferred + 1 &&
                                result.promoted_at == result.steps;
            std::exit(rented ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
    ::testing::FLAGS_gtest_death_test_style = style;
}

// ---------------------------------------------------------------------------
// The compile budget, through whole jobs: a cold simulate_sweep job queues
// the compile only once its model's planned interpreted lane-steps reach
// ModelCache::compile_budget; a service job queues it at once.

class OrcJitTieringBudget : public ::testing::Test {
protected:
    void SetUp() override {
        if (!orc_available()) {
            GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
        }
    }

    /// A job of undriven, charged ladder lanes planning `fraction` of the
    /// model's compile budget. Steady detection retires every lane after
    /// its decay: the budget counts planned lane-steps, so the job is sized
    /// against it exactly yet steps only the transient.
    static runtime::SweepJob decaying_job(const abstraction::SignalFlowModel& model,
                                          std::size_t lanes, double fraction) {
        runtime::SweepJob job;
        job.model = model;
        job.lanes.resize(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            job.lanes[l].stimuli["u0"] = numeric::constant(0.0);
            for (const expr::Symbol& s : model.state_symbols()) {
                job.lanes[l].overrides[s] = 1e-3 * static_cast<double>(l + 1);
            }
        }
        job.duration_seconds =
            static_cast<double>(testing_support::steps_for_budget(model, lanes, fraction)) *
            model.timestep;
        job.options.backend = runtime::SweepBackend::kNativeOrc;
        job.options.steady_tolerance = 1e-6;
        job.options.steady_window = 16;
        return job;
    }

    static runtime::SweepResult interpreted(const runtime::SweepJob& job) {
        runtime::SweepOptions options = job.options;
        options.backend = runtime::SweepBackend::kInterpreter;
        return runtime::simulate_sweep(job.model, job.stimuli, job.lanes, job.duration_seconds,
                                       options);
    }

    /// `job` as simulate_sweep runs it, over `cache` instead of the global
    /// cache.
    static runtime::SweepResult one_shot(runtime::ModelCache& cache, const runtime::SweepJob& job) {
        return runtime::detail::sweep_model(cache, nullptr,
                                            runtime::detail::CompilePurchase::kRentOrBuy,
                                            job.model, job.stimuli, job.lanes,
                                            job.duration_seconds, job.options, nullptr);
    }
};

TEST_F(OrcJitTieringBudget, JobUnderTheBudgetRunsTheInterpreterAndQueuesNoCompile) {
    const auto model = ladder_model(8, 1e-3);
    const runtime::SweepJob job = decaying_job(model, 8, 0.6);
    const auto reference = interpreted(job);
    ASSERT_LT(reference.settled_at[0], reference.steps);  // the lanes retired

    runtime::ModelCache cache;
    const std::uint64_t before = orc_detail::orc_compile_invocations();
    const auto result = one_shot(cache, job);
    EXPECT_EQ(orc_detail::orc_compile_invocations(), before);
    EXPECT_EQ(result.promoted_at, result.steps);
    EXPECT_TRUE(result.diagnostics.empty());
    expect_identical(result, reference);
    const runtime::ModelCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.orc_deferred, 1u);
    EXPECT_EQ(stats.orc_misses + stats.orc_failures + stats.orc_dropped + stats.orc_discarded,
              0u);
}

TEST_F(OrcJitTieringBudget, ServiceJobUnderTheBudgetQueuesTheCompileAtOnce) {
    const auto model = ladder_model(8, 1e-3);
    const runtime::SweepJob job = decaying_job(model, 8, 0.6);
    const auto reference = interpreted(job);

    runtime::SweepService service;
    const std::uint64_t before = orc_detail::orc_compile_invocations();
    const auto result = service.run(job);
    EXPECT_TRUE(result.diagnostics.empty());
    expect_identical(result, reference);
    // The job queued the compile at its start: joining it compiles nothing
    // more.
    ASSERT_NE(service.cache()->orc_program_for(model), nullptr);
    EXPECT_EQ(orc_detail::orc_compile_invocations(), before + 1);
    const runtime::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.orc_deferred, 0u);
    EXPECT_EQ(stats.cache.orc_misses, 1u);
    EXPECT_EQ(stats.native_fallbacks, 0u);
}

TEST_F(OrcJitTieringBudget, TheJobThatReachesTheBudgetQueuesOneCompile) {
    const auto model = ladder_model(8, 1e-3);
    const runtime::SweepJob job = decaying_job(model, 8, 0.6);  // two of them reach it
    const auto reference = interpreted(job);

    const auto cache = std::make_shared<runtime::ModelCache>();
    const std::uint64_t before = orc_detail::orc_compile_invocations();
    const auto first = one_shot(*cache, job);
    EXPECT_EQ(first.promoted_at, first.steps);
    EXPECT_EQ(orc_detail::orc_compile_invocations(), before);

    // The second job reaches the budget and queues the compile at its
    // start; lane 0 holds the first step until it has landed, so the job
    // switches there (the compile may land before any later step).
    runtime::SweepJob crossing = job;
    crossing.lanes[0].stimuli["u0"] = testing_support::hold_until_compile_lands(
        cache, model.timestep, job.lanes[0].stimuli.at("u0"));
    const auto second = one_shot(*cache, crossing);
    EXPECT_EQ(second.promoted_at, 0u);
    EXPECT_TRUE(second.diagnostics.empty());
    EXPECT_EQ(orc_detail::orc_compile_invocations(), before + 1);
    EXPECT_EQ(cache->stats().orc_hits, 0u);  // it held the ticket

    // Landed: the next job runs the kernel from its first step.
    const auto third = one_shot(*cache, job);
    EXPECT_EQ(third.promoted_at, 0u);
    for (const runtime::SweepResult* result : {&first, &second, &third}) {
        expect_identical(*result, reference);
    }
    const runtime::ModelCache::Stats stats = cache->stats();
    EXPECT_EQ(stats.orc_deferred, 1u);
    EXPECT_EQ(stats.orc_misses, 1u);
    EXPECT_EQ(stats.orc_hits, 1u);
    EXPECT_EQ(orc_detail::orc_compile_invocations(), before + 1);
}

// ---------------------------------------------------------------------------
// The cache contract.

using runtime::ModelCache;
using runtime::model_fingerprint;

/// Wait (yielding) until the compile thread has started one more compile.
void await_compile_start(std::uint64_t invocations_before) {
    while (orc_detail::orc_compile_invocations() == invocations_before) {
        std::this_thread::yield();
    }
}

class ModelCacheCompile : public ::testing::Test {
protected:
    void SetUp() override {
        if (!orc_available()) {
            GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
        }
    }
    void TearDown() override { support::fault::reset(); }
};

TEST_F(ModelCacheCompile, ConcurrentColdRequestsShareOneCompile) {
    constexpr int kRequests = 8;
    const auto model = ladder_model(10);
    const std::string fingerprint = model_fingerprint(model);
    ModelCache cache;
    const std::uint64_t before = orc_detail::orc_compile_invocations();
    std::vector<std::shared_ptr<const OrcJitProgram>> programs(kRequests);
    std::vector<std::thread> clients;
    for (int r = 0; r < kRequests; ++r) {
        clients.emplace_back([&, r] {
            if (r % 2 == 0) {
                programs[static_cast<std::size_t>(r)] = cache.orc_program_for(model, fingerprint);
                return;
            }
            // The tiered path: take the ticket (or a hit) without blocking,
            // then wait for it.
            ModelCache::OrcRequest request = cache.request_orc_program(model, fingerprint);
            if (request.program == nullptr && request.ticket->wait() == State::kLanded) {
                request.program = request.ticket->program();
            }
            programs[static_cast<std::size_t>(r)] = request.program;
        });
    }
    for (std::thread& client : clients) {
        client.join();
    }
    EXPECT_EQ(orc_detail::orc_compile_invocations(), before + 1);
    ASSERT_NE(programs[0], nullptr);
    for (const auto& program : programs) {
        EXPECT_EQ(program.get(), programs[0].get());
    }
    const ModelCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.orc_misses, 1u);
    EXPECT_EQ(stats.orc_failures, 0u);
    EXPECT_EQ(stats.layout_misses, 1u);
}

TEST_F(ModelCacheCompile, BlockingRequestJoinsTheRunningCompile) {
    const auto model = ladder_model(12);
    const std::string fingerprint = model_fingerprint(model);
    ModelCache cache;
    const std::uint64_t before = orc_detail::orc_compile_invocations();
    const ModelCache::OrcRequest cold = cache.request_orc_program(model, fingerprint);
    ASSERT_EQ(cold.program, nullptr);
    ASSERT_NE(cold.ticket, nullptr);
    ASSERT_NE(cold.layout, nullptr);
    await_compile_start(before);
    const auto joined = cache.orc_program_for(model, fingerprint);
    ASSERT_NE(joined, nullptr);
    EXPECT_EQ(cold.ticket->state(), State::kLanded);
    EXPECT_EQ(joined.get(), cold.ticket->program().get());
    EXPECT_EQ(orc_detail::orc_compile_invocations(), before + 1);
    EXPECT_EQ(cache.stats().orc_misses, 1u);
    // Landed: the next request is a plain hit.
    const ModelCache::OrcRequest warm = cache.request_orc_program(model, fingerprint);
    EXPECT_EQ(warm.program.get(), joined.get());
    EXPECT_EQ(warm.ticket, nullptr);
}

TEST_F(ModelCacheCompile, ClearDropsQueuedAndDetachesRunningCompiles) {
    const auto running_model = ladder_model(14);
    const auto queued_model = ladder_model(7);
    ModelCache cache;
    const std::uint64_t before = orc_detail::orc_compile_invocations();
    const auto running = cache.request_orc_program(running_model, model_fingerprint(running_model));
    await_compile_start(before);
    const auto queued = cache.request_orc_program(queued_model, model_fingerprint(queued_model));
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);

    // The running compile still reaches its ticket; neither lands in the
    // cleared cache.
    EXPECT_NE(running.ticket->wait(), State::kFailed);
    EXPECT_NE(queued.ticket->wait(), State::kFailed);
    EXPECT_EQ(cache.size(), 0u);
    ModelCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.orc_failures, 0u);
    // Each compile is booked once: landed before the clear, discarded
    // after it, or dropped before it ran.
    EXPECT_EQ(stats.orc_misses + stats.orc_discarded + stats.orc_dropped, 2u);

    // The next request compiles afresh.
    const std::uint64_t fresh = orc_detail::orc_compile_invocations();
    ASSERT_NE(cache.orc_program_for(running_model), nullptr);
    EXPECT_EQ(orc_detail::orc_compile_invocations(), fresh + 1);
    stats = cache.stats();
    EXPECT_EQ(stats.orc_misses + stats.orc_discarded + stats.orc_dropped, 3u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ModelCacheCompile, EvictionDropsQueuedAndDetachesRunningCompiles) {
    const auto a = ladder_model(14);
    const auto b = ladder_model(7);
    const auto c = ladder_model(3);
    ModelCache cache;
    cache.set_capacity(1);
    const std::uint64_t before = orc_detail::orc_compile_invocations();
    const auto running = cache.request_orc_program(a, model_fingerprint(a));
    await_compile_start(before);
    const auto evicted = cache.request_orc_program(b, model_fingerprint(b));  // evicts a
    const auto current = cache.request_orc_program(c, model_fingerprint(c));  // evicts b
    EXPECT_EQ(cache.stats().evictions, 2u);

    EXPECT_NE(running.ticket->wait(), State::kFailed);
    EXPECT_NE(evicted.ticket->wait(), State::kFailed);
    EXPECT_EQ(current.ticket->wait(), State::kLanded);
    // Only the resident model's compile is cached; each compile is booked
    // once (landed, discarded or dropped).
    EXPECT_EQ(cache.size(), 1u);
    ModelCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.orc_failures, 0u);
    EXPECT_EQ(stats.orc_misses + stats.orc_discarded + stats.orc_dropped, 3u);
    const ModelCache::OrcRequest hit = cache.request_orc_program(c, model_fingerprint(c));
    EXPECT_EQ(hit.program.get(), current.ticket->program().get());

    // The evicted model compiles afresh.
    const std::uint64_t fresh = orc_detail::orc_compile_invocations();
    ASSERT_NE(cache.orc_program_for(a), nullptr);
    EXPECT_EQ(orc_detail::orc_compile_invocations(), fresh + 1);
    stats = cache.stats();
    EXPECT_EQ(stats.orc_misses + stats.orc_discarded + stats.orc_dropped, 4u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ModelCacheCompile, FailureIsNotCachedAndTheNextRequestRetries) {
    const auto model = ladder_model(4);
    ModelCache cache;
    support::fault::arm("jit.orc_materialize", support::fault::Trigger::kOnce);
    std::string error;
    EXPECT_EQ(cache.orc_program_for(model, &error), nullptr);
    EXPECT_NE(error.find("injected fault: jit.orc_materialize"), std::string::npos) << error;
    ModelCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.orc_failures, 1u);
    EXPECT_EQ(stats.orc_misses, 0u);

    const auto retried = cache.request_orc_program(model, model_fingerprint(model));
    ASSERT_NE(retried.ticket, nullptr);  // a new compile, not the failure
    EXPECT_EQ(retried.ticket->wait(), State::kLanded);
    stats = cache.stats();
    EXPECT_EQ(stats.orc_failures, 1u);
    EXPECT_EQ(stats.orc_misses, 1u);
}

TEST_F(ModelCacheCompile, JobsQueueTheCompileOnlyOnceTheirLaneStepsReachTheBudget) {
    const auto model = ladder_model(10);
    const std::string fingerprint = model_fingerprint(model);
    ModelCache cache;
    const std::uint64_t budget =
        ModelCache::compile_budget(*cache.layout_for(model, fingerprint));
    const std::uint64_t before = orc_detail::orc_compile_invocations();
    const ModelCache::OrcRequest rented = cache.request_orc_for_job(model, fingerprint, budget - 1);
    EXPECT_EQ(rented.program, nullptr);
    EXPECT_EQ(rented.ticket, nullptr);
    ASSERT_NE(rented.layout, nullptr);
    EXPECT_EQ(cache.stats().orc_deferred, 1u);

    // One more lane-step reaches the budget: this job buys the compile.
    const ModelCache::OrcRequest bought = cache.request_orc_for_job(model, fingerprint, 1);
    ASSERT_NE(bought.ticket, nullptr);
    EXPECT_EQ(bought.ticket->wait(), State::kLanded);
    EXPECT_EQ(orc_detail::orc_compile_invocations(), before + 1);

    // Landed: every job hits, however small.
    const ModelCache::OrcRequest warm = cache.request_orc_for_job(model, fingerprint, 1);
    EXPECT_EQ(warm.program.get(), bought.ticket->program().get());
    const ModelCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.orc_deferred, 1u);
    EXPECT_EQ(stats.orc_misses, 1u);
    EXPECT_EQ(stats.orc_hits, 1u);
}

TEST_F(ModelCacheCompile, ExplicitRequestsCompileWhateverTheBudget) {
    const auto a = ladder_model(9);
    const auto b = ladder_model(11);
    const std::string fingerprint = model_fingerprint(a);
    ModelCache cache;
    const std::uint64_t before = orc_detail::orc_compile_invocations();
    const ModelCache::OrcRequest requested = cache.request_orc_program(a, fingerprint);
    ASSERT_NE(requested.ticket, nullptr);
    // A job under the budget shares the compile in flight, or hits.
    const ModelCache::OrcRequest job = cache.request_orc_for_job(a, fingerprint, 1);
    EXPECT_TRUE(job.ticket == requested.ticket || job.program != nullptr);
    EXPECT_EQ(requested.ticket->wait(), State::kLanded);
    EXPECT_NE(cache.orc_program_for(b), nullptr);
    EXPECT_EQ(orc_detail::orc_compile_invocations(), before + 2);
    const ModelCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.orc_misses, 2u);
    EXPECT_EQ(stats.orc_deferred, 0u);
}

TEST_F(ModelCacheCompile, ClearAndEvictionForgetTheLaneStepCount) {
    const auto model = ladder_model(10);
    const auto other = ladder_model(3);
    const std::string fingerprint = model_fingerprint(model);
    ModelCache cache;
    const std::uint64_t budget =
        ModelCache::compile_budget(*cache.layout_for(model, fingerprint));
    const std::uint64_t before = orc_detail::orc_compile_invocations();
    EXPECT_EQ(cache.request_orc_for_job(model, fingerprint, budget - 1).ticket, nullptr);
    cache.clear();
    // The count went with the entry: the same job is under budget again.
    EXPECT_EQ(cache.request_orc_for_job(model, fingerprint, budget - 1).ticket, nullptr);
    cache.set_capacity(1);
    (void)cache.layout_for(other);  // evicts the model's entry
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.request_orc_for_job(model, fingerprint, budget - 1).ticket, nullptr);
    EXPECT_EQ(cache.stats().orc_deferred, 3u);
    EXPECT_EQ(orc_detail::orc_compile_invocations(), before);
}

TEST_F(ModelCacheCompile, FailedCompileLeavesTheModelOverBudget) {
    const auto model = ladder_model(4);
    const std::string fingerprint = model_fingerprint(model);
    ModelCache cache;
    const std::uint64_t budget =
        ModelCache::compile_budget(*cache.layout_for(model, fingerprint));
    support::fault::arm("jit.orc_materialize", support::fault::Trigger::kOnce);
    const ModelCache::OrcRequest failed = cache.request_orc_for_job(model, fingerprint, budget);
    ASSERT_NE(failed.ticket, nullptr);
    EXPECT_EQ(failed.ticket->wait(), State::kFailed);

    // Not cached, and the count stays over budget: the next job retries,
    // however small.
    const ModelCache::OrcRequest retried = cache.request_orc_for_job(model, fingerprint, 1);
    ASSERT_NE(retried.ticket, nullptr);
    EXPECT_EQ(retried.ticket->wait(), State::kLanded);
    const ModelCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.orc_failures, 1u);
    EXPECT_EQ(stats.orc_misses, 1u);
    EXPECT_EQ(stats.orc_deferred, 0u);
}

TEST_F(ModelCacheCompile, DestroyingACacheWithCompilesInFlightJoinsItsThread) {
    const auto a = ladder_model(14);
    const auto b = ladder_model(7);
    ModelCache::OrcRequest running;
    ModelCache::OrcRequest queued;
    {
        ModelCache cache;
        const std::uint64_t before = orc_detail::orc_compile_invocations();
        running = cache.request_orc_program(a, model_fingerprint(a));
        await_compile_start(before);
        queued = cache.request_orc_program(b, model_fingerprint(b));
    }
    // Destruction dropped what was queued and joined the running compile.
    EXPECT_NE(running.ticket->state(), State::kPending);
    EXPECT_NE(queued.ticket->state(), State::kPending);
}

TEST(ModelCacheCompileUnavailable, RequestsFailSynchronouslyWithoutLlvm) {
    if (orc_available()) {
        GTEST_SKIP() << "LLVM build: ORC requests compile on the cache's thread";
    }
    const auto model = ladder_model(4);
    ModelCache cache;
    const auto request = cache.request_orc_program(model, model_fingerprint(model));
    EXPECT_EQ(request.program, nullptr);
    ASSERT_NE(request.ticket, nullptr);
    EXPECT_EQ(request.ticket->state(), State::kFailed);
    EXPECT_NE(request.ticket->error().find("AMSVP_WITH_LLVM=OFF"), std::string::npos);
    EXPECT_EQ(cache.stats().orc_failures, 1u);
}

TEST(ModelCacheCompileUnavailable, EveryJobReportsTheMissingBackendWithoutLlvm) {
    if (orc_available()) {
        GTEST_SKIP() << "LLVM build: jobs under the compile budget queue nothing";
    }
    // The kernel can never exist, so the budget never defers the request:
    // every job, however short and however bought, says it ran on the
    // interpreter.
    const auto model = ladder_model(4);
    runtime::SweepJob job;
    job.model = model;
    job.lanes.resize(4);
    for (runtime::SweepLane& lane : job.lanes) {
        lane.stimuli["u0"] = numeric::constant(1.0);
    }
    job.duration_seconds = 10 * model.timestep;
    job.options.backend = runtime::SweepBackend::kNativeOrc;
    const auto expect_fell_back = [](const runtime::SweepResult& result) {
        ASSERT_FALSE(result.diagnostics.empty());
        EXPECT_NE(result.diagnostics.front().find("native sweep backend unavailable"),
                  std::string::npos);
        EXPECT_EQ(result.promoted_at, result.steps);
    };
    runtime::SweepService service;
    ModelCache one_shot_cache;
    for (int j = 0; j < 2; ++j) {
        expect_fell_back(service.run(job));
        bool fell_back = false;
        expect_fell_back(runtime::detail::sweep_model(
            one_shot_cache, nullptr, runtime::detail::CompilePurchase::kRentOrBuy, job.model,
            job.stimuli, job.lanes, job.duration_seconds, job.options, &fell_back));
        EXPECT_TRUE(fell_back);
    }
    const runtime::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.native_fallbacks, 2u);
    EXPECT_EQ(stats.cache.orc_failures, 2u);
    EXPECT_EQ(stats.cache.orc_deferred, 0u);
    EXPECT_EQ(one_shot_cache.stats().orc_failures, 2u);
    EXPECT_EQ(one_shot_cache.stats().orc_deferred, 0u);
}

}  // namespace
}  // namespace amsvp::codegen
