// Tiered kNativeOrc sweeps and the ModelCache compile thread behind them.
//
// A cold kNativeOrc sweep starts on the fused interpreter while the
// cache's compile thread builds the ORC kernel, and each shard switches to
// the kernel at the first step boundary after the program lands. The
// OrcJitTiering differential forces that switch at chosen steps with a
// deterministic handshake (a shard barrier inside the stimuli) and checks
// the result bit for bit against the interpreter; ModelCacheCompile pins
// the cache contract: one compile per model however many requests, nothing
// lands in a cleared or evicted entry, failures are not cached, and a
// cache never leaks its thread. Suite names OrcJitTiering* and
// ModelCacheCompile* feed the `jit` and `service` ctest labels and the
// repeated, shuffled orc_tiering_stress run.
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
    constexpr std::size_t kSteps = 200;
    constexpr std::size_t kHoldAt = 40;
    runtime::SweepOptions options;
    options.backend = runtime::SweepBackend::kNativeOrc;
    std::vector<runtime::SweepLane> lanes(5);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        lanes[l].stimuli["u0"] = numeric::square_wave(40 * dt, 0.0, 0.2 * (l + 1.0));
    }
    runtime::SweepOptions reference_options;
    const auto reference = runtime::simulate_sweep(model, {}, lanes, kSteps * dt,
                                                   reference_options);

    runtime::SweepService service;
    runtime::SweepJob job;
    job.model = model;
    job.lanes = lanes;
    job.duration_seconds = kSteps * dt;
    job.options = options;
    // Lane 0 holds step kHoldAt until the compile has landed in the cache,
    // which happens before its ticket resolves: the job switches there.
    const std::shared_ptr<runtime::ModelCache> cache = service.cache();
    const double hold_at = static_cast<double>(kHoldAt + 1) * dt;
    job.lanes[0].stimuli["u0"] = [cache, hold_at,
                                  source = job.lanes[0].stimuli["u0"]](double t) {
        if (t == hold_at) {
            while (cache->stats().orc_misses == 0) {
                std::this_thread::yield();
            }
        }
        return source(t);
    };
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

}  // namespace
}  // namespace amsvp::codegen
