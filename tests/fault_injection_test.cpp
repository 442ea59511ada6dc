// Deterministic fault injection (support/fault.hpp): every named fault
// site in the library — JIT compile/load/bind, worker-pool tasks, sweep
// lanes and shard construction — has a test here that arms it, runs the
// real code path, and proves the documented recovery: the job completes,
// healthy results are bit-identical to an unfaulted run, and the failure is
// reported (SweepResult::lane_health / diagnostics, or the error string)
// instead of crashing or silently shipping NaN. (Suite names FaultInjection*
// feed the `robustness` ctest label.)
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "codegen/native_model.hpp"
#include "codegen/orc_jit.hpp"
#include "netlist/builder.hpp"
#include "runtime/simulate.hpp"
#include "support/fault.hpp"
#include "support/thread_pool.hpp"

namespace amsvp::runtime {
namespace {

namespace fault = support::fault;

/// Every test disarms everything it armed: the registry is process-global
/// and a leaked armed site would fire inside an unrelated test.
class FaultInjectionBase : public ::testing::Test {
protected:
    void TearDown() override { fault::reset(); }
};

class FaultInjectionRegistry : public FaultInjectionBase {};
class FaultInjectionJit : public FaultInjectionBase {};
class FaultInjectionPool : public FaultInjectionBase {};
class FaultInjectionSweep : public FaultInjectionBase {};

// --- The registry itself -----------------------------------------------------

TEST_F(FaultInjectionRegistry, UnarmedSitesNeverFire) {
    EXPECT_FALSE(fault::any_armed());
    EXPECT_FALSE(fault::should_fire("jit.compile"));
    EXPECT_EQ(fault::fire_count("jit.compile"), 0);
}

TEST_F(FaultInjectionRegistry, OnceFiresExactlyOnceThenDisarms) {
    fault::arm("x", fault::Trigger::kOnce);
    EXPECT_TRUE(fault::any_armed());
    EXPECT_TRUE(fault::should_fire("x"));
    EXPECT_FALSE(fault::should_fire("x"));
    EXPECT_FALSE(fault::any_armed());
    EXPECT_EQ(fault::fire_count("x"), 1);
}

TEST_F(FaultInjectionRegistry, AlwaysFiresUntilDisarm) {
    fault::arm("x", fault::Trigger::kAlways);
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(fault::should_fire("x"));
    }
    fault::disarm("x");
    EXPECT_FALSE(fault::should_fire("x"));
    EXPECT_EQ(fault::fire_count("x"), 5);  // count survives disarm
}

TEST_F(FaultInjectionRegistry, AfterNSkipsTheFirstNMatchingChecks) {
    fault::arm("x", fault::Trigger::kAfterN, 3);
    EXPECT_FALSE(fault::should_fire("x"));
    EXPECT_FALSE(fault::should_fire("x"));
    EXPECT_FALSE(fault::should_fire("x"));
    EXPECT_TRUE(fault::should_fire("x"));  // 4th check fires
    EXPECT_FALSE(fault::should_fire("x"));
    EXPECT_EQ(fault::fire_count("x"), 1);
}

TEST_F(FaultInjectionRegistry, ContextFiltersBothFiringAndCountdown) {
    fault::arm("x", fault::Trigger::kAfterN, 1, /*context=*/7);
    EXPECT_FALSE(fault::should_fire("x", 3));  // wrong context: no countdown
    EXPECT_FALSE(fault::should_fire("x", 3));
    EXPECT_FALSE(fault::should_fire("x", 7));  // first matching check passes
    EXPECT_FALSE(fault::should_fire("x", 3));
    EXPECT_TRUE(fault::should_fire("x", 7));  // second matching check fires
    EXPECT_EQ(fault::fire_count("x"), 1);
}

TEST_F(FaultInjectionRegistry, ResetClearsSitesAndCounts) {
    fault::arm("x", fault::Trigger::kAlways);
    EXPECT_TRUE(fault::should_fire("x"));
    fault::reset();
    EXPECT_FALSE(fault::any_armed());
    EXPECT_EQ(fault::fire_count("x"), 0);
}

// --- Shared model / sweep scaffolding ---------------------------------------

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
}

bool diagnostics_mention(const SweepResult& result, const std::string& needle) {
    for (const std::string& d : result.diagnostics) {
        if (d.find(needle) != std::string::npos) {
            return true;
        }
    }
    return false;
}

// --- jit.compile / jit.dlopen / jit.dlsym ------------------------------------
// The scalar NativeModel path: every compile is tried twice, so a fault that
// fires once is healed by the retry and a persistent one is reported.

TEST_F(FaultInjectionJit, TransientCompileFailureHealedByRetry) {
    if (!codegen::native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const auto model = ladder_model();
    fault::arm("jit.compile", fault::Trigger::kOnce);
    std::string error;
    const auto native = codegen::NativeModel::compile(model, &error);
    ASSERT_NE(native, nullptr) << error;  // second attempt succeeded
    EXPECT_EQ(fault::fire_count("jit.compile"), 1);
}

TEST_F(FaultInjectionJit, PersistentCompileFailureReportsStderrAndAttempts) {
    if (!codegen::native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const auto model = ladder_model();
    fault::arm("jit.compile", fault::Trigger::kAlways);
    std::string error;
    const auto native = codegen::NativeModel::compile(model, &error);
    EXPECT_EQ(native, nullptr);
    // The diagnostic carries the captured compiler stderr (here: the
    // injected marker) and says how many attempts were spent.
    EXPECT_NE(error.find("compiler stderr"), std::string::npos) << error;
    EXPECT_NE(error.find("injected fault: jit.compile"), std::string::npos) << error;
    EXPECT_NE(error.find("after 2 attempts"), std::string::npos) << error;
    EXPECT_EQ(fault::fire_count("jit.compile"), 2);
}

TEST_F(FaultInjectionJit, TransientDlopenFailureHealedByRetry) {
    if (!codegen::native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const auto model = ladder_model();
    fault::arm("jit.dlopen", fault::Trigger::kOnce);
    std::string error;
    const auto native = codegen::NativeModel::compile(model, &error);
    ASSERT_NE(native, nullptr) << error;
    EXPECT_EQ(fault::fire_count("jit.dlopen"), 1);
}

TEST_F(FaultInjectionJit, TransientDlsymFailureHealedByRetry) {
    if (!codegen::native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const auto model = ladder_model();
    fault::arm("jit.dlsym", fault::Trigger::kOnce);
    std::string error;
    const auto native = codegen::NativeModel::compile(model, &error);
    ASSERT_NE(native, nullptr) << error;
    EXPECT_EQ(fault::fire_count("jit.dlsym"), 1);
}

TEST_F(FaultInjectionJit, PersistentLoadFailureFallsBackToInterpreter) {
    if (!codegen::native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const auto model = ladder_model();
    const std::map<std::string, numeric::SourceFunction> stimuli{
        {"u0", numeric::square_wave(1e-3)}};
    const double duration = 100 * model.timestep;

    fault::arm("jit.dlopen", fault::Trigger::kAlways);
    const auto executor = codegen::native_executor_factory()(model);
    fault::disarm("jit.dlopen");
    EXPECT_EQ(fault::fire_count("jit.dlopen"), 2);  // both attempts

    // The factory still handed back a working executor — the fused
    // interpreter — and it runs bit-identically to a direct one.
    ASSERT_NE(dynamic_cast<CompiledModel*>(executor.get()), nullptr);
    CompiledModel reference(model);
    const TransientResult got = simulate_transient(*executor, model.inputs, stimuli, duration);
    const TransientResult want = simulate_transient(reference, model.inputs, stimuli, duration);
    ASSERT_EQ(got.outputs.size(), want.outputs.size());
    for (std::size_t o = 0; o < want.outputs.size(); ++o) {
        ASSERT_EQ(got.outputs[o].size(), want.outputs[o].size());
        for (std::size_t k = 0; k < want.outputs[o].size(); ++k) {
            ASSERT_EQ(got.outputs[o].value(k), want.outputs[o].value(k)) << "sample " << k;
        }
    }
}

// --- pool.worker -------------------------------------------------------------

TEST_F(FaultInjectionPool, WorkerTaskFaultRethrownOnCaller) {
    support::ThreadPool pool(3);
    fault::arm("pool.worker", fault::Trigger::kOnce);
    try {
        pool.run(16, [](int) {});
        FAIL() << "injected worker fault must rethrow on the caller";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("injected fault: pool.worker"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(fault::fire_count("pool.worker"), 1);
    // The pool survives the failed job.
    std::atomic<int> done{0};
    pool.run(16, [&](int) { done.fetch_add(1); });
    EXPECT_EQ(done.load(), 16);
}

TEST_F(FaultInjectionPool, WorkerFaultInSweepHealedBySingleThreadedRetry) {
    const auto model = ladder_model();
    const auto lanes = varied_lanes(33);
    const double duration = 120 * model.timestep;
    const SweepResult reference = simulate_sweep(model, {}, lanes, duration);

    for (const int threads : {2, 4}) {
        fault::reset();
        fault::arm("pool.worker", fault::Trigger::kOnce);
        SweepOptions options;
        options.threads = threads;
        const SweepResult healed = simulate_sweep(model, {}, lanes, duration, options);
        // The retry runs the whole sweep on the calling thread: results are
        // bit-identical to the reference and the recovery is on record.
        expect_identical(healed, reference);
        EXPECT_TRUE(diagnostics_mention(healed, "worker pool sweep failed"));
        EXPECT_TRUE(diagnostics_mention(healed, "re-ran single-threaded"));
        EXPECT_EQ(fault::fire_count("pool.worker"), 1) << "threads=" << threads;
    }
}

TEST_F(FaultInjectionPool, DeterministicWorkerFailurePropagatesFromRetry) {
    // A failure that also reproduces on the single-threaded retry must reach
    // the caller as an exception, not be swallowed by the recovery path.
    const auto model = ladder_model();
    auto lanes = varied_lanes(16);
    // A stimulus that throws is deterministic: it fails in the pool run and
    // again in the retry.
    const double fail_after = 50 * model.timestep;
    lanes[5].stimuli["u0"] = [fail_after](double t) -> double {
        if (t > fail_after) {
            throw std::runtime_error("stimulus table exhausted");
        }
        return 0.5;
    };
    SweepOptions options;
    options.threads = 4;
    EXPECT_THROW(
        { (void)simulate_sweep(model, {}, lanes, 100 * model.timestep, options); },
        std::runtime_error);
}

// --- sweep.lane_nan ----------------------------------------------------------

TEST_F(FaultInjectionSweep, NanLaneQuarantinedOnInterpreterAtEveryThreadCount) {
    const auto model = ladder_model();
    constexpr int kLanes = 16;
    constexpr int kPoisoned = 3;
    const auto lanes = varied_lanes(kLanes);
    const double duration = 200 * model.timestep;

    SweepOptions options;
    options.lane_health_interval = 8;

    SweepResult single;  // threads=1 run, the cross-thread-count reference
    for (const int threads : {1, 2, 0}) {
        fault::reset();
        // Poison lane kPoisoned's input at its 11th step — the site counts
        // only checks carrying that lane's global index, so the poison step
        // is the same no matter how the sweep is sharded.
        fault::arm("sweep.lane_nan", fault::Trigger::kAfterN, 10, kPoisoned);
        SweepOptions run_options = options;
        run_options.threads = threads;
        const SweepResult result = simulate_sweep(model, {}, lanes, duration, run_options);
        EXPECT_EQ(fault::fire_count("sweep.lane_nan"), 1) << "threads=" << threads;

        ASSERT_EQ(result.lane_health.size(), static_cast<std::size_t>(kLanes));
        for (int l = 0; l < kLanes; ++l) {
            if (l == kPoisoned) {
                EXPECT_EQ(result.lane_health[l].status, LaneStatus::kNonFinite);
                // NaN entered at step 11; the next scan (interval 8) is 16.
                EXPECT_EQ(result.lane_health[l].failed_at, 16u);
            } else {
                EXPECT_EQ(result.lane_health[l].status, LaneStatus::kOk) << "lane " << l;
            }
        }
        // The sweep ran to completion and no NaN leaked into healthy lanes
        // or past the quarantined lane's detection scan.
        for (const auto& w : result.outputs) {
            ASSERT_EQ(w.size(), result.steps);
            for (std::size_t l = 0; l < w.lanes(); ++l) {
                if (static_cast<int>(l) == kPoisoned) {
                    continue;
                }
                for (std::size_t k = 0; k < w.size(); ++k) {
                    ASSERT_TRUE(std::isfinite(w.value(l, k))) << "lane " << l;
                }
            }
        }
        if (threads == 1) {
            single = result;
        } else {
            // Quarantine is part of the bit-identical-across-threads
            // contract: same poison step, same detection scan, same healthy
            // outputs. (The poisoned lane's samples are NaN between the
            // poison step and the scan, and NaN never compares equal — so
            // compare it through bit-tolerant isnan/value pairs instead.)
            ASSERT_EQ(result.steps, single.steps);
            ASSERT_EQ(result.settled_at, single.settled_at);
            for (std::size_t o = 0; o < single.outputs.size(); ++o) {
                const numeric::WaveformBatch& a = result.outputs[o];
                const numeric::WaveformBatch& b = single.outputs[o];
                ASSERT_EQ(a.lanes(), b.lanes());
                ASSERT_EQ(a.size(), b.size());
                for (std::size_t l = 0; l < b.lanes(); ++l) {
                    for (std::size_t k = 0; k < b.size(); ++k) {
                        const double va = a.value(l, k);
                        const double vb = b.value(l, k);
                        ASSERT_TRUE(va == vb || (std::isnan(va) && std::isnan(vb)))
                            << "output " << o << " lane " << l << " step " << k;
                    }
                }
            }
        }
    }
}

TEST_F(FaultInjectionSweep, NanLaneQuarantinedOnNativeBackend) {
    if (!codegen::orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model();
    constexpr int kLanes = 12;
    constexpr int kPoisoned = 7;
    const auto lanes = varied_lanes(kLanes);
    const double duration = 150 * model.timestep;

    std::string error;
    const auto native = codegen::OrcBatchModel::compile(model, kLanes, &error);
    ASSERT_NE(native, nullptr) << error;

    for (const int threads : {1, 2}) {
        fault::reset();
        fault::arm("sweep.lane_nan", fault::Trigger::kAfterN, 5, kPoisoned);
        SweepOptions options;
        options.threads = threads;
        options.lane_health_interval = 4;
        const SweepResult result =
            simulate_sweep(*native, model.inputs, {}, lanes, duration, options);
        EXPECT_EQ(fault::fire_count("sweep.lane_nan"), 1) << "threads=" << threads;
        EXPECT_EQ(result.lane_health[kPoisoned].status, LaneStatus::kNonFinite);
        EXPECT_EQ(result.lane_health[kPoisoned].failed_at, 8u);
        for (int l = 0; l < kLanes; ++l) {
            if (l != kPoisoned) {
                EXPECT_EQ(result.lane_health[l].status, LaneStatus::kOk) << "lane " << l;
            }
        }
    }
}

TEST_F(FaultInjectionSweep, ScanDisabledShipsNanInsteadOfQuarantine) {
    // Documented opt-out: with lane_health_interval = 0 the sweep behaves
    // like the pre-quarantine library — the NaN rides to the end of the
    // poisoned lane's waveform and lane_health stays all-kOk.
    const auto model = ladder_model();
    const auto lanes = varied_lanes(4);
    fault::arm("sweep.lane_nan", fault::Trigger::kAfterN, 10, 1);
    SweepOptions options;
    options.lane_health_interval = 0;
    const SweepResult result = simulate_sweep(model, {}, lanes, 100 * model.timestep, options);
    EXPECT_EQ(result.lane_health[1].status, LaneStatus::kOk);
    const numeric::WaveformBatch& w = result.outputs.front();
    EXPECT_TRUE(std::isnan(w.value(1, w.size() - 1)));
    EXPECT_TRUE(std::isfinite(w.value(0, w.size() - 1)));
}

// --- sweep.shard_alloc -------------------------------------------------------

TEST_F(FaultInjectionSweep, ShardAllocFailureDegradesToFallbackExecutor) {
    const auto model = ladder_model();
    const auto lanes = varied_lanes(33);
    const double duration = 120 * model.timestep;
    const SweepResult reference = simulate_sweep(model, {}, lanes, duration);

    fault::arm("sweep.shard_alloc", fault::Trigger::kOnce, 0, /*context=*/1);
    SweepOptions options;
    options.threads = 4;
    const SweepResult degraded = simulate_sweep(model, {}, lanes, duration, options);
    EXPECT_EQ(fault::fire_count("sweep.shard_alloc"), 1);
    expect_identical(degraded, reference);
    EXPECT_TRUE(diagnostics_mention(degraded, "shard 1"));
    EXPECT_TRUE(diagnostics_mention(degraded, "fallback executor"));
}

TEST_F(FaultInjectionSweep, NativeShardAllocFailureFallsBackToInterpreterShard) {
    if (!codegen::orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model();
    const auto lanes = varied_lanes(24);
    const double duration = 120 * model.timestep;

    std::string error;
    const auto native =
        codegen::OrcBatchModel::compile(model, static_cast<int>(lanes.size()), &error);
    ASSERT_NE(native, nullptr) << error;
    const SweepResult reference =
        simulate_sweep(*native, model.inputs, {}, lanes, duration);

    fault::arm("sweep.shard_alloc", fault::Trigger::kOnce, 0, /*context=*/0);
    SweepOptions options;
    options.threads = 3;
    const SweepResult degraded =
        simulate_sweep(*native, model.inputs, {}, lanes, duration, options);
    EXPECT_EQ(fault::fire_count("sweep.shard_alloc"), 1);
    // Shard 0 ran on the interpreter fallback; ORC and interpreter are
    // bit-identical, so the result still matches exactly.
    expect_identical(degraded, reference);
    EXPECT_TRUE(diagnostics_mention(degraded, "fallback executor"));
}

}  // namespace
}  // namespace amsvp::runtime
