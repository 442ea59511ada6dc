// In-process ORC JIT backend: the LLVM-lowered batch kernel must behave
// exactly like the fused interpreter — same strided slot file, same
// per-lane arithmetic, bit-for-bit at every batch width and thread count
// (the lowering never enables fast-math or FP contraction, and libm
// resolves to this process's own functions). Every ORC test here skips
// gracefully in an AMSVP_WITH_LLVM=OFF build, where the degradation tests
// check the interpreter fallback instead. (Suite name
// ThreadedSweepOrcCompile feeds the `threads` ctest label.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "codegen/llvm_lowering.hpp"
#include "codegen/orc_jit.hpp"
#include "netlist/builder.hpp"
#include "random_models.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/lane_layout.hpp"
#include "runtime/simulate.hpp"
#include "runtime/sweep_service.hpp"
#include "support/fault.hpp"
#include "support/thread_pool.hpp"
#include "tiering_support.hpp"

namespace amsvp::codegen {
namespace {

abstraction::SignalFlowModel ladder_model(int stages, double timestep = 0.0) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(stages);
    abstraction::AbstractionOptions options;
    if (timestep > 0.0) {
        options.timestep = timestep;
    }
    std::string error;
    auto model =
        abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, options, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return std::move(*model);
}

abstraction::SignalFlowModel random_model(unsigned seed) {
    const auto random = testing_support::make_random_rc(seed);
    std::string error;
    auto model = abstraction::abstract_circuit(random.circuit,
                                               {{random.observed_node, "gnd"}}, {}, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return std::move(*model);
}

void expect_identical(const runtime::SweepResult& a, const runtime::SweepResult& b) {
    ASSERT_EQ(a.steps, b.steps);
    ASSERT_EQ(a.settled_at, b.settled_at);
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (std::size_t o = 0; o < b.outputs.size(); ++o) {
        const numeric::WaveformBatch& x = a.outputs[o];
        const numeric::WaveformBatch& y = b.outputs[o];
        ASSERT_EQ(x.lanes(), y.lanes());
        ASSERT_EQ(x.size(), y.size());
        for (std::size_t l = 0; l < y.lanes(); ++l) {
            for (std::size_t k = 0; k < y.size(); ++k) {
                ASSERT_EQ(x.value(l, k), y.value(l, k))
                    << "output " << o << " lane " << l << " step " << k;
            }
        }
    }
}

std::vector<runtime::SweepLane> varied_lanes(const abstraction::SignalFlowModel& model,
                                             int n_lanes) {
    std::vector<runtime::SweepLane> lanes(static_cast<std::size_t>(n_lanes));
    const expr::Symbol out_node = model.outputs.front();
    for (int l = 0; l < n_lanes; ++l) {
        lanes[static_cast<std::size_t>(l)].stimuli["u0"] =
            numeric::square_wave(1e-3, 0.0, 0.5 + 0.25 * static_cast<double>(l));
        lanes[static_cast<std::size_t>(l)].overrides[out_node] =
            0.01 * static_cast<double>(l);
    }
    return lanes;
}

bool diagnostics_mention(const runtime::SweepResult& result, const std::string& text) {
    for (const std::string& d : result.diagnostics) {
        if (d.find(text) != std::string::npos) {
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------------
// IR lowering (text level).

TEST(OrcJitLowering, EmitsOneBatchEntryPointWithoutFastMath) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model(3);
    const auto layout = runtime::ModelLayout::compile(model);
    std::string error;
    const auto ir = lower_to_ir_text(layout, runtime::LaneLayout::kVectorRow, &error);
    ASSERT_TRUE(ir.has_value()) << error;

    // The batch kernel is the only function defined, before and after the
    // pipeline: the scalar kernel is lowered into a module of its own.
    for (const std::string* text : {&ir->unoptimized, &ir->optimized}) {
        const std::size_t first = text->find("define ");
        ASSERT_NE(first, std::string::npos);
        EXPECT_EQ(text->find("define void @amsvp_orc_step_batch("), first);
        EXPECT_EQ(text->rfind("define "), first);
    }
    // The bit-exactness contract in IR form: no fast-math/contract flags,
    // no fmuladd intrinsic (two-rounding mul+add only).
    for (const std::string* text : {&ir->unoptimized, &ir->optimized}) {
        EXPECT_EQ(text->find("fast "), std::string::npos);
        EXPECT_EQ(text->find(" contract "), std::string::npos);
        EXPECT_EQ(text->find("llvm.fmuladd"), std::string::npos);
    }
    // The batch kernel is vector-native: explicit <4 x double> rows in the
    // lowered IR (both dumps — the shape does not depend on any
    // vectorization pass), no loop-vectorize annotation left anywhere, and
    // no scalar tail loop either — the row loop covers every padded row,
    // ghost lanes included.
    for (const std::string* text : {&ir->unoptimized, &ir->optimized}) {
        EXPECT_NE(text->find("<4 x double>"), std::string::npos);
        EXPECT_EQ(text->find("llvm.loop.vectorize.enable"), std::string::npos);
    }
    EXPECT_NE(ir->unoptimized.find("row.body"), std::string::npos);
    EXPECT_EQ(ir->unoptimized.find("tail.body"), std::string::npos);
}

TEST(OrcJitLowering, EmitsOneScalarEntryPointWithoutFastMath) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto layout = runtime::ModelLayout::compile(ladder_model(3));
    std::string error;
    const auto ir = lower_to_ir_text(layout, 1, &error);
    ASSERT_TRUE(ir.has_value()) << error;

    // One straight-line function over single doubles, before and after the
    // pipeline: no batch argument, no row loop, no vector rows, and the
    // same bit-exactness contract as the batch kernel.
    for (const std::string* text : {&ir->unoptimized, &ir->optimized}) {
        const std::size_t first = text->find("define ");
        ASSERT_NE(first, std::string::npos);
        EXPECT_EQ(text->find("define void @amsvp_orc_step(double* noalias nocapture"), first)
            << *text;
        EXPECT_EQ(text->rfind("define "), first);
        EXPECT_EQ(text->find(" x double>"), std::string::npos);
        EXPECT_EQ(text->find("row."), std::string::npos);
        EXPECT_EQ(text->find("fast "), std::string::npos);
        EXPECT_EQ(text->find(" contract "), std::string::npos);
        EXPECT_EQ(text->find("llvm.fmuladd"), std::string::npos);
    }
}

TEST(OrcJitLowering, UnavailableBuildReportsCleanError) {
    if (orc_available()) {
        GTEST_SKIP() << "LLVM build: the stub error path is compiled out";
    }
    const auto model = ladder_model(2);
    const auto layout = runtime::ModelLayout::compile(model);
    std::string error;
    for (const int row_width : {runtime::LaneLayout::kVectorRow, 1}) {
        error.clear();
        EXPECT_FALSE(lower_to_ir_text(layout, row_width, &error).has_value());
        EXPECT_NE(error.find("AMSVP_WITH_LLVM=OFF"), std::string::npos);
    }
    EXPECT_EQ(llvm_backend_version(), "none");
    error.clear();
    EXPECT_EQ(OrcJitProgram::compile(layout, &error), nullptr);
    EXPECT_NE(error.find("AMSVP_WITH_LLVM=OFF"), std::string::npos);
    error.clear();
    EXPECT_EQ(OrcModel::compile(layout, &error), nullptr);
    EXPECT_NE(error.find("AMSVP_WITH_LLVM=OFF"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Execution differentials vs the fused interpreter.

TEST(OrcJitModel, SlotFileMatchesInterpreterSlotForSlot) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model(5);
    // Width 5: not a row-multiple, so the last padded row mixes one live
    // lane with three computed ghost lanes.
    constexpr int kWidth = 5;
    std::string error;
    const auto program = OrcJitProgram::compile(runtime::ModelLayout::compile(model), &error);
    ASSERT_NE(program, nullptr) << error;
    OrcBatchModel orc(program, kWidth);
    runtime::BatchCompiledModel interp(model, kWidth);

    const int model_slots = static_cast<int>(interp.layout()->model_slot_count());
    const auto stimulus = numeric::sine_wave(1000.0);
    const double dt = model.timestep;
    for (int k = 1; k <= 300; ++k) {
        const double t = k * dt;
        for (int l = 0; l < kWidth; ++l) {
            const double v = stimulus(t) * (1.0 + 0.1 * static_cast<double>(l));
            orc.set_input(l, 0, v);
            interp.set_input(l, 0, v);
        }
        orc.step(t);
        interp.step(t);
        for (int l = 0; l < kWidth; ++l) {
            for (int s = 0; s < model_slots; ++s) {
                ASSERT_EQ(orc.slot_value(l, s), interp.slot_value(l, s))
                    << "lane " << l << " slot " << s << " at step " << k;
            }
        }
    }
}

TEST(OrcJitModel, CompactLanesPreservesSurvivorsBitForBit) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model(4);
    std::string error;
    const auto program = OrcJitProgram::compile(runtime::ModelLayout::compile(model), &error);
    ASSERT_NE(program, nullptr) << error;
    OrcBatchModel orc(program, 7);
    runtime::BatchCompiledModel interp(model, 7);

    const double dt = model.timestep;
    auto drive = [&](runtime::BatchExecutor& m, int width, int from_step, int to_step) {
        for (int k = from_step; k <= to_step; ++k) {
            for (int l = 0; l < width; ++l) {
                m.set_input(l, 0, 0.5 + 0.25 * static_cast<double>(l));
            }
            m.step(k * dt);
        }
    };
    drive(orc, 7, 1, 50);
    drive(interp, 7, 1, 50);
    // 7 -> 3 lanes crosses a padded-row boundary, so the kernel must pick up
    // the re-strided slot file.
    const std::vector<int> keep{0, 2, 5};
    orc.compact_lanes(keep);
    interp.compact_lanes(keep);
    ASSERT_EQ(orc.batch(), 3);
    drive(orc, 3, 51, 120);
    drive(interp, 3, 51, 120);
    for (int l = 0; l < 3; ++l) {
        ASSERT_EQ(orc.output(l, 0), interp.output(l, 0)) << "lane " << l;
    }
    // reset() restores the constructed width on both sides.
    orc.reset();
    interp.reset();
    EXPECT_EQ(orc.batch(), 7);
    EXPECT_EQ(interp.batch(), 7);
}

TEST(OrcJitModel, RandomModelsMatchInterpreterSlotForSlot) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    for (unsigned seed : {1u, 7u, 23u}) {
        const auto model = random_model(seed);
        constexpr int kWidth = 3;
        std::string error;
        const auto program =
            OrcJitProgram::compile(runtime::ModelLayout::compile(model), &error);
        ASSERT_NE(program, nullptr) << "seed " << seed << ": " << error;
        OrcBatchModel orc(program, kWidth);
        runtime::BatchCompiledModel interp(model, kWidth);

        const int model_slots = static_cast<int>(interp.layout()->model_slot_count());
        const double dt = model.timestep;
        for (int k = 1; k <= 200; ++k) {
            const double t = k * dt;
            for (int l = 0; l < kWidth; ++l) {
                const double v = 0.5 + 0.25 * static_cast<double>(l) + 0.1 * std::sin(t * 500.0);
                orc.set_input(l, 0, v);
                interp.set_input(l, 0, v);
            }
            orc.step(t);
            interp.step(t);
            for (int l = 0; l < kWidth; ++l) {
                for (int s = 0; s < model_slots; ++s) {
                    ASSERT_EQ(orc.slot_value(l, s), interp.slot_value(l, s))
                        << "seed " << seed << " lane " << l << " slot " << s
                        << " at step " << k;
                }
            }
        }
    }
}

TEST(OrcJitModel, WidthOneMatchesScalarInterpreter) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model(4);
    std::string error;
    const auto program = OrcJitProgram::compile(runtime::ModelLayout::compile(model), &error);
    ASSERT_NE(program, nullptr) << error;

    // One live lane in one padded row: the kernel computes three ghost
    // lanes beside it, and the live lane must still track the scalar
    // interpreter instance slot for slot.
    OrcBatchModel orc(program, 1);
    runtime::CompiledModel scalar(program->layout());
    const int model_slots = static_cast<int>(program->layout()->model_slot_count());
    const double dt = model.timestep;
    for (int k = 1; k <= 200; ++k) {
        const double t = k * dt;
        const double v = 0.75 + 0.25 * std::sin(t * 800.0);
        orc.set_input(0, 0, v);
        scalar.set_input(0, v);
        orc.step(t);
        scalar.step(t);
        for (int s = 0; s < model_slots; ++s) {
            ASSERT_EQ(orc.slot_value(0, s), scalar.slot_value(s))
                << "slot " << s << " at step " << k;
        }
    }
}

TEST(OrcJitModel, RandomNonlinearModelsMatchInterpreterWholeSlotFile) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    // Nonlinear models push forwarded row values through scalarized libm
    // calls, selects and comparisons. Every slot is compared, scratch rows
    // included: the kernel stores every instruction's row, so the whole
    // slot file must match the interpreter's after each step.
    for (unsigned seed = 1; seed <= 12; ++seed) {
        const auto model = testing_support::make_random_signal_flow(seed);
        std::string error;
        const auto program =
            OrcJitProgram::compile(runtime::ModelLayout::compile(model), &error);
        ASSERT_NE(program, nullptr) << "seed " << seed << ": " << error;
        const int slots = static_cast<int>(program->layout()->slot_count());
        for (const int width : {1, 3, 4, 5, 17}) {
            OrcBatchModel orc(program, width);
            runtime::BatchCompiledModel interp(program->layout(), width);
            std::mt19937 rng(seed * 31u + static_cast<unsigned>(width));
            std::uniform_real_distribution<double> input(-1.0, 1.0);
            for (int k = 1; k <= 100; ++k) {
                const double t = k * model.timestep;
                for (int l = 0; l < width; ++l) {
                    for (std::size_t i = 0; i < model.inputs.size(); ++i) {
                        const double u = input(rng);
                        orc.set_input(l, i, u);
                        interp.set_input(l, i, u);
                    }
                }
                orc.step(t);
                interp.step(t);
                for (int l = 0; l < width; ++l) {
                    for (int s = 0; s < slots; ++s) {
                        ASSERT_EQ(orc.slot_value(l, s), interp.slot_value(l, s))
                            << "seed " << seed << " width " << width << " lane " << l
                            << " slot " << s << " at step " << k;
                    }
                }
            }
        }
    }
}

TEST(OrcJitModel, FallbackShardIsInterpreterAndBitIdentical) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model(3);
    std::string error;
    const auto program = OrcJitProgram::compile(runtime::ModelLayout::compile(model), &error);
    ASSERT_NE(program, nullptr) << error;
    OrcBatchModel orc(program, 4);
    auto fallback = orc.make_fallback_shard(4);
    ASSERT_NE(fallback, nullptr);
    // The degraded shard is an interpreter batch, not another ORC batch.
    EXPECT_EQ(dynamic_cast<OrcBatchModel*>(fallback.get()), nullptr);

    const double dt = model.timestep;
    for (int k = 1; k <= 100; ++k) {
        for (int l = 0; l < 4; ++l) {
            orc.set_input(l, 0, 0.25 * static_cast<double>(l + 1));
            fallback->set_input(l, 0, 0.25 * static_cast<double>(l + 1));
        }
        orc.step(k * dt);
        fallback->step(k * dt);
    }
    for (int l = 0; l < 4; ++l) {
        ASSERT_EQ(orc.output_lanes(0)[static_cast<std::size_t>(l)],
                  fallback->output_lanes(0)[static_cast<std::size_t>(l)]);
    }
}

// ---------------------------------------------------------------------------
// The sweep backend: interpreter vs ORC, lane for lane.

TEST(OrcJitSweepBackend, PreferredNativeBackendMatchesBuild) {
    EXPECT_EQ(runtime::preferred_native_backend(),
              orc_available() ? runtime::SweepBackend::kNativeOrc
                              : runtime::SweepBackend::kInterpreter);
}

TEST(OrcJitSweepBackend, BitIdenticalAcrossWidthsThreadsAndBackends) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = random_model(901u);
    const double duration = 300 * model.timestep;
    // This differential is about the kernel: warm the global cache so every
    // kNativeOrc sweep below runs it from the first step.
    std::string error;
    ASSERT_NE(runtime::ModelCache::global().orc_program_for(model, &error), nullptr) << error;
    for (const int width : {1, 4, 7, 8, 16, 33}) {
        const auto lanes = varied_lanes(model, width);
        for (const int threads : {1, 0}) {
            SCOPED_TRACE("width " + std::to_string(width) + " threads " +
                         std::to_string(threads));
            runtime::SweepOptions options;
            options.threads = threads;
            const auto reference =
                runtime::simulate_sweep(model, {}, lanes, duration, options);

            options.backend = runtime::SweepBackend::kNativeOrc;
            const auto orc = runtime::simulate_sweep(model, {}, lanes, duration, options);
            EXPECT_TRUE(orc.diagnostics.empty());
            EXPECT_EQ(orc.promoted_at, 0u);
            expect_identical(orc, reference);
        }
    }
}

TEST(OrcJitSweepBackend, SteadyStateRetirementMatchesInterpreter) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    // Pure decay with per-lane initial charge: lanes settle at different
    // steps, so the ORC path exercises retirement, in-place compaction
    // and the kernel's dynamic-width row loop on the shrinking batch.
    const auto model = ladder_model(20, 1e-3);
    const auto states = model.state_symbols();
    ASSERT_FALSE(states.empty());

    constexpr int kLanes = 24;
    std::vector<runtime::SweepLane> lanes(kLanes);
    for (int l = 0; l < kLanes; ++l) {
        const double amplitude = 1e-3 * std::pow(2.0, l % 12);
        for (const expr::Symbol& s : states) {
            lanes[static_cast<std::size_t>(l)].overrides[s] = amplitude;
        }
    }
    const std::map<std::string, numeric::SourceFunction> stimuli{
        {"u0", [](double) { return 0.0; }}};
    const double duration = 1500 * model.timestep;

    runtime::SweepOptions options;
    options.steady_tolerance = 1e-6;
    options.steady_window = 16;
    const auto reference = runtime::simulate_sweep(model, stimuli, lanes, duration, options);

    bool any_retired = false;
    for (const std::size_t settled : reference.settled_at) {
        any_retired = any_retired || settled < reference.steps;
    }
    ASSERT_TRUE(any_retired);

    std::string error;
    const auto program = OrcJitProgram::compile(runtime::ModelLayout::compile(model), &error);
    ASSERT_NE(program, nullptr) << error;
    for (const int threads : {1, 0}) {
        runtime::SweepOptions orc_options = options;
        orc_options.threads = threads;
        OrcBatchModel orc(program, kLanes);
        const auto swept = runtime::simulate_sweep(orc, model.inputs, stimuli, lanes,
                                                   duration, orc_options);
        SCOPED_TRACE("threads " + std::to_string(threads));
        expect_identical(swept, reference);
    }
}

TEST(OrcJitSweepBackend, OrcBackendDegradesGracefullyWithoutLlvm) {
    if (orc_available()) {
        GTEST_SKIP() << "LLVM build: the degradation path is compiled out";
    }
    // Built without LLVM, a kNativeOrc request still completes — on the
    // interpreter, bit-identically — and says so.
    const auto model = random_model(902u);
    const auto lanes = varied_lanes(model, 6);
    const double duration = 150 * model.timestep;
    const auto reference = runtime::simulate_sweep(model, {}, lanes, duration);
    runtime::SweepOptions options;
    options.backend = runtime::SweepBackend::kNativeOrc;
    const auto swept = runtime::simulate_sweep(model, {}, lanes, duration, options);
    expect_identical(swept, reference);
    EXPECT_TRUE(diagnostics_mention(swept, "native sweep backend unavailable"));
    EXPECT_EQ(swept.promoted_at, swept.steps);
}

// ---------------------------------------------------------------------------
// SweepService on the ORC backend: warm-path zero-compile gates.

runtime::SweepJob make_job(const abstraction::SignalFlowModel& model, int width,
                           double duration, const runtime::SweepOptions& options) {
    runtime::SweepJob job;
    job.model = model;
    job.lanes = varied_lanes(model, width);
    job.duration_seconds = duration;
    job.options = options;
    return job;
}

TEST(SweepServiceOrc, WarmRepeatJobRunsZeroOrcCompiles) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model(4);
    const double duration = 120 * model.timestep;
    runtime::SweepOptions options;
    options.backend = runtime::SweepBackend::kNativeOrc;
    options.threads = 2;

    runtime::ServiceOptions service_options;
    service_options.sweep_threads = 2;
    runtime::SweepService service(service_options);

    const auto cold = service.run(make_job(model, 24, duration, options));
    EXPECT_TRUE(cold.diagnostics.empty());
    // The cold job queued the compile at its start, far under the model's
    // compile budget, and may end before it lands: join it, so the
    // counters read it landed.
    EXPECT_EQ(service.stats().cache.orc_deferred, 0u);
    ASSERT_NE(service.cache()->orc_program_for(model), nullptr);
    const runtime::ServiceStats after_cold = service.stats();
    EXPECT_EQ(after_cold.cache.orc_misses, 1u);
    EXPECT_EQ(after_cold.cache.orc_failures, 0u);
    EXPECT_EQ(after_cold.native_fallbacks, 0u);
    EXPECT_GT(after_cold.cache.orc_compile_seconds, 0.0);

    // The warm gate proper: a repeat job of a cached model runs ZERO ORC
    // compiles (counter delta) — and is bit-identical to the cold run.
    const std::uint64_t compiles_before = orc_detail::orc_compile_invocations();
    const auto warm = service.run(make_job(model, 24, duration, options));
    EXPECT_EQ(orc_detail::orc_compile_invocations(), compiles_before);
    EXPECT_EQ(warm.promoted_at, 0u);  // the kernel from the first step
    expect_identical(warm, cold);
    EXPECT_EQ(warm.diagnostics, cold.diagnostics);
    const runtime::ServiceStats after_warm = service.stats();
    EXPECT_EQ(after_warm.cache.orc_misses, 1u);
    EXPECT_EQ(after_warm.cache.orc_hits, after_cold.cache.orc_hits + 1);
    EXPECT_GT(after_warm.cache.orc_compile_seconds_saved, 0.0);

    // Service results match a direct simulate_sweep of the same job.
    const auto direct = runtime::simulate_sweep(model, {}, varied_lanes(model, 24),
                                                duration, options);
    expect_identical(direct, cold);
}

TEST(FaultInjectionOrc, MaterializeFaultFallsBackToInterpreterShard) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model(5, 2.3e-6);
    const double duration = 80 * model.timestep;
    const auto lanes = varied_lanes(model, 8);
    const auto reference =
        runtime::simulate_sweep(model, {}, lanes, duration, runtime::SweepOptions{});

    runtime::SweepOptions options;
    options.backend = runtime::SweepBackend::kNativeOrc;
    runtime::SweepService service;
    support::fault::arm("jit.orc_materialize", support::fault::Trigger::kAlways);
    // The job starts on the interpreter while its compile runs on the
    // cache's thread: lane 0 holds the job at its first step until the
    // compile has failed, and the fault stays armed until then.
    runtime::SweepJob job = make_job(model, 8, duration, options);
    job.lanes[0].stimuli["u0"] = testing_support::hold_until_compile_fails(
        service.cache(), std::move(job.lanes[0].stimuli["u0"]));
    const auto faulted = service.run(std::move(job));
    support::fault::disarm("jit.orc_materialize");

    // The job completed on the interpreter shard, bit-identically, and
    // said exactly why.
    expect_identical(faulted, reference);
    EXPECT_TRUE(diagnostics_mention(faulted, "native sweep backend unavailable"));
    EXPECT_TRUE(diagnostics_mention(faulted, "injected fault: jit.orc_materialize"));
    runtime::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.native_fallbacks, 1u);
    EXPECT_EQ(stats.cache.orc_failures, 1u);
    EXPECT_EQ(stats.cache.orc_misses, 0u);  // the failure was NOT cached

    // With the fault gone the same service materializes after all: a
    // transient ORC failure costs one job its speed, never the model its
    // JIT backend.
    const auto healed = service.run(make_job(model, 8, duration, options));
    expect_identical(healed, reference);
    EXPECT_TRUE(healed.diagnostics.empty());
    // The healed job may end before its compile lands: join it.
    ASSERT_NE(service.cache()->orc_program_for(model), nullptr);
    stats = service.stats();
    EXPECT_EQ(stats.native_fallbacks, 1u);
    EXPECT_EQ(stats.cache.orc_misses, 1u);
    EXPECT_EQ(stats.cache.orc_deferred, 0u);  // service jobs queue the compile at once
}

// ---------------------------------------------------------------------------
// Concurrent ORC compiles (runs under `ctest -L threads` / TSan): N workers
// materializing and stepping distinct programs at the same time — one
// LLJIT per program, no cross-talk between them.

TEST(ThreadedSweepOrcCompile, ConcurrentCompilesAreIsolated) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    constexpr int kJobs = 8;
    // Distinct stage counts per job so every program is genuinely
    // different and a cross-talk bug (a shared engine, a wrong symbol)
    // changes results instead of passing silently.
    std::vector<abstraction::SignalFlowModel> models;
    models.reserve(kJobs);
    for (int j = 0; j < kJobs; ++j) {
        models.push_back(ladder_model(1 + j % 4));
    }
    std::vector<double> out(kJobs, 0.0);
    std::vector<std::string> errors(kJobs);

    support::ThreadPool pool(4);
    pool.run(kJobs, [&](int j) {
        const auto& model = models[static_cast<std::size_t>(j)];
        const auto program = OrcJitProgram::compile(runtime::ModelLayout::compile(model),
                                                    &errors[static_cast<std::size_t>(j)]);
        if (program == nullptr) {
            return;
        }
        OrcBatchModel batched(program, 4);
        for (int k = 1; k <= 100; ++k) {
            for (int l = 0; l < 4; ++l) {
                batched.set_input(l, 0, 1.0);
            }
            batched.step(k * model.timestep);
        }
        out[static_cast<std::size_t>(j)] = batched.output(0, 0);
    });

    for (int j = 0; j < kJobs; ++j) {
        const auto& model = models[static_cast<std::size_t>(j)];
        ASSERT_NE(out[static_cast<std::size_t>(j)], 0.0)
            << "job " << j << ": " << errors[static_cast<std::size_t>(j)];
        // The JITed batch and the interpreter agree per job.
        runtime::CompiledModel reference(model);
        for (int k = 1; k <= 100; ++k) {
            reference.set_input(0, 1.0);
            reference.step(k * model.timestep);
        }
        EXPECT_EQ(out[static_cast<std::size_t>(j)], reference.output(0)) << j;
    }
}

// ---------------------------------------------------------------------------
// ModelCache LRU capacity bound.

TEST(ModelCacheLru, CapacityBoundsEntriesAndEvictsLeastRecentlyUsed) {
    runtime::ModelCache cache;
    EXPECT_EQ(cache.capacity(), runtime::ModelCache::kDefaultCapacity);
    cache.set_capacity(2);
    EXPECT_EQ(cache.capacity(), 2u);

    const auto a = ladder_model(2);
    const auto b = ladder_model(3);
    const auto c = ladder_model(4);
    (void)cache.layout_for(a);
    (void)cache.layout_for(b);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // Touch `a` so `b` is the least recently used, then insert `c`.
    (void)cache.layout_for(a);
    (void)cache.layout_for(c);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    // `a` survived (hit), `b` was evicted (recompiles as a miss).
    const auto before = cache.stats();
    (void)cache.layout_for(a);
    EXPECT_EQ(cache.stats().layout_hits, before.layout_hits + 1);
    (void)cache.layout_for(b);
    EXPECT_EQ(cache.stats().layout_misses, before.layout_misses + 1);

    // Shrinking evicts immediately, keeping the most recent entries.
    cache.set_capacity(1);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 3u);

    // set_capacity(0) clamps to one resident entry (the touch paths rely
    // on the just-touched entry staying alive).
    cache.set_capacity(0);
    EXPECT_EQ(cache.capacity(), 1u);
    (void)cache.layout_for(c);
    EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace amsvp::codegen
