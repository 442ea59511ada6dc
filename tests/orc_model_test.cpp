// The scalar ORC kernel: codegen::OrcModel steps the JITed kernel over the
// interpreter's own slot file, so after every step the whole file, scratch
// slots included, must equal the fused interpreter's bit for bit (the
// lowering never enables fast-math or FP contraction, and libm resolves to
// this process's own functions). Also covers orc_executor_factory()'s
// interpreter fallback and concurrent scalar compiles (suite name
// ThreadedSweepNativeCompile feeds the `threads` ctest label for the
// -DAMSVP_TSAN=ON config). Every ORC test skips gracefully in an
// AMSVP_WITH_LLVM=OFF build, where the factory hands out the interpreter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>

#include "abstraction/abstraction.hpp"
#include "codegen/orc_jit.hpp"
#include "expr/fused.hpp"
#include "netlist/builder.hpp"
#include "random_models.hpp"
#include "runtime/simulate.hpp"
#include "support/fault.hpp"
#include "support/thread_pool.hpp"

namespace amsvp::codegen {
namespace {

abstraction::SignalFlowModel ladder_model(int stages) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(stages);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return std::move(*model);
}

std::uint64_t bits(double value) {
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof out);
    return out;
}

/// The scalar kernel and the interpreter over one layout, fed the same
/// inputs for `steps` steps: the whole slot file, scratch included, must
/// match bit for bit after every step.
void expect_slot_file_matches(const abstraction::SignalFlowModel& model,
                              const std::map<std::string, numeric::SourceFunction>& stimuli,
                              int steps) {
    const auto layout = runtime::ModelLayout::compile(model);
    std::string error;
    const auto orc = OrcModel::compile(layout, &error);
    ASSERT_NE(orc, nullptr) << error;
    runtime::CompiledModel fused(layout);
    ASSERT_EQ(orc->slot_count(), fused.slot_count());
    for (int k = 1; k <= steps; ++k) {
        const double t = k * model.timestep;
        for (std::size_t i = 0; i < model.inputs.size(); ++i) {
            const double u = stimuli.at(model.inputs[i].name)(t);
            orc->set_input(i, u);
            fused.set_input(i, u);
        }
        orc->step(t);
        fused.step(t);
        for (std::size_t s = 0; s < fused.slot_count(); ++s) {
            const int slot = static_cast<int>(s);
            ASSERT_EQ(bits(orc->slot_value(slot)), bits(fused.slot_value(slot)))
                << "slot " << s << " at step " << k << ": " << orc->slot_value(slot)
                << " vs " << fused.slot_value(slot);
        }
    }
}

class NativeVsFused : public ::testing::TestWithParam<int> {};

TEST_P(NativeVsFused, TracesAreBitIdentical) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model(GetParam());
    expect_slot_file_matches(model, {{"u0", numeric::square_wave(1e-3)}}, 10000);
}

INSTANTIATE_TEST_SUITE_P(Ladders, NativeVsFused, ::testing::Values(1, 2, 5, 20));

// >= 10 random linear models, the scalar kernel vs the fused interpreter.
TEST(OrcJitScalar, RandomLinearModelsMatchFusedWholeSlotFile) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    for (unsigned seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto random = testing_support::make_random_rc(seed + 7000);
        abstraction::AbstractionOptions options;
        options.timestep = 1e-7;
        std::string error;
        auto model = abstraction::abstract_circuit(random.circuit,
                                                   {{random.observed_node, "gnd"}}, options,
                                                   &error);
        ASSERT_TRUE(model.has_value()) << error << "\n" << random.circuit.describe();
        expect_slot_file_matches(*model, {{"u0", numeric::sine_wave(25e3)}}, 2000);
    }
}

TEST(OrcJitScalar, RandomNonlinearModelsMatchInterpreterWholeSlotFile) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    // libm calls, selects, comparisons and min/max clamps, straight through
    // the scalar kernel's direct libm calls.
    for (unsigned seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto model = testing_support::make_random_signal_flow(seed);
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> input(-1.0, 1.0);
        const double a0 = input(rng);
        const double a1 = input(rng);
        expect_slot_file_matches(
            model,
            {{"u0", [a0](double t) { return a0 * std::sin(t * 3.0e4); }},
             {"u1", [a1](double t) { return a1 + std::cos(t * 7.0e4); }}},
            300);
    }
}

TEST(OrcJitScalar, SlotFileMatchesFusedSlotForSlot) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    expect_slot_file_matches(ladder_model(3), {{"u0", numeric::sine_wave(1000.0)}}, 500);
}

// A model built to hit the linear-combination superinstruction hard: wide
// affine assignments over inputs and state history. Verifies the lowering
// reproduces kLinComb (the one reassociating op) exactly.
TEST(OrcJitScalar, LinCombHeavyModelMatchesFused) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = testing_support::make_lincomb_heavy_model();
    // The fused compile must actually use the superinstruction, otherwise
    // this test exercises nothing.
    runtime::CompiledModel fused(model);
    EXPECT_GE(fused.fused_program().count_op(expr::FusedOp::kLinComb), 2u);
    expect_slot_file_matches(model,
                             {{"u0", numeric::sine_wave(1000.0)},
                              {"u1", numeric::sine_wave(2500.0)},
                              {"u2", numeric::square_wave(1e-3)}},
                             5000);
}

// A delayed *input* reference makes the input symbol a state variable too;
// the runtime handles it through input history slots, which the kernel
// rotates like any other.
TEST(OrcJitScalar, DelayedInputModelMatchesFused) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    expect_slot_file_matches(testing_support::make_delayed_input_model(),
                             {{"u0", numeric::sine_wave(1000.0)}}, 5000);
}

TEST(OrcJitScalar, ResetRestoresInitialState) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model(1);
    auto orc = OrcModel::compile(runtime::ModelLayout::compile(model));
    ASSERT_NE(orc, nullptr);
    orc->set_input(0, 1.0);
    for (int k = 1; k <= 100; ++k) {
        orc->step(k * model.timestep);
    }
    EXPECT_GT(orc->output(0), 0.0);
    orc->reset();
    orc->set_input(0, 0.0);
    orc->step(0.0);
    EXPECT_DOUBLE_EQ(orc->output(0), 0.0);
}

// reset() zeroes the input slots like the interpreter's, so the step after
// a reset must not re-apply stale inputs, and output() before that step
// reads the re-initialized model.
TEST(OrcJitScalar, ResetClearsCachedInputs) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model(2);
    const auto layout = runtime::ModelLayout::compile(model);
    auto orc = OrcModel::compile(layout);
    ASSERT_NE(orc, nullptr);
    runtime::CompiledModel fused(layout);

    const double dt = model.timestep;
    for (int k = 1; k <= 20; ++k) {
        orc->set_input(0, 1.0);
        fused.set_input(0, 1.0);
        orc->step(k * dt);
        fused.step(k * dt);
    }
    EXPECT_GT(orc->output(0), 0.0);
    orc->reset();
    fused.reset();
    ASSERT_EQ(orc->output(0), fused.output(0));
    for (int k = 1; k <= 20; ++k) {
        orc->step(k * dt);
        fused.step(k * dt);
        ASSERT_EQ(orc->output(0), fused.output(0)) << "step " << k;
    }
}

TEST(OrcJitScalar, TwoInstancesAreIndependent) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = ladder_model(1);
    const auto layout = runtime::ModelLayout::compile(model);
    auto a = OrcModel::compile(layout);
    auto b = OrcModel::compile(layout);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    a->set_input(0, 1.0);
    b->set_input(0, 0.0);
    for (int k = 1; k <= 50; ++k) {
        a->step(k * model.timestep);
        b->step(k * model.timestep);
    }
    EXPECT_GT(a->output(0), 0.0);
    EXPECT_DOUBLE_EQ(b->output(0), 0.0);
}

TEST(OrcJitScalar, FactoryFallsBackGracefully) {
    const auto model = ladder_model(1);
    const std::map<std::string, numeric::SourceFunction> stimuli{
        {"u0", numeric::square_wave(1e-3)}};
    const double duration = 2e-4;
    runtime::CompiledModel reference(model);
    const auto want = runtime::simulate_transient(reference, model.inputs, stimuli, duration);
    const auto expect_matches_reference = [&](runtime::ModelExecutor& executor) {
        const auto got = runtime::simulate_transient(executor, model.inputs, stimuli, duration);
        ASSERT_EQ(got.outputs.size(), want.outputs.size());
        for (std::size_t o = 0; o < want.outputs.size(); ++o) {
            ASSERT_EQ(got.outputs[o].size(), want.outputs[o].size());
            for (std::size_t k = 0; k < want.outputs[o].size(); ++k) {
                ASSERT_EQ(got.outputs[o].value(k), want.outputs[o].value(k)) << "sample " << k;
            }
        }
    };

    // The kernel when the build has one, the interpreter otherwise.
    const auto executor = orc_executor_factory()(model);
    ASSERT_NE(executor, nullptr);
    EXPECT_EQ(dynamic_cast<OrcModel*>(executor.get()) != nullptr, orc_available());
    expect_matches_reference(*executor);

    // Every compile fails: the factory must still hand back a working
    // executor, the fused interpreter, even on a build with LLVM.
    support::fault::arm("jit.orc_materialize", support::fault::Trigger::kAlways);
    const auto fallback = orc_executor_factory()(model);
    support::fault::disarm("jit.orc_materialize");
    ASSERT_NE(fallback, nullptr);
    EXPECT_EQ(dynamic_cast<OrcModel*>(fallback.get()), nullptr);
    EXPECT_NE(dynamic_cast<runtime::CompiledModel*>(fallback.get()), nullptr);
    expect_matches_reference(*fallback);
}

// The Tables' executors keep a throw for a bad index after the swap: the
// scalar kernel's executor shares the interpreter's checks.
TEST(OrcJitScalar, BadIndexThrowsOutOfRange) {
    const auto executor = orc_executor_factory()(ladder_model(1));
    EXPECT_THROW(executor->set_input(1, 0.0), std::out_of_range);
    EXPECT_THROW((void)executor->output(1), std::out_of_range);
}

// Concurrent scalar compiles (runs under `ctest -L threads` / TSan): N
// workers compiling and stepping kernels at the same time — each compile
// gets its own LLVM context and LLJIT, no cross-talk between them.
TEST(ThreadedSweepNativeCompile, ConcurrentCompilesAreIsolated) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    constexpr int kJobs = 8;
    // Distinct stage counts per job so every kernel is genuinely different
    // and a cross-talk bug (a shared module, the wrong symbol) changes
    // results instead of passing silently.
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
        auto orc = OrcModel::compile(runtime::ModelLayout::compile(model),
                                     &errors[static_cast<std::size_t>(j)]);
        if (orc == nullptr) {
            return;
        }
        for (int k = 1; k <= 100; ++k) {
            orc->set_input(0, 1.0);
            orc->step(k * model.timestep);
        }
        out[static_cast<std::size_t>(j)] = orc->output(0);
    });

    for (int j = 0; j < kJobs; ++j) {
        const auto& model = models[static_cast<std::size_t>(j)];
        ASSERT_NE(out[static_cast<std::size_t>(j)], 0.0)
            << "job " << j << ": " << errors[static_cast<std::size_t>(j)];
        // The kernel and the interpreter agree per job.
        runtime::CompiledModel reference(model);
        for (int k = 1; k <= 100; ++k) {
            reference.set_input(0, 1.0);
            reference.step(k * model.timestep);
        }
        EXPECT_EQ(out[static_cast<std::size_t>(j)], reference.output(0)) << j;
    }
}

}  // namespace
}  // namespace amsvp::codegen
