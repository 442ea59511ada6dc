// Differential tests for the fused register-machine expression engine: the
// fused interpreter must agree (to 1e-12 relative) with the per-assignment
// tree-walk reference (reference_executor.hpp) on randomized expression
// programs and on the four paper circuits, and the compiler must actually
// fuse (lincomb/superinstructions, cross-assignment CSE).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "abstraction/abstraction.hpp"
#include "backends/runner.hpp"
#include "expr/fused.hpp"
#include "netlist/builder.hpp"
#include "reference_executor.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/simulate.hpp"

namespace amsvp {
namespace {

using abstraction::Assignment;
using abstraction::SignalFlowModel;
using expr::Expr;
using expr::ExprPtr;
using expr::Symbol;
using testing_support::ReferenceExecutor;

constexpr double kRelTol = 1e-12;

void expect_close(double a, double b, const char* what, std::size_t step) {
    EXPECT_NEAR(a, b, kRelTol * std::max(1.0, std::fabs(a)))
        << what << " diverged at step " << step;
}

// --- Randomized differential ------------------------------------------------

/// Random expression over `leaves`, restricted to operations that keep
/// values finite for bounded inputs (divisions are guarded, no exp/pow).
ExprPtr random_expr(std::mt19937& rng, int depth, const std::vector<ExprPtr>& leaves) {
    std::uniform_real_distribution<double> c(-2.0, 2.0);
    std::uniform_int_distribution<int> pick_leaf(0, static_cast<int>(leaves.size()) - 1);
    if (depth <= 0) {
        std::uniform_int_distribution<int> kind(0, 2);
        if (kind(rng) == 0) {
            return Expr::constant(c(rng));
        }
        return leaves[static_cast<std::size_t>(pick_leaf(rng))];
    }
    std::uniform_int_distribution<int> op(0, 9);
    auto sub = [&](int d) { return random_expr(rng, d, leaves); };
    switch (op(rng)) {
        case 0:
            return Expr::add(sub(depth - 1), sub(depth - 1));
        case 1:
            return Expr::sub(sub(depth - 1), sub(depth - 1));
        case 2:
            return Expr::mul(sub(depth - 1), sub(depth - 1));
        case 3:
            // Guarded division: |d| + 1.5 keeps the denominator away from 0.
            return Expr::div(sub(depth - 1),
                             Expr::add(Expr::unary(expr::UnaryOp::kAbs, sub(depth - 1)),
                                       Expr::constant(1.5)));
        case 4:
            return Expr::binary(expr::BinaryOp::kMin, sub(depth - 1), sub(depth - 1));
        case 5:
            return Expr::binary(expr::BinaryOp::kMax, sub(depth - 1), sub(depth - 1));
        case 6:
            return Expr::neg(sub(depth - 1));
        case 7:
            return Expr::unary(expr::UnaryOp::kSin, sub(depth - 1));
        case 8:
            return Expr::unary(expr::UnaryOp::kCos, sub(depth - 1));
        default:
            return Expr::conditional(
                Expr::binary(expr::BinaryOp::kLt, sub(depth - 2 > 0 ? depth - 2 : 0),
                             sub(depth - 2 > 0 ? depth - 2 : 0)),
                sub(depth - 1), sub(depth - 1));
    }
}

/// Random multi-assignment model: three state variables with damped
/// history recurrences feeding two chained combinational variables.
SignalFlowModel random_model(unsigned seed) {
    std::mt19937 rng(seed);
    SignalFlowModel m;
    m.name = "random";
    m.timestep = 1e-6;
    const Symbol u0 = expr::input_symbol("u0");
    const Symbol u1 = expr::input_symbol("u1");
    m.inputs = {u0, u1};

    std::vector<ExprPtr> leaves = {Expr::symbol(u0), Expr::symbol(u1)};
    std::vector<Symbol> states;
    for (int i = 0; i < 3; ++i) {
        const Symbol s = expr::variable_symbol("s" + std::to_string(i));
        states.push_back(s);
        leaves.push_back(Expr::delayed(s, 1));
    }
    for (int i = 0; i < 3; ++i) {
        // s_i := 0.5 * s_i@(t-dt) + sin(f(...)): contractive, stays bounded.
        m.assignments.push_back(Assignment{
            states[static_cast<std::size_t>(i)],
            Expr::add(Expr::mul(Expr::constant(0.5),
                                Expr::delayed(states[static_cast<std::size_t>(i)], 1)),
                      Expr::unary(expr::UnaryOp::kSin, random_expr(rng, 4, leaves)))});
        leaves.push_back(Expr::symbol(states[static_cast<std::size_t>(i)]));
    }
    for (int i = 0; i < 2; ++i) {
        const Symbol v = expr::variable_symbol("v" + std::to_string(i));
        m.assignments.push_back(Assignment{v, random_expr(rng, 5, leaves)});
        leaves.push_back(Expr::symbol(v));
        m.outputs.push_back(v);
    }
    return m;
}

class FusedRandomDifferential : public ::testing::TestWithParam<unsigned> {};

// The reference tree-walks every assignment on its own
// (expr::evaluate_tree); tree_walk_test.cpp checks that walk operator by
// operator and against one-assignment fused programs (FusedVsTreeWalk).
TEST_P(FusedRandomDifferential, AgreesWithBytecodeAndTreeWalk) {
    const SignalFlowModel m = random_model(GetParam());
    runtime::CompiledModel fused(m);
    ReferenceExecutor reference(m);

    std::mt19937 rng(GetParam() ^ 0xabcdefu);
    std::uniform_real_distribution<double> input(-1.0, 1.0);
    for (std::size_t k = 1; k <= 300; ++k) {
        const double t = static_cast<double>(k) * m.timestep;
        for (std::size_t i = 0; i < m.inputs.size(); ++i) {
            const double u = input(rng);
            fused.set_input(i, u);
            reference.set_input(i, u);
        }
        fused.step(t);
        reference.step(t);
        for (const Assignment& a : m.assignments) {
            expect_close(reference.value_of(a.target), fused.value_of(a.target),
                         a.target.name.c_str(), k);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedRandomDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// --- Paper circuits ---------------------------------------------------------

class FusedPaperCircuit : public ::testing::TestWithParam<const char*> {};

netlist::Circuit circuit_by_name(const std::string& name) {
    if (name == "2IN") {
        return netlist::make_two_inputs();
    }
    if (name == "RC1") {
        return netlist::make_rc_ladder(1);
    }
    if (name == "RC20") {
        return netlist::make_rc_ladder(20);
    }
    return netlist::make_opamp();
}

TEST_P(FusedPaperCircuit, MatchesBaselinesOverLongRun) {
    const netlist::Circuit circuit = circuit_by_name(GetParam());
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    const std::map<std::string, numeric::SourceFunction> stimuli = {
        {"u0", numeric::square_wave(1e-3)}, {"u1", numeric::square_wave(1e-3, 0.0, 0.5)}};
    const double duration = 2000 * model->timestep;
    const auto fused = runtime::simulate_transient(*model, stimuli, duration);
    ReferenceExecutor reference_model(*model);
    const auto reference =
        runtime::simulate_transient(reference_model, model->inputs, stimuli, duration);
    ASSERT_EQ(fused.outputs.front().size(), reference.outputs.front().size());
    for (std::size_t k = 0; k < fused.outputs.front().size(); ++k) {
        expect_close(reference.outputs.front().value(k), fused.outputs.front().value(k),
                     GetParam(), k);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperCircuits, FusedPaperCircuit,
                         ::testing::Values("2IN", "RC1", "RC20", "OA"));

TEST(FusedExecutorFactory, BackendRunnerTracksReferenceFactory) {
    // The executor factory is how callers swap executors into the MoC
    // wrappers; a run with no factory (the cached scalar ORC kernel, or the
    // fused interpreter without LLVM) must track one whose factory builds
    // the tree-walk reference.
    const netlist::Circuit circuit = netlist::make_rc_ladder(3);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    backends::AnalogSetup setup;
    setup.model = &*model;
    setup.stimuli = {{"u0", numeric::square_wave(1e-3)}};
    setup.timestep = model->timestep;

    const auto fused = backends::run_isolated(backends::AnalogIntegration::kCpp, setup, 2e-4);
    setup.executor_factory = [](const SignalFlowModel& m) {
        return std::make_unique<ReferenceExecutor>(m);
    };
    const auto reference = backends::run_isolated(backends::AnalogIntegration::kCpp, setup, 2e-4);

    ASSERT_EQ(fused.trace.size(), reference.trace.size());
    ASSERT_GT(fused.trace.size(), 0u);
    for (std::size_t k = 0; k < fused.trace.size(); ++k) {
        expect_close(reference.trace.value(k), fused.trace.value(k), "factory", k);
    }
}

// --- Compiler structure -----------------------------------------------------

TEST(FusedCompiler, EmitsLinearCombinationsForDiscretizedLadder) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(20);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;
    runtime::CompiledModel fused(*model);

    const expr::FusedProgram& program = fused.fused_program();
    EXPECT_GT(program.count_op(expr::FusedOp::kLinComb), 0u)
        << "discretized RC assignments should compile to linear combinations:\n"
        << program.describe();

    // The fused stream must be far denser than a per-node evaluation: fewer
    // instructions than the model has expression nodes.
    EXPECT_LT(program.instructions().size(), model->node_count());
}

TEST(FusedCompiler, CommonSubexpressionsCompileOnce) {
    // v0 := sin(u0) * 3, v1 := sin(u0) * 5 — sin(u0) must be computed once.
    SignalFlowModel m;
    m.name = "cse";
    m.timestep = 1e-6;
    const Symbol u0 = expr::input_symbol("u0");
    m.inputs = {u0};
    const auto sin_u0 = Expr::unary(expr::UnaryOp::kSin, Expr::symbol(u0));
    // Rebuild the subtree (no pointer sharing) for the second use so the
    // structural half of the CSE table is exercised too.
    const auto sin_u0_rebuilt = Expr::unary(expr::UnaryOp::kSin, Expr::symbol(u0));
    m.assignments.push_back(Assignment{expr::variable_symbol("v0"),
                                       Expr::mul(sin_u0, Expr::constant(3.0))});
    m.assignments.push_back(Assignment{expr::variable_symbol("v1"),
                                       Expr::mul(sin_u0_rebuilt, Expr::constant(5.0))});
    m.outputs = {expr::variable_symbol("v0"), expr::variable_symbol("v1")};

    runtime::CompiledModel fused(m);
    EXPECT_EQ(fused.fused_program().count_op(expr::FusedOp::kSin), 1u)
        << fused.fused_program().describe();

    fused.set_input(0, 0.7);
    fused.step(1e-6);
    EXPECT_DOUBLE_EQ(fused.value_of(expr::variable_symbol("v0")), std::sin(0.7) * 3.0);
    EXPECT_DOUBLE_EQ(fused.value_of(expr::variable_symbol("v1")), std::sin(0.7) * 5.0);
}

TEST(FusedCompiler, FoldsConstantAssignments) {
    SignalFlowModel m;
    m.name = "const";
    m.timestep = 1e-6;
    m.assignments.push_back(Assignment{
        expr::variable_symbol("c"),
        Expr::mul(Expr::add(Expr::constant(2.0), Expr::constant(3.0)), Expr::constant(4.0))});
    m.outputs = {expr::variable_symbol("c")};

    runtime::CompiledModel fused(m);
    ASSERT_EQ(fused.fused_program().instructions().size(), 1u);
    EXPECT_EQ(fused.fused_program().instructions().front().op, expr::FusedOp::kConst);
    fused.step(1e-6);
    EXPECT_DOUBLE_EQ(fused.output(0), 20.0);
}

TEST(FusedCompiler, FusesMultiplyAdd) {
    // v := a*b + c over three inputs: one kMulAdd instruction, no temporaries.
    SignalFlowModel m;
    m.name = "muladd";
    m.timestep = 1e-6;
    const Symbol a = expr::input_symbol("a");
    const Symbol b = expr::input_symbol("b");
    const Symbol c = expr::input_symbol("c");
    m.inputs = {a, b, c};
    m.assignments.push_back(
        Assignment{expr::variable_symbol("v"),
                   Expr::add(Expr::mul(Expr::symbol(a), Expr::symbol(b)), Expr::symbol(c))});
    m.outputs = {expr::variable_symbol("v")};

    runtime::CompiledModel fused(m);
    ASSERT_EQ(fused.fused_program().instructions().size(), 1u)
        << fused.fused_program().describe();
    EXPECT_EQ(fused.fused_program().instructions().front().op, expr::FusedOp::kMulAdd);

    fused.set_input(0, 2.0);
    fused.set_input(1, 3.0);
    fused.set_input(2, 4.0);
    fused.step(1e-6);
    EXPECT_DOUBLE_EQ(fused.output(0), 10.0);
}

TEST(FusedCompiler, SelfReferentialAssignmentInvalidatesCache) {
    // `y := y + u` reads the pre-step y (per-assignment semantics); a
    // structurally identical `y + u` in a later assignment must be
    // recomputed with the *new* y, not served from the CSE cache.
    SignalFlowModel m;
    m.name = "selfref";
    m.timestep = 1e-6;
    const Symbol u0 = expr::input_symbol("u0");
    m.inputs = {u0};
    const Symbol y = expr::variable_symbol("y");
    const Symbol z = expr::variable_symbol("z");
    m.assignments.push_back(
        Assignment{y, Expr::add(Expr::symbol(y), Expr::symbol(u0))});
    m.assignments.push_back(
        Assignment{z, Expr::add(Expr::symbol(y), Expr::symbol(u0))});
    m.outputs = {y, z};

    runtime::CompiledModel fused(m);
    ReferenceExecutor reference(m);
    for (int k = 1; k <= 3; ++k) {
        fused.set_input(0, 1.0);
        reference.set_input(0, 1.0);
        fused.step(k * m.timestep);
        reference.step(k * m.timestep);
        ASSERT_DOUBLE_EQ(fused.value_of(y), reference.value_of(y)) << "step " << k;
        ASSERT_DOUBLE_EQ(fused.value_of(z), reference.value_of(z)) << "step " << k;
    }
    // After 3 steps: y = 3, z = y + u = 4.
    EXPECT_DOUBLE_EQ(fused.value_of(y), 3.0);
    EXPECT_DOUBLE_EQ(fused.value_of(z), 4.0);
}

TEST(FusedCompiler, LivenessCompactionShrinksScratchOnRC20) {
    // The liveness post-pass must recycle dead temporaries: on RC20 the
    // compiler allocates far more single-assignment registers than can be
    // live at once, and the compacted scratch area (replicated per lane in
    // batch execution) has to come out strictly smaller.
    const netlist::Circuit circuit = netlist::make_rc_ladder(20);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;
    runtime::CompiledModel fused(*model);

    const expr::FusedProgram& program = fused.fused_program();
    EXPECT_LT(program.scratch_count(), program.uncompacted_scratch_count())
        << program.describe();
    EXPECT_GT(program.scratch_count(), 0);
}

TEST(FusedCompiler, CompactionKeepsConstantsStable) {
    // Pooled constants live at the bottom of the scratch area for the whole
    // program; reset() + steps must keep producing identical results (the
    // constant pool is re-written on every reset).
    const netlist::Circuit circuit = netlist::make_opamp();
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;
    runtime::CompiledModel fused(*model);

    fused.set_input(0, 1.0);
    for (int k = 1; k <= 50; ++k) {
        fused.step(k * model->timestep);
    }
    const double first_run = fused.output(0);
    fused.reset();
    fused.set_input(0, 1.0);
    for (int k = 1; k <= 50; ++k) {
        fused.step(k * model->timestep);
    }
    EXPECT_EQ(fused.output(0), first_run);
}

TEST(FusedCompiler, ResetRestoresInitialValuesAndConstants) {
    SignalFlowModel m;
    m.name = "reset";
    m.timestep = 1e-6;
    const Symbol u0 = expr::input_symbol("u0");
    m.inputs = {u0};
    const Symbol acc = expr::variable_symbol("acc");
    m.assignments.push_back(Assignment{
        acc, Expr::add(Expr::delayed(acc, 1), Expr::symbol(u0))});
    m.outputs = {acc};
    m.initial_values[acc] = 10.0;

    runtime::CompiledModel fused(m);
    fused.set_input(0, 1.0);
    for (int k = 1; k <= 5; ++k) {
        fused.step(k * m.timestep);
    }
    EXPECT_DOUBLE_EQ(fused.output(0), 15.0);
    fused.reset();
    fused.set_input(0, 2.0);
    fused.step(m.timestep);
    EXPECT_DOUBLE_EQ(fused.output(0), 12.0);
}

}  // namespace
}  // namespace amsvp
