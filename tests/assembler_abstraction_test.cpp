#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "abstraction/abstraction.hpp"
#include "expr/printer.hpp"
#include "expr/traversal.hpp"
#include "netlist/builder.hpp"
#include "runtime/simulate.hpp"

namespace amsvp::abstraction {
namespace {

TEST(Assembler, Rc1SingleRoot) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    const EquationDatabase db = enrich(c);
    std::string error;
    auto system = assemble(db, {expr::branch_voltage("C1")}, &error);
    ASSERT_TRUE(system.has_value()) << error;
    EXPECT_EQ(system->roots.size(), 1u);
    EXPECT_EQ(system->roots[0].symbol, expr::branch_voltage("C1"));
    EXPECT_EQ(system->passes, 1u);
}

TEST(Assembler, Rc2DiscoverssBothStates) {
    const netlist::Circuit c = netlist::make_rc_ladder(2);
    const EquationDatabase db = enrich(c);
    std::string error;
    auto system = assemble(db, {expr::branch_voltage("C2")}, &error);
    ASSERT_TRUE(system.has_value()) << error;
    // Both capacitor voltages must be in the root set (the original state
    // space is preserved, Section III-C).
    EXPECT_NE(system->find_root(expr::branch_voltage("C1")), nullptr);
    EXPECT_NE(system->find_root(expr::branch_voltage("C2")), nullptr);
    EXPECT_GT(system->passes, 1u);
}

TEST(Assembler, UnknownOutputFails) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    const EquationDatabase db = enrich(c);
    std::string error;
    auto system = assemble(db, {expr::branch_voltage("NOPE")}, &error);
    EXPECT_FALSE(system.has_value());
    EXPECT_FALSE(error.empty());
}

TEST(Assembler, RootTreesReferenceOnlyRootsInputsAndHistory) {
    const netlist::Circuit c = netlist::make_opamp();
    const EquationDatabase db = enrich(c);
    std::string error;
    auto system = assemble(db, {expr::branch_voltage("POUT")}, &error);
    ASSERT_TRUE(system.has_value()) << error;

    for (const AssembledRoot& root : system->roots) {
        for (const expr::Symbol& s : expr::collect_symbols(root.tree)) {
            const bool is_branch_quantity = s.kind == expr::SymbolKind::kBranchVoltage ||
                                            s.kind == expr::SymbolKind::kBranchCurrent;
            if (is_branch_quantity) {
                EXPECT_NE(system->find_root(s), nullptr)
                    << root.symbol.display() << " references non-root " << s.display();
            }
        }
    }
}

TEST(Discretizer, BackwardEulerRc1Coefficients) {
    // The RC1 update must be algebraically x = (u + (tau/dt) x_prev)/(1 + tau/dt).
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    std::string error;
    auto model = abstract_circuit(c, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;
    ASSERT_EQ(model->assignments.size(), 1u);

    const double dt = model->timestep;
    const double tau = 5e3 * 25e-9;
    const double a = (tau / dt) / (1.0 + tau / dt);  // weight of x_prev
    const double b = 1.0 / (1.0 + tau / dt);         // weight of u

    // Evaluate the assignment symbolically at (u = 1, x_prev = 0) and
    // (u = 0, x_prev = 1) to recover both weights.
    runtime::CompiledModel compiled(*model);
    compiled.set_input(0, 1.0);
    compiled.step(0.0);
    EXPECT_NEAR(compiled.output(0), b, 1e-12);

    compiled.reset();
    compiled.set_input(0, 1.0);
    compiled.step(0.0);
    compiled.set_input(0, 0.0);
    compiled.step(dt);
    EXPECT_NEAR(compiled.output(0), b * a, 1e-12);
}

TEST(Discretizer, TrapezoidalAddsHistoryAssignments) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    AbstractionOptions options;
    options.scheme = DiscretizationScheme::kTrapezoidal;
    std::string error;
    auto model = abstract_circuit(c, {{"out", "gnd"}}, options, &error);
    ASSERT_TRUE(model.has_value()) << error;
    // Trapezoidal keeps a derivative-history variable updated after the solve.
    EXPECT_GT(model->assignments.size(), 1u);
    EXPECT_TRUE(model->validate().empty());
}

TEST(Discretizer, TrapezoidalIsMoreAccurateOnSine) {
    // Second-order trapezoidal beats first-order backward Euler on a smooth
    // stimulus at equal timestep.
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    const double dt = 1e-6;  // coarse on purpose
    const double tau = 125e-6;
    const double f = 2000.0;

    auto run = [&](DiscretizationScheme scheme) {
        AbstractionOptions options;
        options.timestep = dt;
        options.scheme = scheme;
        std::string error;
        auto model = abstract_circuit(c, {{"out", "gnd"}}, options, &error);
        EXPECT_TRUE(model.has_value()) << error;
        auto result = runtime::simulate_transient(
            *model, {{"u0", numeric::sine_wave(f)}}, 2e-3);
        return result.outputs.front();
    };

    const numeric::Waveform be = run(DiscretizationScheme::kBackwardEuler);
    const numeric::Waveform tr = run(DiscretizationScheme::kTrapezoidal);

    // Analytic steady-state response of the RC low-pass to sin(wt).
    const double w = 2 * M_PI * f;
    auto analytic = [&](double t) {
        const double mag = 1.0 / std::sqrt(1.0 + w * w * tau * tau);
        const double phase = -std::atan(w * tau);
        return mag * std::sin(w * t + phase);
    };
    double be_err = 0.0;
    double tr_err = 0.0;
    // Skip the initial transient (first half).
    for (std::size_t k = be.size() / 2; k < be.size(); ++k) {
        be_err = std::max(be_err, std::fabs(be.value(k) - analytic(be.time(k))));
        tr_err = std::max(tr_err, std::fabs(tr.value(k) - analytic(tr.time(k))));
    }
    EXPECT_LT(tr_err, be_err);
    EXPECT_LT(tr_err, 2e-3);
}

class AbstractionLadder : public ::testing::TestWithParam<int> {};

TEST_P(AbstractionLadder, ProducesValidModelsForAllOrders) {
    const netlist::Circuit c = netlist::make_rc_ladder(GetParam());
    std::string error;
    AbstractionReport report;
    auto model = abstract_circuit(c, {{"out", "gnd"}}, {}, &error, &report);
    ASSERT_TRUE(model.has_value()) << error;
    EXPECT_TRUE(model->validate().empty());
    // State space preserved: one state per capacitor in the cone.
    EXPECT_EQ(model->state_symbols().size(), static_cast<std::size_t>(GetParam()));
    EXPECT_GE(report.roots, static_cast<std::size_t>(GetParam()));
    EXPECT_GT(report.database_equations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Orders, AbstractionLadder, ::testing::Values(1, 2, 3, 4, 5, 8, 13, 20));

TEST(Abstraction, TwoInputsDcGainMatchesSummingAmplifier) {
    const netlist::Circuit c = netlist::make_two_inputs();
    std::string error;
    auto model = abstract_circuit(c, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    auto result = runtime::simulate_transient(
        *model, {{"u0", numeric::constant(1.0)}, {"u1", numeric::constant(0.5)}}, 1e-4);
    // Ideal inverting summer: -(R3/R1 * u0 + R3/R2 * u1).
    const double expected = -(10.0 / 3.0 * 1.0 + 10.0 / 14.0 * 0.5);
    EXPECT_NEAR(result.outputs.front().samples().back(), expected, 5e-3);
}

TEST(Abstraction, OpampDcGainMatchesInvertingFilter) {
    const netlist::Circuit c = netlist::make_opamp();
    std::string error;
    auto model = abstract_circuit(c, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    auto result = runtime::simulate_transient(*model, {{"u0", numeric::constant(1.0)}}, 2e-3);
    // DC gain -R2/R1 = -4 (within finite-gain error).
    EXPECT_NEAR(result.outputs.front().samples().back(), -4.0, 2e-3);
}

TEST(Abstraction, ProbeInsertedForUnspannedOutputPair) {
    // Request the voltage across (in, out) of RC1: no branch spans that pair.
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    std::string error;
    auto model = abstract_circuit(c, {{"in", "out"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    // V(in, out) is the resistor voltage: u - v_c.
    auto result = runtime::simulate_transient(*model, {{"u0", numeric::constant(1.0)}}, 1e-3);
    const double v_c = 1.0 - std::exp(-1e-3 / 125e-6);
    EXPECT_NEAR(result.outputs.front().samples().back(), 1.0 - v_c, 1e-3);
}

TEST(Abstraction, MultipleOutputsShareOneModel) {
    const netlist::Circuit c = netlist::make_rc_ladder(3);
    std::string error;
    auto model = abstract_circuit(c, {{"out", "gnd"}, {"n1", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;
    EXPECT_EQ(model->outputs.size(), 2u);
    auto result = runtime::simulate_transient(*model, {{"u0", numeric::constant(1.0)}}, 5e-3);
    // Both outputs settle to 1 V at DC.
    EXPECT_NEAR(result.outputs[0].samples().back(), 1.0, 1e-3);
    EXPECT_NEAR(result.outputs[1].samples().back(), 1.0, 1e-3);
}

// Two specs naming one branch voltage share one assembled root: the repeat
// is an alias of the first output, negated when its orientation is
// reversed, and the model equals the single-spec model otherwise.
TEST(Abstraction, RepeatedOutputSpecIsAnAlias) {
    const netlist::Circuit c = netlist::make_rc_ladder(3);
    std::string error;
    AbstractionReport single_report;
    const auto single = abstract_circuit(c, {{"out", "gnd"}}, {}, &error, &single_report);
    ASSERT_TRUE(single.has_value()) << error;
    const std::map<std::string, numeric::SourceFunction> stimuli{
        {"u0", numeric::square_wave(1e-3)}};
    const auto want = runtime::simulate_transient(*single, stimuli, 2e-3);

    struct Shape {
        OutputSpec repeat;
        double sign;
    };
    for (const Shape& shape : {Shape{{"out", "gnd"}, 1.0}, Shape{{"gnd", "out"}, -1.0}}) {
        SCOPED_TRACE(shape.repeat.display());
        AbstractionReport report;
        const auto model =
            abstract_circuit(c, {{"out", "gnd"}, shape.repeat}, {}, &error, &report);
        ASSERT_TRUE(model.has_value()) << error;
        ASSERT_EQ(model->outputs.size(), 2u);
        EXPECT_EQ(model->outputs[0], single->outputs[0]);
        EXPECT_NE(model->outputs[1], model->outputs[0]);
        EXPECT_EQ(report.roots, single_report.roots);
        EXPECT_EQ(report.equations_consumed, single_report.equations_consumed);
        const auto got = runtime::simulate_transient(*model, stimuli, 2e-3);
        ASSERT_EQ(got.outputs[0].size(), want.outputs[0].size());
        for (std::size_t k = 0; k < want.outputs[0].size(); ++k) {
            ASSERT_EQ(got.outputs[0].value(k), want.outputs[0].value(k)) << "sample " << k;
            ASSERT_EQ(got.outputs[1].value(k), shape.sign * want.outputs[0].value(k))
                << "sample " << k;
        }
    }
}

// Every repeat of a reversed spec gets a name of its own.
TEST(Abstraction, RepeatedReversedOutputSpecsGetDistinctAliases) {
    const netlist::Circuit c = netlist::make_rc_ladder(3);
    std::string error;
    const auto model = abstract_circuit(c, {{"gnd", "out"}, {"gnd", "out"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;
    ASSERT_EQ(model->outputs.size(), 2u);
    EXPECT_NE(model->outputs[0], model->outputs[1]);
    const auto result =
        runtime::simulate_transient(*model, {{"u0", numeric::constant(1.0)}}, 5e-3);
    EXPECT_NEAR(result.outputs[0].samples().back(), -1.0, 1e-3);
    EXPECT_EQ(result.outputs[1].samples().back(), result.outputs[0].samples().back());
}

TEST(Abstraction, ErrorForUnknownOutputNode) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    std::string error;
    auto model = abstract_circuit(c, {{"missing", "gnd"}}, {}, &error);
    EXPECT_FALSE(model.has_value());
    EXPECT_NE(error.find("unknown node"), std::string::npos);
}

TEST(Abstraction, ReportTimingsArePopulated) {
    const netlist::Circuit c = netlist::make_rc_ladder(10);
    std::string error;
    AbstractionReport report;
    auto model = abstract_circuit(c, {{"out", "gnd"}}, {}, &error, &report);
    ASSERT_TRUE(model.has_value()) << error;
    EXPECT_GT(report.total_seconds, 0.0);
    EXPECT_GT(report.model_nodes, 0u);
    EXPECT_GT(report.equations_consumed, 0u);
    EXPECT_EQ(report.enrichment.dipole_equations, c.branch_count());
}

}  // namespace
}  // namespace amsvp::abstraction
