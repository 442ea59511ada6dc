#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "conservative_support.hpp"
#include "eln/engine.hpp"
#include "netlist/builder.hpp"
#include "numeric/sources.hpp"
#include "spice/engine.hpp"

namespace amsvp::spice {
namespace {

using testing_support::expect_throw_containing;

SpiceOptions fast_options() {
    SpiceOptions options;
    options.timestep = 1e-6;
    options.internal_substeps = 4;
    return options;
}

TEST(SpiceEngine, ResistiveDividerDc) {
    netlist::CircuitBuilder cb("div");
    cb.ground("gnd");
    cb.voltage_source("V1", "in", "gnd", "u0");
    cb.resistor("R1", "in", "mid", 2e3);
    cb.resistor("R2", "mid", "gnd", 2e3);
    const netlist::Circuit c = cb.build();

    auto engine = SpiceEngine::create(c, fast_options());
    ASSERT_TRUE(engine.has_value());
    ASSERT_TRUE(engine->step({10.0}, 1e-6));
    EXPECT_NEAR(engine->node_voltage("mid"), 5.0, 1e-9);
    EXPECT_NEAR(engine->branch_current("R1"), 2.5e-3, 1e-12);
}

TEST(SpiceEngine, RunTransientMissingStimulusThrows) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    auto engine = SpiceEngine::create(c, fast_options());
    ASSERT_TRUE(engine.has_value());
    EXPECT_THROW(
        {
            try {
                (void)engine->run_transient({}, 10e-6, "out", "gnd");
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find("u0"), std::string::npos);
                throw;
            }
        },
        std::invalid_argument);
}

TEST(SpiceEngine, RunTransientUnknownObservedNodeThrows) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    auto engine = SpiceEngine::create(c, fast_options());
    ASSERT_TRUE(engine.has_value());
    const std::map<std::string, numeric::SourceFunction> stimuli{
        {"u0", numeric::constant(1.0)}};
    for (const auto& [pos, neg] : {std::pair{"nowhere", "gnd"}, std::pair{"out", "nowhere"}}) {
        EXPECT_THROW(
            {
                try {
                    (void)engine->run_transient(stimuli, 10e-6, pos, neg);
                } catch (const std::invalid_argument& e) {
                    EXPECT_NE(std::string(e.what()).find("'nowhere'"), std::string::npos)
                        << e.what();
                    throw;
                }
            },
            std::invalid_argument);
    }
    // Both names resolve before the first step.
    EXPECT_EQ(engine->stats().steps, 0u);
}

TEST(SpiceEngine, NewtonConvergesInTwoIterationsForLinear) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    SpiceOptions options = fast_options();
    options.internal_substeps = 1;
    auto engine = SpiceEngine::create(c, options);
    ASSERT_TRUE(engine.has_value());
    ASSERT_TRUE(engine->step({1.0}, 1e-6));
    EXPECT_EQ(engine->stats().newton_iterations, 2u);
    EXPECT_EQ(engine->stats().factorizations, 2u);
    EXPECT_EQ(engine->stats().steps, 1u);
}

TEST(SpiceEngine, InternalSubstepsMultiplyWork) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    SpiceOptions options = fast_options();
    options.internal_substeps = 8;
    auto engine = SpiceEngine::create(c, options);
    ASSERT_TRUE(engine.has_value());
    ASSERT_TRUE(engine->step({1.0}, options.timestep));
    EXPECT_EQ(engine->stats().steps, 8u);
    EXPECT_GE(engine->stats().device_evaluations, 8u * c.branch_count());
}

TEST(SpiceEngine, RcTransientMatchesAnalytic) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    SpiceOptions options;
    options.timestep = 1e-6;
    options.internal_substeps = 8;
    auto engine = SpiceEngine::create(c, options);
    ASSERT_TRUE(engine.has_value());

    const numeric::Waveform trace =
        engine->run_transient({{"u0", numeric::constant(1.0)}}, 1e-3, "out", "gnd");
    ASSERT_EQ(trace.size(), 1000u);
    const double tau = 125e-6;
    for (std::size_t k = 99; k < trace.size(); k += 250) {
        const double expected = 1.0 - std::exp(-trace.time(k) / tau);
        EXPECT_NEAR(trace.value(k), expected, 1e-3) << "t=" << trace.time(k);
    }
}

TEST(SpiceEngine, NonlinearDiodeLikeBranchConverges) {
    // Source -> resistor -> "diode" with I = Is (exp(V/Vt) - 1).
    netlist::CircuitBuilder cb("clamp");
    cb.ground("gnd");
    cb.voltage_source("V1", "in", "gnd", "u0");
    cb.resistor("R1", "in", "d", 1e3);
    const auto vd = [] { return expr::Expr::symbol(expr::branch_voltage("D1")); };
    cb.generic("D1", "d", "gnd",
               expr::make_equation(
                   expr::EquationKind::kDipole, expr::branch_current("D1"),
                   expr::Expr::mul(expr::Expr::constant(1e-12),
                                   expr::Expr::sub(expr::Expr::unary(
                                                       expr::UnaryOp::kExp,
                                                       expr::Expr::div(vd(),
                                                                        expr::Expr::constant(
                                                                            0.0258))),
                                                   expr::Expr::constant(1.0))),
                   "dipole(D1)"));
    const netlist::Circuit c = cb.build();

    SpiceOptions options = fast_options();
    options.max_iterations = 200;
    auto engine = SpiceEngine::create(c, options);
    ASSERT_TRUE(engine.has_value());
    ASSERT_TRUE(engine->step({1.0}, options.timestep));

    const double vd_value = engine->node_voltage("d");
    // Diode drop lands in the usual region and KCL holds:
    // (u - vd)/R == Is (exp(vd/Vt) - 1).
    EXPECT_GT(vd_value, 0.3);
    EXPECT_LT(vd_value, 0.7);
    const double i_r = (1.0 - vd_value) / 1e3;
    const double i_d = 1e-12 * (std::exp(vd_value / 0.0258) - 1.0);
    EXPECT_NEAR(i_r, i_d, 1e-9);
}

TEST(SpiceEngine, RejectsIdt) {
    netlist::CircuitBuilder cb("bad");
    cb.ground("gnd");
    cb.voltage_source("V1", "a", "gnd", "u0");
    cb.generic("X1", "a", "gnd",
               expr::make_equation(expr::EquationKind::kDipole, expr::branch_current("X1"),
                                   expr::Expr::idt(expr::Expr::symbol(
                                       expr::branch_voltage("X1"))),
                                   "dipole(X1)"));
    const netlist::Circuit c = cb.build();
    std::string error;
    EXPECT_FALSE(SpiceEngine::create(c, fast_options(), &error).has_value());
    EXPECT_NE(error.find("idt"), std::string::npos);
}

TEST(SpiceEngine, ResetClearsStateAndStats) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    auto engine = SpiceEngine::create(c, fast_options());
    ASSERT_TRUE(engine.has_value());
    ASSERT_TRUE(engine->step({1.0}, 1e-6));
    EXPECT_GT(engine->node_voltage("out"), 0.0);
    engine->reset();
    EXPECT_DOUBLE_EQ(engine->node_voltage("out"), 0.0);
    EXPECT_EQ(engine->stats().steps, 0u);
}

TEST(SpiceEngine, NonFiniteNewtonUpdateFailsTheStep) {
    // I(D1) = sqrt(V(D1) - 1) has no real value below 1 V, so at a 0.5 V
    // drive the residual and the update are NaN. A max-norm convergence
    // test drops NaN (std::max keeps the other operand); the step must fail
    // instead of converging to NaN.
    netlist::CircuitBuilder cb("sqrt");
    cb.ground("gnd");
    cb.voltage_source("V1", "in", "gnd", "u0");
    cb.resistor("R1", "in", "d", 1e3);
    cb.generic("D1", "d", "gnd",
               expr::make_equation(
                   expr::EquationKind::kDipole, expr::branch_current("D1"),
                   expr::Expr::unary(expr::UnaryOp::kSqrt,
                                     expr::Expr::sub(expr::Expr::symbol(
                                                         expr::branch_voltage("D1")),
                                                     expr::Expr::constant(1.0))),
                   "dipole(D1)"));
    const netlist::Circuit c = cb.build();
    auto engine = SpiceEngine::create(c, fast_options());
    ASSERT_TRUE(engine.has_value());
    EXPECT_FALSE(engine->step({0.5}, 1e-6));
    EXPECT_EQ(engine->stats().steps, 0u);
}

TEST(SpiceEngine, RunTransientThrowsWhenNewtonFails) {
    // Parallel voltage sources make the Jacobian singular at the first
    // substep, t = h / internal_substeps.
    const netlist::Circuit c = testing_support::parallel_sources_circuit();
    auto engine = SpiceEngine::create(c, fast_options());
    ASSERT_TRUE(engine.has_value());
    expect_throw_containing<std::runtime_error>(
        [&] {
            (void)engine->run_transient({{"u0", numeric::constant(1.0)}}, 10e-6, "a", "gnd");
        },
        {"SPICE: ", "t = 2.5e-07 s"});
}

TEST(SpiceEngine, RejectsInvalidOptions) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    const auto expect_rejected = [&c](const SpiceOptions& options, const char* fragment) {
        std::string error;
        EXPECT_FALSE(SpiceEngine::create(c, options, &error).has_value()) << fragment;
        EXPECT_NE(error.find(fragment), std::string::npos) << error;
    };
    for (const double dt : {0.0, -1e-6, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(dt);
        SpiceOptions options = fast_options();
        options.timestep = dt;
        expect_rejected(options, "timestep");
    }
    SpiceOptions no_substeps = fast_options();
    no_substeps.internal_substeps = 0;
    expect_rejected(no_substeps, "internal_substeps");
    // Convergence is always re-verified by a second iteration, so a single
    // iteration could never converge.
    SpiceOptions one_iteration = fast_options();
    one_iteration.max_iterations = 1;
    expect_rejected(one_iteration, "max_iterations");
}

TEST(SpiceEngine, UnknownNameThrows) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    auto engine = SpiceEngine::create(c, fast_options());
    ASSERT_TRUE(engine.has_value());
    expect_throw_containing<std::invalid_argument>(
        [&] { (void)engine->node_voltage("nowhere"); }, {"SPICE: ", "node 'nowhere'"});
    expect_throw_containing<std::invalid_argument>(
        [&] { (void)engine->branch_current("nowhere"); }, {"SPICE: ", "branch 'nowhere'"});
    expect_throw_containing<std::invalid_argument>(
        [&] { (void)engine->voltage_between("nowhere", "gnd"); }, {"node 'nowhere'"});
}

struct PaperCircuit {
    const char* name;
    netlist::Circuit (*make)();
};

// Prints the parameter as its circuit name, not as raw bytes.
void PrintTo(const PaperCircuit& c, std::ostream* os) { *os << c.name; }

netlist::Circuit make_rc1() { return netlist::make_rc_ladder(1); }
netlist::Circuit make_rc20() { return netlist::make_rc_ladder(20); }

class SpiceElnAgreement : public ::testing::TestWithParam<PaperCircuit> {};

TEST_P(SpiceElnAgreement, MatchesElnDiscretizationAtSameInternalStep) {
    // With internal_substeps == 1 both engines integrate backward Euler at
    // the same step over the same tableau, so they differ by rounding only
    // (SPICE stamps c * (1/h) and adds Newton's verifying update; ELN
    // stamps c/h). Over 20,000 steps of the paper's square wave the
    // largest difference reads below 1e-14 of the trace's peak; 1e-12
    // leaves room for that, while a wrong stamp (a sign, a column, the
    // op-amp's VCVS reading V of another branch) is off by order one.
    constexpr double kRelativeTolerance = 1e-12;
    const netlist::Circuit c = GetParam().make();
    SpiceOptions options;
    options.timestep = 50e-9;
    options.internal_substeps = 1;
    auto spice = SpiceEngine::create(c, options);
    ASSERT_TRUE(spice.has_value());
    eln::ElnEngine eln_engine(c, options.timestep);
    ASSERT_EQ(spice->input_names(), eln_engine.input_names());

    const std::map<std::string, numeric::SourceFunction> stimuli = {
        {"u0", numeric::square_wave(1e-3)}, {"u1", numeric::square_wave(1e-3, 0.0, 0.5)}};
    std::vector<const numeric::SourceFunction*> sources;
    for (const std::string& name : eln_engine.input_names()) {
        sources.push_back(&numeric::stimulus_for(stimuli, name));
    }
    const netlist::NodeId out = c.observed_node("out", "test");
    const netlist::NodeId gnd = c.observed_node("gnd", "test");
    std::vector<double> inputs(sources.size());
    double peak = 0.0;
    double max_difference = 0.0;
    for (int k = 1; k <= 20000; ++k) {
        const double t = k * options.timestep;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            inputs[i] = (*sources[i])(t);
        }
        ASSERT_TRUE(spice->step(inputs, t)) << "step " << k;
        eln_engine.step(inputs, t);
        const double v_eln = eln_engine.voltage_between(out, gnd);
        peak = std::max(peak, std::fabs(v_eln));
        max_difference =
            std::max(max_difference, std::fabs(spice->voltage_between(out, gnd) - v_eln));
    }
    ASSERT_GT(peak, 0.0);
    EXPECT_LT(max_difference / peak, kRelativeTolerance)
        << "max |SPICE - ELN| " << max_difference << " on a peak of " << peak;
}

INSTANTIATE_TEST_SUITE_P(PaperCircuits, SpiceElnAgreement,
                         ::testing::Values(PaperCircuit{"RC1", make_rc1},
                                           PaperCircuit{"RC20", make_rc20},
                                           PaperCircuit{"2IN", netlist::make_two_inputs},
                                           PaperCircuit{"OA", netlist::make_opamp}),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace amsvp::spice
