#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "eln/engine.hpp"
#include "netlist/builder.hpp"
#include "numeric/sources.hpp"
#include "spice/engine.hpp"

namespace amsvp::spice {
namespace {

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

TEST(SpiceEngine, MatchesElnDiscretizationAtSameInternalStep) {
    // With internal_substeps == 1 both engines integrate backward Euler at
    // the same step, so they must agree to solver tolerance.
    const netlist::Circuit c = netlist::make_rc_ladder(3);
    SpiceOptions options;
    options.timestep = 1e-6;
    options.internal_substeps = 1;
    auto spice = SpiceEngine::create(c, options);
    ASSERT_TRUE(spice.has_value());
    eln::ElnEngine eln_engine(c, options.timestep);

    for (int k = 1; k <= 500; ++k) {
        const double t = k * options.timestep;
        const double u = (k % 100 < 50) ? 1.0 : 0.0;
        ASSERT_TRUE(spice->step({u}, t));
        eln_engine.step({u}, t);
        ASSERT_NEAR(spice->voltage_between("out", "gnd"),
                    eln_engine.voltage_between("out", "gnd"), 1e-9)
            << "diverged at step " << k;
    }
}

}  // namespace
}  // namespace amsvp::spice
