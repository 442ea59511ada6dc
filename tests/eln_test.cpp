#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "conservative_support.hpp"
#include "eln/engine.hpp"
#include "netlist/builder.hpp"

namespace amsvp::eln {
namespace {

netlist::Circuit square_law_circuit() {
    netlist::CircuitBuilder cb("nl");
    cb.ground("gnd");
    cb.voltage_source("V1", "a", "gnd", "u0");
    const auto v = [] { return expr::Expr::symbol(expr::branch_voltage("D1")); };
    cb.generic("D1", "a", "gnd",
               expr::make_equation(expr::EquationKind::kDipole, expr::branch_current("D1"),
                                   expr::Expr::mul(v(), v()), "dipole(D1)"));
    return cb.build();
}

TEST(ElnEngine, NonlinearCircuitThrowsTheTableauError) {
    const netlist::Circuit c = square_law_circuit();
    EXPECT_THROW(
        {
            try {
                ElnEngine engine(c, 50e-9);
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find("ELN: "), std::string::npos);
                EXPECT_NE(std::string(e.what()).find("not linear"), std::string::npos);
                throw;
            }
        },
        std::invalid_argument);
}

using testing_support::expect_throw_containing;

TEST(ElnEngine, SingularMatrixThrows) {
    const netlist::Circuit c = testing_support::parallel_sources_circuit();
    expect_throw_containing<std::invalid_argument>([&] { ElnEngine engine(c, 50e-9); },
                                                   {"ELN: ", "singular"});
}

TEST(ElnEngine, TimestepMustBePositiveAndFinite) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    for (const double dt : {0.0, -50e-9, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(dt);
        expect_throw_containing<std::invalid_argument>([&] { ElnEngine engine(c, dt); },
                                                       {"ELN: ", "timestep"});
    }
}

TEST(ElnEngine, UnknownNameThrows) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    ElnEngine engine(c, 50e-9);
    expect_throw_containing<std::invalid_argument>(
        [&] { (void)engine.node_voltage("nowhere"); }, {"ELN: ", "node 'nowhere'"});
    expect_throw_containing<std::invalid_argument>(
        [&] { (void)engine.branch_current("nowhere"); }, {"ELN: ", "branch 'nowhere'"});
    expect_throw_containing<std::invalid_argument>(
        [&] { (void)engine.voltage_between("out", "nowhere"); }, {"node 'nowhere'"});
}

TEST(ElnEngine, ResistiveDividerIsExactImmediately) {
    netlist::CircuitBuilder cb("div");
    cb.ground("gnd");
    cb.voltage_source("V1", "in", "gnd", "u0");
    cb.resistor("R1", "in", "mid", 1e3);
    cb.resistor("R2", "mid", "gnd", 3e3);
    const netlist::Circuit c = cb.build();

    ElnEngine engine(c, 1e-6);
    engine.step({4.0}, 1e-6);
    EXPECT_NEAR(engine.node_voltage("mid"), 3.0, 1e-12);
    EXPECT_NEAR(engine.branch_current("R1"), 1e-3, 1e-15);
    EXPECT_NEAR(engine.voltage_between("in", "mid"), 1.0, 1e-12);
}

TEST(ElnEngine, RcStepResponseMatchesAnalytic) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    const double dt = 50e-9;
    ElnEngine engine(c, dt);
    EXPECT_EQ(engine.input_names(), std::vector<std::string>{"u0"});
    const double tau = 125e-6;
    for (int k = 1; k <= 20000; ++k) {
        engine.step({1.0}, k * dt);
    }
    const double expected = 1.0 - std::exp(-20000 * dt / tau);
    EXPECT_NEAR(engine.voltage_between("out", "gnd"), expected, 2e-4);
}

TEST(ElnEngine, InductorCurrentRampsUnderConstantVoltage) {
    netlist::CircuitBuilder cb("rl");
    cb.ground("gnd");
    cb.voltage_source("V1", "in", "gnd", "u0");
    cb.resistor("R1", "in", "mid", 1.0);
    cb.inductor("L1", "mid", "gnd", 1e-3);
    const netlist::Circuit c = cb.build();

    const double dt = 1e-7;
    ElnEngine engine(c, dt);
    const double tau = 1e-3 / 1.0;
    const double t_end = 5e-4;
    const auto steps = static_cast<int>(t_end / dt);
    for (int k = 1; k <= steps; ++k) {
        engine.step({1.0}, k * dt);
    }
    // i(t) = (V/R)(1 - exp(-t/tau))
    const double expected = 1.0 * (1.0 - std::exp(-t_end / tau));
    EXPECT_NEAR(engine.branch_current("L1"), expected, 1e-3);
}

TEST(ElnEngine, VcvsAmplifies) {
    netlist::CircuitBuilder cb("amp");
    cb.ground("gnd");
    cb.voltage_source("V1", "in", "gnd", "u0");
    cb.resistor("RIN", "in", "gnd", 1e6);
    cb.vcvs("E1", "out", "gnd", "RIN", -5.0);
    cb.resistor("RL", "out", "gnd", 1e3);
    const netlist::Circuit c = cb.build();

    ElnEngine engine(c, 1e-6);
    engine.step({2.0}, 1e-6);
    EXPECT_NEAR(engine.node_voltage("out"), -10.0, 1e-9);
}

TEST(ElnEngine, ResetClearsState) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    ElnEngine engine(c, 1e-6);
    for (int k = 1; k <= 100; ++k) {
        engine.step({1.0}, k * 1e-6);
    }
    EXPECT_GT(engine.voltage_between("out", "gnd"), 0.1);
    engine.reset();
    EXPECT_DOUBLE_EQ(engine.voltage_between("out", "gnd"), 0.0);
    EXPECT_EQ(engine.steps(), 0u);
}

TEST(ElnDeModule, TracesEverySample) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    de::Simulator sim;
    ElnDeModule module(sim, c, 1e-6, {{"u0", numeric::constant(1.0)}}, "out", "gnd");
    sim.run_until(de::from_seconds(100e-6));
    EXPECT_EQ(module.trace().size(), 100u);
    EXPECT_DOUBLE_EQ(module.trace().time(0), 1e-6);
    // Monotone rise for a step input.
    EXPECT_GT(module.trace().value(99), module.trace().value(0));
    EXPECT_DOUBLE_EQ(module.output().read(), module.trace().samples().back());
}

TEST(ElnDeModule, UnknownObservedNodeThrows) {
    // Both observed names are checked when the module is built, before
    // anything is scheduled; the diagnostic names the missing node.
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    const std::pair<std::string, std::string> observed[] = {{"nowhere", "gnd"},
                                                           {"out", "nowhere"}};
    for (const auto& [pos, neg] : observed) {
        SCOPED_TRACE(pos + "/" + neg);
        de::Simulator sim;
        EXPECT_THROW(
            {
                try {
                    ElnDeModule module(sim, c, 1e-6, {{"u0", numeric::constant(1.0)}}, pos,
                                       neg);
                    sim.run_until(de::from_seconds(10e-6));
                } catch (const std::invalid_argument& e) {
                    EXPECT_NE(std::string(e.what()).find("'nowhere'"), std::string::npos);
                    throw;
                }
            },
            std::invalid_argument);
        sim.run_until(de::from_seconds(10e-6));
        EXPECT_EQ(sim.stats().process_activations, 0u);
    }
}

TEST(ElnEngine, OpampCircuitSettlesToDcGain) {
    const netlist::Circuit c = netlist::make_opamp();
    const double dt = 50e-9;
    ElnEngine engine(c, dt);
    for (int k = 1; k <= 40000; ++k) {  // 2 ms
        engine.step({1.0}, k * dt);
    }
    EXPECT_NEAR(engine.voltage_between("out", "gnd"), -4.0, 2e-3);
}

}  // namespace
}  // namespace amsvp::eln
