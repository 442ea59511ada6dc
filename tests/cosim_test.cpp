#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "conservative_support.hpp"
#include "cosim/coupler.hpp"
#include "netlist/builder.hpp"

namespace amsvp::cosim {
namespace {

spice::SpiceOptions options_1us() {
    spice::SpiceOptions options;
    options.timestep = 1e-6;
    options.internal_substeps = 4;
    return options;
}

TEST(Cosim, EngineCreationFailureThrows) {
    // The transient engine rejects idt(); the coupler passes its error on.
    netlist::CircuitBuilder cb("bad");
    cb.ground("gnd");
    cb.voltage_source("V1", "a", "gnd", "u0");
    cb.generic("X1", "a", "gnd",
               expr::make_equation(expr::EquationKind::kDipole, expr::branch_current("X1"),
                                   expr::Expr::idt(expr::Expr::symbol(
                                       expr::branch_voltage("X1"))),
                                   "dipole(X1)"));
    const netlist::Circuit c = cb.build();
    de::Simulator sim;
    EXPECT_THROW(
        {
            try {
                CosimCoupler coupler(sim, c, options_1us(), {{"u0", numeric::constant(1.0)}},
                                     "a", "gnd");
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find("cosim: "), std::string::npos);
                EXPECT_NE(std::string(e.what()).find("idt"), std::string::npos);
                throw;
            }
        },
        std::invalid_argument);
}

TEST(Cosim, InvalidOptionsThrow) {
    // The engine's own diagnostic, before the coupler turns the timestep
    // into a kernel period.
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    for (const double dt : {0.0, -1e-6, std::numeric_limits<double>::quiet_NaN()}) {
        SCOPED_TRACE(dt);
        spice::SpiceOptions options = options_1us();
        options.timestep = dt;
        de::Simulator sim;
        testing_support::expect_throw_containing<std::invalid_argument>(
            [&] {
                CosimCoupler coupler(sim, c, options, {{"u0", numeric::constant(1.0)}}, "out",
                                     "gnd");
            },
            {"cosim: ", "timestep"});
    }
}

TEST(Cosim, NewtonFailureThrowsNamingTheTime) {
    // Parallel voltage sources make the Jacobian singular: the first
    // synchronization point, at 1 us, cannot step the analog solver.
    const netlist::Circuit c = testing_support::parallel_sources_circuit();
    de::Simulator sim;
    CosimCoupler coupler(sim, c, options_1us(), {{"u0", numeric::constant(1.0)}}, "a", "gnd");
    testing_support::expect_throw_containing<std::runtime_error>(
        [&] { sim.run_until(de::from_seconds(10e-6)); }, {"cosim: ", "t = 1e-06 s"});
    EXPECT_EQ(coupler.trace().size(), 0u);
}

TEST(Cosim, UnknownObservedNodeThrows) {
    // Both observed names are checked when the coupler is built, before
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
                    CosimCoupler coupler(sim, c, options_1us(),
                                         {{"u0", numeric::constant(1.0)}}, pos, neg);
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

TEST(Cosim, SynchronizesEveryAnalogTimestep) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    de::Simulator sim;
    CosimCoupler coupler(sim, c, options_1us(), {{"u0", numeric::constant(1.0)}}, "out",
                         "gnd");
    sim.run_until(de::from_seconds(100e-6));

    EXPECT_EQ(coupler.stats().sync_points, 100u);
    EXPECT_EQ(coupler.stats().handshakes, 100u);
    EXPECT_EQ(coupler.trace().size(), 100u);
    // Each sync marshals at least one input and one observation in each
    // direction (8 bytes + sequence header).
    EXPECT_GE(coupler.stats().bytes_marshalled, 100u * 2u * (8u + 8u) * 2u);
}

TEST(Cosim, TraceFollowsRcCharge) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    de::Simulator sim;
    CosimCoupler coupler(sim, c, options_1us(), {{"u0", numeric::constant(1.0)}}, "out",
                         "gnd");
    sim.run_until(de::from_seconds(500e-6));

    const numeric::Waveform& trace = coupler.trace();
    const double tau = 125e-6;
    const double expected = 1.0 - std::exp(-trace.time(trace.size() - 1) / tau);
    EXPECT_NEAR(trace.samples().back(), expected, 2e-3);
    // Monotone rise for a step stimulus.
    for (std::size_t k = 1; k < trace.size(); ++k) {
        EXPECT_GE(trace.value(k) + 1e-12, trace.value(k - 1));
    }
}

TEST(Cosim, OutputSignalHoldsLatestObservation) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    de::Simulator sim;
    CosimCoupler coupler(sim, c, options_1us(), {{"u0", numeric::constant(1.0)}}, "out",
                         "gnd");
    sim.run_until(de::from_seconds(50e-6));
    EXPECT_DOUBLE_EQ(coupler.output().read(), coupler.trace().samples().back());
}

TEST(Cosim, ZeroOrderHoldOnInputsWithinStep) {
    // The coupler samples stimuli only at sync points: a pulse shorter than
    // the analog timestep that falls between syncs is invisible. This is the
    // documented fidelity limit of lock-step co-simulation.
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    de::Simulator sim;
    // 1-sample pulse at t = 1.5 us, between the 1 us and 2 us sync points.
    auto pulse = [](double t) { return (t > 1.4e-6 && t < 1.6e-6) ? 1.0 : 0.0; };
    CosimCoupler coupler(sim, c, options_1us(), {{"u0", pulse}}, "out", "gnd");
    sim.run_until(de::from_seconds(10e-6));
    for (const double v : coupler.trace().samples()) {
        EXPECT_DOUBLE_EQ(v, 0.0);
    }
}

}  // namespace
}  // namespace amsvp::cosim
