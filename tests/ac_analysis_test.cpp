#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "abstraction/abstraction.hpp"
#include "netlist/builder.hpp"
#include "runtime/ac_analysis.hpp"

namespace amsvp::runtime {
namespace {

/// `call` throws std::invalid_argument with a message containing `text`.
template <typename F>
void expect_invalid_argument_naming(F&& call, const std::string& text) {
    try {
        call();
        ADD_FAILURE() << "nothing thrown; expected a message naming \"" << text << "\"";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(text), std::string::npos) << e.what();
    }
}

abstraction::SignalFlowModel rc_model() {
    const netlist::Circuit circuit = netlist::make_rc_ladder(1);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return std::move(*model);
}

TEST(AcAnalysis, LogGridSpansEndpoints) {
    const auto grid = log_frequency_grid(10.0, 1e5, 5);
    ASSERT_EQ(grid.size(), 5u);
    EXPECT_NEAR(grid.front(), 10.0, 1e-9);
    EXPECT_NEAR(grid.back(), 1e5, 1e-3);
    // Log spacing: constant ratio between neighbours.
    const double r0 = grid[1] / grid[0];
    const double r1 = grid[2] / grid[1];
    EXPECT_NEAR(r0, r1, 1e-9);
}

TEST(AcAnalysis, RcLowPassMatchesAnalyticBode) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(1);
    abstraction::AbstractionOptions options;
    options.timestep = 1e-7;
    options.scheme = abstraction::DiscretizationScheme::kTrapezoidal;
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, options, &error);
    ASSERT_TRUE(model.has_value()) << error;

    const double tau = 5e3 * 25e-9;
    const auto points = measure_frequency_response(
        *model, "u0", {100.0, 1.0 / (2 * M_PI * tau), 10e3});
    ASSERT_EQ(points.size(), 3u);

    for (const AcPoint& p : points) {
        const double w = 2 * M_PI * p.frequency_hz;
        const double mag = 1.0 / std::sqrt(1.0 + w * w * tau * tau);
        const double phase = -std::atan(w * tau);
        EXPECT_NEAR(p.magnitude, mag, 0.01) << "f = " << p.frequency_hz;
        EXPECT_NEAR(p.phase_radians, phase, 0.02) << "f = " << p.frequency_hz;
    }
    // The corner frequency sits at -3 dB.
    EXPECT_NEAR(points[1].magnitude, 1.0 / std::sqrt(2.0), 0.01);
}

TEST(AcAnalysis, ActiveFilterGainAndCutoff) {
    const netlist::Circuit circuit = netlist::make_opamp();
    abstraction::AbstractionOptions options;
    options.timestep = 1e-7;
    options.scheme = abstraction::DiscretizationScheme::kTrapezoidal;
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, options, &error);
    ASSERT_TRUE(model.has_value()) << error;

    // Inverting active low-pass: |H(0)| = R2/R1 = 4, fc = 1/(2 pi R2 C1).
    const double fc = 1.0 / (2 * M_PI * 1.6e3 * 40e-9);
    const auto points = measure_frequency_response(*model, "u0", {100.0, fc});
    EXPECT_NEAR(points[0].magnitude, 4.0, 0.05);
    EXPECT_NEAR(points[1].magnitude, 4.0 / std::sqrt(2.0), 0.06);
    // Inverting: phase near pi at low frequency.
    EXPECT_NEAR(std::fabs(points[0].phase_radians), M_PI, 0.05);
}

TEST(AcAnalysis, RlcResonancePeaksAtF0) {
    netlist::CircuitBuilder cb("RLC");
    cb.ground("gnd");
    cb.voltage_source("VIN", "in", "gnd", "u0");
    cb.resistor("R1", "in", "n1", 50.0);
    cb.inductor("L1", "n1", "n2", 1e-3);
    cb.capacitor("C1", "n2", "gnd", 100e-9);
    const netlist::Circuit circuit = cb.build();

    abstraction::AbstractionOptions options;
    options.timestep = 5e-8;
    options.scheme = abstraction::DiscretizationScheme::kTrapezoidal;
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"n2", "gnd"}}, options, &error);
    ASSERT_TRUE(model.has_value()) << error;

    const double f0 = 1.0 / (2 * M_PI * std::sqrt(1e-3 * 100e-9));
    const auto points =
        measure_frequency_response(*model, "u0", {f0 / 4, f0, f0 * 4});
    // Series RLC voltage across C peaks near f0 with gain Q = sqrt(L/C)/R = 2.
    EXPECT_GT(points[1].magnitude, points[0].magnitude);
    EXPECT_GT(points[1].magnitude, points[2].magnitude);
    EXPECT_NEAR(points[1].magnitude, 2.0, 0.1);
}

TEST(AcAnalysis, RejectsFrequencyAboveBand) {
    const auto model = rc_model();
    expect_invalid_argument_naming(
        [&] { (void)measure_frequency_response(model, "u0", {1.0 / model.timestep}); },
        "frequency outside");
}

TEST(AcAnalysis, RejectsBadFrequenciesNamingTheValue) {
    const auto model = rc_model();
    expect_invalid_argument_naming(
        [&] { (void)measure_frequency_response(model, "u0", {1e3, 0.0}); },
        "band: 0 Hz");
    expect_invalid_argument_naming(
        [&] { (void)measure_frequency_response(model, "u0", {-5.0}); }, "band: -5 Hz");
}

TEST(AcAnalysis, RejectsUnknownInputAndMissingTimestep) {
    auto model = rc_model();
    expect_invalid_argument_naming(
        [&] { (void)measure_frequency_response(model, "vin", {1e3}); },
        "unknown input name 'vin'");
    model.timestep = 0.0;
    expect_invalid_argument_naming(
        [&] { (void)measure_frequency_response(model, "u0", {1e3}); }, "no timestep");
}

TEST(AcAnalysis, RejectsBadGridNamingTheValues) {
    expect_invalid_argument_naming([] { (void)log_frequency_grid(0.0, 1e3, 5); },
                                   "f_min 0, f_max 1000, 5 points");
    expect_invalid_argument_naming([] { (void)log_frequency_grid(1e3, 10.0, 5); },
                                   "f_min 1000, f_max 10");
    expect_invalid_argument_naming([] { (void)log_frequency_grid(10.0, 1e3, 1); },
                                   "1 points");
}

}  // namespace
}  // namespace amsvp::runtime
