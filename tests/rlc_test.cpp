// Second-order dynamics: inductors make branch *currents* state variables
// (V = L ddt(I)), exercising the derivative-defined-root path of the
// assembler that capacitor-only circuits never touch.
#include <gtest/gtest.h>

#include <cmath>

#include "abstraction/abstraction.hpp"
#include "backends/runner.hpp"
#include "netlist/builder.hpp"
#include "numeric/metrics.hpp"
#include "runtime/simulate.hpp"

namespace amsvp {
namespace {

/// Series RLC: vin - R - L - C(out) to ground. Underdamped for the chosen
/// values: R = 50, L = 1 mH, C = 100 nF -> f0 ~ 15.9 kHz, Q ~ 2.
netlist::Circuit make_series_rlc(double r = 50.0, double l = 1e-3, double c = 100e-9) {
    netlist::CircuitBuilder cb("RLC");
    cb.ground("gnd");
    cb.voltage_source("VIN", "in", "gnd", "u0");
    cb.resistor("R1", "in", "n1", r);
    cb.inductor("L1", "n1", "n2", l);
    cb.capacitor("C1", "n2", "gnd", c);
    const netlist::Circuit circuit = cb.build();
    EXPECT_TRUE(circuit.validate().empty());
    return circuit;
}

TEST(Rlc, AbstractionKeepsBothStates) {
    const netlist::Circuit circuit = make_series_rlc();
    abstraction::AbstractionOptions options;
    options.timestep = 1e-7;
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"n2", "gnd"}}, options, &error);
    ASSERT_TRUE(model.has_value()) << error;

    // State space: capacitor voltage + inductor current.
    const auto states = model->state_symbols();
    ASSERT_EQ(states.size(), 2u);
    EXPECT_TRUE(std::find(states.begin(), states.end(), expr::branch_voltage("C1")) !=
                states.end());
    EXPECT_TRUE(std::find(states.begin(), states.end(), expr::branch_current("L1")) !=
                states.end());
}

TEST(Rlc, StepResponseMatchesAnalyticSecondOrder) {
    const double r = 50.0;
    const double l = 1e-3;
    const double c = 100e-9;
    const netlist::Circuit circuit = make_series_rlc(r, l, c);

    abstraction::AbstractionOptions options;
    options.timestep = 2e-8;  // fine step: backward Euler damps resonances
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"n2", "gnd"}}, options, &error);
    ASSERT_TRUE(model.has_value()) << error;

    auto result = runtime::simulate_transient(*model, {{"u0", numeric::constant(1.0)}}, 4e-4);
    const numeric::Waveform& out = result.outputs.front();

    // Analytic underdamped step response:
    // v(t) = 1 - e^{-at} (cos wd t + a/wd sin wd t),
    // a = R/2L, wd = sqrt(1/LC - a^2).
    const double a = r / (2 * l);
    const double w0 = 1.0 / std::sqrt(l * c);
    ASSERT_GT(w0, a);  // underdamped
    const double wd = std::sqrt(w0 * w0 - a * a);
    double worst = 0.0;
    for (std::size_t k = 0; k < out.size(); k += 50) {
        const double t = out.time(k);
        const double analytic =
            1.0 - std::exp(-a * t) * (std::cos(wd * t) + a / wd * std::sin(wd * t));
        worst = std::max(worst, std::fabs(out.value(k) - analytic));
    }
    EXPECT_LT(worst, 0.02) << "second-order transient deviates from analytic";
    // The response genuinely overshoots (underdamped).
    EXPECT_GT(out.max_value(), 1.2);
}

TEST(Rlc, TrapezoidalPreservesRingingBetter) {
    // Backward Euler artificially damps the resonance; trapezoidal keeps the
    // overshoot closer to the analytic value at a coarse step.
    const netlist::Circuit circuit = make_series_rlc();
    const double analytic_peak = [&] {
        const double a = 50.0 / (2 * 1e-3);
        const double w0 = 1.0 / std::sqrt(1e-3 * 100e-9);
        const double wd = std::sqrt(w0 * w0 - a * a);
        const double t_peak = M_PI / wd;
        return 1.0 - std::exp(-a * t_peak) * (std::cos(wd * t_peak) +
                                              a / wd * std::sin(wd * t_peak));
    }();

    auto peak_with = [&](abstraction::DiscretizationScheme scheme) {
        abstraction::AbstractionOptions options;
        options.timestep = 1e-6;  // deliberately coarse
        options.scheme = scheme;
        std::string error;
        auto model = abstraction::abstract_circuit(circuit, {{"n2", "gnd"}}, options, &error);
        EXPECT_TRUE(model.has_value()) << error;
        auto result =
            runtime::simulate_transient(*model, {{"u0", numeric::constant(1.0)}}, 3e-4);
        return result.outputs.front().max_value();
    };

    const double be_peak = peak_with(abstraction::DiscretizationScheme::kBackwardEuler);
    const double tr_peak = peak_with(abstraction::DiscretizationScheme::kTrapezoidal);
    EXPECT_LT(std::fabs(tr_peak - analytic_peak), std::fabs(be_peak - analytic_peak));
}

TEST(Rlc, AllBackendsAgreeOnSquareWaveResponse) {
    const netlist::Circuit circuit = make_series_rlc();
    abstraction::AbstractionOptions options;
    options.timestep = 1e-7;
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"n2", "gnd"}}, options, &error);
    ASSERT_TRUE(model.has_value()) << error;

    backends::AnalogSetup setup;
    setup.circuit = &circuit;
    setup.model = &*model;
    setup.stimuli = {{"u0", numeric::square_wave(2e-4)}};
    setup.timestep = options.timestep;
    setup.observed_pos = "n2";
    setup.observed_neg = "gnd";

    const auto reference =
        backends::run_isolated(backends::AnalogIntegration::kVamsCosim, setup, 4e-4);
    for (const auto kind :
         {backends::AnalogIntegration::kEln, backends::AnalogIntegration::kTdf,
          backends::AnalogIntegration::kDe, backends::AnalogIntegration::kCpp}) {
        const auto run = backends::run_isolated(kind, setup, 4e-4);
        ASSERT_EQ(run.trace.size(), reference.trace.size());
        EXPECT_LT(numeric::nrmse(reference.trace, run.trace), 2e-2) << to_string(kind);
    }
}

TEST(Rlc, ParallelTankDecays) {
    // Current source into parallel RLC: the tank rings and decays.
    netlist::CircuitBuilder cb("tank");
    cb.ground("gnd");
    cb.current_source("ISRC", "top", "gnd", "u0");
    cb.resistor("R1", "top", "gnd", 1e3);
    cb.inductor("L1", "top", "gnd", 1e-3);
    cb.capacitor("C1", "top", "gnd", 100e-9);
    const netlist::Circuit circuit = cb.build();

    abstraction::AbstractionOptions options;
    options.timestep = 5e-8;
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"top", "gnd"}}, options, &error);
    ASSERT_TRUE(model.has_value()) << error;

    // Pulse of current, then watch the decay.
    auto pulse = [](double t) { return t < 2e-5 ? 1e-3 : 0.0; };
    auto result = runtime::simulate_transient(*model, {{"u0", pulse}}, 1e-3);
    const numeric::Waveform& out = result.outputs.front();
    // Energy must decay: the late-window envelope is far below the early one.
    double early = 0.0;
    double late = 0.0;
    for (std::size_t k = 0; k < out.size() / 8; ++k) {
        early = std::max(early, std::fabs(out.value(k)));
    }
    for (std::size_t k = out.size() - out.size() / 8; k < out.size(); ++k) {
        late = std::max(late, std::fabs(out.value(k)));
    }
    EXPECT_GT(early, 0.0);
    EXPECT_LT(late, early * 0.05);
}

}  // namespace
}  // namespace amsvp
