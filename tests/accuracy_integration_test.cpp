// End-to-end accuracy: the paper's Table I NRMSE column. Every generated
// model (TDF / DE / C++) and the manual ELN model are compared against the
// conservative Verilog-AMS reference (the SPICE-like engine at a finer
// internal timestep) under the paper's square-wave stimulus.
#include <gtest/gtest.h>

#include "abstraction/abstraction.hpp"
#include "backends/runner.hpp"
#include "netlist/builder.hpp"
#include "numeric/metrics.hpp"

namespace amsvp {
namespace {

struct Case {
    const char* name;
    netlist::Circuit (*make)();
};

// Prints the parameter as its circuit name. Without this gtest prints the
// struct's raw bytes (two pointers) into the ctest name, so the name
// changed from build to build.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

netlist::Circuit make_rc1() {
    return netlist::make_rc_ladder(1);
}
netlist::Circuit make_rc5() {
    return netlist::make_rc_ladder(5);
}

class AccuracyCase : public ::testing::TestWithParam<Case> {};

TEST_P(AccuracyCase, AllBackendsTrackTheConservativeReference) {
    const netlist::Circuit circuit = GetParam().make();
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    backends::AnalogSetup setup;
    setup.circuit = &circuit;
    setup.model = &*model;
    setup.stimuli = {{"u0", numeric::square_wave(1e-3)},
                     {"u1", numeric::square_wave(1e-3, 0.0, 0.5)}};
    setup.timestep = model->timestep;

    constexpr double kDuration = 2e-3;  // two square-wave periods
    const backends::BackendRun reference =
        backends::run_isolated(backends::AnalogIntegration::kVamsCosim, setup, kDuration);
    ASSERT_GT(reference.trace.size(), 0u);

    for (const backends::AnalogIntegration kind :
         {backends::AnalogIntegration::kEln, backends::AnalogIntegration::kTdf,
          backends::AnalogIntegration::kDe, backends::AnalogIntegration::kCpp}) {
        const backends::BackendRun run = backends::run_isolated(kind, setup, kDuration);
        ASSERT_EQ(run.trace.size(), reference.trace.size())
            << to_string(kind) << " sample count mismatch";
        const double error_nrmse = numeric::nrmse(reference.trace, run.trace);
        // The generated models integrate at the coarse step, the reference
        // at a finer one: small but non-zero error, as in Table I.
        EXPECT_LT(error_nrmse, 2e-3) << to_string(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperCircuits, AccuracyCase,
                         ::testing::Values(Case{"RC1", make_rc1}, Case{"RC5", make_rc5},
                                           Case{"TWOIN", netlist::make_two_inputs},
                                           Case{"OA", netlist::make_opamp}),
                         [](const auto& info) { return info.param.name; });

TEST(Accuracy, GeneratedBackendsAreBitwiseIdentical) {
    // TDF, DE and C++ run the same compiled model at the same instants: the
    // traces must match exactly (the paper's identical NRMSE rows).
    const netlist::Circuit circuit = netlist::make_rc_ladder(2);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    backends::AnalogSetup setup;
    setup.circuit = &circuit;
    setup.model = &*model;
    setup.stimuli = {{"u0", numeric::square_wave(1e-3)}};
    setup.timestep = model->timestep;

    const auto cpp = backends::run_isolated(backends::AnalogIntegration::kCpp, setup, 1e-3);
    const auto de = backends::run_isolated(backends::AnalogIntegration::kDe, setup, 1e-3);
    const auto tdf = backends::run_isolated(backends::AnalogIntegration::kTdf, setup, 1e-3);

    ASSERT_EQ(cpp.trace.size(), de.trace.size());
    ASSERT_EQ(cpp.trace.size(), tdf.trace.size());
    for (std::size_t k = 0; k < cpp.trace.size(); ++k) {
        ASSERT_DOUBLE_EQ(cpp.trace.value(k), de.trace.value(k)) << "DE diverged at " << k;
        ASSERT_DOUBLE_EQ(cpp.trace.value(k), tdf.trace.value(k)) << "TDF diverged at " << k;
    }
}

TEST(Accuracy, ElnMatchesAbstractedModelClosely) {
    // Same discretization, different solution path: ELN (matrix back-solve)
    // vs the abstracted closed form. Differences are pure roundoff.
    const netlist::Circuit circuit = netlist::make_rc_ladder(3);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    backends::AnalogSetup setup;
    setup.circuit = &circuit;
    setup.model = &*model;
    setup.stimuli = {{"u0", numeric::square_wave(1e-3)}};
    setup.timestep = model->timestep;

    const auto eln = backends::run_isolated(backends::AnalogIntegration::kEln, setup, 1e-3);
    const auto cpp = backends::run_isolated(backends::AnalogIntegration::kCpp, setup, 1e-3);
    ASSERT_EQ(eln.trace.size(), cpp.trace.size());
    EXPECT_LT(numeric::nrmse(eln.trace, cpp.trace), 1e-9);
}

}  // namespace
}  // namespace amsvp
