// Cross-backend properties that do not depend on a specific circuit: the
// runner produces comparable traces (same sampling convention, same length)
// for every backend, across a sweep of ladder orders.
#include <gtest/gtest.h>

#include "abstraction/abstraction.hpp"
#include "backends/runner.hpp"
#include "netlist/builder.hpp"
#include "numeric/metrics.hpp"

namespace amsvp {
namespace {

class LadderSweep : public ::testing::TestWithParam<int> {};

TEST_P(LadderSweep, AllBackendsProduceAlignedTraces) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(GetParam());
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    backends::AnalogSetup setup;
    setup.circuit = &circuit;
    setup.model = &*model;
    setup.stimuli = {{"u0", numeric::square_wave(2e-4)}};
    setup.timestep = 1e-6;  // coarser than default: keeps the sweep fast
    setup.spice.internal_substeps = 4;
    // Rebuild the model at the sweep timestep.
    abstraction::AbstractionOptions options;
    options.timestep = setup.timestep;
    model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, options, &error);
    ASSERT_TRUE(model.has_value()) << error;
    setup.model = &*model;

    constexpr double kDuration = 4e-4;
    const std::size_t expected_samples = static_cast<std::size_t>(kDuration / setup.timestep);

    backends::BackendRun reference;
    for (const backends::AnalogIntegration kind : backends::all_backends()) {
        const backends::BackendRun run = backends::run_isolated(kind, setup, kDuration);
        ASSERT_EQ(run.trace.size(), expected_samples) << to_string(kind);
        EXPECT_DOUBLE_EQ(run.trace.time(0), setup.timestep) << to_string(kind);
        EXPECT_GE(run.wall_seconds, 0.0);
        if (kind == backends::AnalogIntegration::kVamsCosim) {
            reference = run;
        } else {
            EXPECT_LT(numeric::nrmse(reference.trace, run.trace), 5e-3)
                << to_string(kind) << " on RC" << GetParam();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Orders, LadderSweep, ::testing::Values(1, 2, 4, 8));

TEST(BackendNames, AreStable) {
    EXPECT_EQ(to_string(backends::AnalogIntegration::kVamsCosim), "Verilog-AMS");
    EXPECT_EQ(to_string(backends::AnalogIntegration::kEln), "SC-AMS/ELN");
    EXPECT_EQ(to_string(backends::AnalogIntegration::kTdf), "SC-AMS/TDF");
    EXPECT_EQ(to_string(backends::AnalogIntegration::kDe), "SC-DE");
    EXPECT_EQ(to_string(backends::AnalogIntegration::kCpp), "C++");
    EXPECT_EQ(backends::all_backends().size(), 5u);
}

}  // namespace
}  // namespace amsvp
