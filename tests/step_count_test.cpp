// support::step_count and its call sites: `static_cast<std::size_t>(duration
// / dt)` used to drop the final step whenever the division landed a few ulps
// below an integer (0.3 / 0.1 = 2.9999999999999996). Every transient driver
// — simulate_transient, simulate_sweep, SpiceEngine::run_transient,
// TdfCluster::run — must agree that 0.3 s of 0.1 s steps is 3 steps. A
// duration with no step count (NaN, infinite, 2^64 steps or more) throws
// instead of being cast.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "abstraction/signal_flow_model.hpp"
#include "netlist/builder.hpp"
#include "runtime/simulate.hpp"
#include "spice/engine.hpp"
#include "support/step_count.hpp"
#include "tdf/tdf.hpp"

namespace amsvp {
namespace {

TEST(StepCount, SnapsQuotientsJustBelowAnInteger) {
    // Both quotients land below the integer in IEEE double; truncation
    // loses the final step.
    ASSERT_LT(0.3 / 0.1, 3.0);
    ASSERT_LT(0.7 / 0.1, 7.0);
    EXPECT_EQ(support::step_count(0.3, 0.1), 3u);
    EXPECT_EQ(support::step_count(0.7, 0.1), 7u);
    EXPECT_EQ(support::step_count(0.9, 0.1), 9u);
}

TEST(StepCount, ExactAndNonIntegerQuotientsTruncate) {
    EXPECT_EQ(support::step_count(1.0, 0.25), 4u);
    EXPECT_EQ(support::step_count(2e-3, 50e-9), 40000u);
    // A genuinely fractional quotient keeps the floor: 1.0 / 0.3 = 3.33...
    EXPECT_EQ(support::step_count(1.0, 0.3), 3u);
    EXPECT_EQ(support::step_count(0.05, 0.1), 0u);
}

TEST(StepCount, NonPositiveDurationsGiveZeroSteps) {
    EXPECT_EQ(support::step_count(0.0, 0.1), 0u);
    EXPECT_EQ(support::step_count(-1.0, 0.1), 0u);
}

TEST(StepCount, RejectsNonFiniteAndOversizedQuotients) {
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW((void)support::step_count(inf, 50e-9), std::invalid_argument);
    EXPECT_THROW((void)support::step_count(-inf, 50e-9), std::invalid_argument);
    EXPECT_THROW((void)support::step_count(std::nan(""), 50e-9), std::invalid_argument);
    EXPECT_THROW((void)support::step_count(1e30, 50e-9), std::invalid_argument);
    EXPECT_THROW((void)support::step_count(0x1p64, 1.0), std::invalid_argument);
    // The largest double below 2^64 still casts; finite non-positive
    // durations, however large, still give 0 steps.
    EXPECT_EQ(support::step_count(std::nextafter(0x1p64, 0.0), 1.0), 18446744073709549568u);
    EXPECT_EQ(support::step_count(-1e30, 50e-9), 0u);
}

/// One-state model with a 0.1 s timestep: y := u.
abstraction::SignalFlowModel tenth_second_model() {
    abstraction::SignalFlowModel m;
    m.name = "tenth";
    m.timestep = 0.1;
    const expr::Symbol u = expr::input_symbol("u0");
    const expr::Symbol y = expr::variable_symbol("y");
    m.inputs = {u};
    m.assignments.push_back(abstraction::Assignment{y, expr::Expr::symbol(u)});
    m.outputs = {y};
    return m;
}

TEST(StepCount, SimulateTransientKeepsTheFinalStep) {
    const auto model = tenth_second_model();
    const auto result = runtime::simulate_transient(
        model, {{"u0", numeric::constant(1.0)}}, 0.3);
    EXPECT_EQ(result.steps, 3u);
    ASSERT_EQ(result.outputs[0].size(), 3u);
}

TEST(StepCount, SimulateSweepKeepsTheFinalStep) {
    const auto model = tenth_second_model();
    std::vector<runtime::SweepLane> lanes(2);
    const auto result = runtime::simulate_sweep(
        model, {{"u0", numeric::constant(1.0)}}, lanes, 0.7);
    EXPECT_EQ(result.steps, 7u);
    ASSERT_EQ(result.outputs[0].size(), 7u);
}

TEST(StepCount, SpiceTransientKeepsTheFinalStep) {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    spice::SpiceOptions options;
    options.timestep = 0.1;
    options.internal_substeps = 1;
    auto engine = spice::SpiceEngine::create(c, options);
    ASSERT_TRUE(engine.has_value());
    const numeric::Waveform trace =
        engine->run_transient({{"u0", numeric::constant(1.0)}}, 0.3, "out", "gnd");
    EXPECT_EQ(trace.size(), 3u);
}

namespace tdfstep {

class Counter final : public tdf::TdfModule {
public:
    explicit Counter(std::string name) : TdfModule(std::move(name)), out(*this, "out") {}
    void processing() override { out.write(static_cast<double>(++count_)); }
    tdf::TdfOut out;

private:
    int count_ = 0;
};

class Sink final : public tdf::TdfModule {
public:
    explicit Sink(std::string name) : TdfModule(std::move(name)), in(*this, "in") {}
    void processing() override { (void)in.read(); }
    tdf::TdfIn in;
};

}  // namespace tdfstep

TEST(StepCount, TdfClusterRunKeepsTheFinalPeriod) {
    tdfstep::Counter source("src");
    tdfstep::Sink sink("sink");
    tdf::TdfCluster cluster;
    cluster.add(source);
    cluster.add(sink);
    cluster.connect(source.out, sink.in);
    cluster.set_timestep(source, 0.1);
    ASSERT_TRUE(cluster.elaborate());
    cluster.run(0.7);
    EXPECT_EQ(source.firing_count(), 7u);
}

}  // namespace
}  // namespace amsvp
