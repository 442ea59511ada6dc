// Batched multi-instance execution: BatchCompiledModel must agree with the
// scalar CompiledModel *exactly* (bit for bit, lane by lane — it runs the
// same fused instruction stream, so there is no tolerance to grant), one
// ModelLayout must be shareable across instances, and the sweep driver must
// map per-lane stimuli and overrides correctly.
#include <gtest/gtest.h>

#include <random>

#include "abstraction/abstraction.hpp"
#include "netlist/builder.hpp"
#include "random_models.hpp"
#include "runtime/batch_model.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/simulate.hpp"

namespace amsvp {
namespace {

using abstraction::Assignment;
using abstraction::SignalFlowModel;
using expr::Expr;
using expr::Symbol;

// --- Random-model differential ----------------------------------------------

class BatchRandomDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(BatchRandomDifferential, LanesMatchScalarInstancesExactly) {
    const SignalFlowModel m = testing_support::make_random_signal_flow(GetParam());
    constexpr int kLanes = 7;  // deliberately not a pinned interpreter width

    const auto layout = runtime::ModelLayout::compile(m);
    runtime::BatchCompiledModel batch(layout, kLanes);
    std::vector<runtime::CompiledModel> scalars;
    scalars.reserve(kLanes);
    for (int l = 0; l < kLanes; ++l) {
        scalars.emplace_back(layout);
    }

    std::mt19937 rng(GetParam() ^ 0x5eedu);
    std::uniform_real_distribution<double> input(-1.0, 1.0);
    for (std::size_t k = 1; k <= 200; ++k) {
        const double t = static_cast<double>(k) * m.timestep;
        for (int l = 0; l < kLanes; ++l) {
            for (std::size_t i = 0; i < m.inputs.size(); ++i) {
                const double u = input(rng);
                batch.set_input(l, i, u);
                scalars[static_cast<std::size_t>(l)].set_input(i, u);
            }
        }
        batch.step(t);
        for (int l = 0; l < kLanes; ++l) {
            scalars[static_cast<std::size_t>(l)].step(t);
        }
        for (int l = 0; l < kLanes; ++l) {
            for (const Assignment& a : m.assignments) {
                ASSERT_EQ(batch.value_of(l, a.target),
                          scalars[static_cast<std::size_t>(l)].value_of(a.target))
                    << a.target.name << " lane " << l << " step " << k;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchRandomDifferential,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

// --- Paper circuits across batch widths --------------------------------------

struct WidthCase {
    const char* circuit;
    int lanes;
};

// Names each case "<circuit> x<lanes>". Without this gtest prints the
// struct's raw bytes (a pointer and padding), so the ctest names changed on
// every build.
void PrintTo(const WidthCase& c, std::ostream* os) { *os << c.circuit << " x" << c.lanes; }

class BatchPaperCircuit : public ::testing::TestWithParam<WidthCase> {};

TEST_P(BatchPaperCircuit, MatchesScalarAcrossWidths) {
    const auto& [name, lanes] = GetParam();
    const netlist::Circuit circuit = std::string(name) == "RC20"
                                         ? netlist::make_rc_ladder(20)
                                         : netlist::make_opamp();
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    const auto layout = runtime::ModelLayout::compile(*model);
    runtime::BatchCompiledModel batch(layout, lanes);

    // Each lane drives the circuit with a distinct input scale; per-lane
    // scalar references run step-synchronously on the same shared layout.
    const auto stimulus = numeric::square_wave(1e-3);
    std::vector<runtime::CompiledModel> refs;
    refs.reserve(static_cast<std::size_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
        refs.emplace_back(layout);
    }
    for (std::size_t k = 1; k <= 500; ++k) {
        const double t = static_cast<double>(k) * model->timestep;
        for (int l = 0; l < lanes; ++l) {
            const double u = (1.0 + 0.25 * static_cast<double>(l)) * stimulus(t);
            batch.set_input(l, 0, u);
            refs[static_cast<std::size_t>(l)].set_input(0, u);
        }
        batch.step(t);
        for (int l = 0; l < lanes; ++l) {
            refs[static_cast<std::size_t>(l)].step(t);
            ASSERT_EQ(batch.output(l, 0), refs[static_cast<std::size_t>(l)].output(0))
                << name << " lane " << l << "/" << lanes << " step " << k;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchPaperCircuit,
                         ::testing::Values(WidthCase{"RC20", 1}, WidthCase{"RC20", 2},
                                           WidthCase{"RC20", 4}, WidthCase{"RC20", 8},
                                           WidthCase{"RC20", 13}, WidthCase{"RC20", 64},
                                           WidthCase{"OA", 1}, WidthCase{"OA", 3},
                                           WidthCase{"OA", 16}, WidthCase{"OA", 64}));

// --- Layout sharing -----------------------------------------------------------

TEST(ModelLayout, TwoInstancesShareOneCompile) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(5);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    const auto layout = runtime::ModelLayout::compile(*model);
    runtime::CompiledModel a(layout);
    runtime::CompiledModel b(layout);
    // Both instances hold the same artifact — no second compile happened.
    EXPECT_EQ(a.layout().get(), b.layout().get());
    EXPECT_EQ(&a.fused_program(), &b.fused_program());
    // use_count: local + a + b.
    EXPECT_EQ(layout.use_count(), 3);

    // Instances are independent state over the shared program.
    a.set_input(0, 1.0);
    b.set_input(0, -1.0);
    for (int k = 1; k <= 10; ++k) {
        a.step(k * model->timestep);
        b.step(k * model->timestep);
    }
    EXPECT_GT(a.output(0), 0.0);
    EXPECT_LT(b.output(0), 0.0);
    EXPECT_EQ(a.output(0), -b.output(0));  // odd symmetry of the linear ladder
}

TEST(ModelLayout, SharedLayoutExecutorFactoryReusesCompile) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(3);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    const auto layout = runtime::ModelLayout::compile(*model);
    const runtime::ExecutorFactory factory = runtime::shared_layout_executor_factory(layout);
    const auto e1 = factory(*model);
    const auto e2 = factory(*model);
    ASSERT_NE(e1, nullptr);
    ASSERT_NE(e2, nullptr);
    EXPECT_EQ(layout.use_count(), 4);  // local + factory closure + two executors

    runtime::CompiledModel reference(layout);
    reference.set_input(0, 1.0);
    e1->set_input(0, 1.0);
    for (int k = 1; k <= 20; ++k) {
        reference.step(k * model->timestep);
        e1->step(k * model->timestep);
    }
    EXPECT_EQ(reference.output(0), e1->output(0));
}

// --- Sweep driver -------------------------------------------------------------

TEST(SimulateSweep, PerLaneStimuliMatchScalarRuns) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(4);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    // Lane l drives the ladder with amplitude 1 + l/2.
    constexpr int kLanes = 5;
    std::vector<runtime::SweepLane> lanes(kLanes);
    for (int l = 0; l < kLanes; ++l) {
        const double amplitude = 1.0 + 0.5 * static_cast<double>(l);
        lanes[static_cast<std::size_t>(l)].stimuli["u0"] =
            numeric::square_wave(1e-3, 0.0, amplitude);
    }
    const double duration = 400 * model->timestep;
    const auto sweep = runtime::simulate_sweep(*model, {}, lanes, duration);
    ASSERT_EQ(sweep.outputs.size(), 1u);
    ASSERT_EQ(sweep.outputs[0].lanes(), static_cast<std::size_t>(kLanes));
    ASSERT_EQ(sweep.outputs[0].size(), sweep.steps);

    for (int l = 0; l < kLanes; ++l) {
        const auto scalar = runtime::simulate_transient(
            *model, {{"u0", lanes[static_cast<std::size_t>(l)].stimuli.at("u0")}}, duration);
        const numeric::Waveform lane = sweep.outputs[0].waveform(static_cast<std::size_t>(l));
        ASSERT_EQ(lane.size(), scalar.outputs[0].size());
        for (std::size_t k = 0; k < lane.size(); ++k) {
            ASSERT_EQ(lane.value(k), scalar.outputs[0].value(k))
                << "lane " << l << " step " << k;
        }
    }
}

TEST(SimulateSweep, PerLaneOverridesSetInitialState) {
    // An accumulator whose start value is swept per lane: acc := acc@1 + u.
    SignalFlowModel m;
    m.name = "acc";
    m.timestep = 1e-6;
    const Symbol u = expr::input_symbol("u0");
    const Symbol acc = expr::variable_symbol("acc");
    m.inputs = {u};
    m.assignments.push_back(Assignment{acc, Expr::add(Expr::delayed(acc, 1), Expr::symbol(u))});
    m.outputs = {acc};

    std::vector<runtime::SweepLane> lanes(3);
    lanes[1].overrides[acc] = 100.0;
    lanes[2].overrides[acc] = -7.5;
    const auto result = runtime::simulate_sweep(
        m, {{"u0", numeric::constant(1.0)}}, lanes, 10 * m.timestep);
    ASSERT_EQ(result.steps, 10u);
    EXPECT_DOUBLE_EQ(result.outputs[0].value(0, 9), 10.0);
    EXPECT_DOUBLE_EQ(result.outputs[0].value(1, 9), 110.0);
    EXPECT_DOUBLE_EQ(result.outputs[0].value(2, 9), 2.5);
}

TEST(WaveformBatch, LaneExtractionPreservesTimeBase) {
    numeric::WaveformBatch batch(2, 0.5, 0.5);
    batch.resize(2);
    batch.frame(0)[0] = 1.0;
    batch.frame(0)[1] = 10.0;
    batch.frame(1)[0] = 2.0;
    batch.frame(1)[1] = 20.0;
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_DOUBLE_EQ(batch.value(1, 0), 10.0);
    EXPECT_DOUBLE_EQ(batch.time(1), 1.0);

    const numeric::Waveform lane1 = batch.waveform(1);
    ASSERT_EQ(lane1.size(), 2u);
    EXPECT_DOUBLE_EQ(lane1.value(0), 10.0);
    EXPECT_DOUBLE_EQ(lane1.value(1), 20.0);
    EXPECT_DOUBLE_EQ(lane1.step(), 0.5);
    EXPECT_DOUBLE_EQ(lane1.start_time(), 0.5);
}

}  // namespace
}  // namespace amsvp
