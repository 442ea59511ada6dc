// Per-lane steady-state detection in simulate_sweep: lanes that settle are
// retired early and the batch compacts in place, without changing any
// surviving lane's results.
#include <gtest/gtest.h>

#include <cmath>

#include "abstraction/abstraction.hpp"
#include "netlist/builder.hpp"
#include "runtime/simulate.hpp"

namespace amsvp::runtime {
namespace {

abstraction::SignalFlowModel ladder_model(int stages, double timestep = 0.0) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(stages);
    abstraction::AbstractionOptions options;
    if (timestep > 0.0) {
        options.timestep = timestep;
    }
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, options, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return std::move(*model);
}

TEST(BatchCompaction, KeptLanesContinueBitForBit) {
    const auto model = ladder_model(2);
    const auto layout = ModelLayout::compile(model);
    const double dt = model.timestep;

    // Reference: four scalar instances with distinct constant inputs.
    std::vector<CompiledModel> scalars;
    for (int l = 0; l < 4; ++l) {
        scalars.emplace_back(layout);
        scalars.back().set_input(0, 0.25 * (l + 1));
    }
    BatchCompiledModel batch(layout, 4);
    for (int l = 0; l < 4; ++l) {
        batch.set_input(l, 0, 0.25 * (l + 1));
    }

    for (int k = 1; k <= 100; ++k) {
        const double t = k * dt;
        batch.step(t);
        for (auto& m : scalars) {
            m.step(t);
        }
    }
    // Retire lanes 1 and 2; survivors keep their exact state.
    batch.compact_lanes({0, 3});
    ASSERT_EQ(batch.batch(), 2);
    EXPECT_EQ(batch.output(0, 0), scalars[0].output(0));
    EXPECT_EQ(batch.output(1, 0), scalars[3].output(0));

    batch.set_input(0, 0, 0.25);
    batch.set_input(1, 0, 1.0);
    for (int k = 101; k <= 200; ++k) {
        const double t = k * dt;
        batch.step(t);
        scalars[0].step(t);
        scalars[3].step(t);
        ASSERT_EQ(batch.output(0, 0), scalars[0].output(0)) << "step " << k;
        ASSERT_EQ(batch.output(1, 0), scalars[3].output(0)) << "step " << k;
    }
}

TEST(BatchCompaction, ResetRestoresConstructedWidth) {
    // compact_lanes narrows the batch in place; reset() must re-grow it to
    // the constructed width so a reused object runs every lane again.
    const auto model = ladder_model(3);
    const auto layout = ModelLayout::compile(model);
    BatchCompiledModel batch(layout, 6);
    for (int l = 0; l < 6; ++l) {
        batch.set_input(l, 0, 0.1 * (l + 1));
    }
    for (int k = 1; k <= 20; ++k) {
        batch.step(k * model.timestep);
    }
    batch.compact_lanes({1, 4});
    ASSERT_EQ(batch.batch(), 2);

    batch.reset();
    ASSERT_EQ(batch.batch(), 6);
    // Restored lanes start from the model's initial values, exactly like a
    // freshly constructed batch.
    BatchCompiledModel fresh(layout, 6);
    for (int l = 0; l < 6; ++l) {
        batch.set_input(l, 0, 0.5);
        fresh.set_input(l, 0, 0.5);
    }
    for (int k = 1; k <= 50; ++k) {
        const double t = k * model.timestep;
        batch.step(t);
        fresh.step(t);
        for (int l = 0; l < 6; ++l) {
            ASSERT_EQ(batch.output(l, 0), fresh.output(l, 0)) << "lane " << l << " step " << k;
        }
    }
}

TEST(BatchCompaction, SweepReusesBatchAfterSteadyCompaction) {
    // A sweep with steady-state retirement compacts the batch; running a
    // second sweep with the same object must cover all constructed lanes
    // again and reproduce a fresh run exactly.
    const auto model = ladder_model(20, 1e-3);
    const auto states = model.state_symbols();
    ASSERT_FALSE(states.empty());

    constexpr int kLanes = 4;
    std::vector<SweepLane> lanes(kLanes);
    for (int l = 0; l < kLanes; ++l) {
        for (const expr::Symbol& s : states) {
            lanes[static_cast<std::size_t>(l)].overrides[s] = 0.01 * (l + 1);
        }
    }
    const std::map<std::string, numeric::SourceFunction> stimuli{
        {"u0", [](double) { return 0.0; }}};
    const double duration = 800 * model.timestep;
    SweepOptions options;
    options.steady_tolerance = 1e-6;
    options.steady_window = 16;

    BatchCompiledModel batch(ModelLayout::compile(model), kLanes);
    const SweepResult first =
        simulate_sweep(batch, model.inputs, stimuli, lanes, duration, options);
    bool any_retired = false;
    for (const std::size_t settled : first.settled_at) {
        any_retired = any_retired || settled < first.steps;
    }
    ASSERT_TRUE(any_retired);  // the first sweep really compacted the batch

    const SweepResult second =
        simulate_sweep(batch, model.inputs, stimuli, lanes, duration, options);
    ASSERT_EQ(second.steps, first.steps);
    ASSERT_EQ(second.settled_at, first.settled_at);
    for (std::size_t o = 0; o < first.outputs.size(); ++o) {
        ASSERT_EQ(second.outputs[o].lanes(), first.outputs[o].lanes());
        ASSERT_EQ(second.outputs[o].size(), first.outputs[o].size());
        for (std::size_t l = 0; l < first.outputs[o].lanes(); ++l) {
            for (std::size_t k = 0; k < first.outputs[o].size(); ++k) {
                ASSERT_EQ(second.outputs[o].value(l, k), first.outputs[o].value(l, k))
                    << "lane " << l << " step " << k;
            }
        }
    }
}

TEST(BatchCompaction, RejectsUnorderedLanes) {
    const auto model = ladder_model(1);
    BatchCompiledModel batch(model, 3);
    EXPECT_DEATH(batch.compact_lanes({2, 1}), "ascending");
}

TEST(SweepSteadyState, Rc20DecayRetiresLanesEarly) {
    // Coarse timestep (backward Euler is unconditionally stable): the
    // ladder's slowest mode decays in a few hundred steps instead of
    // millions at the 50 ns paper timestep.
    const auto model = ladder_model(20, 1e-3);
    const auto states = model.state_symbols();
    ASSERT_FALSE(states.empty());

    // Zero input, per-lane initial charge on every capacitor: pure decay,
    // lanes with smaller initial amplitude settle (to tolerance) sooner.
    constexpr int kLanes = 6;
    std::vector<SweepLane> lanes(kLanes);
    for (int l = 0; l < kLanes; ++l) {
        const double amplitude = 1e-3 * std::pow(10.0, l);
        for (const expr::Symbol& s : states) {
            lanes[static_cast<std::size_t>(l)].overrides[s] = amplitude;
        }
    }
    const std::map<std::string, numeric::SourceFunction> stimuli{
        {"u0", [](double) { return 0.0; }}};
    const double duration = 1500 * model.timestep;

    SweepOptions options;
    options.steady_tolerance = 1e-6;
    options.steady_window = 16;
    const SweepResult detected =
        simulate_sweep(model, stimuli, lanes, duration, options);
    const SweepResult full = simulate_sweep(model, stimuli, lanes, duration);

    ASSERT_EQ(detected.steps, full.steps);
    ASSERT_EQ(detected.settled_at.size(), static_cast<std::size_t>(kLanes));
    ASSERT_EQ(full.settled_at, std::vector<std::size_t>(kLanes, full.steps));

    // Decay settles every lane well before the full duration, and lanes
    // with less initial charge must not settle later than hotter ones.
    for (int l = 0; l < kLanes; ++l) {
        EXPECT_LT(detected.settled_at[static_cast<std::size_t>(l)], detected.steps)
            << "lane " << l << " never settled";
    }
    EXPECT_LE(detected.settled_at.front(), detected.settled_at.back());

    // Early exit must not disturb results: samples match the full run
    // exactly while a lane is live, and hold within the steady band after.
    for (std::size_t o = 0; o < full.outputs.size(); ++o) {
        for (int l = 0; l < kLanes; ++l) {
            const std::size_t retired = detected.settled_at[static_cast<std::size_t>(l)];
            for (std::size_t k = 0; k < full.steps; ++k) {
                const double expected = full.outputs[o].value(static_cast<std::size_t>(l), k);
                const double actual =
                    detected.outputs[o].value(static_cast<std::size_t>(l), k);
                if (k < retired) {
                    ASSERT_EQ(actual, expected) << "lane " << l << " step " << k;
                } else {
                    // The held value sits inside the steady band of the
                    // still-decaying reference.
                    ASSERT_NEAR(actual, expected, 1e-3) << "lane " << l << " step " << k;
                }
            }
        }
    }
}

TEST(SweepSteadyState, DecayTowardZeroUsesTheAnchorMagnitudeBand) {
    // Geometric decay toward zero from a large anchor: v := 0.9 * v@1 from
    // 1e9. With a 20% tolerance and a 2-step window the drift over a window
    // (19% of the anchor) is inside the band — but only if the band scales
    // with max(|value|, |anchor|). Scaling by |value| alone (the old bug)
    // collapses the band as the lane decays, judging the tail of the decay
    // ever more strictly: the lane then never settles until the value
    // drops below the absolute 1.0 floor, ~200 steps in.
    abstraction::SignalFlowModel m;
    m.name = "decay";
    m.timestep = 1e-3;
    const expr::Symbol v = expr::variable_symbol("v");
    m.assignments.push_back(abstraction::Assignment{
        v, expr::Expr::mul(expr::Expr::constant(0.9), expr::Expr::delayed(v, 1))});
    m.outputs = {v};

    std::vector<SweepLane> lanes(1);
    lanes[0].overrides[v] = 1e9;
    SweepOptions options;
    options.steady_tolerance = 0.2;
    options.steady_window = 2;
    const SweepResult result = simulate_sweep(m, {}, lanes, 50 * m.timestep, options);
    ASSERT_EQ(result.steps, 50u);
    // In-band from the very first comparison: quiet at k=1 and k=2 against
    // the k=0 anchor, so the lane settles at step 3 — not at step 50.
    EXPECT_LT(result.settled_at[0], result.steps);
    EXPECT_EQ(result.settled_at[0], 3u);
    // Retired samples hold the settled value.
    for (std::size_t k = result.settled_at[0]; k < result.steps; ++k) {
        EXPECT_EQ(result.outputs[0].value(0, k), result.outputs[0].value(0, 2u));
    }
}

TEST(SweepSteadyState, PeriodicStimulusNeverRetiresLanes) {
    const auto model = ladder_model(1);
    std::vector<SweepLane> lanes(3);
    const std::map<std::string, numeric::SourceFunction> stimuli{
        {"u0", numeric::sine_wave(1000.0)}};
    SweepOptions options;
    options.steady_tolerance = 1e-9;
    const SweepResult result =
        simulate_sweep(model, stimuli, lanes, 2000 * model.timestep, options);
    for (const std::size_t settled : result.settled_at) {
        EXPECT_EQ(settled, result.steps);
    }
}

}  // namespace
}  // namespace amsvp::runtime
