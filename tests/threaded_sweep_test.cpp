// Worker-pool sharded sweeps: simulate_sweep with SweepOptions::threads > 1
// must produce bit-identical outputs and settled_at to the single-threaded
// path — on random models, across thread/batch combinations, with and
// without steady-state retirement. Also covers the lane-chunk partition
// itself. (Suite names ThreadPool* / ThreadedSweep* feed the `threads`
// ctest label, the suite to run under -DAMSVP_TSAN=ON.)
#include <gtest/gtest.h>

#include <cmath>

#include "abstraction/abstraction.hpp"
#include "netlist/builder.hpp"
#include "random_models.hpp"
#include "runtime/simulate.hpp"

namespace amsvp::runtime {
namespace {

void expect_identical(const SweepResult& threaded, const SweepResult& reference) {
    ASSERT_EQ(threaded.steps, reference.steps);
    ASSERT_EQ(threaded.settled_at, reference.settled_at);
    ASSERT_EQ(threaded.outputs.size(), reference.outputs.size());
    for (std::size_t o = 0; o < reference.outputs.size(); ++o) {
        const numeric::WaveformBatch& a = threaded.outputs[o];
        const numeric::WaveformBatch& b = reference.outputs[o];
        ASSERT_EQ(a.lanes(), b.lanes());
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t l = 0; l < b.lanes(); ++l) {
            for (std::size_t k = 0; k < b.size(); ++k) {
                ASSERT_EQ(a.value(l, k), b.value(l, k))
                    << "output " << o << " lane " << l << " step " << k;
            }
        }
    }
}

struct ThreadCase {
    unsigned seed;
    int lanes;
    int threads;
};

class ThreadedSweepRandomModel : public ::testing::TestWithParam<ThreadCase> {};

TEST_P(ThreadedSweepRandomModel, BitIdenticalToSingleThread) {
    const auto& [seed, n_lanes, threads] = GetParam();
    const auto random = testing_support::make_random_rc(seed);
    std::string error;
    auto model = abstraction::abstract_circuit(random.circuit,
                                               {{random.observed_node, "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    // Per-lane stimulus amplitudes and a per-lane initial condition on the
    // observed node, so every lane computes something different.
    std::vector<SweepLane> lanes(static_cast<std::size_t>(n_lanes));
    const expr::Symbol out_node = model->outputs.front();
    for (int l = 0; l < n_lanes; ++l) {
        const double amplitude = 0.5 + 0.25 * static_cast<double>(l);
        lanes[static_cast<std::size_t>(l)].stimuli["u0"] =
            numeric::square_wave(1e-3, 0.0, amplitude);
        lanes[static_cast<std::size_t>(l)].overrides[out_node] =
            0.01 * static_cast<double>(l);
    }
    const double duration = 300 * model->timestep;

    const SweepResult reference = simulate_sweep(*model, {}, lanes, duration);
    SweepOptions threaded_options;
    threaded_options.threads = threads;
    const SweepResult threaded =
        simulate_sweep(*model, {}, lanes, duration, threaded_options);
    expect_identical(threaded, reference);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ThreadedSweepRandomModel,
    ::testing::Values(ThreadCase{101u, 5, 2}, ThreadCase{101u, 16, 2},
                      ThreadCase{102u, 16, 3}, ThreadCase{102u, 33, 4},
                      ThreadCase{103u, 32, 4}, ThreadCase{103u, 64, 8},
                      ThreadCase{104u, 7, 16}));  // more threads than chunks

TEST(ThreadedSweepSteadyState, RetirementMatchesSingleThreadBitForBit) {
    // Pure decay with per-lane initial charge (the sweep_steady_test
    // scenario): lanes settle at different steps, each shard retires and
    // compacts independently, and the whole result must still match the
    // single-threaded run exactly — samples and settled_at.
    const netlist::Circuit circuit = netlist::make_rc_ladder(20);
    abstraction::AbstractionOptions abs_options;
    abs_options.timestep = 1e-3;
    std::string error;
    auto model =
        abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, abs_options, &error);
    ASSERT_TRUE(model.has_value()) << error;
    const auto states = model->state_symbols();
    ASSERT_FALSE(states.empty());

    constexpr int kLanes = 24;
    std::vector<SweepLane> lanes(kLanes);
    for (int l = 0; l < kLanes; ++l) {
        const double amplitude = 1e-3 * std::pow(2.0, l % 12);
        for (const expr::Symbol& s : states) {
            lanes[static_cast<std::size_t>(l)].overrides[s] = amplitude;
        }
    }
    const std::map<std::string, numeric::SourceFunction> stimuli{
        {"u0", [](double) { return 0.0; }}};
    const double duration = 1500 * model->timestep;

    SweepOptions options;
    options.steady_tolerance = 1e-6;
    options.steady_window = 16;
    const SweepResult reference = simulate_sweep(*model, stimuli, lanes, duration, options);

    // At least one lane must actually retire early or the test is vacuous.
    bool any_retired = false;
    for (const std::size_t settled : reference.settled_at) {
        any_retired = any_retired || settled < reference.steps;
    }
    ASSERT_TRUE(any_retired);

    for (const int threads : {2, 3, 4}) {
        SweepOptions threaded_options = options;
        threaded_options.threads = threads;
        const SweepResult threaded =
            simulate_sweep(*model, stimuli, lanes, duration, threaded_options);
        expect_identical(threaded, reference);
    }
}

TEST(ThreadedSweepSteadyState, ThreadsZeroMeansHardwareConcurrency) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(2);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    std::vector<SweepLane> lanes(9);
    for (int l = 0; l < 9; ++l) {
        lanes[static_cast<std::size_t>(l)].stimuli["u0"] =
            numeric::square_wave(1e-3, 0.0, 0.5 + 0.1 * l);
    }
    const double duration = 100 * model->timestep;
    const SweepResult reference = simulate_sweep(*model, {}, lanes, duration);
    SweepOptions options;
    options.threads = 0;  // auto
    const SweepResult threaded = simulate_sweep(*model, {}, lanes, duration, options);
    expect_identical(threaded, reference);
}

TEST(ThreadedSweepSharding, PartitionCoversAllLanesAtChunkBoundaries) {
    for (const int lanes : {1, 7, 8, 9, 16, 33, 64, 100}) {
        for (const int max_shards : {1, 2, 3, 4, 7, 16}) {
            const auto ranges = BatchCompiledModel::shard_lanes(lanes, max_shards);
            ASSERT_FALSE(ranges.empty());
            ASSERT_LE(static_cast<int>(ranges.size()), max_shards);
            int next = 0;
            for (const auto& r : ranges) {
                EXPECT_EQ(r.begin, next) << lanes << "/" << max_shards;
                EXPECT_GE(r.count, 1) << lanes << "/" << max_shards;
                // Interior boundaries land on lane-chunk multiples.
                EXPECT_EQ(r.begin % BatchCompiledModel::kLaneChunk, 0);
                next = r.begin + r.count;
            }
            EXPECT_EQ(next, lanes) << lanes << "/" << max_shards;
        }
    }
}

TEST(ThreadedSweepSharding, NeverMoreShardsThanChunks) {
    const auto ranges = BatchCompiledModel::shard_lanes(9, 16);
    // 9 lanes = two 8-lane chunks worth of span -> at most 2 shards.
    EXPECT_EQ(ranges.size(), 2u);
    EXPECT_EQ(ranges[0].begin, 0);
    EXPECT_EQ(ranges[0].count, 8);
    EXPECT_EQ(ranges[1].begin, 8);
    EXPECT_EQ(ranges[1].count, 1);
}

}  // namespace
}  // namespace amsvp::runtime
