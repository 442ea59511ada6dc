// Lane quarantine equivalence: a sweep containing one poisoned (NaN-seeded)
// lane must quarantine it and leave every healthy lane *bit-identical* —
// outputs and settled_at — to a sweep that never contained the poisoned
// lane at all. Lanes never interact arithmetically and quarantine removes
// the bad lane through the same compact_lanes machinery as steady-state
// retirement, so this holds by construction; this differential pins it
// across backends (interpreter and ORC kernel), batch widths and thread
// counts. (Suite names Quarantine* feed the `robustness` ctest label.)
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "codegen/orc_jit.hpp"
#include "netlist/builder.hpp"
#include "runtime/simulate.hpp"

namespace amsvp::runtime {
namespace {

/// Decaying RC ladder with per-lane initial charge: lanes settle at
/// different steps, so the differential covers retirement and quarantine
/// running through the same compaction path in one sweep.
abstraction::SignalFlowModel decay_model() {
    const netlist::Circuit circuit = netlist::make_rc_ladder(8);
    abstraction::AbstractionOptions options;
    options.timestep = 1e-3;
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, options, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return *model;
}

/// `count` decay lanes with distinct initial conditions; lane `poisoned`
/// (when >= 0) gets a NaN initial state — the seeded fault the quarantine
/// must contain.
std::vector<SweepLane> decay_lanes(const abstraction::SignalFlowModel& model, int count,
                                   int poisoned) {
    const auto states = model.state_symbols();
    EXPECT_FALSE(states.empty());
    std::vector<SweepLane> lanes(static_cast<std::size_t>(count));
    for (int l = 0; l < count; ++l) {
        const double amplitude =
            l == poisoned ? std::numeric_limits<double>::quiet_NaN()
                          : 1e-3 * std::pow(2.0, l % 10);
        for (const expr::Symbol& s : states) {
            lanes[static_cast<std::size_t>(l)].overrides[s] = amplitude;
        }
    }
    return lanes;
}

struct QuarantineCase {
    int lanes;
    int poisoned;
    int threads;
    bool native;  ///< the machine-code backend (kNativeOrc), else the interpreter
};

std::string describe(const QuarantineCase& c) {
    return std::string(c.native ? "native" : "interp") + "_w" + std::to_string(c.lanes) +
           "_p" + std::to_string(c.poisoned) + "_t" + std::to_string(c.threads);
}

// Prints the parameter as its case name. Without this gtest prints the
// struct's raw bytes (padding included) into the ctest name, so the name
// could change from build to build.
void PrintTo(const QuarantineCase& c, std::ostream* os) { *os << describe(c); }

std::string case_name(const ::testing::TestParamInfo<QuarantineCase>& info) {
    return describe(info.param);
}

class QuarantineEquivalence : public ::testing::TestWithParam<QuarantineCase> {};

TEST_P(QuarantineEquivalence, HealthyLanesBitIdenticalToSweepWithoutPoisonedLane) {
    const auto& [n_lanes, poisoned, threads, native] = GetParam();
    if (native && !codegen::orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    const auto model = decay_model();
    const auto lanes = decay_lanes(model, n_lanes, poisoned);
    // The reference sweep simply never contains the poisoned lane.
    auto reference_lanes = lanes;
    reference_lanes.erase(reference_lanes.begin() + poisoned);
    const std::map<std::string, numeric::SourceFunction> stimuli{
        {"u0", [](double) { return 0.0; }}};
    const double duration = 800 * model.timestep;

    SweepOptions options;
    options.threads = threads;
    options.lane_health_interval = 16;
    options.steady_tolerance = 1e-6;
    options.steady_window = 16;
    options.backend = native ? SweepBackend::kNativeOrc : SweepBackend::kInterpreter;

    const SweepResult faulted = simulate_sweep(model, stimuli, lanes, duration, options);
    const SweepResult reference =
        simulate_sweep(model, stimuli, reference_lanes, duration, options);

    // The poisoned lane was caught at the very first scan (its state is NaN
    // from step one) and only it was flagged.
    ASSERT_EQ(faulted.lane_health.size(), static_cast<std::size_t>(n_lanes));
    EXPECT_EQ(faulted.lane_health[poisoned].status, LaneStatus::kNonFinite);
    EXPECT_EQ(faulted.lane_health[poisoned].failed_at, options.lane_health_interval);
    for (int l = 0; l < n_lanes; ++l) {
        if (l != poisoned) {
            EXPECT_EQ(faulted.lane_health[l].status, LaneStatus::kOk) << "lane " << l;
        }
    }
    for (const auto& s : reference.lane_health) {
        EXPECT_EQ(s.status, LaneStatus::kOk);
    }

    // Healthy lane l of the faulted sweep corresponds to reference lane
    // l (before the poisoned index) or l - 1 (after it).
    ASSERT_EQ(faulted.steps, reference.steps);
    ASSERT_EQ(faulted.outputs.size(), reference.outputs.size());
    for (int l = 0; l < n_lanes; ++l) {
        if (l == poisoned) {
            continue;
        }
        const auto ref_lane = static_cast<std::size_t>(l < poisoned ? l : l - 1);
        ASSERT_EQ(faulted.settled_at[static_cast<std::size_t>(l)],
                  reference.settled_at[ref_lane])
            << "lane " << l;
        for (std::size_t o = 0; o < reference.outputs.size(); ++o) {
            const numeric::WaveformBatch& a = faulted.outputs[o];
            const numeric::WaveformBatch& b = reference.outputs[o];
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t k = 0; k < b.size(); ++k) {
                ASSERT_EQ(a.value(static_cast<std::size_t>(l), k), b.value(ref_lane, k))
                    << "output " << o << " lane " << l << " step " << k;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, QuarantineEquivalence,
    ::testing::Values(
        // Interpreter backend: widths straddling the lane-chunk size, first
        // and last lane poisoned, single- and all-threads.
        QuarantineCase{7, 2, 1, false}, QuarantineCase{7, 0, 0, false},
        QuarantineCase{8, 7, 1, false}, QuarantineCase{8, 3, 0, false},
        QuarantineCase{33, 16, 1, false}, QuarantineCase{33, 32, 0, false},
        // ORC kernel: same quarantine machinery over the JITed step.
        QuarantineCase{8, 3, 1, true}, QuarantineCase{33, 16, 0, true}),
    case_name);

TEST(QuarantineAllLanesFailing, SweepCompletesAndReportsEveryLane) {
    // Width 1 with its only lane poisoned (and wider all-poisoned batches,
    // the last split over two shards): nothing survives to compact *to*,
    // so the sweep must stop stepping, hold every lane's last sample to
    // full length, and report every lane — not crash in compact_lanes or
    // spin on an empty batch.
    const auto model = decay_model();
    const std::map<std::string, numeric::SourceFunction> stimuli{
        {"u0", [](double) { return 0.0; }}};
    for (const auto& [width, threads] : {std::pair{1, 1}, std::pair{5, 1}, std::pair{16, 2}}) {
        std::vector<SweepLane> lanes(static_cast<std::size_t>(width));
        for (auto& lane : lanes) {
            for (const expr::Symbol& s : model.state_symbols()) {
                lane.overrides[s] = std::numeric_limits<double>::quiet_NaN();
            }
        }
        SweepOptions options;
        options.lane_health_interval = 8;
        options.threads = threads;
        const SweepResult result =
            simulate_sweep(model, stimuli, lanes, 100 * model.timestep, options);
        ASSERT_EQ(result.lane_health.size(), static_cast<std::size_t>(width));
        for (const auto& health : result.lane_health) {
            EXPECT_EQ(health.status, LaneStatus::kNonFinite);
            EXPECT_EQ(health.failed_at, 8u);
        }
        for (const auto& w : result.outputs) {
            EXPECT_EQ(w.size(), result.steps);  // padded to full length
            // From its failure step on, every sample of a lane repeats the
            // one before, bit for bit (the held samples are NaN, so `==`
            // would not do).
            for (std::size_t l = 0; l < w.lanes(); ++l) {
                for (std::size_t k = result.lane_health[l].failed_at; k < w.size(); ++k) {
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(w.value(l, k)),
                              std::bit_cast<std::uint64_t>(w.value(l, k - 1)))
                        << "width " << width << " lane " << l << " step " << k;
                }
            }
        }
    }
}

TEST(QuarantineDivergenceLimit, FiniteBlowUpQuarantinedAsDiverged) {
    // divergence_limit catches a lane racing to infinity while still
    // finite: seed one lane with an absurd initial charge and cap the
    // allowed magnitude. (The ladder decays, so the huge lane stays huge
    // relative to the limit long enough for the first scan.)
    const auto model = decay_model();
    auto lanes = decay_lanes(model, 6, /*poisoned=*/-1);
    for (const expr::Symbol& s : model.state_symbols()) {
        lanes[4].overrides[s] = 1e12;
    }
    const std::map<std::string, numeric::SourceFunction> stimuli{
        {"u0", [](double) { return 0.0; }}};
    SweepOptions options;
    options.lane_health_interval = 4;
    options.divergence_limit = 1e6;
    const SweepResult result =
        simulate_sweep(model, stimuli, lanes, 100 * model.timestep, options);
    EXPECT_EQ(result.lane_health[4].status, LaneStatus::kDiverged);
    EXPECT_EQ(result.lane_health[4].failed_at, 4u);
    for (int l = 0; l < 6; ++l) {
        if (l != 4) {
            EXPECT_EQ(result.lane_health[l].status, LaneStatus::kOk) << "lane " << l;
        }
    }
}

}  // namespace
}  // namespace amsvp::runtime
