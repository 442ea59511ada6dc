// The runtime::LaneLayout contract: one padded AoSoA slot file shared by
// the fused batch interpreter and the ORC JIT kernel. These tests pin the
// row arithmetic itself and then the part that actually matters — that
// both engines produce bit-identical lanes at widths below, at, and just
// above the vector-row boundary (where live lanes share their last padded
// row with computed ghost lanes), and that compact_lanes → reset
// round-trips preserve state exactly on non-row-multiple widths.
//
// Suite names all start with LaneLayout so the `simd` ctest label
// (`ctest -L simd`) selects exactly this file.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "codegen/orc_jit.hpp"
#include "netlist/builder.hpp"
#include "random_models.hpp"
#include "runtime/batch_model.hpp"
#include "runtime/lane_layout.hpp"
#include "runtime/simulate.hpp"
#include "runtime/sweep_service.hpp"

namespace amsvp::runtime {
namespace {

abstraction::SignalFlowModel ladder_model(int stages) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(stages);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return std::move(*model);
}

std::vector<SweepLane> varied_lanes(const abstraction::SignalFlowModel& model,
                                    int n_lanes) {
    std::vector<SweepLane> lanes(static_cast<std::size_t>(n_lanes));
    const expr::Symbol out_node = model.outputs.front();
    const std::string input = model.inputs.front().identifier();
    for (int l = 0; l < n_lanes; ++l) {
        lanes[static_cast<std::size_t>(l)].stimuli[input] =
            numeric::square_wave(1e-3, 0.0, 0.5 + 0.25 * static_cast<double>(l));
        lanes[static_cast<std::size_t>(l)].overrides[out_node] =
            0.01 * static_cast<double>(l);
    }
    return lanes;
}

void expect_identical(const SweepResult& a, const SweepResult& b) {
    ASSERT_EQ(a.steps, b.steps);
    ASSERT_EQ(a.settled_at, b.settled_at);
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (std::size_t o = 0; o < b.outputs.size(); ++o) {
        const numeric::WaveformBatch& wa = a.outputs[o];
        const numeric::WaveformBatch& wb = b.outputs[o];
        ASSERT_EQ(wa.lanes(), wb.lanes());
        ASSERT_EQ(wa.size(), wb.size());
        for (std::size_t l = 0; l < wb.lanes(); ++l) {
            for (std::size_t k = 0; k < wb.size(); ++k) {
                ASSERT_EQ(wa.value(l, k), wb.value(l, k))
                    << "output " << o << " lane " << l << " step " << k;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Row arithmetic.

TEST(LaneLayoutMath, RowArithmeticAndIndexing) {
    static_assert(LaneLayout::kVectorRow == 4, "tests below assume 4-lane rows");
    // Pinned sweep widths are row-multiples: padding-free, stride == width.
    for (const int w : {4, 8, 16, 32}) {
        EXPECT_EQ(LaneLayout::padded_width(w), w);
        EXPECT_EQ(LaneLayout::full_lanes(w), w);
        EXPECT_EQ(LaneLayout::tail(w), 0);
    }
    // Around the row boundary.
    EXPECT_EQ(LaneLayout::padded_width(1), 4);
    EXPECT_EQ(LaneLayout::padded_width(3), 4);
    EXPECT_EQ(LaneLayout::padded_width(5), 8);
    EXPECT_EQ(LaneLayout::padded_width(7), 8);
    EXPECT_EQ(LaneLayout::padded_width(9), 12);
    EXPECT_EQ(LaneLayout::padded_width(17), 20);
    EXPECT_EQ(LaneLayout::full_lanes(7), 4);
    EXPECT_EQ(LaneLayout::tail(7), 3);
    EXPECT_EQ(LaneLayout::full_lanes(9), 8);
    EXPECT_EQ(LaneLayout::tail(9), 1);
    // full + tail always covers exactly the live lanes; padding never
    // exceeds one row.
    for (int w = 1; w <= 64; ++w) {
        EXPECT_EQ(LaneLayout::full_lanes(w) + LaneLayout::tail(w), w);
        EXPECT_GE(LaneLayout::padded_width(w), w);
        EXPECT_LT(LaneLayout::padded_width(w) - w, LaneLayout::kVectorRow);
        EXPECT_EQ(LaneLayout::padded_width(w) % LaneLayout::kVectorRow, 0);
    }
    // Flat indexing: row stride is the padded width.
    EXPECT_EQ(LaneLayout::index(0, 0, 7), 0u);
    EXPECT_EQ(LaneLayout::index(1, 0, 7), 8u);
    EXPECT_EQ(LaneLayout::index(3, 6, 7), 3u * 8u + 6u);
    EXPECT_EQ(LaneLayout::slot_file_size(10, 7), 80u);
    EXPECT_EQ(LaneLayout::slot_file_size(10, 8), 80u);
    // Shard boundaries can never split a vector row.
    static_assert(BatchCompiledModel::kLaneChunk % LaneLayout::kVectorRow == 0);
    for (const auto& r : BatchCompiledModel::shard_lanes(37, 4)) {
        EXPECT_EQ(r.begin % LaneLayout::kVectorRow, 0);
    }
}

// ---------------------------------------------------------------------------
// Odd-width differentials between the interpreter and ORC, around the row
// boundary (below / at / one above) and at a larger sub-row-tail width.

TEST(LaneLayoutDifferential, OddWidthsBitIdenticalAcrossBackends) {
    const auto random = testing_support::make_random_rc(911u);
    std::string error;
    auto maybe_model = abstraction::abstract_circuit(random.circuit,
                                                     {{random.observed_node, "gnd"}},
                                                     {}, &error);
    ASSERT_TRUE(maybe_model.has_value()) << error;
    const auto model = std::move(*maybe_model);
    const double duration = 250 * model.timestep;
    if (codegen::orc_available()) {
        // Warm the global cache: every kNativeOrc sweep below runs the
        // kernel from the first step.
        ASSERT_NE(ModelCache::global().orc_program_for(model), nullptr);
    }

    for (const int width : {3, 4, 5, 17}) {
        const auto lanes = varied_lanes(model, width);
        for (const int threads : {1, 0}) {
            SweepOptions options;
            options.threads = threads;
            const auto reference = simulate_sweep(model, {}, lanes, duration, options);
            SCOPED_TRACE("width " + std::to_string(width) + " threads " +
                         std::to_string(threads));
            if (codegen::orc_available()) {
                SweepOptions orc = options;
                orc.backend = SweepBackend::kNativeOrc;
                const SweepResult swept = simulate_sweep(model, {}, lanes, duration, orc);
                EXPECT_EQ(swept.promoted_at, 0u);
                expect_identical(swept, reference);
            }
        }
    }
}

// A batch of W lanes must equal W width-1 sweeps lane for lane — width 1
// exercises the fully-padded single-lane row (stride kVectorRow), the
// batch a last row shared between live and ghost lanes.
TEST(LaneLayoutDifferential, OddWidthBatchMatchesPerLaneRuns) {
    const auto model = ladder_model(6);
    const double duration = 200 * model.timestep;
    for (const int width : {3, 5}) {
        const auto lanes = varied_lanes(model, width);
        const auto batched = simulate_sweep(model, {}, lanes, duration);
        for (int l = 0; l < width; ++l) {
            const auto solo = simulate_sweep(
                model, {}, {lanes[static_cast<std::size_t>(l)]}, duration);
            ASSERT_EQ(solo.outputs.size(), batched.outputs.size());
            for (std::size_t o = 0; o < batched.outputs.size(); ++o) {
                ASSERT_EQ(solo.outputs[o].size(), batched.outputs[o].size());
                for (std::size_t k = 0; k < batched.outputs[o].size(); ++k) {
                    ASSERT_EQ(solo.outputs[o].value(0, k),
                              batched.outputs[o].value(static_cast<std::size_t>(l), k))
                        << "width " << width << " lane " << l << " step " << k;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// compact_lanes / reset round-trips on non-row-multiple widths: retiring
// lanes re-strides the padded file in place (7 -> 3 crosses a row-count
// change), survivors must continue bit-for-bit, and reset() must re-grow
// to the constructed width with pristine initial state.

TEST(LaneLayoutCompaction, CompactThenResetRoundTripsOnNonRowMultipleWidths) {
    const auto model = ladder_model(4);
    const std::size_t input = 0;
    const double dt = model.timestep;
    auto drive = [&](int original_lane, int k) {
        return 0.5 + 0.1 * static_cast<double>(original_lane) +
               0.25 * std::sin(static_cast<double>(k) * dt * 700.0);
    };

    BatchCompiledModel compacted(model, 7);
    BatchCompiledModel reference(model, 7);
    for (int k = 1; k <= 50; ++k) {
        for (int l = 0; l < 7; ++l) {
            compacted.set_input(l, input, drive(l, k));
            reference.set_input(l, input, drive(l, k));
        }
        compacted.step(k * dt);
        reference.step(k * dt);
    }

    const std::vector<int> keep{0, 2, 5};
    compacted.compact_lanes(keep);
    ASSERT_EQ(compacted.batch(), 3);
    // Survivors carried their exact state across the re-stride…
    for (int slot = 0; slot < 4; ++slot) {
        for (std::size_t j = 0; j < keep.size(); ++j) {
            ASSERT_EQ(compacted.slot_value(static_cast<int>(j), slot),
                      reference.slot_value(keep[j], slot))
                << "slot " << slot << " survivor " << j;
        }
    }
    // …and keep stepping bit-for-bit against the uncompacted batch.
    for (int k = 51; k <= 100; ++k) {
        for (std::size_t j = 0; j < keep.size(); ++j) {
            compacted.set_input(static_cast<int>(j), input, drive(keep[j], k));
        }
        for (int l = 0; l < 7; ++l) {
            reference.set_input(l, input, drive(l, k));
        }
        compacted.step(k * dt);
        reference.step(k * dt);
        for (std::size_t o = 0; o < model.outputs.size(); ++o) {
            for (std::size_t j = 0; j < keep.size(); ++j) {
                ASSERT_EQ(compacted.output(static_cast<int>(j), o),
                          reference.output(keep[j], o))
                    << "step " << k << " survivor " << j;
            }
        }
    }

    // reset() re-grows to the constructed width with pristine state: every
    // lane (including the formerly retired ones) equals a fresh batch.
    compacted.reset();
    ASSERT_EQ(compacted.batch(), 7);
    BatchCompiledModel fresh(model, 7);
    for (int k = 1; k <= 30; ++k) {
        for (int l = 0; l < 7; ++l) {
            compacted.set_input(l, input, drive(l, k));
            fresh.set_input(l, input, drive(l, k));
        }
        compacted.step(k * dt);
        fresh.step(k * dt);
        for (std::size_t o = 0; o < model.outputs.size(); ++o) {
            for (int l = 0; l < 7; ++l) {
                ASSERT_EQ(compacted.output(l, o), fresh.output(l, o))
                    << "post-reset step " << k << " lane " << l;
            }
        }
    }
}

}  // namespace
}  // namespace amsvp::runtime
