// The one lane-addressing abstraction every batched layer shares.
//
// A batch of N model instances is stored AoSoA: each slot owns one padded
// row of lanes, rows are slot-major, lanes are row-minor —
//
//     index(slot, lane) = slot * padded_width(N) + lane
//
// where padded_width rounds the lane count up to the hardware vector row
// kVectorRow (4 doubles = one 256-bit row). Every row is therefore a whole
// number of vector rows; a non-row-multiple batch fills the last row with
// ghost lanes:
//
//     slot i:  [ l0 l1 l2 l3 | l4 l5 l6 l7 | l8 l9  g  g ]   (N = 10)
//               \-- vector --/ \-- vector --/ \live/ ghost
//
// Vector execution runs ALL padded rows with explicit width-kVectorRow
// operations — ghost lanes compute as throwaway extra instances, so no
// kernel ever peels a per-instruction scalar tail and an odd width costs
// exactly its row-multiple neighbour's step. Ghost lanes are initialized
// like a real lane (initial values, constants, time all broadcast across
// the padded row) but receive no stimulus, and their results are never
// observed: outputs, slot_value, lane-health scans and compaction read the
// live lanes only, so ghost-lane values (even a NaN from a pathological
// model) cannot leak.
//
// Consumers of this contract:
//   * FusedProgram::execute_batch / initialize_constants_batch
//     (interpreter row-block loops over the padded width),
//   * BatchCompiledModel's slot file (reset / set_input / slot_value /
//     compact_lanes / scan_lane_health; shard_lanes boundaries stay
//     row-aligned via kLaneChunk = 2 * kVectorRow),
//   * the ORC lowering (explicit <4 x double> rows over every padded row).
// All three address lanes through this header, so the layout can only
// change in one place.
#pragma once

#include <cstddef>

namespace amsvp::runtime {

struct LaneLayout {
    /// Hardware vector row width in doubles. 4 doubles = 256 bits — one
    /// AVX/AVX2 register, two SSE2/NEON registers; wider ISAs simply use
    /// two rows per operation. Every explicit-vector path (interpreter
    /// rows, ORC <4 x double> IR) is derived from this constant.
    static constexpr int kVectorRow = 4;

    /// Lane stride of one slot row: the lane count rounded up to a whole
    /// number of vector rows. Pinned sweep widths (4/8/16/32) are already
    /// row-multiples, so their stride equals the lane count and the layout
    /// is identical to the historical unpadded one.
    [[nodiscard]] static constexpr int padded_width(int lanes) {
        return (lanes + kVectorRow - 1) / kVectorRow * kVectorRow;
    }

    /// Lanes covered by all-live vector rows: the largest row-multiple
    /// <= lanes. (Layout arithmetic; the kernels themselves iterate whole
    /// padded rows, ghost lanes included.)
    [[nodiscard]] static constexpr int full_lanes(int lanes) {
        return lanes / kVectorRow * kVectorRow;
    }

    /// Live lanes sharing the last row with ghosts (0 for row-multiples).
    [[nodiscard]] static constexpr int tail(int lanes) {
        return lanes - full_lanes(lanes);
    }

    /// Flat slot-file index of (slot, lane) in a batch of `lanes`.
    [[nodiscard]] static constexpr std::size_t index(int slot, int lane, int lanes) {
        return static_cast<std::size_t>(slot) *
                   static_cast<std::size_t>(padded_width(lanes)) +
               static_cast<std::size_t>(lane);
    }

    /// Doubles a slot file of `slot_count` slots needs for `lanes` lanes.
    [[nodiscard]] static constexpr std::size_t slot_file_size(std::size_t slot_count,
                                                             int lanes) {
        return slot_count * static_cast<std::size_t>(padded_width(lanes));
    }
};

}  // namespace amsvp::runtime
