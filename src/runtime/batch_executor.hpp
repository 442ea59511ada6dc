// The abstract surface a batched sweep needs from its execution engine.
//
// simulate_sweep's shard loop — per-lane stimuli, stepping, waveform
// capture, steady-state retirement with in-place lane compaction — is
// backend-agnostic: it drives this interface, and the backend decides what
// a step costs. Two implementations exist: BatchCompiledModel (the fused
// batch interpreter) and codegen::OrcBatchModel (the same padded slot file
// stepped by an in-process ORC-JITed kernel). Both are bit-identical lane
// for lane, so SweepOptions::backend is a pure performance choice.
//
// make_shard() is the dependency inversion that keeps the worker-pool path
// backend-agnostic too: a shard is "a narrower sibling of this executor"
// (same compile artifact, its own slot file), and only the backend knows
// how to build one.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "expr/symbol.hpp"

namespace amsvp::runtime {

/// Health of one sweep lane, as judged by the periodic slot-file scan
/// (BatchExecutor::scan_lane_health / SweepOptions::lane_health_interval).
enum class LaneStatus {
    kOk,         ///< every slot finite (and under the divergence limit)
    kNonFinite,  ///< a NaN or infinity reached the lane's slot file
    kDiverged,   ///< a finite slot magnitude exceeded the divergence limit
};

/// Per-lane health record reported in SweepResult.
struct LaneHealth {
    LaneStatus status = LaneStatus::kOk;
    /// Step at which the failure was detected (a multiple of the scan
    /// interval; the corruption happened within the preceding interval).
    /// Equal to SweepResult::steps while the lane is healthy.
    std::size_t failed_at = 0;
};

class BatchExecutor {
public:
    virtual ~BatchExecutor() = default;

    /// Current lane count (shrinks under compact_lanes, reset restores it).
    [[nodiscard]] virtual int batch() const = 0;
    [[nodiscard]] virtual std::size_t input_count() const = 0;
    [[nodiscard]] virtual std::size_t output_count() const = 0;
    [[nodiscard]] virtual double timestep() const = 0;

    /// Reset every lane to the model's initial values (and restore the
    /// constructed width after a previous compact_lanes).
    virtual void reset() = 0;

    virtual void set_input(int lane, std::size_t index, double value) = 0;

    /// Override a symbol's value — current slot and all history slots — on
    /// one lane (per-lane parameters / initial conditions after reset).
    virtual void set_value(int lane, const expr::Symbol& symbol, double value) = 0;

    /// Evaluate one step at absolute time `time_seconds` on every lane,
    /// then rotate each lane's history.
    virtual void step(double time_seconds) = 0;

    /// Lane-contiguous values of output `index` (batch() doubles).
    [[nodiscard]] virtual const double* output_lanes(std::size_t index) const = 0;

    /// Shrink the batch in place to the lanes in `keep` (strictly
    /// ascending), preserving every kept lane's state exactly.
    virtual void compact_lanes(const std::vector<int>& keep) = 0;

    /// Scan the whole slot file for unhealthy lanes: `status` is resized to
    /// batch() and set per lane — kNonFinite when any slot holds a NaN or
    /// infinity, kDiverged when (with `divergence_limit > 0`) a finite slot
    /// magnitude exceeds the limit, kOk otherwise. One pass, slot-major, so
    /// the cost is a cache-friendly read of the slot file; the sweep driver
    /// calls it every SweepOptions::lane_health_interval steps on every
    /// backend (the scan inspects memory, not the stepping engine).
    virtual void scan_lane_health(double divergence_limit,
                                  std::vector<LaneStatus>& status) const = 0;

    /// A fresh, already reset `lane_count`-wide executor of the same
    /// backend over the same compile artifact — the worker-pool sweep
    /// builds one per shard so shards never share mutable state.
    [[nodiscard]] virtual std::unique_ptr<BatchExecutor> make_shard(int lane_count) const = 0;

    /// A shard for degraded operation when make_shard() fails mid-sweep:
    /// same lane semantics, but allowed to trade speed for independence
    /// from the failing resource (the ORC backend hands back a fused
    /// *interpreter* shard over the same layout — no JIT artifact needed —
    /// which is bit-identical by construction). Defaults to make_shard().
    [[nodiscard]] virtual std::unique_ptr<BatchExecutor> make_fallback_shard(
        int lane_count) const {
        return make_shard(lane_count);
    }
};

}  // namespace amsvp::runtime
