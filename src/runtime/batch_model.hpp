// Batched multi-instance execution: many instances of one model, one fused
// instruction stream, one vector-row slot file.
//
// Parameter sweeps, Monte-Carlo corners and per-user model instances run
// the *same* compiled program with different data. BatchCompiledModel
// stores all instances in the runtime::LaneLayout AoSoA layout — slot i of
// lane l lives at slots[i * LaneLayout::padded_width(batch) + l], rows
// slot-major, lanes row-minor, each row padded to whole
// LaneLayout::kVectorRow vector rows — so each fused instruction becomes
// explicit vector rows across instances (SIMD across lanes at *any* width,
// not just the pinned ones). Live lanes of one slot stay contiguous, so
// output rows are still zero-copy; the padding columns are ghost lanes —
// computed by the dynamic kernels as throwaway extra instances (no scalar
// tail to peel) but never observed by outputs, health scans or compaction.
// One ModelLayout is shared by the whole batch: N instances cost one
// compile and one cache-resident heap.
//
// Lane semantics are identical to a scalar CompiledModel stepped with the
// same inputs — the scalar path is literally the batch == 1 specialization
// of the same interpreter — so results agree bit-for-bit lane by lane.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "abstraction/signal_flow_model.hpp"
#include "runtime/batch_executor.hpp"
#include "runtime/lane_layout.hpp"
#include "runtime/model_layout.hpp"

namespace amsvp::runtime {

class BatchCompiledModel : public BatchExecutor {
public:
    /// One contiguous chunk of sweep lanes, [begin, begin + count). The
    /// worker-pool sweep builds one BatchCompiledModel per range — its own
    /// slot file over the shared layout — so shards never share mutable
    /// state and each keeps the lane-contiguous SIMD stride.
    struct LaneRange {
        int begin = 0;
        int count = 0;
    };

    /// Shard granularity, derived from the hardware vector row (single
    /// source of truth in runtime::LaneLayout): two vector rows, which is
    /// also the narrowest pinned batch width above one. Shard boundaries
    /// land on multiples of it, so a boundary can never split a vector row
    /// and every shard except possibly the last dispatches through a
    /// pinned-width kernel instead of the dynamic row loop.
    static constexpr int kLaneChunk = 2 * LaneLayout::kVectorRow;
    static_assert(kLaneChunk % LaneLayout::kVectorRow == 0,
                  "shard boundaries must be vector-row aligned");

    /// Partition `lanes` into at most `max_shards` contiguous LaneRanges
    /// split only at kLaneChunk boundaries, as evenly as the chunk
    /// granularity allows. Fewer ranges come back when the lane count
    /// cannot feed that many shards (never an empty range).
    [[nodiscard]] static std::vector<LaneRange> shard_lanes(int lanes, int max_shards);

    /// `batch` instances over a pre-compiled (kFused) layout.
    BatchCompiledModel(std::shared_ptr<const ModelLayout> layout, int batch);

    /// Convenience: compile the model (fused) and batch it.
    BatchCompiledModel(const abstraction::SignalFlowModel& model, int batch);

    [[nodiscard]] int batch() const override { return batch_; }
    [[nodiscard]] std::size_t input_count() const override { return layout_->input_count(); }
    [[nodiscard]] std::size_t output_count() const override {
        return layout_->output_count();
    }
    [[nodiscard]] double timestep() const override { return layout_->timestep(); }
    [[nodiscard]] std::size_t input_index(const std::string& name) const {
        return layout_->input_index(name);
    }

    /// Reset every lane to the model's initial values. A batch narrowed by
    /// compact_lanes() is re-grown to its constructed width first, so a
    /// reused object always starts the next run with every lane it was
    /// built with.
    void reset() override;

    void set_input(int lane, std::size_t index, double value) override;

    /// Override a symbol's value — current slot and all history slots — on
    /// one lane. This is how sweeps apply per-lane parameter overrides and
    /// initial conditions after reset().
    void set_value(int lane, const expr::Symbol& symbol, double value) override;

    /// Evaluate one step at absolute time `time_seconds` on every lane,
    /// then rotate each lane's history.
    void step(double time_seconds) override;

    [[nodiscard]] double output(int lane, std::size_t index) const;
    /// Lane-contiguous values of output `index` (batch() doubles) — the
    /// zero-copy row batched waveform capture appends per step.
    [[nodiscard]] const double* output_lanes(std::size_t index) const override;

    /// Value of an arbitrary model symbol on one lane (testing).
    [[nodiscard]] double value_of(int lane, const expr::Symbol& symbol) const;

    /// Raw slot value of one lane (testing: slot-for-slot differentials
    /// between the interpreter and the ORC batch kernel, which share the
    /// padded layout).
    [[nodiscard]] double slot_value(int lane, int slot) const {
        return slots_.at(at(slot, lane));
    }

    /// Shrink the batch in place to the lanes in `keep` (strictly
    /// ascending current lane indices). Every kept lane's state is
    /// preserved exactly — the slot file is re-strided with one forward
    /// pass, no reallocation — so stepping continues bit-for-bit for the
    /// survivors. This is how sweeps retire lanes that reached steady
    /// state without paying for them on every subsequent step.
    void compact_lanes(const std::vector<int>& keep) override;

    /// One slot-major pass over the slot file classifying every lane (see
    /// BatchExecutor::scan_lane_health). Shared by both backends — the
    /// ORC-stepped codegen::OrcBatchModel inherits it, since the kernels
    /// share this slot file — so quarantine decisions are identical
    /// everywhere.
    void scan_lane_health(double divergence_limit,
                          std::vector<LaneStatus>& status) const override;

    /// A fresh interpreter batch over the same shared layout.
    [[nodiscard]] std::unique_ptr<BatchExecutor> make_shard(int lane_count) const override;

    [[nodiscard]] const std::shared_ptr<const ModelLayout>& layout() const { return layout_; }

protected:
    /// The padded slot file (derived backends step it with their own
    /// kernel; layout()->slot_count() rows of padded_width(batch()) lanes,
    /// batch() of them live per row).
    [[nodiscard]] double* slot_data() { return slots_.data(); }

    /// Start of one slot's lane row — the addressing helper derived
    /// backends must use instead of re-deriving the stride (their kernels
    /// recompute LaneLayout::padded_width(batch) internally from the lane
    /// count, so both sides agree by construction).
    [[nodiscard]] double* slot_row(int slot) { return slots_.data() + at(slot, 0); }

private:
    [[nodiscard]] std::size_t at(int slot, int lane) const {
        return LaneLayout::index(slot, lane, batch_);
    }

    std::shared_ptr<const ModelLayout> layout_;
    int batch_ = 1;              ///< current width (<= constructed_batch_ after compaction)
    int constructed_batch_ = 1;  ///< width at construction; reset() restores it
    std::vector<double> slots_;  ///< LaneLayout AoSoA: slot-major padded rows
};

}  // namespace amsvp::runtime
