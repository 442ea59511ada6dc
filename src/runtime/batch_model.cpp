#include "runtime/batch_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/check.hpp"

namespace amsvp::runtime {

std::vector<BatchCompiledModel::LaneRange> BatchCompiledModel::shard_lanes(int lanes,
                                                                           int max_shards) {
    AMSVP_CHECK(lanes >= 1, "shard_lanes needs at least one lane");
    AMSVP_CHECK(max_shards >= 1, "shard_lanes needs at least one shard");
    // Distribute whole lane chunks as evenly as possible; the last shard
    // absorbs the sub-chunk tail.
    const int chunks = (lanes + kLaneChunk - 1) / kLaneChunk;
    const int shards = std::min(max_shards, chunks);
    std::vector<LaneRange> ranges;
    ranges.reserve(static_cast<std::size_t>(shards));
    int chunk_begin = 0;
    for (int s = 0; s < shards; ++s) {
        const int chunk_count = chunks / shards + (s < chunks % shards ? 1 : 0);
        const int begin = chunk_begin * kLaneChunk;
        const int end = std::min((chunk_begin + chunk_count) * kLaneChunk, lanes);
        // A shard boundary inside a vector row would force both neighbours
        // into misaligned tails; chunk arithmetic keeps every interior
        // boundary row-aligned (only the global tail may be sub-row).
        AMSVP_CHECK(begin % LaneLayout::kVectorRow == 0,
                    "shard boundary must be vector-row aligned");
        ranges.push_back(LaneRange{begin, end - begin});
        chunk_begin += chunk_count;
    }
    return ranges;
}

BatchCompiledModel::BatchCompiledModel(std::shared_ptr<const ModelLayout> layout, int batch)
    : layout_(std::move(layout)), batch_(batch), constructed_batch_(batch) {
    AMSVP_CHECK(layout_ != nullptr, "BatchCompiledModel needs a layout");
    AMSVP_CHECK(batch_ >= 1, "batch needs at least one lane");
    slots_.assign(LaneLayout::slot_file_size(layout_->slot_count(), batch_), 0.0);
    reset();
}

BatchCompiledModel::BatchCompiledModel(const abstraction::SignalFlowModel& model, int batch)
    : BatchCompiledModel(ModelLayout::compile(model), batch) {}

void BatchCompiledModel::reset() {
    // Undo any compact_lanes narrowing: a reused batch object must run the
    // width it was constructed with, not whatever the previous sweep
    // happened to retire down to.
    if (batch_ != constructed_batch_) {
        batch_ = constructed_batch_;
        slots_.resize(LaneLayout::slot_file_size(layout_->slot_count(), batch_));
    }
    // Zero-fill, then broadcast initial values and constants across the
    // whole padded rows: the padding columns are ghost lanes — the dynamic
    // batch kernels compute them alongside the live lanes (no scalar tail),
    // so they start from the same state a real lane would. Their results
    // are never observed: outputs, health scans and compaction read the
    // live lanes only.
    std::fill(slots_.begin(), slots_.end(), 0.0);
    const int padded = LaneLayout::padded_width(batch_);
    for (const auto& [slot, value] : layout_->initial_values()) {
        double* lane = slot_row(slot);
        for (int l = 0; l < padded; ++l) {
            lane[l] = value;
        }
    }
    layout_->fused_program().initialize_constants_batch(slots_.data(), batch_);
}

void BatchCompiledModel::set_input(int lane, std::size_t index, double value) {
    AMSVP_CHECK(lane >= 0 && lane < batch_, "lane out of range");
    AMSVP_CHECK(index < layout_->input_count(), "input index out of range");
    slots_[at(layout_->input_slots()[index], lane)] = value;
}

void BatchCompiledModel::set_value(int lane, const expr::Symbol& symbol, double value) {
    AMSVP_CHECK(lane >= 0 && lane < batch_, "lane out of range");
    const ModelLayout::SymbolSlots& s = layout_->slots_of(symbol);
    for (int k = 0; k <= s.depth; ++k) {
        slots_[at(s.base + k, lane)] = value;
    }
}

void BatchCompiledModel::step(double time_seconds) {
    double* slots = slots_.data();
    double* time_lane = slot_row(layout_->time_slot());
    // Time goes to the ghost lanes too, so their throwaway arithmetic
    // tracks a real lane's (zero-stimulus) trajectory.
    const int padded = LaneLayout::padded_width(batch_);
    for (int l = 0; l < padded; ++l) {
        time_lane[l] = time_seconds;
    }
    layout_->fused_program().execute_batch(slots, batch_);
    // Rotate history: each slot row is lane-contiguous, so one row copy
    // rotates the whole batch, ghost columns included.
    const std::size_t row =
        static_cast<std::size_t>(LaneLayout::padded_width(batch_)) * sizeof(double);
    for (const ModelLayout::SymbolSlots& r : layout_->rotations()) {
        for (int k = r.depth; k >= 1; --k) {
            std::memcpy(slots + at(r.base + k, 0), slots + at(r.base + k - 1, 0), row);
        }
    }
}

double BatchCompiledModel::output(int lane, std::size_t index) const {
    AMSVP_CHECK(lane >= 0 && lane < batch_, "lane out of range");
    AMSVP_CHECK(index < layout_->output_count(), "output index out of range");
    return slots_[at(layout_->output_slots()[index], lane)];
}

const double* BatchCompiledModel::output_lanes(std::size_t index) const {
    AMSVP_CHECK(index < layout_->output_count(), "output index out of range");
    return slots_.data() + at(layout_->output_slots()[index], 0);
}

void BatchCompiledModel::compact_lanes(const std::vector<int>& keep) {
    AMSVP_CHECK(!keep.empty(), "compact_lanes needs at least one surviving lane");
    for (std::size_t j = 0; j < keep.size(); ++j) {
        AMSVP_CHECK(keep[j] >= 0 && keep[j] < batch_, "kept lane out of range");
        AMSVP_CHECK(j == 0 || keep[j] > keep[j - 1], "kept lanes must be strictly ascending");
    }
    const int old_batch = batch_;
    const int new_batch = static_cast<int>(keep.size());
    if (new_batch == old_batch) {
        return;  // nothing retired
    }
    // Forward re-stride is safe in place: for the live lanes the write
    // index i*newP + j never exceeds the read index i*oldP + keep[j]
    // (newP <= oldP, j <= keep[j]); the pad columns written after a row's
    // live lanes end before (i+1)*newP <= (i+1)*oldP, the first index the
    // next row reads. Both cursors advance monotonically.
    const std::size_t old_padded = static_cast<std::size_t>(LaneLayout::padded_width(old_batch));
    const std::size_t new_padded = static_cast<std::size_t>(LaneLayout::padded_width(new_batch));
    const std::size_t slot_count = slots_.size() / old_padded;
    for (std::size_t i = 0; i < slot_count; ++i) {
        const double* src = slots_.data() + i * old_padded;
        double* dst = slots_.data() + i * new_padded;
        for (int j = 0; j < new_batch; ++j) {
            dst[j] = src[keep[static_cast<std::size_t>(j)]];
        }
        for (std::size_t j = static_cast<std::size_t>(new_batch); j < new_padded; ++j) {
            dst[j] = 0.0;  // fresh ghost columns start from clean state
        }
    }
    batch_ = new_batch;
    slots_.resize(slot_count * new_padded);
    // Re-broadcast the constant pool across the new padded rows: the ghost
    // columns just zeroed above are computed by the dynamic kernels, and
    // real constants keep that throwaway arithmetic bounded.
    layout_->fused_program().initialize_constants_batch(slots_.data(), batch_);
}

namespace {

/// Whole-file non-finite fold: returns 0.0 iff every element of
/// [data, data + n) is finite (v - v is 0 for finite v, NaN otherwise).
/// Four independent accumulators keep the reduction out of the loop-carried
/// dependency chain so it runs at load bandwidth.
double fold_nonfinite(const double* data, std::size_t n) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        a0 += data[i] - data[i];
        a1 += data[i + 1] - data[i + 1];
        a2 += data[i + 2] - data[i + 2];
        a3 += data[i + 3] - data[i + 3];
    }
    for (; i < n; ++i) {
        a0 += data[i] - data[i];
    }
    return (a0 + a1) + (a2 + a3);
}

/// Whole-file peak magnitude (NaNs may be dropped by the comparisons —
/// callers pair this with fold_nonfinite, which cannot miss them).
double fold_peak_magnitude(const double* data, std::size_t n) {
    double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const double a0 = std::fabs(data[i]);
        const double a1 = std::fabs(data[i + 1]);
        const double a2 = std::fabs(data[i + 2]);
        const double a3 = std::fabs(data[i + 3]);
        m0 = m0 > a0 ? m0 : a0;
        m1 = m1 > a1 ? m1 : a1;
        m2 = m2 > a2 ? m2 : a2;
        m3 = m3 > a3 ? m3 : a3;
    }
    for (; i < n; ++i) {
        const double a = std::fabs(data[i]);
        m0 = m0 > a ? m0 : a;
    }
    const double m01 = m0 > m1 ? m0 : m1;
    const double m23 = m2 > m3 ? m2 : m3;
    return m01 > m23 ? m01 : m23;
}

}  // namespace

void BatchCompiledModel::scan_lane_health(double divergence_limit,
                                          std::vector<LaneStatus>& status) const {
    status.assign(static_cast<std::size_t>(batch_), LaneStatus::kOk);
    const std::size_t slot_count = layout_->slot_count();
    const std::size_t lanes = static_cast<std::size_t>(batch_);
    const std::size_t padded = static_cast<std::size_t>(LaneLayout::padded_width(batch_));
    const double* slots = slots_.data();
    // Fast path for the overwhelmingly common all-healthy scan: fold the
    // whole padded file flat — no per-lane state, no allocations — and only
    // drop to the per-lane attribution passes below when something trips.
    // The flat fold also reads the ghost columns; a ghost lane going bad
    // merely forces the (correct, live-lanes-only) slow pass, so the fast
    // path is a conservative filter, never a different answer.
    const std::size_t file = slot_count * padded;
    const bool any_nonfinite = fold_nonfinite(slots, file) != 0.0;
    const bool any_diverged =
        divergence_limit > 0.0 && fold_peak_magnitude(slots, file) > divergence_limit;
    if (!any_nonfinite && !any_diverged) {
        return;
    }
    // Branch-free accumulation so the compiler vectorizes across lanes:
    // v - v is 0 for every finite value and NaN for NaN/±inf, so nan_acc
    // goes (and stays) NaN the moment any of the lane's slots is bad; mag
    // tracks the lane's peak magnitude for the divergence check. The two
    // small allocations happen once per scan (every lane_health_interval
    // steps), noise next to the pass itself.
    std::vector<double> nan_acc(lanes, 0.0);
    if (divergence_limit > 0.0) {
        std::vector<double> mag(lanes, 0.0);
        for (std::size_t i = 0; i < slot_count; ++i) {
            const double* row = slots + i * padded;
            for (std::size_t l = 0; l < lanes; ++l) {
                const double v = row[l];
                nan_acc[l] += v - v;
                const double a = std::fabs(v);
                mag[l] = mag[l] > a ? mag[l] : a;
            }
        }
        for (std::size_t l = 0; l < lanes; ++l) {
            if (nan_acc[l] != 0.0) {
                status[l] = LaneStatus::kNonFinite;
            } else if (mag[l] > divergence_limit) {
                status[l] = LaneStatus::kDiverged;
            }
        }
        return;
    }
    // Default path (non-finite only): one add and one subtract per slot.
    for (std::size_t i = 0; i < slot_count; ++i) {
        const double* row = slots + i * padded;
        for (std::size_t l = 0; l < lanes; ++l) {
            nan_acc[l] += row[l] - row[l];
        }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
        if (nan_acc[l] != 0.0) {
            status[l] = LaneStatus::kNonFinite;
        }
    }
}

std::unique_ptr<BatchExecutor> BatchCompiledModel::make_shard(int lane_count) const {
    return std::make_unique<BatchCompiledModel>(layout_, lane_count);
}

double BatchCompiledModel::value_of(int lane, const expr::Symbol& symbol) const {
    AMSVP_CHECK(lane >= 0 && lane < batch_, "lane out of range");
    return slots_[at(layout_->slot_for(symbol, 0), lane)];
}

}  // namespace amsvp::runtime
