// Uniformly sampled waveforms. All engines in this library trace their
// observed outputs into Waveform objects, so accuracy comparisons (NRMSE,
// Table I) work uniformly across back-ends.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace amsvp::numeric {

/// A uniformly sampled scalar signal: sample k is the value at time
/// `start_time + k * step`.
class Waveform {
public:
    Waveform() = default;
    Waveform(double step_seconds, double start_time_seconds = 0.0)
        : step_(step_seconds), start_(start_time_seconds) {}

    void append(double value) { samples_.push_back(value); }
    void reserve(std::size_t n) { samples_.reserve(n); }

    [[nodiscard]] std::size_t size() const { return samples_.size(); }
    [[nodiscard]] bool empty() const { return samples_.empty(); }
    [[nodiscard]] double step() const { return step_; }
    [[nodiscard]] double start_time() const { return start_; }

    [[nodiscard]] double value(std::size_t k) const { return samples_[k]; }
    [[nodiscard]] double time(std::size_t k) const {
        return start_ + static_cast<double>(k) * step_;
    }

    [[nodiscard]] const std::vector<double>& samples() const { return samples_; }
    [[nodiscard]] std::vector<double>& samples() { return samples_; }

    [[nodiscard]] double min_value() const;
    [[nodiscard]] double max_value() const;

    /// Render as two-column "time value" text (gnuplot-friendly).
    [[nodiscard]] std::string to_table(std::size_t max_rows = 0) const;

private:
    double step_ = 0.0;
    double start_ = 0.0;
    std::vector<double> samples_;
};

/// Lane-parallel waveform capture for batched execution: one frame of
/// `lanes` samples per step, stored frame-contiguously so a
/// BatchCompiledModel's lane-contiguous output row lands in a frame with a
/// single copy (no per-lane scatter in the sweep hot loop).
class WaveformBatch {
public:
    WaveformBatch() = default;
    WaveformBatch(std::size_t lanes, double step_seconds, double start_time_seconds = 0.0)
        : lanes_(lanes), step_(step_seconds), start_(start_time_seconds) {}

    /// Size the capture to `frames` frames (new samples are zero). A sweep
    /// sizes its result once and writers fill frames in place.
    void resize(std::size_t frames) { data_.resize(frames * lanes_); }

    [[nodiscard]] std::size_t lanes() const { return lanes_; }
    /// Number of frames (samples per lane) captured.
    [[nodiscard]] std::size_t size() const { return lanes_ == 0 ? 0 : data_.size() / lanes_; }
    [[nodiscard]] bool empty() const { return data_.empty(); }
    [[nodiscard]] double step() const { return step_; }
    [[nodiscard]] double start_time() const { return start_; }

    [[nodiscard]] double value(std::size_t lane, std::size_t frame) const {
        return data_[frame * lanes_ + lane];
    }
    [[nodiscard]] double time(std::size_t frame) const {
        return start_ + static_cast<double>(frame) * step_;
    }

    /// Extract one lane as a standalone Waveform (copies).
    [[nodiscard]] Waveform waveform(std::size_t lane) const;

    /// One frame's `lanes()` samples, lane-contiguous: sharded sweeps write
    /// their own column range of each frame in place.
    [[nodiscard]] double* frame(std::size_t k) { return data_.data() + k * lanes_; }
    [[nodiscard]] const double* frame_data(std::size_t k) const {
        return data_.data() + k * lanes_;
    }

private:
    std::size_t lanes_ = 0;
    double step_ = 0.0;
    double start_ = 0.0;
    std::vector<double> data_;  ///< frame-major: frame k at [k * lanes, (k+1) * lanes)
};

}  // namespace amsvp::numeric
