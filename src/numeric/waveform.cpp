#include "numeric/waveform.hpp"

#include <algorithm>
#include <cstdio>

#include "support/check.hpp"

namespace amsvp::numeric {

double Waveform::min_value() const {
    AMSVP_CHECK(!samples_.empty(), "min_value of empty waveform");
    return *std::min_element(samples_.begin(), samples_.end());
}

double Waveform::max_value() const {
    AMSVP_CHECK(!samples_.empty(), "max_value of empty waveform");
    return *std::max_element(samples_.begin(), samples_.end());
}

Waveform WaveformBatch::waveform(std::size_t lane) const {
    AMSVP_CHECK(lane < lanes_, "lane out of range");
    Waveform w(step_, start_);
    const std::size_t frames = size();
    w.reserve(frames);
    for (std::size_t k = 0; k < frames; ++k) {
        w.append(value(lane, k));
    }
    return w;
}

std::string Waveform::to_table(std::size_t max_rows) const {
    std::string out;
    char buffer[96];
    const std::size_t rows = (max_rows == 0) ? samples_.size() : std::min(max_rows, samples_.size());
    for (std::size_t k = 0; k < rows; ++k) {
        std::snprintf(buffer, sizeof buffer, "%.9e %.9e\n", time(k), samples_[k]);
        out += buffer;
    }
    return out;
}

}  // namespace amsvp::numeric
