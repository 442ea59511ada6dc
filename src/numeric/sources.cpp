#include "numeric/sources.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "support/strings.hpp"

namespace amsvp::numeric {

SourceFunction square_wave(double period_seconds, double low, double high) {
    if (!(std::isfinite(period_seconds) && period_seconds > 0.0)) {
        throw std::invalid_argument(
            "numeric::square_wave: period must be positive and finite, got " +
            support::format_double(period_seconds));
    }
    return [=](double t) {
        double phase = std::fmod(t, period_seconds);
        // Different backends compute the same nominal sample time through
        // different floating-point paths (k*dt vs femtosecond counters), so
        // a sample that lands exactly on a switching edge may arrive one ulp
        // early or late. Snap to the edges within a relative epsilon so the
        // edge decision is identical everywhere.
        const double eps = period_seconds * 1e-9;
        const double half = 0.5 * period_seconds;
        if (phase >= period_seconds - eps) {
            phase = 0.0;  // wrapped: start of the next period
        } else if (std::fabs(phase - half) < eps) {
            phase = half;  // exactly the falling edge
        }
        // fmod of a non-negative t is non-negative; first half period is high.
        return (phase < half) ? high : low;
    };
}

SourceFunction sine_wave(double frequency_hz, double amplitude, double offset,
                         double phase_radians) {
    const double omega = 2.0 * M_PI * frequency_hz;
    return [=](double t) { return offset + amplitude * std::sin(omega * t + phase_radians); };
}

SourceFunction step(double at_seconds, double amplitude) {
    return [=](double t) { return t >= at_seconds ? amplitude : 0.0; };
}

SourceFunction piecewise_linear(std::vector<PwlPoint> points) {
    if (points.empty()) {
        throw std::invalid_argument("numeric::piecewise_linear: needs at least one point");
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double time = points[i].time;
        if (!std::isfinite(time) || (i > 0 && !(time > points[i - 1].time))) {
            throw std::invalid_argument(
                "numeric::piecewise_linear: point times must be finite and strictly increasing, "
                "got " + support::format_double(time) + " at point " + std::to_string(i));
        }
    }
    return [pts = std::move(points)](double t) {
        if (t <= pts.front().time) {
            return pts.front().value;
        }
        if (t >= pts.back().time) {
            return pts.back().value;
        }
        // Linear scan: stimulus tables are short and evaluation order is
        // monotone in practice.
        for (std::size_t i = 1; i < pts.size(); ++i) {
            if (t <= pts[i].time) {
                const double w = (t - pts[i - 1].time) / (pts[i].time - pts[i - 1].time);
                return pts[i - 1].value + w * (pts[i].value - pts[i - 1].value);
            }
        }
        return pts.back().value;
    };
}

SourceFunction constant(double value) {
    return [=](double) { return value; };
}

const SourceFunction& stimulus_for(const std::map<std::string, SourceFunction>& stimuli,
                                   const std::string& input) {
    const auto it = stimuli.find(input);
    if (it == stimuli.end()) {
        throw std::invalid_argument("missing stimulus for model input " + input);
    }
    return it->second;
}

}  // namespace amsvp::numeric
