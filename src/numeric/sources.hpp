// Stimulus generators. The paper drives every experiment with a square wave
// (period 1 ms) because "model inaccuracies are emphasized by transient
// signals" and the continuous/discrete versions coincide; we additionally
// provide sine/step/PWL sources for wider testing.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace amsvp::numeric {

/// A time-domain stimulus: value as a function of time in seconds.
using SourceFunction = std::function<double(double)>;

/// Square wave toggling between `low` and `high`, starting at `high` for the
/// first half period (matching the paper's generator). Throws
/// std::invalid_argument when the period is not positive and finite.
[[nodiscard]] SourceFunction square_wave(double period_seconds, double low = 0.0,
                                         double high = 1.0);

/// Sine wave: offset + amplitude * sin(2*pi*f*t + phase).
[[nodiscard]] SourceFunction sine_wave(double frequency_hz, double amplitude = 1.0,
                                       double offset = 0.0, double phase_radians = 0.0);

/// Unit step at `at_seconds` scaled by `amplitude`.
[[nodiscard]] SourceFunction step(double at_seconds, double amplitude = 1.0);

/// Piecewise-linear source through (time, value) points; constant
/// extrapolation outside the range. Throws std::invalid_argument when there
/// are no points or their times are not finite and strictly increasing.
struct PwlPoint {
    double time;
    double value;
};
[[nodiscard]] SourceFunction piecewise_linear(std::vector<PwlPoint> points);

/// Constant value.
[[nodiscard]] SourceFunction constant(double value);

/// The stimulus of model input `input`. Throws std::invalid_argument naming
/// the input when `stimuli` has none.
[[nodiscard]] const SourceFunction& stimulus_for(
    const std::map<std::string, SourceFunction>& stimuli, const std::string& input);

}  // namespace amsvp::numeric
