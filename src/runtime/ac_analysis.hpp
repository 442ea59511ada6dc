// Small-signal frequency-response measurement of generated models: drive a
// sine, let the transient settle, extract magnitude/phase with a single-bin
// DFT. Gives Bode data for any abstracted component — the analog designer's
// first sanity check on an abstracted filter.
#pragma once

#include <string>
#include <vector>

#include "abstraction/signal_flow_model.hpp"

namespace amsvp::runtime {

struct AcPoint {
    double frequency_hz = 0.0;
    double magnitude = 0.0;      ///< |H(jw)|
    double phase_radians = 0.0;  ///< arg H(jw), in (-pi, pi]
};

/// Measure the response from `input_name` to the model's first output at
/// each frequency, driving a unit-amplitude sine: 8 cycles settle, the next
/// 8 form the DFT window. Frequencies must satisfy f << 1/(2 dt). Throws
/// std::invalid_argument naming an unknown input, a frequency outside
/// (0, 0.25/dt) or a model without a timestep.
[[nodiscard]] std::vector<AcPoint> measure_frequency_response(
    const abstraction::SignalFlowModel& model, const std::string& input_name,
    const std::vector<double>& frequencies_hz);

/// Logarithmically spaced frequency grid [f_min, f_max], `points` entries.
/// Throws std::invalid_argument naming the values unless
/// 0 < f_min < f_max and points >= 2.
[[nodiscard]] std::vector<double> log_frequency_grid(double f_min, double f_max, int points);

}  // namespace amsvp::runtime
