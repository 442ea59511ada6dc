// Verilog-AMS sources of the paper's test circuits (Section V-A and Fig. 8),
// bundled as strings so examples/tests/benches run without external files.
#pragma once

#include <string>

namespace amsvp::vams {

/// n-stage RC ladder (paper: R = 5 kOhm, C = 25 nF per stage). Input "u0".
/// Throws std::invalid_argument for fewer than one stage.
[[nodiscard]] std::string rc_ladder_source(int stages, double r_ohms = 5e3,
                                           double c_farads = 25e-9);

/// Two-inputs summing amplifier of Fig. 8a (R1 = 3k, R2 = 14k, R3 = 10k)
/// with the op-amp macromodel of Fig. 8b. Inputs "u0", "u1".
[[nodiscard]] std::string two_inputs_source();

/// Operational-amplifier active low-pass filter of Fig. 8b / Fig. 2
/// (R1 = 400, R2 = 1.6k, C1 = 40n, Rin = 1M, Rout = 20). Input "u0".
[[nodiscard]] std::string opamp_source();

/// A pure signal-flow first-order low-pass (Eq. 1 shape): demonstrates the
/// direct conversion path for non-conservative descriptions. Input "u0".
[[nodiscard]] std::string signal_flow_lowpass_source();

}  // namespace amsvp::vams
