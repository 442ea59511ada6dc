// Simulation time for the discrete-event kernel: 64-bit femtoseconds, the
// same resolution choice as SystemC's default. 2^64 fs ~ 5.1 hours of
// simulated time, far beyond any experiment in the paper.
#pragma once

#include <cstdint>
#include <string>

#include "support/check.hpp"

namespace amsvp::de {

using Time = std::uint64_t;  ///< femtoseconds

inline constexpr Time kFemtosecond = 1;
inline constexpr Time kPicosecond = 1000;
inline constexpr Time kNanosecond = 1000 * kPicosecond;
inline constexpr Time kMicrosecond = 1000 * kNanosecond;
inline constexpr Time kMillisecond = 1000 * kMicrosecond;
inline constexpr Time kSecond = 1000 * kMillisecond;

[[nodiscard]] constexpr double to_seconds(Time t) {
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// Rounds to the nearest femtosecond. Negative, non-finite and too-large
/// durations (2^64 fs and beyond) are rejected instead of wrapping.
[[nodiscard]] constexpr Time from_seconds(double seconds) {
    const double femtoseconds = seconds * static_cast<double>(kSecond) + 0.5;
    // The first comparison is false for NaN, the second for +infinity.
    AMSVP_CHECK(seconds >= 0.0 && femtoseconds < 18446744073709551616.0,
                "duration must be finite, non-negative and below 2^64 fs");
    return static_cast<Time>(femtoseconds);
}

/// "12.5 us" style rendering for traces and diagnostics.
[[nodiscard]] std::string format_time(Time t);

}  // namespace amsvp::de
