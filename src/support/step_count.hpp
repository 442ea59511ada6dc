// Shared step-count rounding for transient drivers.
//
// Every backend converts a duration into a whole number of fixed timesteps
// as `duration / dt`. Truncating that quotient drops the final step whenever
// the division lands a hair below an integer (0.9 / 0.1 =
// 8.999999999999998), so a nominally 9-step run silently becomes 8. This
// helper snaps quotients within a few ulps of an integer up to it and
// truncates otherwise, and is used by every site that needs a step count —
// so all engines agree on how many samples a duration produces.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>

namespace amsvp::support {

/// Number of whole timesteps of size `dt` in `duration`. Ulp-tolerant: a
/// quotient within 4 ulps below an integer counts as that integer;
/// anything further truncates (1.0 / 0.3 is 3 steps, not 4). Finite
/// non-positive durations give 0 steps; `dt` must be positive and finite.
/// Throws std::invalid_argument when the duration is NaN or infinite or the
/// quotient is NaN or at least 2^64: no step count can be cast from those.
[[nodiscard]] inline std::size_t step_count(double duration, double dt) {
    const double raw = duration / dt;
    if (!std::isfinite(duration) || std::isnan(raw) || raw >= 0x1p64) {
        throw std::invalid_argument(
            "step count needs a finite duration and duration / timestep below 2^64");
    }
    if (!(raw > 0.0)) {
        return 0;
    }
    // std::round, not nearbyint: the snap must not depend on the caller's
    // current FP rounding mode (fesetround(FE_DOWNWARD) would otherwise
    // floor the quotient and silently reintroduce the truncation bug).
    const double nearest = std::round(raw);
    if (nearest > raw &&
        nearest - raw <= 4.0 * std::numeric_limits<double>::epsilon() * nearest) {
        return static_cast<std::size_t>(nearest);
    }
    return static_cast<std::size_t>(raw);
}

}  // namespace amsvp::support
