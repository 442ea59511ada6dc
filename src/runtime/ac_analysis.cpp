#include "runtime/ac_analysis.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "runtime/compiled_model.hpp"
#include "support/strings.hpp"

namespace amsvp::runtime {

namespace {

constexpr std::uint64_t kSettleCycles = 8;   ///< discarded before measuring
constexpr std::uint64_t kMeasureCycles = 8;  ///< DFT window length

}  // namespace

std::vector<double> log_frequency_grid(double f_min, double f_max, int points) {
    if (!(f_min > 0.0 && f_max > f_min && points >= 2)) {
        throw std::invalid_argument("bad frequency grid: f_min " + support::format_double(f_min) +
                                    ", f_max " + support::format_double(f_max) + ", " +
                                    std::to_string(points) + " points");
    }
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(points));
    const double ratio = std::log(f_max / f_min);
    for (int i = 0; i < points; ++i) {
        const double w = static_cast<double>(i) / static_cast<double>(points - 1);
        out.push_back(f_min * std::exp(ratio * w));
    }
    return out;
}

std::vector<AcPoint> measure_frequency_response(const abstraction::SignalFlowModel& model,
                                                const std::string& input_name,
                                                const std::vector<double>& frequencies_hz) {
    CompiledModel compiled(model);
    const std::size_t input = compiled.input_index(input_name);
    const double dt = model.timestep;
    if (!(dt > 0.0)) {
        throw std::invalid_argument("model has no timestep: dt " + support::format_double(dt));
    }

    std::vector<AcPoint> out;
    out.reserve(frequencies_hz.size());
    for (const double f : frequencies_hz) {
        if (!(f > 0.0 && f < 0.25 / dt)) {
            throw std::invalid_argument("frequency outside the model's band: " +
                                        support::format_double(f) + " Hz not in (0, " +
                                        support::format_double(0.25 / dt) + ") Hz");
        }
        const double omega = 2.0 * M_PI * f;
        const auto steps_per_cycle = static_cast<std::uint64_t>(1.0 / (f * dt) + 0.5);
        const std::uint64_t settle = steps_per_cycle * kSettleCycles;
        const std::uint64_t window = steps_per_cycle * kMeasureCycles;

        compiled.reset();
        // Other inputs (if any) held at zero: small-signal measurement.
        for (std::size_t i = 0; i < compiled.input_count(); ++i) {
            compiled.set_input(i, 0.0);
        }

        double acc_cos = 0.0;
        double acc_sin = 0.0;
        for (std::uint64_t k = 1; k <= settle + window; ++k) {
            const double t = static_cast<double>(k) * dt;
            compiled.set_input(input, std::sin(omega * t));
            compiled.step(t);
            if (k > settle) {
                const double y = compiled.output(0);
                acc_sin += y * std::sin(omega * t);
                acc_cos += y * std::cos(omega * t);
            }
        }
        // Single-bin DFT against the drive: y ~ A sin(wt) + B cos(wt).
        const double n = static_cast<double>(window);
        const double a = 2.0 * acc_sin / n;
        const double b = 2.0 * acc_cos / n;
        AcPoint point;
        point.frequency_hz = f;
        point.magnitude = std::sqrt(a * a + b * b);
        point.phase_radians = std::atan2(b, a);
        out.push_back(point);
    }
    return out;
}

}  // namespace amsvp::runtime
