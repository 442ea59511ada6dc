// Ablation: discretization scheme of the generated models. Backward Euler
// (the paper's implicit choice: "the output on the right side is already
// delayed by dt") versus trapezoidal integration — accuracy against an
// analytic RC response across timesteps, and the runtime cost of the extra
// derivative-history state.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "abstraction/abstraction.hpp"
#include "bench_common.hpp"
#include "netlist/builder.hpp"
#include "runtime/simulate.hpp"

int main(int argc, char** argv) {
    (void)amsvp::bench::Args(argc, argv, {});
    using namespace amsvp;
    using Clock = std::chrono::steady_clock;

    std::printf("ABLATION — DISCRETIZATION SCHEME (RC1, sine stimulus, analytic oracle)\n\n");
    std::printf("%-12s %-16s %14s %14s %12s\n", "Timestep", "Scheme", "Max error (V)",
                "Assignments", "Run (s)");

    const netlist::Circuit circuit = netlist::make_rc_ladder(1);
    const double tau = 125e-6;
    const double f = 2000.0;
    const double w = 2 * M_PI * f;
    const double duration = 4e-3;

    auto analytic = [&](double t) {
        const double mag = 1.0 / std::sqrt(1.0 + w * w * tau * tau);
        const double phase = -std::atan(w * tau);
        return mag * std::sin(w * t + phase);
    };

    for (const double dt : {1e-6, 4e-7, 2e-7, 1e-7, 5e-8}) {
        for (const auto scheme : {abstraction::DiscretizationScheme::kBackwardEuler,
                                  abstraction::DiscretizationScheme::kTrapezoidal}) {
            abstraction::AbstractionOptions options;
            options.timestep = dt;
            options.scheme = scheme;
            std::string error;
            auto model =
                abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, options, &error);
            if (!model) {
                std::fprintf(stderr, "%s\n", error.c_str());
                return 1;
            }

            const auto start = Clock::now();
            auto result = runtime::simulate_transient(
                *model, {{"u0", numeric::sine_wave(f)}}, duration);
            const double run_seconds =
                std::chrono::duration<double>(Clock::now() - start).count();

            const numeric::Waveform& out = result.outputs.front();
            double max_error = 0.0;
            for (std::size_t k = out.size() / 2; k < out.size(); ++k) {
                max_error = std::max(max_error,
                                     std::fabs(out.value(k) - analytic(out.time(k))));
            }
            char dt_text[32];
            std::snprintf(dt_text, sizeof dt_text, "%.0f ns", dt * 1e9);
            std::printf("%-12s %-16s %14.3e %14zu %12.4f\n", dt_text,
                        std::string(to_string(scheme)).c_str(), max_error,
                        model->assignments.size(), run_seconds);
        }
    }
    std::printf("\n# trapezoidal converges one order faster in dt, at the cost of one\n"
                "# extra assignment (the derivative-history update) per state.\n");
    return 0;
}
