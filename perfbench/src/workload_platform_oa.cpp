// platform_oa — the smart-system virtual platform of Table III: the OA
// filter as an SC-DE module (TLM fidelity, default fused executor) under
// the MIPS CPU running the default threshold-monitor firmware over
// APB/UART/ADC/timer. One op is vp::run_platform for 10 ms simulated
// (200,000 instructions); the seed picks the square wave's amplitude. The
// DE kernel and the digital platform take most of the host time, so
// de/vp/backends changes show here and sweep or service changes cannot. It
// is also the paper's headline configuration.
#include <cstdio>
#include <stdexcept>

#include "runtime/compiled_model.hpp"
#include "vp/platform.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace vp = amsvp::vp;

constexpr double kDuration = 10e-3;

/// Empty when `got` has the platform counts the checks pin.
std::string check_platform(const vp::PlatformResult& got, const vp::PlatformResult& cpp,
                           const vp::PlatformResult& de) {
    if (got.instructions != cpp.instructions || got.adc_conversions != cpp.adc_conversions ||
        got.uart_output != cpp.uart_output) {
        return "instructions, ADC conversions or UART text differ from the pure-C++ platform";
    }
    if (got.bus_reads != de.bus_reads || got.bus_writes != de.bus_writes ||
        got.kernel.process_activations != de.kernel.process_activations ||
        got.kernel.delta_cycles != de.kernel.delta_cycles ||
        got.kernel.timed_events != de.kernel.timed_events) {
        return "DE or bus counts differ between ops";
    }
    return {};
}

class PlatformOa final : public Workload {
public:
    explicit PlatformOa(std::uint64_t seed) : oa_(abstract_from_text("OA", paper_text("OA"))) {
        Rng rng(seed);
        amplitude_ = rng.uniform(0.5, 1.4);
        digest_.add(amplitude_);
        config_.integration = vp::AnalogIntegration::kDe;
        config_.fidelity = vp::DigitalFidelity::kTlm;
        config_.model = &oa_.model;
        config_.stimuli = {{"u0", numeric::square_wave(1e-3, -amplitude_, amplitude_)}};
    }

    double tail_percentile() const override { return 90.0; }

    void prepare_checks(bool perturb_reference) override {
        vp::PlatformConfig cpp = config_;
        cpp.integration = vp::AnalogIntegration::kCpp;
        reference_ = vp::run_platform(cpp, kDuration);
        if (perturb_reference) {
            ++reference_.instructions;
        }
        // The baseline op counts the analog steps one op takes and pins the
        // DE and bus counts every timed op must repeat.
        auto steps = std::make_shared<TimedExecutor::Stats>();
        vp::PlatformConfig counting = config_;
        counting.executor_factory = [steps](const abstraction::SignalFlowModel& model) {
            return std::make_unique<TimedExecutor>(std::make_unique<runtime::CompiledModel>(model),
                                                   0, steps);
        };
        baseline_ = vp::run_platform(counting, kDuration);
        analog_steps_ = steps->steps.calls;
    }

    Phase run(double seconds) override {
        return run_closed_loop(seconds, 11, Placement::kRotate, [&] {
            OpRecord record;
            const Clock::time_point start = Clock::now();
            vp::PlatformResult result;
            try {
                result = vp::run_platform(config_, kDuration);
            } catch (const std::exception& e) {
                record.failure = e.what();
            }
            record.seconds = seconds_between(start, Clock::now());
            return finish(record, result);
        });
    }

    Phase run_traced(double seconds, Trace& trace, double clock_seconds,
                     std::vector<Metric>& layers) override {
        struct OpStamps {
            Clock::time_point factory_start;
            Clock::time_point factory_end;
        };
        std::vector<double> digital_ns_per_instr;
        Sampled analog;
        vp::PlatformResult last;
        int op_id = 0;
        Phase phase = run_closed_loop(seconds, 11, Placement::kRotate, [&] {
            OpRecord record;
            OpStamps stamps;
            auto steps = std::make_shared<TimedExecutor::Stats>();
            vp::PlatformConfig config = config_;
            config.executor_factory = [&stamps, steps,
                                       this](const abstraction::SignalFlowModel& model) {
                stamps.factory_start = Clock::now();
                auto inner = std::make_unique<runtime::CompiledModel>(model);
                stamps.factory_end = Clock::now();
                return std::make_unique<TimedExecutor>(std::move(inner), analog_steps_, steps);
            };
            const Clock::time_point start = Clock::now();
            vp::PlatformResult result;
            try {
                result = vp::run_platform(config, kDuration);
            } catch (const std::exception& e) {
                record.failure = e.what();
            }
            const Clock::time_point end = Clock::now();
            record.seconds = seconds_between(start, end);
            record = finish(record, result);
            if (!record.ok) {
                return record;
            }

            const double analog_seconds = steps->steps.estimate(clock_seconds);
            const int op = op_id++;
            const int root = trace.add({"op", start, end, -1, op});
            trace.add({"vp.platform_build", start, stamps.factory_start, root, op});
            trace.add({"runtime.layout_compile", stamps.factory_start, stamps.factory_end, root, op});
            trace.add({"vp.platform_build", stamps.factory_end, steps->first_start, root, op});
            Span simulate{"vp.simulate", steps->first_start, steps->last_end, root, op};
            simulate.self_name = "de+vp.digital";
            simulate.parts = {{"runtime.scalar_step", analog_seconds}};
            trace.add(std::move(simulate));
            trace.add({"vp.teardown", steps->last_end, end, root, op});

            digital_ns_per_instr.push_back((record.seconds - analog_seconds) /
                                           static_cast<double>(result.instructions) * 1e9);
            analog.calls += steps->steps.calls;
            analog.samples += steps->steps.samples;
            analog.sampled_seconds += steps->steps.sampled_seconds;
            last = result;
            return record;
        });
        layers = {
            {"runtime.layout_compile_us", layer_median(trace, "runtime.layout_compile", 1e-6), "us"},
            {"runtime.scalar_step_ns", analog.per_call(clock_seconds) * 1e9, "ns"},
            {"vp.digital_ns_per_instr", median(digital_ns_per_instr), "ns"},
            {"vp.instructions", static_cast<double>(last.instructions), "count/op"},
            {"vp.adc_conversions", static_cast<double>(last.adc_conversions), "count/op"},
            {"vp.bus_reads", static_cast<double>(last.bus_reads), "count/op"},
            {"vp.bus_writes", static_cast<double>(last.bus_writes), "count/op"},
            {"de.process_activations", static_cast<double>(last.kernel.process_activations),
             "count/op"},
            {"de.delta_cycles", static_cast<double>(last.kernel.delta_cycles), "count/op"},
            {"de.timed_events", static_cast<double>(last.kernel.timed_events), "count/op"},
        };
        return phase;
    }

    std::string describe(const Timing& timing) const override {
        const double instructions =
            timing.ok_ops * static_cast<double>(baseline_.instructions);
        char text[768];
        std::snprintf(text, sizeof(text),
                      "inputs: OA, square wave +-%.6f V, 1 ms period; digest %s\n"
                      "simulated per op: %llu instructions, %llu analog steps, %llu ADC "
                      "conversions, UART \"%s\"; DE %llu activations, %llu delta cycles, %llu "
                      "timed events; bus %llu reads, %llu writes\n"
                      "sim_instr_per_s: %.6g instr/s\n",
                      amplitude_, digest_.hex().c_str(),
                      static_cast<unsigned long long>(baseline_.instructions),
                      static_cast<unsigned long long>(analog_steps_),
                      static_cast<unsigned long long>(baseline_.adc_conversions),
                      baseline_.uart_output.c_str(),
                      static_cast<unsigned long long>(baseline_.kernel.process_activations),
                      static_cast<unsigned long long>(baseline_.kernel.delta_cycles),
                      static_cast<unsigned long long>(baseline_.kernel.timed_events),
                      static_cast<unsigned long long>(baseline_.bus_reads),
                      static_cast<unsigned long long>(baseline_.bus_writes),
                      instructions / timing.host_seconds);
        return text;
    }

private:
    OpRecord finish(OpRecord record, const vp::PlatformResult& result) const {
        if (record.failure.empty()) {
            record.failure = check_platform(result, reference_, baseline_);
        }
        record.ok = record.failure.empty();
        record.lane_steps = static_cast<double>(analog_steps_);
        return record;
    }

    TextModel oa_;
    double amplitude_ = 0.0;
    vp::PlatformConfig config_;
    vp::PlatformResult baseline_;
    vp::PlatformResult reference_;
    std::uint64_t analog_steps_ = 0;
    Digest digest_;
};

}  // namespace

std::unique_ptr<Workload> make_platform_oa(std::uint64_t seed) {
    return std::make_unique<PlatformOa>(seed);
}

}  // namespace perfbench
