#include "vp/platform.hpp"

#include <chrono>
#include <cmath>
#include <memory>

#include "backends/de_modules.hpp"
#include "backends/tdf_modules.hpp"
#include "cosim/coupler.hpp"
#include "de/clock.hpp"
#include "de/signal.hpp"
#include "eln/engine.hpp"
#include "runtime/compiled_model.hpp"
#include "support/check.hpp"
#include "support/diagnostics.hpp"
#include "tdf/tdf.hpp"
#include "vp/adc.hpp"
#include "vp/assembler.hpp"
#include "vp/cpu.hpp"
#include "vp/timer.hpp"
#include "vp/uart.hpp"

namespace amsvp::vp {

using Clk = std::chrono::steady_clock;

std::string_view to_string(AnalogIntegration integration) {
    switch (integration) {
        case AnalogIntegration::kVamsCosim:
            return "Verilog-AMS cosim";
        case AnalogIntegration::kEln:
            return "SC-AMS/ELN";
        case AnalogIntegration::kTdf:
            return "SC-AMS/TDF";
        case AnalogIntegration::kDe:
            return "SC-DE";
        case AnalogIntegration::kCpp:
            return "C++";
    }
    return "unknown";
}

namespace {

double elapsed(Clk::time_point start) {
    return std::chrono::duration<double>(Clk::now() - start).count();
}

AssembledProgram assemble_firmware(const PlatformConfig& config) {
    support::DiagnosticEngine diags;
    const std::string source =
        config.firmware.empty() ? firmware_threshold_monitor() : config.firmware;
    auto program = assemble(source, kRamBase, diags);
    if (!program) {
        std::fprintf(stderr, "%s", diags.render_all().c_str());
    }
    AMSVP_CHECK(program.has_value(), "firmware failed to assemble");
    return std::move(*program);
}

/// Digital skeleton shared by every integration: RAM + APB(UART, ADC) + CPU.
struct DigitalPlatform {
    DigitalPlatform(const PlatformConfig& config, const AssembledProgram& program,
                    std::function<double()> probe)
        : ram(kRamSize), adc(std::move(probe), config.adc_v_min, config.adc_v_max) {
        ram.load(0, program.words);
        apb.attach("uart", kUartBase - kApbBase, 0x1000, uart);
        apb.attach("adc", kAdcBase - kApbBase, 0x1000, adc);
        bus.map_region("ram", kRamBase, kRamSize, ram);
        bus.map_region("apb", kApbBase, 0x10000, apb);
        cpu = std::make_unique<Cpu>(bus, kRamBase);
    }

    void collect(PlatformResult& result) const {
        result.instructions = cpu->stats().instructions;
        result.uart_output = uart.transmitted();
        result.adc_conversions = adc.conversions();
        result.bus_reads = bus.stats().reads;
        result.bus_writes = bus.stats().writes;
        result.apb_transfers = apb.transfers();
    }

    Ram ram;
    Uart uart;
    Adc adc;
    ApbBridge apb;
    SystemBus bus;
    std::unique_ptr<Cpu> cpu;
};

/// CPU wrapper for the DE kernel. kRtl fidelity mirrors per-instruction bus
/// activity onto kernel signals (address/data), generating the delta-cycle
/// traffic an RTL description would; kTlm executes silently.
class CpuDeModule {
public:
    CpuDeModule(de::Simulator& sim, de::Clock& clock, Cpu& cpu, DigitalFidelity fidelity)
        : sim_(sim),
          cpu_(cpu),
          fidelity_(fidelity),
          addr_signal_(sim, "cpu_addr", 0),
          data_strobe_(sim, "cpu_dstrobe", 0) {
        const de::ProcessId pid = sim.add_process("cpu", [this] { on_posedge(); });
        clock.pos_sensitive(pid);
    }

private:
    void on_posedge() {
        if (cpu_.halted()) {
            return;
        }
        cpu_.step();
        if (fidelity_ == DigitalFidelity::kRtl) {
            // RTL-style visibility: the instruction bus toggles every cycle,
            // the data strobe counts data-phase transactions.
            addr_signal_.write(cpu_.last_fetch_address());
            if (cpu_.last_was_memory_access()) {
                data_strobe_.write(data_strobe_.read() + 1);
            }
        }
    }

    de::Simulator& sim_;
    Cpu& cpu_;
    DigitalFidelity fidelity_;
    de::Signal<std::uint32_t> addr_signal_;
    de::Signal<std::uint32_t> data_strobe_;
};

std::unique_ptr<runtime::ModelExecutor> make_executor(const PlatformConfig& config) {
    AMSVP_CHECK(config.model != nullptr, "integration needs the abstracted model");
    if (config.executor_factory) {
        return config.executor_factory(*config.model);
    }
    return std::make_unique<runtime::CompiledModel>(*config.model);
}

PlatformResult run_pure_cpp(const PlatformConfig& config, const AssembledProgram& program,
                            double duration) {
    std::unique_ptr<runtime::ModelExecutor> executor = make_executor(config);
    runtime::ModelExecutor& compiled = *executor;

    std::vector<const numeric::SourceFunction*> sources;
    for (const expr::Symbol& in : config.model->inputs) {
        const auto it = config.stimuli.find(in.name);
        AMSVP_CHECK(it != config.stimuli.end(), "missing stimulus");
        sources.push_back(&it->second);
    }

    DigitalPlatform digital(config, program, [&compiled] { return compiled.output(0); });

    const double cpu_dt = de::to_seconds(config.cpu_period);
    const auto ratio = static_cast<std::uint64_t>(config.analog_timestep / cpu_dt + 0.5);
    AMSVP_CHECK(ratio >= 1, "analog timestep below CPU period");
    const auto ticks = static_cast<std::uint64_t>(duration / cpu_dt);

    PlatformResult result;
    const auto start = Clk::now();
    for (std::uint64_t k = 1; k <= ticks; ++k) {
        if (k % ratio == 0) {
            const double t = static_cast<double>(k) * cpu_dt;
            for (std::size_t i = 0; i < sources.size(); ++i) {
                compiled.set_input(i, (*sources[i])(t));
            }
            compiled.step(t);
        }
        digital.cpu->step();
        if (digital.cpu->halted()) {
            break;
        }
    }
    result.wall_seconds = elapsed(start);
    digital.collect(result);
    return result;
}

PlatformResult run_kernel_platform(const PlatformConfig& config,
                                   const AssembledProgram& program, double duration) {
    de::Simulator sim;

    // Analog side first (the ADC probe closes over it).
    std::unique_ptr<cosim::CosimCoupler> coupler;
    std::unique_ptr<eln::ElnDeModule> eln_module;
    std::unique_ptr<backends::TdfModel> tdf_model;
    std::unique_ptr<backends::TdfSink> tdf_sink;
    std::vector<std::unique_ptr<backends::TdfSource>> tdf_sources;
    std::unique_ptr<tdf::TdfCluster> tdf_cluster;
    std::unique_ptr<de::Clock> analog_clock;
    std::vector<std::unique_ptr<backends::DeSource>> de_sources;
    std::unique_ptr<backends::DeModel> de_model;

    std::function<double()> probe;
    switch (config.integration) {
        case AnalogIntegration::kVamsCosim: {
            AMSVP_CHECK(config.circuit != nullptr, "cosim integration needs the circuit");
            spice::SpiceOptions options = config.spice;
            options.timestep = config.analog_timestep;
            coupler = std::make_unique<cosim::CosimCoupler>(sim, *config.circuit, options,
                                                            config.stimuli,
                                                            config.observed_pos,
                                                            config.observed_neg);
            probe = [&c = *coupler] { return c.output().read(); };
            break;
        }
        case AnalogIntegration::kEln: {
            AMSVP_CHECK(config.circuit != nullptr, "ELN integration needs the circuit");
            eln_module = std::make_unique<eln::ElnDeModule>(
                sim, *config.circuit, config.analog_timestep, config.stimuli,
                config.observed_pos, config.observed_neg);
            probe = [&m = *eln_module] { return m.output().read(); };
            break;
        }
        case AnalogIntegration::kTdf: {
            AMSVP_CHECK(config.model != nullptr, "TDF integration needs the model");
            tdf_cluster = std::make_unique<tdf::TdfCluster>();
            tdf_model = std::make_unique<backends::TdfModel>("dut", *config.model,
                                                             make_executor(config));
            tdf_sink = std::make_unique<backends::TdfSink>("sink");
            tdf_cluster->add(*tdf_model);
            tdf_cluster->add(*tdf_sink);
            for (std::size_t i = 0; i < config.model->inputs.size(); ++i) {
                const auto it = config.stimuli.find(config.model->inputs[i].name);
                AMSVP_CHECK(it != config.stimuli.end(), "missing stimulus");
                tdf_sources.push_back(std::make_unique<backends::TdfSource>(
                    "src" + std::to_string(i), it->second));
                tdf_cluster->add(*tdf_sources.back());
                tdf_cluster->connect(tdf_sources.back()->out, tdf_model->input(i));
            }
            tdf_cluster->connect(tdf_model->output(0), tdf_sink->in);
            tdf_cluster->set_timestep(*tdf_model, config.model->timestep);
            std::string error;
            const bool ok = tdf_cluster->elaborate(&error);
            AMSVP_CHECK(ok, "TDF elaboration failed");
            tdf_cluster->attach(sim);
            probe = [&s = *tdf_sink] { return s.last(); };
            break;
        }
        case AnalogIntegration::kDe: {
            AMSVP_CHECK(config.model != nullptr, "DE integration needs the model");
            analog_clock = std::make_unique<de::Clock>(
                sim, "aclk", de::from_seconds(config.model->timestep));
            std::vector<de::Signal<double>*> inputs;
            for (std::size_t i = 0; i < config.model->inputs.size(); ++i) {
                const auto it = config.stimuli.find(config.model->inputs[i].name);
                AMSVP_CHECK(it != config.stimuli.end(), "missing stimulus");
                de_sources.push_back(std::make_unique<backends::DeSource>(
                    sim, *analog_clock, "src" + std::to_string(i), it->second));
                inputs.push_back(&de_sources.back()->out());
            }
            de_model = std::make_unique<backends::DeModel>(sim, *analog_clock, "dut",
                                                           *config.model, std::move(inputs),
                                                           make_executor(config));
            probe = [&m = *de_model] { return m.output(0).read(); };
            break;
        }
        case AnalogIntegration::kCpp:
            AMSVP_CHECK(false, "pure-C++ platform handled separately");
            break;
    }

    DigitalPlatform digital(config, program, std::move(probe));
    // Kernel platforms expose a periodic timer peripheral; firmware enables
    // it by writing a period + the enable bit (the default firmware leaves
    // it off, so the memory map is the only difference to the pure-C++ run).
    Timer timer(sim);
    digital.apb.attach("timer", kTimerBase - kApbBase, 0x1000, timer);
    de::Clock cpu_clock(sim, "clk", config.cpu_period);
    CpuDeModule cpu_module(sim, cpu_clock, *digital.cpu, config.fidelity);

    PlatformResult result;
    const auto start = Clk::now();
    sim.run_until(de::from_seconds(duration));
    result.wall_seconds = elapsed(start);
    result.kernel = sim.stats();
    result.timer_ticks = timer.ticks();
    digital.collect(result);
    return result;
}

}  // namespace

PlatformResult run_platform(const PlatformConfig& config, double duration) {
    AMSVP_CHECK(std::isfinite(duration) && duration >= 0.0,
                "platform duration must be finite and non-negative");
    const AssembledProgram program = assemble_firmware(config);
    if (config.integration == AnalogIntegration::kCpp) {
        return run_pure_cpp(config, program, duration);
    }
    return run_kernel_platform(config, program, duration);
}

}  // namespace amsvp::vp
