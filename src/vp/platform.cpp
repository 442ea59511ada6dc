#include "vp/platform.hpp"

#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "de/clock.hpp"
#include "de/signal.hpp"
#include "support/check.hpp"
#include "support/diagnostics.hpp"
#include "vp/adc.hpp"
#include "vp/assembler.hpp"
#include "vp/cpu.hpp"
#include "vp/firmware.hpp"
#include "vp/timer.hpp"
#include "vp/uart.hpp"

namespace amsvp::vp {

using Clk = std::chrono::steady_clock;

namespace {

/// CPU clock period: 50 ns (20 MHz) aligns one instruction per 50 ns
/// analog timestep.
constexpr de::Time kCpuPeriod = 50 * de::kNanosecond;

/// ADC full-scale range: the paper's circuits swing within [-6, 6] V
/// across all four test cases.
constexpr double kAdcMinVolts = -6.0;
constexpr double kAdcMaxVolts = 6.0;

double elapsed(Clk::time_point start) {
    return std::chrono::duration<double>(Clk::now() - start).count();
}

AssembledProgram assemble_firmware(const PlatformConfig& config) {
    support::DiagnosticEngine diags;
    const std::string source =
        config.firmware.empty() ? firmware_threshold_monitor() : config.firmware;
    auto program = assemble(source, kRamBase, diags);
    if (!program) {
        throw std::invalid_argument(diags.render_all());
    }
    return std::move(*program);
}

/// Digital skeleton shared by every integration: RAM + APB(UART, ADC) + CPU.
struct DigitalPlatform {
    DigitalPlatform(const AssembledProgram& program, std::function<double()> probe)
        : ram(kRamSize), adc(std::move(probe), kAdcMinVolts, kAdcMaxVolts) {
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

PlatformResult run_pure_cpp(const PlatformConfig& config, const AssembledProgram& program,
                            de::Time end) {
    const std::unique_ptr<runtime::ModelExecutor> executor = backends::make_executor(config);
    runtime::ModelExecutor& compiled = *executor;
    const std::vector<const numeric::SourceFunction*> sources = backends::input_stimuli(config);

    DigitalPlatform digital(program, [&compiled] { return compiled.output(0); });

    // The model steps every model->timestep, like the kernel styles' clocks,
    // and the CPU runs the kernel's count of clock edges up to `end`.
    const double cpu_dt = de::to_seconds(kCpuPeriod);
    const auto ratio = static_cast<std::uint64_t>(config.model->timestep / cpu_dt + 0.5);
    AMSVP_CHECK(ratio >= 1, "analog timestep below CPU period");
    const std::uint64_t ticks = end / kCpuPeriod;

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
                                   const AssembledProgram& program, de::Time end) {
    de::Simulator sim;
    // Analog side first (the ADC probe reads it).
    const backends::KernelAnalog analog(sim, config.integration, config);
    DigitalPlatform digital(program, [&analog] { return analog.observed(); });
    // Kernel platforms expose a periodic timer peripheral; firmware enables
    // it by writing a period + the enable bit (the default firmware leaves
    // it off, so the memory map is the only difference to the pure-C++ run).
    Timer timer(sim);
    digital.apb.attach("timer", kTimerBase - kApbBase, 0x1000, timer);
    de::Clock cpu_clock(sim, "clk", kCpuPeriod);
    CpuDeModule cpu_module(sim, cpu_clock, *digital.cpu, config.fidelity);

    PlatformResult result;
    const auto start = Clk::now();
    sim.run_until(end);
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
    // The kernel's 2^64 fs bound holds for every integration, kCpp included,
    // and is checked before anything is built.
    const de::Time end = de::from_seconds(duration);
    const AssembledProgram program = assemble_firmware(config);
    if (config.integration == AnalogIntegration::kCpp) {
        return run_pure_cpp(config, program, end);
    }
    return run_kernel_platform(config, program, end);
}

}  // namespace amsvp::vp
