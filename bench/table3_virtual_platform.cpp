// Table III: the analog component integrated into the complete virtual
// platform (MIPS CPU + APB + UART running the threshold-monitor firmware).
// Six rows per circuit:
//   Verilog-AMS in a Verilog (RTL-fidelity) platform  — co-simulation
//   Verilog-AMS in a SystemC (TLM-fidelity) platform  — co-simulation
//   SC-AMS/ELN, SC-AMS/TDF, SC-DE                     — single kernel
//   C++                                               — no kernel at all
// Speed-ups are relative to the first row, as in the paper. The generated
// rows run the scalar ORC kernel (codegen::orc_executor_factory()): the
// generated program compiled by in-process LLVM where the paper used
// g++ -O2. Every row must report its circuit's first-row UART text and
// instruction count; the bench prints any row that does not and exits 1.
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "codegen/orc_jit.hpp"
#include "vp/platform.hpp"

int main(int argc, char** argv) {
    using namespace amsvp;
    const double duration =
        bench::Args(argc, argv, {bench::kDurationFlag}).duration_seconds(0.5e-3);

    std::printf("TABLE III — ABSTRACTED MODELS INTEGRATED IN THE VIRTUAL PLATFORM\n");
    bench::print_scaling_note(duration, 100e-3);
    std::printf("%-10s %-18s %-10s %-10s %-8s %14s %10s\n", "Component", "Comp. language",
                "VP lang.", "Simulator", "Gener.", "Sim. time (s)", "Speed-up");

    struct Row {
        vp::AnalogIntegration integration;
        vp::DigitalFidelity fidelity;
        const char* component_language;
        const char* vp_language;
        const char* simulator;
        const char* generation;
    };
    const Row rows[] = {
        {vp::AnalogIntegration::kVamsCosim, vp::DigitalFidelity::kRtl, "Verilog-AMS",
         "Verilog", "cosim", "manual"},
        {vp::AnalogIntegration::kVamsCosim, vp::DigitalFidelity::kTlm, "Verilog-AMS",
         "SystemC", "cosim", "manual"},
        {vp::AnalogIntegration::kEln, vp::DigitalFidelity::kTlm, "SC-AMS/ELN", "SystemC",
         "SystemC", "manual"},
        {vp::AnalogIntegration::kTdf, vp::DigitalFidelity::kTlm, "SC-AMS/TDF", "SystemC",
         "SystemC", "algo"},
        {vp::AnalogIntegration::kDe, vp::DigitalFidelity::kTlm, "SC-DE", "SystemC",
         "SystemC", "algo"},
        {vp::AnalogIntegration::kCpp, vp::DigitalFidelity::kTlm, "C++", "C++", "C++",
         "algo"},
    };

    bool rows_agree = true;
    for (const bench::BenchCircuit& c : bench::paper_circuits()) {
        double reference_seconds = 0.0;
        std::string reference_uart;
        std::uint64_t reference_instructions = 0;
        std::string mismatches;
        for (const Row& row : rows) {
            vp::PlatformConfig config;
            config.integration = row.integration;
            config.fidelity = row.fidelity;
            config.circuit = &c.circuit;
            config.model = &c.model;
            config.stimuli = bench::paper_stimuli();
            config.executor_factory = codegen::orc_executor_factory();
            const vp::PlatformResult result = vp::run_platform(config, duration);

            double speedup = 0.0;
            if (&row == &rows[0]) {
                reference_seconds = result.wall_seconds;
                reference_uart = result.uart_output;
                reference_instructions = result.instructions;
            } else {
                speedup = reference_seconds / result.wall_seconds;
                if (result.uart_output != reference_uart ||
                    result.instructions != reference_instructions) {
                    mismatches += "# MISMATCH " + c.name + " " + row.component_language + " in " +
                                  row.vp_language + ": UART \"" + result.uart_output + "\", " +
                                  std::to_string(result.instructions) +
                                  " instructions; first row: UART \"" + reference_uart +
                                  "\", " + std::to_string(reference_instructions) +
                                  " instructions\n";
                }
            }
            std::printf("%-10s %-18s %-10s %-10s %-8s %14.4f %9.2fx\n", c.name.c_str(),
                        row.component_language, row.vp_language, row.simulator,
                        row.generation, result.wall_seconds, speedup);
        }
        if (mismatches.empty()) {
            std::printf("# %s: every row printed UART \"%s\" in %llu instructions\n\n",
                        c.name.c_str(), reference_uart.c_str(),
                        static_cast<unsigned long long>(reference_instructions));
        } else {
            std::printf("%s\n", mismatches.c_str());
            rows_agree = false;
        }
    }
    if (!rows_agree) {
        std::printf("# rows disagree: see the MISMATCH lines above\n");
        return 1;
    }
    std::printf("# every row's UART report and instruction count equal its circuit's first row\n");
    return 0;
}
