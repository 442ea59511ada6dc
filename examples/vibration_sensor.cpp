// Domain scenario from the paper's introduction (wearables / automotive):
// a resonant "knock" sensor. Mechanical taps excite a series-RLC tank
// (f0 ~ 15.9 kHz, Q ~ 2); firmware watches the ADC, computes a rectified
// peak-hold envelope and reports every detected knock on the UART.
//
// The same detection firmware runs against the abstracted model in the
// pure-C++ platform and against the conservative solver behind the
// co-simulation coupler — the report must be identical. Exits 1 unless
// every row reports "KKK" with the same instruction and ADC counts.
#include <cstdio>
#include <optional>

#include "abstraction/abstraction.hpp"
#include "netlist/builder.hpp"
#include "vp/platform.hpp"

namespace {

/// Envelope detector with decay and hysteresis, reporting 'K' per knock.
const char* kKnockFirmware = R"(
        li   $t0, 0x10001000      # ADC base
        li   $t1, 0x10000000      # UART base
        li   $s0, 2048            # mid-scale
        li   $s1, 300             # detect threshold (codes above mid)
        li   $s2, 0               # envelope
        li   $s3, 0               # armed flag (1 = waiting for quiet)
loop:   li   $t2, 1
        sw   $t2, 4($t0)          # start conversion
        lw   $t4, 0($t0)          # sample
        subu $t5, $t4, $s0        # signed deviation from mid-scale
        sra  $t6, $t5, 31         # abs(): mask = sign
        xor  $t5, $t5, $t6
        subu $t5, $t5, $t6
        # envelope = max(sample_abs, envelope - envelope/64)
        srl  $t7, $s2, 6
        subu $s2, $s2, $t7
        slt  $t8, $s2, $t5
        beq  $t8, $zero, nokeep
        move $s2, $t5
nokeep: # hysteresis: trigger when envelope > threshold while disarmed
        slt  $t9, $s1, $s2
        beq  $t9, $s3, loop       # state unchanged
        move $s3, $t9
        beq  $t9, $zero, loop     # falling below threshold: rearm silently
        li   $a0, 0x4B            # 'K'
txwait: lw   $at, 4($t1)
        andi $at, $at, 1
        beq  $at, $zero, txwait
        sw   $a0, 0($t1)
        j    loop
)";

/// Three mechanical taps at 0.4, 1.1 and 1.9 ms: short voltage impulses
/// into the tank.
double knocks(double t) {
    for (const double at : {0.4e-3, 1.1e-3, 1.9e-3}) {
        if (t >= at && t < at + 15e-6) {
            return 5.0;
        }
    }
    return 0.0;
}

}  // namespace

int main() {
    using namespace amsvp;

    netlist::CircuitBuilder cb("knock_sensor");
    cb.ground("gnd");
    cb.voltage_source("VIN", "in", "gnd", "u0");
    cb.resistor("R1", "in", "n1", 50.0);
    cb.inductor("L1", "n1", "n2", 1e-3);
    cb.capacitor("C1", "n2", "gnd", 100e-9);
    const netlist::Circuit circuit = cb.build();

    std::string error;
    abstraction::AbstractionOptions options;
    options.timestep = 50e-9;
    auto model = abstraction::abstract_circuit(circuit, {{"n2", "gnd"}}, options, &error);
    if (!model) {
        std::fprintf(stderr, "abstraction failed: %s\n", error.c_str());
        return 1;
    }

    std::printf("knock sensor: series RLC tank (f0 = 15.9 kHz, Q = 2), 3 taps, 2.5 ms\n\n");
    std::printf("%-20s %12s %14s  %s\n", "integration", "wall [s]", "instructions",
                "UART report");

    bool agree = true;
    std::optional<vp::PlatformResult> first;
    for (const auto integration :
         {vp::AnalogIntegration::kVamsCosim, vp::AnalogIntegration::kEln,
          vp::AnalogIntegration::kCpp}) {
        vp::PlatformConfig config;
        config.integration = integration;
        config.circuit = &circuit;
        config.model = &*model;
        config.stimuli = {{"u0", knocks}};
        config.observed_pos = "n2";
        config.observed_neg = "gnd";
        config.firmware = kKnockFirmware;
        const vp::PlatformResult result = vp::run_platform(config, 2.5e-3);
        std::printf("%-20s %12.4f %14llu  \"%s\"\n",
                    std::string(to_string(integration)).c_str(), result.wall_seconds,
                    static_cast<unsigned long long>(result.instructions),
                    result.uart_output.c_str());
        if (!first) {
            first = result;
        }
        if (result.uart_output != "KKK" || result.instructions != first->instructions ||
            result.adc_conversions != first->adc_conversions) {
            agree = false;
        }
    }
    std::printf("\nthree taps -> three 'K's, independent of the integration style.\n");
    if (!agree) {
        std::fprintf(stderr, "a row missed the \"KKK\" report or disagrees on instructions "
                             "or ADC conversions\n");
        return 1;
    }
    return 0;
}
