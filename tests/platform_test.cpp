#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <stdexcept>
#include <string>

#include "abstraction/abstraction.hpp"
#include "codegen/orc_jit.hpp"
#include "netlist/builder.hpp"
#include "vp/platform.hpp"

namespace amsvp::vp {
namespace {

struct Fixture {
    Fixture() : circuit(netlist::make_rc_ladder(1)) {
        std::string error;
        auto m = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
        EXPECT_TRUE(m.has_value()) << error;
        model = std::move(*m);
    }

    PlatformConfig config(AnalogIntegration integration) const {
        PlatformConfig c;
        c.integration = integration;
        c.circuit = &circuit;
        c.model = &model;
        // Square wave through the RC: the filtered output crosses mid-scale
        // every half period, so the monitor reports transitions.
        c.stimuli = {{"u0", numeric::square_wave(2e-4, -3.0, 3.0)}};
        c.spice.internal_substeps = 2;  // keep the cosim row quick in tests
        return c;
    }

    netlist::Circuit circuit;
    abstraction::SignalFlowModel model;
};

TEST(Platform, PureCppRunsFirmwareAndReportsTransitions) {
    const Fixture f;
    const PlatformResult result = run_platform(f.config(AnalogIntegration::kCpp), 1e-3);
    EXPECT_GT(result.instructions, 1000u);
    EXPECT_GT(result.adc_conversions, 10u);
    EXPECT_FALSE(result.uart_output.empty());
    // The report must alternate between '0' and '1'.
    for (std::size_t i = 1; i < result.uart_output.size(); ++i) {
        EXPECT_NE(result.uart_output[i], result.uart_output[i - 1]);
    }
    for (const char ch : result.uart_output) {
        EXPECT_TRUE(ch == '0' || ch == '1');
    }
}

class PlatformIntegrations : public ::testing::TestWithParam<AnalogIntegration> {};

TEST_P(PlatformIntegrations, RunsAndTalksOnUart) {
    const Fixture f;
    const PlatformResult result = run_platform(f.config(GetParam()), 5e-4);
    EXPECT_GT(result.instructions, 100u);
    EXPECT_GT(result.adc_conversions, 0u);
    EXPECT_FALSE(result.uart_output.empty());
    EXPECT_GT(result.apb_transfers, 0u);
}

std::string integration_name(const ::testing::TestParamInfo<AnalogIntegration>& info) {
    std::string name(to_string(info.param));
    for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
            c = '_';
        }
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    All, PlatformIntegrations,
    ::testing::Values(AnalogIntegration::kVamsCosim, AnalogIntegration::kEln,
                      AnalogIntegration::kTdf, AnalogIntegration::kDe,
                      AnalogIntegration::kCpp),
    integration_name);

TEST(Platform, UartOutputIdenticalAcrossIntegrations) {
    // The whole point of the methodology: integrating the abstracted model
    // must not change what the software observes.
    const Fixture f;
    const std::string reference =
        run_platform(f.config(AnalogIntegration::kCpp), 1e-3).uart_output;
    ASSERT_FALSE(reference.empty());

    for (const auto integration :
         {AnalogIntegration::kEln, AnalogIntegration::kTdf, AnalogIntegration::kDe}) {
        const PlatformResult result = run_platform(f.config(integration), 1e-3);
        EXPECT_EQ(result.uart_output, reference)
            << "integration " << to_string(integration) << " diverged";
    }
    // The conservative co-simulation integrates at a finer internal step, so
    // tiny timing differences at the threshold are possible; require the
    // same transition count rather than bit-identical timing.
    const PlatformResult cosim = run_platform(f.config(AnalogIntegration::kVamsCosim), 1e-3);
    EXPECT_NEAR(static_cast<double>(cosim.uart_output.size()),
                static_cast<double>(reference.size()), 1.0);
}

TEST(Platform, RtlFidelityGeneratesMoreKernelActivity) {
    const Fixture f;
    PlatformConfig tlm = f.config(AnalogIntegration::kEln);
    tlm.fidelity = DigitalFidelity::kTlm;
    PlatformConfig rtl = f.config(AnalogIntegration::kEln);
    rtl.fidelity = DigitalFidelity::kRtl;

    const PlatformResult tlm_result = run_platform(tlm, 2e-4);
    const PlatformResult rtl_result = run_platform(rtl, 2e-4);
    EXPECT_EQ(tlm_result.uart_output, rtl_result.uart_output);
    EXPECT_GT(rtl_result.kernel.channel_updates, tlm_result.kernel.channel_updates);
}

TEST(Platform, KernelCountsArePinned) {
    // The kernel is deterministic, so its counts for one platform run are
    // exact: a change to event ordering, delta cycles or channel updates
    // shows here. OA filter, 0.1 ms +-1 V square wave, 0.2 ms simulated.
    const netlist::Circuit circuit = netlist::make_opamp();
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    struct Pinned {
        AnalogIntegration integration;
        DigitalFidelity fidelity;
        de::KernelStats kernel;  ///< activations, delta cycles, timed events, updates
    };
    const Pinned pinned[] = {
        {AnalogIntegration::kVamsCosim, DigitalFidelity::kTlm, {4000, 7999, 11999, 11999}},
        {AnalogIntegration::kVamsCosim, DigitalFidelity::kRtl, {4000, 7999, 11999, 16994}},
        {AnalogIntegration::kEln, DigitalFidelity::kTlm, {4000, 7999, 11999, 11999}},
        {AnalogIntegration::kEln, DigitalFidelity::kRtl, {4000, 7999, 11999, 16994}},
        {AnalogIntegration::kTdf, DigitalFidelity::kTlm, {4000, 7999, 11999, 7999}},
        {AnalogIntegration::kTdf, DigitalFidelity::kRtl, {4000, 7999, 11999, 12994}},
        {AnalogIntegration::kDe, DigitalFidelity::kTlm, {11999, 7999, 15998, 23997}},
        {AnalogIntegration::kDe, DigitalFidelity::kRtl, {11999, 7999, 15998, 28992}},
    };
    for (const Pinned& p : pinned) {
        SCOPED_TRACE(std::string(to_string(p.integration)) +
                     (p.fidelity == DigitalFidelity::kTlm ? " TLM" : " RTL"));
        PlatformConfig config;
        config.integration = p.integration;
        config.fidelity = p.fidelity;
        config.circuit = &circuit;
        config.model = &*model;
        config.stimuli = {{"u0", numeric::square_wave(1e-4, -1.0, 1.0)}};
        const PlatformResult result = run_platform(config, 2e-4);
        EXPECT_EQ(result.kernel.process_activations, p.kernel.process_activations);
        EXPECT_EQ(result.kernel.delta_cycles, p.kernel.delta_cycles);
        EXPECT_EQ(result.kernel.timed_events, p.kernel.timed_events);
        EXPECT_EQ(result.kernel.channel_updates, p.kernel.channel_updates);
        EXPECT_EQ(result.instructions, 4000u);
        EXPECT_EQ(result.adc_conversions, 329u);
        EXPECT_EQ(result.bus_reads, 4662u);
        EXPECT_EQ(result.bus_writes, 333u);
        EXPECT_EQ(result.uart_output, "0101");
    }
}

TEST(Platform, OrcScalarKernelRowsMatchTheInterpreter) {
    // The Table III C++ and SC-DE rows step the scalar ORC kernel (the
    // interpreter in a build without LLVM): the firmware must observe
    // exactly what it observes over the interpreter.
    const netlist::Circuit circuit = netlist::make_opamp();
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;
    for (const auto integration : {AnalogIntegration::kCpp, AnalogIntegration::kDe}) {
        SCOPED_TRACE(std::string(to_string(integration)));
        PlatformConfig config;
        config.integration = integration;
        config.circuit = &circuit;
        config.model = &*model;
        config.stimuli = {{"u0", numeric::square_wave(1e-4, -1.0, 1.0)}};
        const PlatformResult interpreted = run_platform(config, 2e-4);
        config.executor_factory = codegen::orc_executor_factory();
        const PlatformResult compiled = run_platform(config, 2e-4);
        EXPECT_EQ(compiled.instructions, interpreted.instructions);
        EXPECT_EQ(compiled.adc_conversions, interpreted.adc_conversions);
        EXPECT_EQ(compiled.uart_output, interpreted.uart_output);
        EXPECT_FALSE(compiled.uart_output.empty());
    }
}

TEST(Platform, RejectsNegativeOrNonFiniteDuration) {
    const Fixture f;
    for (const auto integration : {AnalogIntegration::kDe, AnalogIntegration::kCpp}) {
        SCOPED_TRACE(std::string(to_string(integration)));
        const PlatformConfig config = f.config(integration);
        EXPECT_DEATH((void)run_platform(config, -1e-3), "finite and non-negative");
        EXPECT_DEATH((void)run_platform(config, std::nan("")), "finite and non-negative");
        EXPECT_DEATH((void)run_platform(config, HUGE_VAL), "finite and non-negative");
        // Finite but beyond the kernel's 2^64 fs range: rejected, not wrapped
        // or cast, by the kernel rows and the pure-C++ platform alike.
        EXPECT_DEATH((void)run_platform(config, 2e5), "below 2\\^64 fs");
        EXPECT_DEATH((void)run_platform(config, 1e30), "below 2\\^64 fs");
    }
}

TEST(Platform, MissingStimulusThrows) {
    // A model input without a stimulus is a diagnostic naming the input,
    // under every integration, raised before the run starts.
    const Fixture f;
    for (const AnalogIntegration integration : backends::all_backends()) {
        SCOPED_TRACE(std::string(to_string(integration)));
        PlatformConfig config = f.config(integration);
        config.stimuli.clear();
        EXPECT_THROW(
            {
                try {
                    (void)run_platform(config, 1e-4);
                } catch (const std::invalid_argument& e) {
                    EXPECT_NE(std::string(e.what()).find("u0"), std::string::npos);
                    throw;
                }
            },
            std::invalid_argument);
    }
}

TEST(Platform, GeneratedRowsStepAtTheModelTimestep) {
    // Every generated-model row steps at model->timestep, the pure-C++
    // platform included: RC1 abstracted at 200 ns is four CPU cycles per
    // step, and the software must observe the same signal in each row.
    const netlist::Circuit circuit = netlist::make_rc_ladder(1);
    abstraction::AbstractionOptions options;
    options.timestep = 200e-9;
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, options, &error);
    ASSERT_TRUE(model.has_value()) << error;

    PlatformConfig config;
    config.model = &*model;
    config.stimuli = {{"u0", numeric::square_wave(250e-6, -1.0, 3.0)}};
    config.integration = AnalogIntegration::kCpp;
    const PlatformResult cpp = run_platform(config, 2e-3);
    EXPECT_EQ(cpp.uart_output, "01");
    for (const auto integration : {AnalogIntegration::kTdf, AnalogIntegration::kDe}) {
        SCOPED_TRACE(std::string(to_string(integration)));
        config.integration = integration;
        const PlatformResult result = run_platform(config, 2e-3);
        EXPECT_EQ(result.instructions, cpp.instructions);
        EXPECT_EQ(result.adc_conversions, cpp.adc_conversions);
        EXPECT_EQ(result.uart_output, cpp.uart_output);
    }
}

TEST(Platform, CustomFirmwareRuns) {
    const Fixture f;
    PlatformConfig config = f.config(AnalogIntegration::kCpp);
    config.firmware = R"(
        li   $t1, 0x10000000
        li   $t0, 0x48          # 'H'
        sw   $t0, 0($t1)
        li   $t0, 0x49          # 'I'
        sw   $t0, 0($t1)
        halt
    )";
    const PlatformResult result = run_platform(config, 1e-4);
    EXPECT_EQ(result.uart_output, "HI");
}

TEST(Platform, BadFirmwareThrowsTheAssemblerDiagnostics) {
    const Fixture f;
    PlatformConfig config = f.config(AnalogIntegration::kCpp);
    config.firmware = "        frobnicate $t0, $t1\n";
    EXPECT_THROW(
        {
            try {
                (void)run_platform(config, 1e-4);
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
                throw;
            }
        },
        std::invalid_argument);
}

TEST(Platform, UnmappedBusAccessThrowsNamingTheAddress) {
    const Fixture f;
    for (const auto integration : {AnalogIntegration::kCpp, AnalogIntegration::kDe}) {
        SCOPED_TRACE(std::string(to_string(integration)));
        PlatformConfig config = f.config(integration);
        config.firmware = R"(
            li   $t0, 0x20000000
            lw   $t1, 0($t0)
            halt
        )";
        EXPECT_THROW(
            {
                try {
                    (void)run_platform(config, 1e-4);
                } catch (const std::runtime_error& e) {
                    EXPECT_NE(std::string(e.what()).find("0x20000000"), std::string::npos);
                    throw;
                }
            },
            std::runtime_error);
    }
}

/// Run `firmware` under kCpp and kDe and expect run_platform to throw a
/// std::runtime_error whose text is exactly `message`.
void expect_firmware_error(const char* firmware, const std::string& message,
                           std::initializer_list<AnalogIntegration> integrations = {
                               AnalogIntegration::kCpp, AnalogIntegration::kDe}) {
    const Fixture f;
    for (const auto integration : integrations) {
        SCOPED_TRACE(std::string(to_string(integration)) + ": " + firmware);
        PlatformConfig config = f.config(integration);
        config.firmware = firmware;
        try {
            (void)run_platform(config, 1e-4);
            ADD_FAILURE() << "no exception; expected: " << message;
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), message);
        }
    }
}

TEST(Platform, WordStraddlingRamsEndThrowsNamingTheAddress) {
    expect_firmware_error("li $t0, 0xFFFE\nlw $t1, 0($t0)\nhalt\n",
                          "bus: read from unmapped address 0x0000fffe");
    expect_firmware_error("li $t0, 0xFFFE\nsw $t0, 0($t0)\nhalt\n",
                          "bus: write to unmapped address 0x0000fffe");
    expect_firmware_error("li $t0, 0xFFFE\njr $t0\n",
                          "bus: read from unmapped address 0x0000fffe");
}

TEST(Platform, ApbAddressInNoSlotThrowsNamingTheAddress) {
    expect_firmware_error("li $t0, 0x10003000\nlw $t1, 0($t0)\nhalt\n",
                          "bus: read from unmapped address 0x10003000");
    expect_firmware_error("li $t0, 0x10003000\nsw $t0, 0($t0)\nhalt\n",
                          "bus: write to unmapped address 0x10003000");
    // Only the kernel platforms attach the timer at 0x10002000.
    expect_firmware_error("li $t0, 0x10002000\nlw $t1, 0($t0)\nhalt\n",
                          "bus: read from unmapped address 0x10002000",
                          {AnalogIntegration::kCpp});
}

TEST(Platform, UnimplementedInstructionThrowsNamingTheWordAndAddress) {
    expect_firmware_error(".word 0xFC000000\n",
                          "cpu: unimplemented instruction 0xfc000000 at 0x00000000");
    // Opcode 0 (R-type) with function code 0x01, which the CPU lacks, after
    // the two words `li` assembles to.
    expect_firmware_error("li $t0, 1\n.word 0x00000001\n",
                          "cpu: unimplemented instruction 0x00000001 at 0x00000008");
}

TEST(Platform, BusStatisticsAreCoherent) {
    const Fixture f;
    const PlatformResult result = run_platform(f.config(AnalogIntegration::kCpp), 2e-4);
    // Every instruction fetch is a bus read; loads add more.
    EXPECT_GE(result.bus_reads, result.instructions);
    EXPECT_GT(result.bus_writes, 0u);
    EXPECT_LE(result.apb_transfers, result.bus_reads + result.bus_writes);
}

TEST(Platform, BusReadsCountEveryFetchAndLoad) {
    // Eleven instructions, each fetched once through the RAM window; one
    // APB and one RAM load; one APB and one RAM store. The counts must not
    // depend on whether the CPU runs in a loop or under the DE kernel.
    const Fixture f;
    for (const auto integration : {AnalogIntegration::kCpp, AnalogIntegration::kDe}) {
        SCOPED_TRACE(std::string(to_string(integration)));
        PlatformConfig config = f.config(integration);
        config.firmware = R"(
            li   $t1, 0x10000000
            li   $t0, 0x48          # 'H'
            sw   $t0, 0($t1)
            lw   $t2, 4($t1)
            li   $t3, 0x100
            lw   $t4, 0($t3)
            sw   $t4, 4($t3)
            halt
        )";
        const PlatformResult result = run_platform(config, 1e-4);
        EXPECT_EQ(result.instructions, 11u);
        EXPECT_EQ(result.bus_reads, 13u);
        EXPECT_EQ(result.bus_writes, 2u);
        EXPECT_EQ(result.apb_transfers, 2u);
        EXPECT_EQ(result.uart_output, "H");
    }
}

}  // namespace
}  // namespace amsvp::vp
