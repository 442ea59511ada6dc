// The default executor: an empty backends::AnalogSetup::executor_factory
// runs the model's scalar ORC kernel from runtime::ModelCache::global(),
// compiled once by the model's first executor on the calling thread, or
// the fused interpreter when the kernel cannot be had. Its runs must equal
// runs with an explicit interpreter factory — platform counts and UART
// text, isolated traces bit for bit — and the cache must compile a model
// once however many runs and threads ask. The suite names ride the `jit`
// label, and with it the TSan arm; the fault case also rides `robustness`.
// In an AMSVP_WITH_LLVM=OFF build every executor is the interpreter, and
// the tests check that instead.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "backends/runner.hpp"
#include "codegen/orc_jit.hpp"
#include "netlist/builder.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/sweep_service.hpp"
#include "support/fault.hpp"
#include "vp/platform.hpp"

namespace amsvp {
namespace {

using backends::AnalogIntegration;

constexpr AnalogIntegration kGenerated[] = {AnalogIntegration::kCpp, AnalogIntegration::kDe,
                                            AnalogIntegration::kTdf};

abstraction::SignalFlowModel abstract(const netlist::Circuit& circuit, double timestep = 50e-9) {
    abstraction::AbstractionOptions options;
    options.timestep = timestep;
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, options, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return std::move(*model);
}

runtime::ExecutorFactory interpreter_factory() {
    return [](const abstraction::SignalFlowModel& model) {
        return std::make_unique<runtime::CompiledModel>(model);
    };
}

std::uint64_t compiles() { return codegen::orc_detail::orc_compile_invocations(); }

TEST(OrcJitDefaultExecutor, PlatformRowsEqualInterpreterRows) {
    const auto model = abstract(netlist::make_opamp());
    for (const AnalogIntegration integration : kGenerated) {
        SCOPED_TRACE(std::string(backends::to_string(integration)));
        vp::PlatformConfig config;
        config.integration = integration;
        config.model = &model;
        config.stimuli = {{"u0", numeric::square_wave(1e-4, -1.0, 1.0)}};
        const vp::PlatformResult cached = vp::run_platform(config, 2e-4);
        config.executor_factory = interpreter_factory();
        const vp::PlatformResult interpreted = vp::run_platform(config, 2e-4);
        EXPECT_FALSE(cached.uart_output.empty());
        EXPECT_EQ(cached.uart_output, interpreted.uart_output);
        EXPECT_EQ(cached.instructions, interpreted.instructions);
        EXPECT_EQ(cached.adc_conversions, interpreted.adc_conversions);
        EXPECT_EQ(cached.bus_reads, interpreted.bus_reads);
        EXPECT_EQ(cached.bus_writes, interpreted.bus_writes);
        EXPECT_EQ(cached.kernel.process_activations, interpreted.kernel.process_activations);
        EXPECT_EQ(cached.kernel.delta_cycles, interpreted.kernel.delta_cycles);
        EXPECT_EQ(cached.kernel.timed_events, interpreted.kernel.timed_events);
        EXPECT_EQ(cached.kernel.channel_updates, interpreted.kernel.channel_updates);
    }
}

TEST(OrcJitDefaultExecutor, IsolatedTracesAreBitIdentical) {
    const netlist::Circuit circuits[] = {netlist::make_rc_ladder(1), netlist::make_rc_ladder(20),
                                         netlist::make_two_inputs(), netlist::make_opamp()};
    for (const netlist::Circuit& circuit : circuits) {
        SCOPED_TRACE(circuit.name());
        const auto model = abstract(circuit);
        backends::AnalogSetup setup;
        setup.model = &model;
        setup.stimuli = {{"u0", numeric::square_wave(1e-4)},
                         {"u1", numeric::square_wave(1e-4, 0.0, 0.5)}};
        for (const AnalogIntegration integration : kGenerated) {
            SCOPED_TRACE(std::string(backends::to_string(integration)));
            setup.executor_factory = nullptr;
            const backends::BackendRun cached = backends::run_isolated(integration, setup, 2e-4);
            setup.executor_factory = interpreter_factory();
            const backends::BackendRun interpreted =
                backends::run_isolated(integration, setup, 2e-4);
            ASSERT_GT(cached.trace.size(), 0u);
            ASSERT_EQ(cached.trace.size(), interpreted.trace.size());
            EXPECT_EQ(cached.trace.step(), interpreted.trace.step());
            EXPECT_EQ(cached.trace.start_time(), interpreted.trace.start_time());
            EXPECT_EQ(std::memcmp(cached.trace.samples().data(),
                                  interpreted.trace.samples().data(),
                                  cached.trace.size() * sizeof(double)),
                      0);
        }
    }
}

TEST(OrcJitDefaultExecutor, SecondRunOfAModelCompilesNothing) {
    // RC6 at 40 ns: no other test runs this model, so the first run finds
    // it uncached in the global cache.
    const auto model = abstract(netlist::make_rc_ladder(6), 40e-9);
    backends::AnalogSetup setup;
    setup.model = &model;
    setup.stimuli = {{"u0", numeric::square_wave(1e-4)}};
    runtime::ModelCache& cache = runtime::ModelCache::global();
    const runtime::ModelCache::Stats before = cache.stats();
    const std::uint64_t compiles_before = compiles();

    (void)backends::run_isolated(AnalogIntegration::kCpp, setup, 1e-5);
    const std::uint64_t compiles_after_first = compiles();
    EXPECT_EQ(compiles_after_first - compiles_before, codegen::orc_available() ? 1u : 0u);

    (void)backends::run_isolated(AnalogIntegration::kDe, setup, 1e-5);
    EXPECT_EQ(compiles(), compiles_after_first);

    const runtime::ModelCache::Stats after = cache.stats();
    if (codegen::orc_available()) {
        EXPECT_EQ(after.scalar_misses - before.scalar_misses, 1u);
        EXPECT_EQ(after.scalar_hits - before.scalar_hits, 1u);
        EXPECT_EQ(after.scalar_fallbacks, before.scalar_fallbacks);
    } else {
        EXPECT_EQ(after.scalar_fallbacks - before.scalar_fallbacks, 2u);
    }
}

TEST(OrcJitDefaultExecutor, EightThreadsShareOneCompile) {
    const auto model = abstract(netlist::make_rc_ladder(4), 45e-9);
    runtime::ModelCache cache;
    constexpr int kThreads = 8;
    std::vector<std::unique_ptr<runtime::ModelExecutor>> executors(kThreads);
    std::atomic<int> ready{0};
    const std::uint64_t compiles_before = compiles();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Start together, so the requests overlap the one compile.
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
                std::this_thread::yield();
            }
            executors[static_cast<std::size_t>(t)] = cache.scalar_executor(model);
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }

    const runtime::ModelCache::Stats stats = cache.stats();
    if (!codegen::orc_available()) {
        EXPECT_EQ(stats.scalar_fallbacks, static_cast<std::uint64_t>(kThreads));
        return;
    }
    EXPECT_EQ(compiles() - compiles_before, 1u);
    EXPECT_EQ(stats.scalar_misses, 1u);
    EXPECT_EQ(stats.scalar_hits, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(stats.scalar_fallbacks, 0u);

    const auto* first = dynamic_cast<const codegen::OrcModel*>(executors.front().get());
    ASSERT_NE(first, nullptr);
    runtime::CompiledModel reference(model);
    for (int k = 1; k <= 50; ++k) {
        reference.set_input(0, 1.0);
        reference.step(k * model.timestep);
    }
    for (const auto& executor : executors) {
        const auto* orc = dynamic_cast<const codegen::OrcModel*>(executor.get());
        ASSERT_NE(orc, nullptr);
        EXPECT_EQ(orc->program(), first->program());
        for (int k = 1; k <= 50; ++k) {
            executor->set_input(0, 1.0);
            executor->step(k * model.timestep);
        }
        EXPECT_EQ(executor->output(0), reference.output(0));
    }
}

/// Resets the fault registry, fire counts included: it is process-global,
/// and the suites that share this process count fires.
class FaultInjectionOrcScalar : public ::testing::Test {
protected:
    void TearDown() override { support::fault::reset(); }
};

TEST_F(FaultInjectionOrcScalar, MaterializeFaultYieldsInterpreterAndIsNotCached) {
    const auto model = abstract(netlist::make_rc_ladder(2), 55e-9);
    runtime::ModelCache cache;

    support::fault::arm("jit.orc_materialize", support::fault::Trigger::kAlways);
    const auto degraded = cache.scalar_executor(model);
    support::fault::disarm("jit.orc_materialize");
    EXPECT_EQ(dynamic_cast<const codegen::OrcModel*>(degraded.get()), nullptr);
    EXPECT_NE(dynamic_cast<const runtime::CompiledModel*>(degraded.get()), nullptr);
    EXPECT_EQ(cache.stats().scalar_fallbacks, 1u);

    // The failure was not cached: the next request compiles again and, with
    // LLVM, gets the kernel.
    const std::uint64_t compiles_before = compiles();
    const auto recovered = cache.scalar_executor(model);
    const bool kernel = codegen::orc_available();
    EXPECT_EQ(dynamic_cast<const codegen::OrcModel*>(recovered.get()) != nullptr, kernel);
    EXPECT_EQ(compiles() - compiles_before, kernel ? 1u : 0u);
    EXPECT_EQ(cache.stats().scalar_misses, kernel ? 1u : 0u);

    for (int k = 1; k <= 100; ++k) {
        const double u = k % 20 < 10 ? 1.0 : -1.0;
        degraded->set_input(0, u);
        recovered->set_input(0, u);
        degraded->step(k * model.timestep);
        recovered->step(k * model.timestep);
        ASSERT_EQ(degraded->output(0), recovered->output(0)) << "step " << k;
    }
}

}  // namespace
}  // namespace amsvp
