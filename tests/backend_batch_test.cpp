// Batched MoC wrappers: one BatchDeModel / BatchTdfModel time-multiplexes
// N analog instances through a single kernel activation per timestep, and
// every lane matches the corresponding scalar wrapper bit-for-bit.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "backends/de_modules.hpp"
#include "backends/tdf_modules.hpp"
#include "netlist/builder.hpp"
#include "numeric/sources.hpp"

namespace amsvp::backends {
namespace {

constexpr int kLanes = 8;
constexpr int kSteps = 400;

abstraction::SignalFlowModel ladder_model(int stages) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(stages);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return std::move(*model);
}

/// Lane l's stimulus: distinct amplitude and frequency, so every lane's
/// trace is different and a lane mix-up cannot cancel out.
numeric::SourceFunction lane_stimulus(int lane) {
    return numeric::sine_wave(1000.0 * (lane + 1), 0.5 + 0.25 * lane);
}

TEST(BatchDeModel, DeKernelPlatformRunsEightLanesBitForBitWithOneActivation) {
    const auto model = ladder_model(3);
    const auto period = de::from_seconds(model.timestep);
    const auto duration = period * kSteps;

    // Scalar reference: kLanes independent DeModel processes in one kernel.
    de::Simulator scalar_sim;
    de::Clock scalar_clock(scalar_sim, "clk", period);
    std::vector<std::unique_ptr<DeSource>> scalar_sources;
    std::vector<std::unique_ptr<DeModel>> scalar_models;
    std::vector<std::unique_ptr<DeSink>> scalar_sinks;
    for (int l = 0; l < kLanes; ++l) {
        scalar_sources.push_back(std::make_unique<DeSource>(
            scalar_sim, scalar_clock, "src" + std::to_string(l), lane_stimulus(l)));
        scalar_models.push_back(std::make_unique<DeModel>(
            scalar_sim, scalar_clock, "lane" + std::to_string(l), model,
            std::vector<de::Signal<double>*>{&scalar_sources.back()->out()}));
        scalar_sinks.push_back(std::make_unique<DeSink>(scalar_sim, scalar_clock,
                                                        scalar_models.back()->output(0)));
    }
    scalar_sim.run_until(duration);

    // Batched platform: same stimuli, one model process for all lanes.
    de::Simulator batch_sim;
    de::Clock batch_clock(batch_sim, "clk", period);
    std::vector<std::unique_ptr<DeSource>> batch_sources;
    std::vector<std::vector<de::Signal<double>*>> lane_inputs;
    for (int l = 0; l < kLanes; ++l) {
        batch_sources.push_back(std::make_unique<DeSource>(
            batch_sim, batch_clock, "src" + std::to_string(l), lane_stimulus(l)));
        lane_inputs.push_back({&batch_sources.back()->out()});
    }
    const std::size_t processes_before = batch_sim.process_count();
    BatchDeModel batched(batch_sim, batch_clock, "batched", model, std::move(lane_inputs));
    EXPECT_EQ(batch_sim.process_count(), processes_before + 1)
        << "the batch must be one kernel process, not one per lane";
    std::vector<std::unique_ptr<DeSink>> batch_sinks;
    for (int l = 0; l < kLanes; ++l) {
        batch_sinks.push_back(
            std::make_unique<DeSink>(batch_sim, batch_clock, batched.output(l, 0)));
    }
    batch_sim.run_until(duration);

    // One activation per timestep for the whole batch.
    EXPECT_EQ(batched.activations(), batch_clock.posedge_count());
    EXPECT_EQ(batched.lanes(), kLanes);

    for (int l = 0; l < kLanes; ++l) {
        const numeric::Waveform& expected = scalar_sinks[l]->trace();
        const numeric::Waveform& actual = batch_sinks[l]->trace();
        ASSERT_EQ(expected.size(), actual.size()) << "lane " << l;
        ASSERT_GE(expected.size(), static_cast<std::size_t>(kSteps - 1));
        for (std::size_t k = 0; k < expected.size(); ++k) {
            ASSERT_EQ(expected.value(k), actual.value(k))
                << "lane " << l << " sample " << k;
        }
    }
}

TEST(BatchTdfModel, LanesMatchScalarModulesBitForBit) {
    const auto model = ladder_model(2);
    const double dt = model.timestep;
    const double duration = dt * kSteps;

    // Scalar reference cluster: kLanes independent TdfModel modules.
    tdf::TdfCluster scalar_cluster;
    std::vector<std::unique_ptr<TdfSource>> scalar_sources;
    std::vector<std::unique_ptr<TdfModel>> scalar_models;
    std::vector<std::unique_ptr<TdfSink>> scalar_sinks;
    for (int l = 0; l < kLanes; ++l) {
        scalar_sources.push_back(
            std::make_unique<TdfSource>("src" + std::to_string(l), lane_stimulus(l)));
        scalar_models.push_back(
            std::make_unique<TdfModel>("lane" + std::to_string(l), model));
        scalar_sinks.push_back(std::make_unique<TdfSink>("sink" + std::to_string(l)));
        scalar_cluster.add(*scalar_sources.back());
        scalar_cluster.add(*scalar_models.back());
        scalar_cluster.add(*scalar_sinks.back());
        scalar_cluster.connect(scalar_sources.back()->out, scalar_models.back()->input(0));
        scalar_cluster.connect(scalar_models.back()->output(0), scalar_sinks.back()->in);
    }
    scalar_cluster.set_timestep(*scalar_models.front(), dt);
    std::string error;
    ASSERT_TRUE(scalar_cluster.elaborate(&error)) << error;
    scalar_cluster.run(duration);

    // Batched cluster: one module fires once per timestep for all lanes.
    tdf::TdfCluster batch_cluster;
    BatchTdfModel batched("batched", model, kLanes);
    std::vector<std::unique_ptr<TdfSource>> batch_sources;
    std::vector<std::unique_ptr<TdfSink>> batch_sinks;
    batch_cluster.add(batched);
    for (int l = 0; l < kLanes; ++l) {
        batch_sources.push_back(
            std::make_unique<TdfSource>("src" + std::to_string(l), lane_stimulus(l)));
        batch_sinks.push_back(std::make_unique<TdfSink>("sink" + std::to_string(l)));
        batch_cluster.add(*batch_sources.back());
        batch_cluster.add(*batch_sinks.back());
        batch_cluster.connect(batch_sources.back()->out, batched.input(l, 0));
        batch_cluster.connect(batched.output(l, 0), batch_sinks.back()->in);
    }
    batch_cluster.set_timestep(batched, dt);
    ASSERT_TRUE(batch_cluster.elaborate(&error)) << error;
    batch_cluster.run(duration);

    // One firing of the batched module covers all lanes.
    EXPECT_EQ(batched.firing_count(), static_cast<std::uint64_t>(kSteps));

    for (int l = 0; l < kLanes; ++l) {
        const numeric::Waveform& expected = scalar_sinks[l]->trace();
        const numeric::Waveform& actual = batch_sinks[l]->trace();
        ASSERT_EQ(expected.size(), actual.size()) << "lane " << l;
        for (std::size_t k = 0; k < expected.size(); ++k) {
            ASSERT_EQ(expected.value(k), actual.value(k))
                << "lane " << l << " sample " << k;
        }
    }
}

TEST(BatchDeModel, SharedLayoutConstructorReusesOneCompile) {
    const auto model = ladder_model(1);
    const auto layout = runtime::ModelLayout::compile(model);
    de::Simulator sim;
    de::Clock clock(sim, "clk", de::from_seconds(model.timestep));
    DeSource source(sim, clock, "src", numeric::square_wave(1e-3));
    std::vector<std::vector<de::Signal<double>*>> inputs(4, {&source.out()});
    BatchDeModel batched(sim, clock, "batched", layout, std::move(inputs));
    EXPECT_EQ(batched.batch().layout().get(), layout.get());
    sim.run_until(de::from_seconds(model.timestep) * 50);
    // All lanes see the same stimulus: identical outputs.
    for (int l = 1; l < batched.lanes(); ++l) {
        EXPECT_EQ(batched.output(0, 0).read(), batched.output(l, 0).read());
    }
}

}  // namespace
}  // namespace amsvp::backends
