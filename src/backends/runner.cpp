#include "backends/runner.hpp"

#include <chrono>
#include <optional>

#include "runtime/simulate.hpp"
#include "runtime/sweep_service.hpp"
#include "support/check.hpp"

namespace amsvp::backends {

using Clock = std::chrono::steady_clock;

std::string_view to_string(AnalogIntegration integration) {
    switch (integration) {
        case AnalogIntegration::kVamsCosim:
            return "Verilog-AMS";
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

const std::vector<AnalogIntegration>& all_backends() {
    static const std::vector<AnalogIntegration> kAll = {
        AnalogIntegration::kVamsCosim, AnalogIntegration::kEln, AnalogIntegration::kTdf,
        AnalogIntegration::kDe, AnalogIntegration::kCpp};
    return kAll;
}

std::unique_ptr<runtime::ModelExecutor> make_executor(const AnalogSetup& setup) {
    AMSVP_CHECK(setup.model != nullptr, "generated-model styles need the abstracted model");
    if (setup.executor_factory) {
        return setup.executor_factory(*setup.model);
    }
    return runtime::ModelCache::global().scalar_executor(*setup.model);
}

std::vector<const numeric::SourceFunction*> input_stimuli(const AnalogSetup& setup) {
    AMSVP_CHECK(setup.model != nullptr, "generated-model styles need the abstracted model");
    std::vector<const numeric::SourceFunction*> sources;
    for (const expr::Symbol& in : setup.model->inputs) {
        sources.push_back(&numeric::stimulus_for(setup.stimuli, in.name));
    }
    return sources;
}

KernelAnalog::KernelAnalog(de::Simulator& sim, AnalogIntegration integration,
                           const AnalogSetup& setup) {
    if (integration == AnalogIntegration::kVamsCosim ||
        integration == AnalogIntegration::kEln) {
        AMSVP_CHECK(setup.circuit != nullptr, "cosim and ELN need the conservative circuit");
        if (integration == AnalogIntegration::kVamsCosim) {
            spice::SpiceOptions options = setup.spice;
            options.timestep = setup.timestep;
            coupler_ = std::make_unique<cosim::CosimCoupler>(
                sim, *setup.circuit, options, setup.stimuli, setup.observed_pos,
                setup.observed_neg);
            output_ = &coupler_->output();
        } else {
            eln_ = std::make_unique<eln::ElnDeModule>(sim, *setup.circuit, setup.timestep,
                                                      setup.stimuli, setup.observed_pos,
                                                      setup.observed_neg);
            output_ = &eln_->output();
        }
        return;
    }
    AMSVP_CHECK(integration != AnalogIntegration::kCpp, "kCpp runs without the kernel");
    const std::vector<const numeric::SourceFunction*> stimuli = input_stimuli(setup);
    const abstraction::SignalFlowModel& model = *setup.model;
    if (integration == AnalogIntegration::kTdf) {
        // Embedded in the DE kernel, as SystemC-AMS embeds TDF clusters.
        cluster_ = std::make_unique<tdf::TdfCluster>();
        tdf_model_ = std::make_unique<TdfModel>("dut", model, make_executor(setup));
        tdf_sink_ = std::make_unique<TdfSink>("sink");
        cluster_->add(*tdf_model_);
        cluster_->add(*tdf_sink_);
        for (std::size_t i = 0; i < stimuli.size(); ++i) {
            tdf_sources_.push_back(
                std::make_unique<TdfSource>("src" + std::to_string(i), *stimuli[i]));
            cluster_->add(*tdf_sources_.back());
            cluster_->connect(tdf_sources_.back()->out, tdf_model_->input(i));
        }
        cluster_->connect(tdf_model_->output(0), tdf_sink_->in);
        cluster_->set_timestep(*tdf_model_, model.timestep);
        const bool ok = cluster_->elaborate();
        AMSVP_CHECK(ok, "TDF elaboration failed");
        cluster_->attach(sim);
        return;
    }
    clock_ = std::make_unique<de::Clock>(sim, "aclk", de::from_seconds(model.timestep));
    std::vector<de::Signal<double>*> inputs;
    for (std::size_t i = 0; i < stimuli.size(); ++i) {
        de_sources_.push_back(
            std::make_unique<DeSource>(sim, *clock_, "src" + std::to_string(i), *stimuli[i]));
        inputs.push_back(&de_sources_.back()->out());
    }
    de_model_ = std::make_unique<DeModel>(sim, *clock_, "dut", model, std::move(inputs),
                                          make_executor(setup));
    output_ = &de_model_->output(0);
}

const numeric::Waveform& KernelAnalog::trace() const {
    if (coupler_ != nullptr) {
        return coupler_->trace();
    }
    if (eln_ != nullptr) {
        return eln_->trace();
    }
    AMSVP_CHECK(tdf_sink_ != nullptr, "a DE module keeps no trace; attach a DeSink");
    return tdf_sink_->trace();
}

BackendRun run_isolated(AnalogIntegration integration, const AnalogSetup& setup,
                        double duration) {
    BackendRun run;
    if (integration == AnalogIntegration::kCpp) {
        const std::unique_ptr<runtime::ModelExecutor> executor = make_executor(setup);
        const auto start = Clock::now();
        runtime::TransientResult result =
            runtime::simulate_transient(*executor, setup.model->inputs, setup.stimuli, duration);
        run.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
        run.trace = std::move(result.outputs.front());
        return run;
    }
    de::Simulator sim;
    KernelAnalog analog(sim, integration, setup);
    de::Time end = de::from_seconds(duration);
    std::optional<DeSink> sink;
    if (integration == AnalogIntegration::kDe) {
        // The sink samples on falling edges: half a period past the end it
        // has recorded the final rising-edge value.
        sink.emplace(sim, analog.de_clock(), analog.de_output());
        end += analog.de_clock().period() / 2;
    }
    const auto start = Clock::now();
    sim.run_until(end);
    run.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    run.trace = sink ? sink->trace() : analog.trace();
    return run;
}

}  // namespace amsvp::backends
