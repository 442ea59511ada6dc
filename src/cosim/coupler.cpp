#include "cosim/coupler.hpp"

#include <cstring>
#include <stdexcept>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace amsvp::cosim {

namespace {

std::unique_ptr<spice::SpiceEngine> create_engine(const netlist::Circuit& circuit,
                                                  const spice::SpiceOptions& options) {
    std::string error;
    auto engine = spice::SpiceEngine::create(circuit, options, &error);
    if (!engine) {
        throw std::invalid_argument("cosim: " + error);
    }
    return std::make_unique<spice::SpiceEngine>(std::move(*engine));
}

}  // namespace

// The engine is created first: it rejects a bad timestep with a diagnostic
// before the period conversion would abort on it.
CosimCoupler::CosimCoupler(de::Simulator& sim, const netlist::Circuit& circuit,
                           const spice::SpiceOptions& options,
                           std::map<std::string, numeric::SourceFunction> stimuli,
                           std::string observed_pos, std::string observed_neg)
    : sim_(sim),
      engine_(create_engine(circuit, options)),
      trace_(options.timestep, options.timestep),
      period_(de::from_seconds(options.timestep)) {
    pos_ = circuit.observed_node(observed_pos, "cosim");
    neg_ = circuit.observed_node(observed_neg, "cosim");

    for (const std::string& name : engine_->input_names()) {
        sources_.push_back(numeric::stimulus_for(stimuli, name));
    }
    inputs_scratch_.assign(sources_.size(), 0.0);
    output_ = std::make_unique<de::Signal<double>>(sim, "cosim_out", 0.0);
    sim_.schedule_periodic(sim_.now() + period_, period_, [this] { synchronize(); });
}

void CosimCoupler::marshal(const std::vector<double>& values, Message& msg) {
    msg.sequence = ++sequence_;
    msg.payload.resize(values.size() * sizeof(double));
    std::memcpy(msg.payload.data(), values.data(), msg.payload.size());
    stats_.bytes_marshalled += msg.payload.size() + sizeof msg.sequence;
}

void CosimCoupler::unmarshal(const Message& msg, std::vector<double>& values) {
    values.resize(msg.payload.size() / sizeof(double));
    std::memcpy(values.data(), msg.payload.data(), msg.payload.size());
    stats_.bytes_marshalled += msg.payload.size() + sizeof msg.sequence;
}

void CosimCoupler::synchronize() {
    const double t = de::to_seconds(sim_.now());
    ++stats_.sync_points;

    // Digital -> analog: sample the stimuli and marshal them across the
    // simulator boundary. The scratch vectors are members so the per-sync
    // marshalling copies bytes (the modelled cost) without allocating.
    for (std::size_t i = 0; i < sources_.size(); ++i) {
        inputs_scratch_[i] = sources_[i](t);
    }
    marshal(inputs_scratch_, to_analog_);

    // "Context switch" to the analog solver: it unpacks the message,
    // advances its own time by one step, and packs the observations.
    unmarshal(to_analog_, analog_inputs_scratch_);
    if (!engine_->step(analog_inputs_scratch_, t)) {
        throw std::runtime_error("cosim: analog solver failed to converge at t = " +
                                 support::format_double(t) + " s");
    }
    observations_scratch_.assign(1, engine_->voltage_between(pos_, neg_));
    marshal(observations_scratch_, from_analog_);

    // Analog -> digital: handshake check, then commit to kernel channels.
    unmarshal(from_analog_, results_scratch_);
    AMSVP_CHECK(from_analog_.sequence == sequence_, "co-simulation handshake out of order");
    ++stats_.handshakes;

    output_->write(results_scratch_.front());
    trace_.append(results_scratch_.front());
}

}  // namespace amsvp::cosim
