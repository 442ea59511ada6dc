#include "eln/engine.hpp"

#include <stdexcept>

#include "support/check.hpp"

namespace amsvp::eln {

ElnEngine::ElnEngine(const netlist::Circuit& circuit, double timestep)
    : tableau_([&] {
          std::string error;
          auto t = Tableau::build(circuit, timestep, &error);
          if (!t) {
              throw std::invalid_argument("ELN: " + error);
          }
          return std::move(*t);
      }()) {
    numeric::Matrix a;
    tableau_.stamp_matrix(a);
    auto lu = numeric::LuFactorization::factorise(a);
    AMSVP_CHECK(lu.has_value(), "ELN system matrix is singular");
    lu_ = std::move(*lu);
    x_.assign(tableau_.size(), 0.0);
    b_.assign(tableau_.size(), 0.0);
}

void ElnEngine::reset() {
    x_.assign(tableau_.size(), 0.0);
    steps_ = 0;
}

void ElnEngine::step(const std::vector<double>& input_values, double time_seconds) {
    tableau_.build_rhs(x_, input_values, time_seconds, b_);
    lu_.solve_in_place(b_);
    x_.swap(b_);
    ++steps_;
}

double ElnEngine::node_voltage(std::string_view node_name) const {
    const auto node = tableau_.circuit().find_node(node_name);
    AMSVP_CHECK(node.has_value(), "unknown node");
    return tableau_.node_voltage(x_, *node);
}

double ElnEngine::branch_voltage(std::string_view branch_name) const {
    const auto branch = tableau_.circuit().find_branch(branch_name);
    AMSVP_CHECK(branch.has_value(), "unknown branch");
    return tableau_.branch_voltage(x_, *branch);
}

double ElnEngine::branch_current(std::string_view branch_name) const {
    const auto branch = tableau_.circuit().find_branch(branch_name);
    AMSVP_CHECK(branch.has_value(), "unknown branch");
    return tableau_.branch_current(x_, *branch);
}

double ElnEngine::voltage_between(std::string_view pos, std::string_view neg) const {
    const auto p = tableau_.circuit().find_node(pos);
    const auto n = tableau_.circuit().find_node(neg);
    AMSVP_CHECK(p.has_value() && n.has_value(), "unknown node");
    return voltage_between(*p, *n);
}

double ElnEngine::voltage_between(netlist::NodeId pos, netlist::NodeId neg) const {
    return tableau_.node_voltage(x_, pos) - tableau_.node_voltage(x_, neg);
}

ElnDeModule::ElnDeModule(de::Simulator& sim, const netlist::Circuit& circuit, double timestep,
                         std::map<std::string, numeric::SourceFunction> stimuli,
                         std::string observed_pos, std::string observed_neg)
    : sim_(sim),
      engine_(circuit, timestep),
      pos_(circuit.observed_node(observed_pos, "ELN")),
      neg_(circuit.observed_node(observed_neg, "ELN")),
      trace_(timestep, timestep),
      period_(de::from_seconds(timestep)) {
    for (const std::string& name : engine_.input_names()) {
        sources_.push_back(numeric::stimulus_for(stimuli, name));
    }
    input_scratch_.assign(sources_.size(), 0.0);
    output_ = std::make_unique<de::Signal<double>>(sim, "eln_out", 0.0);
    sim_.schedule_periodic(sim_.now() + period_, period_, [this] { activate(); });
}

void ElnDeModule::activate() {
    const double t = de::to_seconds(sim_.now());
    // Reused member buffer: activations run once per analog timestep and
    // must not allocate.
    for (std::size_t i = 0; i < sources_.size(); ++i) {
        input_scratch_[i] = sources_[i](t);
    }
    engine_.step(input_scratch_, t);
    const double v = engine_.voltage_between(pos_, neg_);
    output_->write(v);
    trace_.append(v);
}

}  // namespace amsvp::eln
