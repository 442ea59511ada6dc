// ELN engine — the SystemC-AMS Electrical-Linear-Network stand-in.
//
// At elaboration the network equations are set up once and the system matrix
// is LU-factorised once (linear network, fixed timestep); every activation
// only rebuilds the right-hand side and back-substitutes. Embedded in the DE
// kernel the engine behaves like the SC-AMS synchronisation layer: one timed
// activation per analog timestep, values exchanged through kernel channels.
#pragma once

#include <map>
#include <memory>

#include "de/kernel.hpp"
#include "de/signal.hpp"
#include "eln/tableau.hpp"
#include "numeric/lu.hpp"
#include "numeric/sources.hpp"
#include "numeric/waveform.hpp"

namespace amsvp::eln {

class ElnEngine {
public:
    /// Build + factorise. Throws std::invalid_argument on non-linear
    /// circuits (use the SPICE engine for those) — check with
    /// Tableau::build first when unsure.
    ElnEngine(const netlist::Circuit& circuit, double timestep);

    [[nodiscard]] double timestep() const { return tableau_.timestep(); }
    [[nodiscard]] const std::vector<std::string>& input_names() const {
        return tableau_.input_names();
    }

    /// Reset state (previous solution) to zero.
    void reset();

    /// Advance one step at absolute time `time_seconds`.
    void step(const std::vector<double>& input_values, double time_seconds);

    [[nodiscard]] double node_voltage(std::string_view node_name) const;
    [[nodiscard]] double branch_voltage(std::string_view branch_name) const;
    [[nodiscard]] double branch_current(std::string_view branch_name) const;
    /// Voltage between two nodes.
    [[nodiscard]] double voltage_between(std::string_view pos, std::string_view neg) const;
    /// Same, by node id (Circuit::observed_node): no name lookup per call.
    [[nodiscard]] double voltage_between(netlist::NodeId pos, netlist::NodeId neg) const;

    [[nodiscard]] std::uint64_t steps() const { return steps_; }

private:
    Tableau tableau_;
    numeric::LuFactorization lu_;
    numeric::Vector x_;
    numeric::Vector b_;
    std::uint64_t steps_ = 0;
};

/// DE-kernel wrapper: activates the engine every timestep, reading stimuli
/// from source functions and publishing one observed voltage to a signal.
/// The constructor throws std::invalid_argument on non-linear circuits, when
/// an observed node is not in the circuit, or when an input has no stimulus.
class ElnDeModule {
public:
    ElnDeModule(de::Simulator& sim, const netlist::Circuit& circuit, double timestep,
                std::map<std::string, numeric::SourceFunction> stimuli,
                std::string observed_pos, std::string observed_neg);

    [[nodiscard]] de::Signal<double>& output() { return *output_; }
    /// Trace of the observed voltage, one sample per activation.
    [[nodiscard]] const numeric::Waveform& trace() const { return trace_; }
    [[nodiscard]] const ElnEngine& engine() const { return engine_; }

private:
    void activate();

    de::Simulator& sim_;
    ElnEngine engine_;
    std::vector<numeric::SourceFunction> sources_;
    std::vector<double> input_scratch_;  ///< per-activation input samples
    netlist::NodeId pos_;                ///< observed nodes, resolved once
    netlist::NodeId neg_;
    std::unique_ptr<de::Signal<double>> output_;
    numeric::Waveform trace_;
    de::Time period_;
};

}  // namespace amsvp::eln
