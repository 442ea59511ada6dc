// ELN engine — the SystemC-AMS Electrical-Linear-Network stand-in.
//
// At elaboration the circuit's sparse tableau (netlist/tableau.hpp) is
// stamped in companion form and LU-factorised once (linear network, fixed
// timestep); every activation only rebuilds the right-hand side and
// back-substitutes. Derivative terms are discretized with backward Euler:
//
//     c * ddt(q)  ->  (c/h) q  -  (c/h) q_prev
//
// the first term a constant matrix entry, the second a history term of the
// right-hand side. Embedded in the DE kernel the engine behaves like the
// SC-AMS synchronisation layer: one timed activation per analog timestep,
// values exchanged through kernel channels.
#pragma once

#include <map>
#include <memory>

#include "de/kernel.hpp"
#include "de/signal.hpp"
#include "expr/fused.hpp"
#include "netlist/tableau.hpp"
#include "numeric/lu.hpp"
#include "numeric/sources.hpp"
#include "numeric/waveform.hpp"

namespace amsvp::eln {

class ElnEngine {
public:
    /// Stamp + factorise. Throws std::invalid_argument when a constitutive
    /// equation is not linear (use the SPICE engine for those), when the
    /// matrix is singular, when `timestep` is not positive and finite, or
    /// when the circuit has no ground node. Keeps a pointer to `circuit`.
    ElnEngine(const netlist::Circuit& circuit, double timestep);

    [[nodiscard]] double timestep() const { return timestep_; }
    [[nodiscard]] const std::vector<std::string>& input_names() const { return inputs_; }

    /// Reset state (previous solution) to zero.
    void reset();

    /// Advance one step at absolute time `time_seconds`, with the input
    /// values in input_names() order.
    void step(const std::vector<double>& input_values, double time_seconds);

    /// By-name reads throw std::invalid_argument naming an unknown node or
    /// branch.
    [[nodiscard]] double node_voltage(std::string_view node_name) const;
    [[nodiscard]] double branch_current(std::string_view branch_name) const;
    /// Voltage between two nodes.
    [[nodiscard]] double voltage_between(std::string_view pos, std::string_view neg) const;
    /// Same, by node id (Circuit::observed_node): no name lookup per call.
    [[nodiscard]] double voltage_between(netlist::NodeId pos, netlist::NodeId neg) const;

    [[nodiscard]] std::uint64_t steps() const { return steps_; }

private:
    /// Right-hand side of one tableau row: b = sum(c * x_prev[col]) over
    /// `history`, minus the row's offset slot (-1: no offset).
    struct Row {
        netlist::Tableau::Row history;
        int offset_slot = -1;
    };

    netlist::Tableau tableau_;
    double timestep_;
    std::vector<std::string> inputs_;
    std::vector<Row> rows_;
    /// Every row's offset as one assignment over the offset file
    /// [inputs..., time, offsets..., scratch and constant pool]. The file is
    /// reused across steps, so concurrent steps on one engine are unsafe.
    expr::FusedProgram offsets_;
    std::vector<double> offset_slots_;
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
