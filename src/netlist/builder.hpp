// Programmatic circuit construction.
//
// The builder writes the same constitutive equations the Verilog-AMS
// elaborator produces, so circuits built in tests and circuits parsed from
// source are indistinguishable to the abstraction pipeline:
//
//   resistor R:    I(b) = V(b) / R
//   capacitor C:   I(b) = C * ddt(V(b))
//   inductor L:    V(b) = L * ddt(I(b))
//   vsource:       V(b) = u(t)           (external stimulus)
//   isource:       I(b) = u(t)
//   VCVS:          V(b) = K * V(ctrl)
//   VCCS:          I(b) = G * V(ctrl)
//   probe:         I(b) = 0
#pragma once

#include "netlist/circuit.hpp"

namespace amsvp::netlist {

class CircuitBuilder {
public:
    explicit CircuitBuilder(std::string circuit_name = "circuit");

    /// Declare / fetch a node by name. The first node named "gnd" (or the
    /// node passed to ground()) becomes the reference.
    NodeId node(std::string_view name);
    void ground(std::string_view name);

    /// resistor, capacitor and inductor throw std::invalid_argument naming
    /// the branch and the value unless it is positive and finite.
    BranchId resistor(std::string name, std::string_view pos, std::string_view neg,
                      double ohms);
    BranchId capacitor(std::string name, std::string_view pos, std::string_view neg,
                       double farads);
    BranchId inductor(std::string name, std::string_view pos, std::string_view neg,
                      double henries);
    BranchId voltage_source(std::string name, std::string_view pos, std::string_view neg,
                            std::string input_name);
    BranchId current_source(std::string name, std::string_view pos, std::string_view neg,
                            std::string input_name);
    /// V(this) = gain * V(control_branch).
    BranchId vcvs(std::string name, std::string_view pos, std::string_view neg,
                  std::string_view control_branch, double gain);
    /// I(this) = gain * V(control_branch).
    BranchId vccs(std::string name, std::string_view pos, std::string_view neg,
                  std::string_view control_branch, double gain);
    /// Open branch observing V(pos, neg).
    BranchId probe(std::string name, std::string_view pos, std::string_view neg);

    /// Add a branch with a caller-supplied constitutive equation (used by the
    /// Verilog-AMS elaborator for behavioural contribution statements).
    BranchId generic(std::string name, std::string_view pos, std::string_view neg,
                     expr::Equation equation, DeviceKind kind = DeviceKind::kGeneric);

    /// Finalise. Throws std::invalid_argument listing the problems when
    /// validate() reports any.
    [[nodiscard]] Circuit build();

    /// Access the circuit under construction (e.g. to look up ids).
    [[nodiscard]] const Circuit& peek() const { return circuit_; }

private:
    Branch make_branch(std::string name, std::string_view pos, std::string_view neg,
                       DeviceKind kind);

    Circuit circuit_;
};

/// The paper's test circuits (Section V-A), with its published parameters.
/// R = 5 kOhm, C = 25 nF per stage; stimulus input name "u0". Throws
/// std::invalid_argument for fewer than one stage.
[[nodiscard]] Circuit make_rc_ladder(int stages, double r_ohms = 5e3, double c_farads = 25e-9);

/// Two-inputs summing amplifier (Fig. 8a): R1 = 3k, R2 = 14k, R3 = 10k,
/// with the operational amplifier macromodel of Fig. 8b. Inputs "u0", "u1".
[[nodiscard]] Circuit make_two_inputs();

/// Non-inverting operational amplifier stage (Fig. 8b): R1 = 400, R2 = 1.6k,
/// C1 = 40 nF, Rin = 1 MOhm, Rout = 20 Ohm. Input "u0".
[[nodiscard]] Circuit make_opamp();

}  // namespace amsvp::netlist
