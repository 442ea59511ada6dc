#include "netlist/builder.hpp"

#include <cmath>
#include <stdexcept>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace amsvp::netlist {

namespace {

/// Throws std::invalid_argument naming `function`, the branch and the value
/// unless `value` is positive and finite.
void require_positive(const char* function, const std::string& branch, const char* quantity,
                      double value) {
    if (!(std::isfinite(value) && value > 0.0)) {
        throw std::invalid_argument(std::string("netlist::CircuitBuilder::") + function + ": " +
                                    branch + " " + quantity +
                                    " must be positive and finite, got " +
                                    support::format_double(value));
    }
}

}  // namespace

using expr::Equation;
using expr::EquationKind;
using expr::Expr;

CircuitBuilder::CircuitBuilder(std::string circuit_name) : circuit_(std::move(circuit_name)) {}

NodeId CircuitBuilder::node(std::string_view name) {
    const NodeId id = circuit_.node(name);
    if (name == "gnd" && !circuit_.has_ground()) {
        circuit_.set_ground(id);
    }
    return id;
}

void CircuitBuilder::ground(std::string_view name) {
    circuit_.set_ground(node(name));
}

Branch CircuitBuilder::make_branch(std::string name, std::string_view pos, std::string_view neg,
                                   DeviceKind kind) {
    Branch b;
    b.name = std::move(name);
    b.pos = node(pos);
    b.neg = node(neg);
    b.kind = kind;
    return b;
}

BranchId CircuitBuilder::resistor(std::string name, std::string_view pos, std::string_view neg,
                                  double ohms) {
    require_positive("resistor", name, "resistance", ohms);
    Branch b = make_branch(name, pos, neg, DeviceKind::kResistor);
    b.value = ohms;
    Equation eq = expr::make_equation(
        EquationKind::kDipole, b.current_symbol(),
        Expr::div(Expr::symbol(b.voltage_symbol()), Expr::constant(ohms)), "dipole(" + b.name + ")");
    return circuit_.add_branch(std::move(b), std::move(eq));
}

BranchId CircuitBuilder::capacitor(std::string name, std::string_view pos, std::string_view neg,
                                   double farads) {
    require_positive("capacitor", name, "capacitance", farads);
    Branch b = make_branch(name, pos, neg, DeviceKind::kCapacitor);
    b.value = farads;
    Equation eq = expr::make_equation(
        EquationKind::kDipole, b.current_symbol(),
        Expr::mul(Expr::constant(farads), Expr::ddt(Expr::symbol(b.voltage_symbol()))),
        "dipole(" + b.name + ")");
    return circuit_.add_branch(std::move(b), std::move(eq));
}

BranchId CircuitBuilder::inductor(std::string name, std::string_view pos, std::string_view neg,
                                  double henries) {
    require_positive("inductor", name, "inductance", henries);
    Branch b = make_branch(name, pos, neg, DeviceKind::kInductor);
    b.value = henries;
    Equation eq = expr::make_equation(
        EquationKind::kDipole, b.voltage_symbol(),
        Expr::mul(Expr::constant(henries), Expr::ddt(Expr::symbol(b.current_symbol()))),
        "dipole(" + b.name + ")");
    return circuit_.add_branch(std::move(b), std::move(eq));
}

BranchId CircuitBuilder::voltage_source(std::string name, std::string_view pos,
                                        std::string_view neg, std::string input_name) {
    Branch b = make_branch(name, pos, neg, DeviceKind::kVoltageSource);
    b.input = input_name;
    Equation eq = expr::make_equation(EquationKind::kDipole, b.voltage_symbol(),
                                      Expr::symbol(expr::input_symbol(std::move(input_name))),
                                      "dipole(" + b.name + ")");
    return circuit_.add_branch(std::move(b), std::move(eq));
}

BranchId CircuitBuilder::current_source(std::string name, std::string_view pos,
                                        std::string_view neg, std::string input_name) {
    Branch b = make_branch(name, pos, neg, DeviceKind::kCurrentSource);
    b.input = input_name;
    Equation eq = expr::make_equation(EquationKind::kDipole, b.current_symbol(),
                                      Expr::symbol(expr::input_symbol(std::move(input_name))),
                                      "dipole(" + b.name + ")");
    return circuit_.add_branch(std::move(b), std::move(eq));
}

BranchId CircuitBuilder::vcvs(std::string name, std::string_view pos, std::string_view neg,
                              std::string_view control_branch, double gain) {
    auto control = circuit_.find_branch(control_branch);
    AMSVP_CHECK(control.has_value(), "vcvs control branch must exist before the source");
    Branch b = make_branch(name, pos, neg, DeviceKind::kVcvs);
    b.value = gain;
    b.control = *control;
    Equation eq = expr::make_equation(
        EquationKind::kDipole, b.voltage_symbol(),
        Expr::mul(Expr::constant(gain),
                  Expr::symbol(circuit_.branch(*control).voltage_symbol())),
        "dipole(" + b.name + ")");
    return circuit_.add_branch(std::move(b), std::move(eq));
}

BranchId CircuitBuilder::vccs(std::string name, std::string_view pos, std::string_view neg,
                              std::string_view control_branch, double gain) {
    auto control = circuit_.find_branch(control_branch);
    AMSVP_CHECK(control.has_value(), "vccs control branch must exist before the source");
    Branch b = make_branch(name, pos, neg, DeviceKind::kVccs);
    b.value = gain;
    b.control = *control;
    Equation eq = expr::make_equation(
        EquationKind::kDipole, b.current_symbol(),
        Expr::mul(Expr::constant(gain),
                  Expr::symbol(circuit_.branch(*control).voltage_symbol())),
        "dipole(" + b.name + ")");
    return circuit_.add_branch(std::move(b), std::move(eq));
}

BranchId CircuitBuilder::probe(std::string name, std::string_view pos, std::string_view neg) {
    Branch b = make_branch(name, pos, neg, DeviceKind::kProbe);
    Equation eq = expr::make_equation(EquationKind::kDipole, b.current_symbol(),
                                      Expr::constant(0.0), "dipole(" + b.name + ")");
    return circuit_.add_branch(std::move(b), std::move(eq));
}

BranchId CircuitBuilder::generic(std::string name, std::string_view pos, std::string_view neg,
                                 expr::Equation equation, DeviceKind kind) {
    Branch b = make_branch(std::move(name), pos, neg, kind);
    return circuit_.add_branch(std::move(b), std::move(equation));
}

Circuit CircuitBuilder::build() {
    const std::vector<std::string> problems = circuit_.validate();
    if (!problems.empty()) {
        std::string text;
        for (const std::string& p : problems) {
            if (!text.empty()) {
                text += '\n';
            }
            text += "circuit '" + circuit_.name() + "': " + p;
        }
        throw std::invalid_argument(text);
    }
    return std::move(circuit_);
}

Circuit make_rc_ladder(int stages, double r_ohms, double c_farads) {
    if (stages < 1) {
        throw std::invalid_argument("netlist::make_rc_ladder: needs at least one stage, got " +
                                    std::to_string(stages));
    }
    CircuitBuilder cb("RC" + std::to_string(stages));
    cb.ground("gnd");
    cb.voltage_source("VIN", "in", "gnd", "u0");
    std::string prev = "in";
    for (int i = 1; i <= stages; ++i) {
        const std::string mid = (i == stages) ? "out" : "n" + std::to_string(i);
        cb.resistor("R" + std::to_string(i), prev, mid, r_ohms);
        cb.capacitor("C" + std::to_string(i), mid, "gnd", c_farads);
        prev = mid;
    }
    return cb.build();
}

namespace {

/// Open-loop gain used by the operational-amplifier macromodel (Fig. 8b).
constexpr double kOpenLoopGain = 1e5;

/// Instantiate the op-amp macromodel: Rin across (inv, plus), an inverting
/// VCVS behind Rout driving `out`. Branch names are prefixed so several
/// op-amps can coexist.
void add_opamp_macromodel(CircuitBuilder& cb, const std::string& prefix, std::string_view inv,
                          std::string_view plus, std::string_view out, double r_in,
                          double r_out) {
    cb.resistor(prefix + "RIN", inv, plus, r_in);
    // V(EAMP) = -A * V(RIN): the amplifier inverts the differential input.
    cb.vcvs(prefix + "EAMP", prefix + "eo", "gnd", prefix + "RIN", -kOpenLoopGain);
    cb.resistor(prefix + "ROUT", prefix + "eo", out, r_out);
}

}  // namespace

Circuit make_two_inputs() {
    // Fig. 8a: inverting summing amplifier, two inputs through R1/R2 into the
    // virtual-ground node, feedback R3. Paper parameters.
    CircuitBuilder cb("2IN");
    cb.ground("gnd");
    cb.voltage_source("VIN1", "in1", "gnd", "u0");
    cb.voltage_source("VIN2", "in2", "gnd", "u1");
    cb.resistor("R1", "in1", "inv", 3e3);
    cb.resistor("R2", "in2", "inv", 14e3);
    cb.resistor("R3", "inv", "out", 10e3);
    add_opamp_macromodel(cb, "OA_", "inv", "gnd", "out", 1e6, 20.0);
    cb.probe("POUT", "out", "gnd");
    return cb.build();
}

Circuit make_opamp() {
    // Fig. 8b as used in Section V-A: inverting active low-pass filter.
    // Input through R1, feedback R2 parallel C1; op-amp with Rin/Rout.
    // Cutoff 1/(2*pi*R2*C1) ~ 2.49 kHz, DC gain -R2/R1 = -4.
    CircuitBuilder cb("OA");
    cb.ground("gnd");
    cb.voltage_source("VIN", "in", "gnd", "u0");
    cb.resistor("R1", "in", "inv", 400.0);
    cb.resistor("R2", "inv", "out", 1.6e3);
    cb.capacitor("C1", "inv", "out", 40e-9);
    add_opamp_macromodel(cb, "OA_", "inv", "gnd", "out", 1e6, 20.0);
    cb.probe("POUT", "out", "gnd");
    return cb.build();
}

}  // namespace amsvp::netlist
