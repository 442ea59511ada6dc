// Shared random-model generation for property-based tests: random linear
// RC networks (random_circuit_test, the generated-code and ORC
// differentials) and random nonlinear signal-flow models (the batch, ORC
// and lowering-conformance suites) each come from one distribution. Two
// fixed models that the generated-code and scalar-kernel differentials
// share sit at the end.
#pragma once

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "abstraction/signal_flow_model.hpp"
#include "expr/expr.hpp"
#include "netlist/builder.hpp"

namespace amsvp::testing_support {

struct RandomCircuit {
    netlist::Circuit circuit;
    std::string observed_node;
};

/// Random RC network: a random tree of resistors grown from the driven
/// node, random capacitors to ground, plus a few chord resistors closing
/// loops. Always connected, always has a source, never degenerate.
inline RandomCircuit make_random_rc(unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> node_count_dist(2, 8);
    std::uniform_real_distribution<double> r_dist(100.0, 50e3);
    std::uniform_real_distribution<double> c_dist(1e-9, 200e-9);
    std::bernoulli_distribution coin(0.5);

    netlist::CircuitBuilder cb("rand" + std::to_string(seed));
    cb.ground("gnd");
    cb.voltage_source("VIN", "n0", "gnd", "u0");

    const int extra_nodes = node_count_dist(rng);
    int next_r = 0;
    int next_c = 0;
    std::vector<std::string> nodes{"n0"};
    for (int i = 1; i <= extra_nodes; ++i) {
        const std::string name = "n" + std::to_string(i);
        std::uniform_int_distribution<std::size_t> pick(0, nodes.size() - 1);
        cb.resistor("R" + std::to_string(next_r++), nodes[pick(rng)], name, r_dist(rng));
        // Every node needs a DC path to ground through the tree; give each a
        // capacitor (state) or a bleed resistor.
        if (coin(rng)) {
            cb.capacitor("C" + std::to_string(next_c++), name, "gnd", c_dist(rng));
        } else {
            cb.resistor("R" + std::to_string(next_r++), name, "gnd", r_dist(rng));
        }
        nodes.push_back(name);
    }
    // A couple of chords to create non-trivial loops (and KVL equations).
    std::uniform_int_distribution<std::size_t> pick(0, nodes.size() - 1);
    for (int i = 0; i < 2 && nodes.size() > 2; ++i) {
        const std::string a = nodes[pick(rng)];
        const std::string b = nodes[pick(rng)];
        if (a != b && !cb.peek().find_branch_between(*cb.peek().find_node(a),
                                                     *cb.peek().find_node(b))) {
            cb.resistor("R" + std::to_string(next_r++), a, b, r_dist(rng));
        }
    }

    RandomCircuit out{cb.build(), nodes.back()};
    EXPECT_TRUE(out.circuit.validate().empty());
    return out;
}

/// Random expression over `leaves` using every operator the fused engine
/// lowers: arithmetic, min/max, libm (sin, cos, exp, ln, log10, tan, pow),
/// comparisons as 0/1 values, and conditionals on and/or-combined
/// comparisons. Operands are guarded so values stay finite for bounded
/// leaves: divisors are at least 1.5, logarithms and pow bases at least
/// 0.5, exp arguments at most 3, tan arguments within [-1, 1] and pow
/// exponents within [-2, 2].
inline expr::ExprPtr random_expr(std::mt19937& rng, int depth,
                                 const std::vector<expr::ExprPtr>& leaves) {
    using expr::BinaryOp;
    using expr::Expr;
    using expr::UnaryOp;
    std::uniform_real_distribution<double> c(-2.0, 2.0);
    std::uniform_int_distribution<int> pick_leaf(0, static_cast<int>(leaves.size()) - 1);
    if (depth <= 0) {
        std::uniform_int_distribution<int> kind(0, 2);
        if (kind(rng) == 0) {
            return Expr::constant(c(rng));
        }
        return leaves[static_cast<std::size_t>(pick_leaf(rng))];
    }
    auto sub = [&](int d) { return random_expr(rng, d, leaves); };
    auto at_least_half = [](expr::ExprPtr x) {
        return Expr::add(Expr::unary(UnaryOp::kAbs, std::move(x)), Expr::constant(0.5));
    };
    auto comparison = [&] {
        static constexpr BinaryOp kComparisons[] = {BinaryOp::kLt, BinaryOp::kLe,
                                                    BinaryOp::kGt, BinaryOp::kGe,
                                                    BinaryOp::kEq, BinaryOp::kNe};
        std::uniform_int_distribution<int> which(0, 5);
        return Expr::binary(kComparisons[which(rng)], sub(0), sub(0));
    };
    std::uniform_int_distribution<int> op(0, 16);
    switch (op(rng)) {
        case 0:
            return Expr::add(sub(depth - 1), sub(depth - 1));
        case 1:
            return Expr::sub(sub(depth - 1), sub(depth - 1));
        case 2:
            return Expr::mul(sub(depth - 1), sub(depth - 1));
        case 3:
            return Expr::div(sub(depth - 1),
                             Expr::add(Expr::unary(UnaryOp::kAbs, sub(depth - 1)),
                                       Expr::constant(1.5)));
        case 4:
            return Expr::binary(BinaryOp::kMin, sub(depth - 1), sub(depth - 1));
        case 5:
            return Expr::binary(BinaryOp::kMax, sub(depth - 1), sub(depth - 1));
        case 6:
            return Expr::neg(sub(depth - 1));
        case 7:
            return Expr::unary(UnaryOp::kSin, sub(depth - 1));
        case 8:
            return Expr::unary(UnaryOp::kCos, sub(depth - 1));
        case 9:
            return Expr::unary(UnaryOp::kExp, Expr::binary(BinaryOp::kMin, sub(depth - 1),
                                                           Expr::constant(3.0)));
        case 10:
            return Expr::unary(UnaryOp::kLn, at_least_half(sub(depth - 1)));
        case 11:
            return Expr::unary(UnaryOp::kLog10, at_least_half(sub(depth - 1)));
        case 12:
            return Expr::unary(UnaryOp::kTan, Expr::unary(UnaryOp::kSin, sub(depth - 1)));
        case 13:
            return Expr::binary(
                BinaryOp::kPow, at_least_half(sub(depth - 1)),
                Expr::binary(BinaryOp::kMax,
                             Expr::binary(BinaryOp::kMin, sub(depth - 1), Expr::constant(2.0)),
                             Expr::constant(-2.0)));
        case 14:
            return comparison();
        case 15: {
            std::bernoulli_distribution use_and(0.5);
            return Expr::conditional(
                Expr::binary(use_and(rng) ? BinaryOp::kAnd : BinaryOp::kOr, comparison(),
                             comparison()),
                sub(depth - 1), sub(depth - 1));
        }
        default:
            return Expr::conditional(comparison(), sub(depth - 1), sub(depth - 1));
    }
}

/// Random multi-assignment signal-flow model: damped state recurrences
/// feeding chained combinational outputs (the shape of discretized
/// signal-flow programs), two inputs, expressions from random_expr. An
/// output feeds later outputs clamped to [-8, 8], so chains stay finite.
inline abstraction::SignalFlowModel make_random_signal_flow(unsigned seed) {
    using expr::BinaryOp;
    using expr::Expr;
    std::mt19937 rng(seed);
    abstraction::SignalFlowModel m;
    m.name = "random" + std::to_string(seed);
    m.timestep = 1e-6;
    const expr::Symbol u0 = expr::input_symbol("u0");
    const expr::Symbol u1 = expr::input_symbol("u1");
    m.inputs = {u0, u1};

    std::vector<expr::ExprPtr> leaves = {Expr::symbol(u0), Expr::symbol(u1)};
    std::vector<expr::Symbol> states;
    for (int i = 0; i < 3; ++i) {
        const expr::Symbol s = expr::variable_symbol("s" + std::to_string(i));
        states.push_back(s);
        leaves.push_back(Expr::delayed(s, 1));
    }
    for (const expr::Symbol& s : states) {
        m.assignments.push_back(abstraction::Assignment{
            s, Expr::add(Expr::mul(Expr::constant(0.5), Expr::delayed(s, 1)),
                         Expr::unary(expr::UnaryOp::kSin, random_expr(rng, 4, leaves)))});
        leaves.push_back(Expr::symbol(s));
    }
    for (int i = 0; i < 2; ++i) {
        const expr::Symbol v = expr::variable_symbol("v" + std::to_string(i));
        m.assignments.push_back(abstraction::Assignment{v, random_expr(rng, 5, leaves)});
        leaves.push_back(Expr::binary(
            BinaryOp::kMax,
            Expr::binary(BinaryOp::kMin, Expr::symbol(v), Expr::constant(8.0)),
            Expr::constant(-8.0)));
        m.outputs.push_back(v);
    }
    return m;
}

/// A model built to hit the linear-combination superinstruction hard: wide
/// affine assignments over three inputs and state history.
inline abstraction::SignalFlowModel make_lincomb_heavy_model() {
    using expr::Expr;
    const expr::Symbol u0 = expr::input_symbol("u0");
    const expr::Symbol u1 = expr::input_symbol("u1");
    const expr::Symbol u2 = expr::input_symbol("u2");
    const expr::Symbol y{expr::SymbolKind::kVariable, "y"};
    const expr::Symbol z{expr::SymbolKind::kVariable, "z"};

    abstraction::SignalFlowModel model;
    model.name = "lincomb_heavy";
    model.timestep = 1e-6;
    model.inputs = {u0, u1, u2};
    // y := 0.75*y' + 0.25*u0 - 0.5*u1 + 0.125*u2 + 3.5
    model.assignments.push_back(
        {y, Expr::add(
                Expr::add(Expr::add(Expr::mul(Expr::constant(0.75), Expr::delayed(y, 1)),
                                    Expr::mul(Expr::constant(0.25), Expr::symbol(u0))),
                          Expr::sub(Expr::mul(Expr::constant(0.125), Expr::symbol(u2)),
                                    Expr::mul(Expr::constant(0.5), Expr::symbol(u1)))),
                Expr::constant(3.5))});
    // z := 2*y - 0.0625*u0 + 0.03125*u1 - 7*z'
    model.assignments.push_back(
        {z, Expr::sub(
                Expr::add(Expr::mul(Expr::constant(2.0), Expr::symbol(y)),
                          Expr::sub(Expr::mul(Expr::constant(0.03125), Expr::symbol(u1)),
                                    Expr::mul(Expr::constant(0.0625), Expr::symbol(u0)))),
                Expr::mul(Expr::constant(7.0), Expr::delayed(z, 1)))});
    model.outputs = {z};
    model.initial_values[y] = 0.25;
    EXPECT_TRUE(model.validate().empty());
    return model;
}

/// A small FIR over input history only: y := 0.5*u0 + 0.3*u0' + 0.2*u0''.
/// The delayed input makes the input symbol a state variable too, which
/// the emitters must not declare twice.
inline abstraction::SignalFlowModel make_delayed_input_model() {
    using expr::Expr;
    const expr::Symbol u0 = expr::input_symbol("u0");
    const expr::Symbol y{expr::SymbolKind::kVariable, "y"};

    abstraction::SignalFlowModel model;
    model.name = "fir_taps";
    model.timestep = 1e-6;
    model.inputs = {u0};
    model.assignments.push_back(
        {y, Expr::add(Expr::add(Expr::mul(Expr::constant(0.5), Expr::symbol(u0)),
                                Expr::mul(Expr::constant(0.3), Expr::delayed(u0, 1))),
                      Expr::mul(Expr::constant(0.2), Expr::delayed(u0, 2)))});
    model.outputs = {y};
    EXPECT_TRUE(model.validate().empty());
    return model;
}

}  // namespace amsvp::testing_support
