#include "netlist/tableau.hpp"

#include <stdexcept>

#include "support/check.hpp"

namespace amsvp::netlist {

using expr::Expr;
using expr::ExprPtr;

Tableau::Tableau(const Circuit& circuit) : circuit_(&circuit) {
    if (!circuit.has_ground()) {
        throw std::invalid_argument("tableau: circuit '" + circuit.name() +
                                    "' has no ground node");
    }
    node_columns_.assign(circuit.node_count(), -1);
    for (NodeId n = 0; n < static_cast<NodeId>(circuit.node_count()); ++n) {
        if (n == circuit.ground()) {
            continue;
        }
        node_columns_[static_cast<std::size_t>(n)] = static_cast<int>(kcl_rows_.size());
        Row& row = kcl_rows_.emplace_back();
        for (const Circuit::Incidence& inc : circuit.incident(n)) {
            row.emplace_back(current_column(inc.branch), static_cast<double>(inc.sign));
        }
    }
    for (const Branch& b : circuit.branches()) {
        terminal_columns_.emplace_back(node_column(b.pos), node_column(b.neg));
    }
}

ExprPtr Tableau::kcl_residual(std::size_t row) const {
    ExprPtr residual = Expr::constant(0.0);
    for (const auto& [col, sign] : kcl_rows_[row]) {
        // Current columns are numbered in branch order after the potentials.
        const BranchId b = col - current_column(0);
        ExprPtr current = Expr::symbol(circuit_->branch(b).current_symbol());
        residual = sign > 0 ? Expr::add(residual, current) : Expr::sub(residual, current);
    }
    return residual;
}

ExprPtr Tableau::constraint(BranchId branch) const {
    const expr::Equation& eq = circuit_->dipole_equation(branch);
    return Expr::sub(eq.lhs, eq.rhs);
}

void Tableau::stamp(const expr::Symbol& quantity, double coeff, Row& row) const {
    const auto bid = circuit_->find_branch(quantity.name);
    AMSVP_CHECK(bid.has_value(), "unknown branch in equation");
    if (quantity.kind == expr::SymbolKind::kBranchCurrent) {
        row.emplace_back(current_column(*bid), coeff);
        return;
    }
    AMSVP_CHECK(quantity.kind == expr::SymbolKind::kBranchVoltage,
                "only branch quantities stamp onto the tableau");
    const auto [pos, neg] = terminal_columns_[static_cast<std::size_t>(*bid)];
    if (pos >= 0) {
        row.emplace_back(pos, coeff);
    }
    if (neg >= 0) {
        row.emplace_back(neg, -coeff);
    }
}

}  // namespace amsvp::netlist
