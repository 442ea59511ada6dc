// The sparse tableau of a circuit (Hachtel, Brayton and Gustavson, "The
// Sparse Tableau Approach to Network Analysis and Design", IEEE Trans.
// Circuit Theory 18(1), 1971), as both conservative engines assemble it.
//
// Unknown vector x = [ node potentials (ground excluded) | branch currents ].
// Rows: one KCL row per non-ground node in node order, then one
// constitutive row per branch in branch order. Branch voltages are not
// unknowns: V(b) expands to the potential difference of its terminals, so a
// constitutive row stamps straight onto node and current columns.
//
// The tableau fixes the structure only; each engine keeps its own
// discretization and arithmetic. The ELN engine (eln/engine.hpp) splits
// ddt() into a companion form, stamps a constant matrix and factorises it
// once. The SPICE engine (spice/engine.hpp) keeps every row as a residual,
// stamps nonlinear rows by finite differences, and re-stamps and
// re-factorises every Newton iteration of every step — the cost split the
// paper attributes to conservative simulation.
#pragma once

#include <utility>
#include <vector>

#include "expr/expr.hpp"
#include "netlist/circuit.hpp"
#include "numeric/matrix.hpp"

namespace amsvp::netlist {

class Tableau {
public:
    /// Sparse row: (column, coefficient) entries in stamping order. An
    /// engine adds them into its matrix in this order, so the order is part
    /// of the result's rounding.
    using Row = std::vector<std::pair<int, double>>;

    /// Throws std::invalid_argument when the circuit has no ground node.
    /// Keeps a pointer to `circuit`, which must outlive the tableau.
    explicit Tableau(const Circuit& circuit);

    [[nodiscard]] const Circuit& circuit() const { return *circuit_; }

    /// Unknowns and rows: (nodes - 1) potentials + one current per branch.
    [[nodiscard]] std::size_t size() const {
        return node_columns_.size() - 1 + circuit_->branch_count();
    }

    /// Column of a node's potential; -1 for ground.
    [[nodiscard]] int node_column(NodeId node) const {
        return node_columns_[static_cast<std::size_t>(node)];
    }
    /// Column of a branch's current; currents follow every potential.
    [[nodiscard]] int current_column(BranchId branch) const {
        return static_cast<int>(node_columns_.size()) - 1 + branch;
    }

    /// One KCL row per non-ground node, in node order: (current column, +1
    /// when the branch leaves the node, -1 when it enters), in branch order.
    [[nodiscard]] const std::vector<Row>& kcl_rows() const { return kcl_rows_; }
    /// KCL row `row` as a residual: 0 ± I(b) per entry, in the row's order.
    [[nodiscard]] expr::ExprPtr kcl_residual(std::size_t row) const;

    /// Constitutive row of `branch`: lhs - rhs of its dipole equation.
    [[nodiscard]] expr::ExprPtr constraint(BranchId branch) const;

    /// Append `coeff` times a branch quantity to `row`. V(b) puts +coeff at
    /// its positive terminal's column and -coeff at its negative's, skipping
    /// ground; I(b) puts coeff at its current column.
    void stamp(const expr::Symbol& quantity, double coeff, Row& row) const;

    // --- Reads of a solution vector, by id ----------------------------------
    [[nodiscard]] double node_potential(const numeric::Vector& x, NodeId node) const {
        return value_at(x, node_column(node));
    }
    [[nodiscard]] double branch_voltage(const numeric::Vector& x, BranchId branch) const {
        const auto [pos, neg] = terminal_columns_[static_cast<std::size_t>(branch)];
        return value_at(x, pos) - value_at(x, neg);
    }
    [[nodiscard]] double branch_current(const numeric::Vector& x, BranchId branch) const {
        return x[static_cast<std::size_t>(current_column(branch))];
    }

private:
    /// x[col], or 0 for ground's column -1.
    [[nodiscard]] static double value_at(const numeric::Vector& x, int col) {
        return col < 0 ? 0.0 : x[static_cast<std::size_t>(col)];
    }

    const Circuit* circuit_;
    std::vector<int> node_columns_;  ///< per node; -1 for ground
    /// Per branch: the node columns of (pos, neg), read by every SPICE
    /// residual evaluation and every V(b) stamp.
    std::vector<std::pair<int, int>> terminal_columns_;
    std::vector<Row> kcl_rows_;
};

}  // namespace amsvp::netlist
