// Sparse-tableau formulation of the ELN engine.
//
// Unknown vector x = [ node potentials (ground excluded) | branch currents ].
// Equations: one KCL row per non-ground node, one constitutive row per
// branch. Branch voltages are expressed through node potentials, so any
// linear dipole equation stamps directly; derivative terms are discretized
// with backward Euler (companion form):
//
//     ddt(q)  ->  (q - q_prev) / h
//
// Only linear networks build: the matrix is constant, so ELN factorises it
// once and back-substitutes per step. The SPICE engine (spice/engine.hpp)
// does not use this class. It builds the same column layout and row order
// itself, keeps every row as a residual, stamps nonlinear rows by finite
// differences, and re-stamps and re-factorises every Newton iteration of
// every step — the cost split the paper attributes to conservative
// simulation.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "expr/fused.hpp"
#include "expr/linear_form.hpp"
#include "netlist/circuit.hpp"
#include "numeric/matrix.hpp"

namespace amsvp::eln {

class Tableau {
public:
    /// Build from a circuit. Fails (error set) when a constitutive equation
    /// is not linear in the branch quantities — nonlinear devices go through
    /// the SPICE engine's Newton path instead.
    [[nodiscard]] static std::optional<Tableau> build(const netlist::Circuit& circuit,
                                                      double timestep,
                                                      std::string* error = nullptr);

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] double timestep() const { return timestep_; }
    [[nodiscard]] const std::vector<std::string>& input_names() const { return inputs_; }

    /// Stamp the (constant) system matrix.
    void stamp_matrix(numeric::Matrix& a) const;

    /// Build the right-hand side for one step: needs the previous solution
    /// and the current input values (model order: input_names()). Runs the
    /// offset program in a member slot file, so concurrent calls on one
    /// Tableau are unsafe (copy it per thread).
    void build_rhs(const numeric::Vector& x_prev, const std::vector<double>& input_values,
                   double time_seconds, numeric::Vector& b);

    // --- Solution accessors -------------------------------------------------
    [[nodiscard]] double node_voltage(const numeric::Vector& x, netlist::NodeId node) const;
    [[nodiscard]] double branch_voltage(const numeric::Vector& x,
                                        netlist::BranchId branch) const;
    [[nodiscard]] double branch_current(const numeric::Vector& x,
                                        netlist::BranchId branch) const;

    [[nodiscard]] const netlist::Circuit& circuit() const { return *circuit_; }

private:
    Tableau() = default;

    struct Row {
        /// Static matrix entries: (column, coefficient).
        std::vector<std::pair<int, double>> coefficients;
        /// RHS contributions from the previous solution: b += c * x_prev[col].
        std::vector<std::pair<int, double>> history;
        /// RHS contribution from inputs/time: b -= offset_slots_[offset_slot];
        /// -1 means the row has no offset.
        int offset_slot = -1;
    };

    [[nodiscard]] int node_column(netlist::NodeId node) const;
    [[nodiscard]] int current_column(netlist::BranchId branch) const;

    const netlist::Circuit* circuit_ = nullptr;
    double timestep_ = 0.0;
    std::size_t size_ = 0;
    std::vector<int> node_col_;  ///< per node; -1 for ground
    std::vector<Row> rows_;
    std::vector<std::string> inputs_;
    /// Every row's offset as one assignment over the offset file
    /// [inputs..., time, offsets..., scratch and constant pool].
    expr::FusedProgram offsets_;
    /// The offset file, reused across build_rhs calls; the constant pool is
    /// written once, in build().
    std::vector<double> offset_slots_;
};

}  // namespace amsvp::eln
