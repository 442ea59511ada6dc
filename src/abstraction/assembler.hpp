// Step 3 of the flow (Section IV-C, Algorithm 2): starting from the outputs
// of interest, recursively build expression trees by consuming equations
// from the enriched database — one equation per dependency class, classes
// disabled as they are used.
//
// Where the paper leaves residual occurrences of already-expanded variables
// in the tree (to be fixed by the final linear solution step), this
// implementation generalises the idea to a *root set*: every variable that
// closes an algebraic cycle (a residual) or carries state (appears under
// ddt) is promoted to a root with its own assembled tree, and assembly is
// re-run until the root set is stable. The resulting coupled system
//
//     x_i = T_i(x_1 .. x_k, inputs, history)
//
// is exactly what the paper's O(|N|^3) "solution of the linear equation"
// consumes (implemented in coupled_solver).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "abstraction/equation_database.hpp"

namespace amsvp::abstraction {

struct AssembledRoot {
    expr::Symbol symbol;
    /// Tree referencing only: root symbols (current time), ddt(root symbol),
    /// inputs / time, delayed values, and constants.
    expr::ExprPtr tree;
    /// True when the defining equation had a ddt() left-hand side; the
    /// discretizer then integrates: x = x@(t-dt) + dt * tree (backward Euler).
    bool lhs_derivative = false;
    /// Dependency classes consumed while assembling this root (its own
    /// defining equation plus everything inlined underneath).
    std::size_t consumed_classes = 0;
};

struct AssembledSystem {
    std::vector<AssembledRoot> roots;    ///< outputs first, then discovered roots
    std::vector<expr::Symbol> outputs;   ///< the requested outputs
    std::size_t passes = 0;              ///< assembly passes until stable
    std::size_t equations_consumed = 0;  ///< classes disabled in the final pass

    [[nodiscard]] const AssembledRoot* find_root(const expr::Symbol& s) const;
};

/// Assemble the system for the given output symbols. The database is read,
/// never changed: it is indexed once per call, and each pass keeps its own
/// consumed-class flags. The root set must stabilise within 256 passes. On
/// failure returns nullopt and stores a human-readable reason in `error`
/// (when non-null).
[[nodiscard]] std::optional<AssembledSystem> assemble(const EquationDatabase& database,
                                                      const std::vector<expr::Symbol>& outputs,
                                                      std::string* error = nullptr);

}  // namespace amsvp::abstraction
