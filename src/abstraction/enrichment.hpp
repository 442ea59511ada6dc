// Step 2 of the flow (Section IV-B, Algorithm 1): enrich the dipole-equation
// set with Kirchhoff's laws and, for every equation, the variants solved for
// each of its terms. All variants of one constraint share a dependency class.
#pragma once

#include "abstraction/equation_database.hpp"
#include "netlist/circuit.hpp"

namespace amsvp::abstraction {

struct EnrichmentStats {
    std::size_t dipole_equations = 0;
    std::size_t kcl_equations = 0;
    std::size_t kvl_equations = 0;
    std::size_t solved_variants = 0;
};

/// Build the enriched database for a circuit. KCL is generated for every
/// node except ground (the ground equation is linearly dependent on the
/// others); KVL for every fundamental loop of the circuit graph.
[[nodiscard]] EquationDatabase enrich(const netlist::Circuit& circuit,
                                      EnrichmentStats* stats = nullptr);

}  // namespace amsvp::abstraction
