// Facade over the complete abstraction flow of Fig. 4:
//   Acquisition (elaborated circuit) -> Enrichment -> Assemble ->
//   Discretize -> Linear solution -> SignalFlowModel.
//
// This is the library's primary public entry point for conservative models.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "abstraction/assembler.hpp"
#include "abstraction/coupled_solver.hpp"
#include "abstraction/discretize.hpp"
#include "abstraction/enrichment.hpp"
#include "abstraction/signal_flow_model.hpp"
#include "netlist/circuit.hpp"

namespace amsvp::abstraction {

/// An output of interest: the voltage between two named nodes. When no
/// branch spans the pair, a probe branch is inserted (open circuit, I = 0).
struct OutputSpec {
    std::string pos;
    std::string neg;

    [[nodiscard]] std::string display() const { return "V(" + pos + "," + neg + ")"; }
};

/// How both abstraction paths discretize: the conservative flow here and
/// the signal-flow conversion of behavioral.hpp.
struct AbstractionOptions {
    double timestep = 50e-9;  ///< paper's experimental time step (50 ns)
    DiscretizationScheme scheme = DiscretizationScheme::kBackwardEuler;
};

/// Tool-side metrics, reproducing the "abstraction tool spent 7.67 s on
/// RC20" measurement of Section V-A.
struct AbstractionReport {
    EnrichmentStats enrichment;
    std::size_t database_equations = 0;
    std::size_t database_classes = 0;
    std::size_t assembly_passes = 0;
    std::size_t equations_consumed = 0;
    std::size_t roots = 0;
    std::size_t model_nodes = 0;
    double enrichment_seconds = 0.0;
    double assemble_seconds = 0.0;
    double solve_seconds = 0.0;
    double total_seconds = 0.0;
};

/// Run the full flow on a conservative circuit for the given outputs.
/// On failure returns nullopt with a reason in `error` (when non-null).
[[nodiscard]] std::optional<SignalFlowModel> abstract_circuit(
    const netlist::Circuit& circuit, const std::vector<OutputSpec>& outputs,
    const AbstractionOptions& options = {}, std::string* error = nullptr,
    AbstractionReport* report = nullptr);

}  // namespace amsvp::abstraction
