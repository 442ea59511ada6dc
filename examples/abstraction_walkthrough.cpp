// Walkthrough of the four abstraction steps on the paper's own figures:
//  * the acquired dipole equations and circuit graph (Step 1, Fig. 2),
//  * the enriched hash table with dependency classes (Step 2, Fig. 5),
//  * the assembled trees for the output of interest (Step 3, Fig. 6),
//  * the solved, ordered program and generated C++ (Fig. 7a/7b),
// and the cone restriction of Fig. 3 (what the abstraction did NOT keep).
#include <cstdio>

#include "abstraction/abstraction.hpp"
#include "codegen/codegen.hpp"
#include "expr/printer.hpp"
#include "netlist/builder.hpp"
#include "netlist/topology.hpp"

int main() {
    using namespace amsvp;

    // The RC1 circuit keeps the listing readable; swap for make_two_inputs()
    // or make_opamp() to see the paper's Fig. 8 cases.
    const netlist::Circuit circuit = netlist::make_rc_ladder(1);

    std::printf("=== Step 1: Acquisition ====================================\n");
    std::printf("%s", circuit.describe().c_str());
    const netlist::SpanningTree tree = netlist::build_spanning_tree(circuit);
    std::printf("graph: %zu nodes, %zu branches, %zu tree branches, %zu chords "
                "(=> %zu fundamental loops)\n\n",
                circuit.node_count(), circuit.branch_count(), tree.tree_branches.size(),
                tree.chords.size(), tree.chords.size());

    std::printf("=== Step 2: Enrichment (Fig. 5 hash table) =================\n");
    abstraction::EnrichmentStats stats;
    const abstraction::EquationDatabase db = abstraction::enrich(circuit, &stats);
    std::printf("%s", db.describe().c_str());
    std::printf("dipole=%zu KCL=%zu KVL=%zu solved-variants=%zu -> %zu equations in %zu "
                "dependency classes\n\n",
                stats.dipole_equations, stats.kcl_equations, stats.kvl_equations,
                stats.solved_variants, db.equation_count(), db.class_count());

    std::printf("=== Step 3: Assemble (Fig. 6 tree) =========================\n");
    std::string error;
    auto system = abstraction::assemble(db, {expr::branch_voltage("C1")}, &error);
    if (!system) {
        std::fprintf(stderr, "assembly failed: %s\n", error.c_str());
        return 1;
    }
    for (const abstraction::AssembledRoot& root : system->roots) {
        std::printf("  %s%s = %s\n", root.lhs_derivative ? "ddt " : "",
                    root.symbol.display().c_str(), expr::to_string(root.tree).c_str());
    }
    std::printf("(passes: %zu, equations consumed: %zu of %zu classes — the rest is the\n"
                " discarded conservative information of Fig. 3)\n\n",
                system->passes, system->equations_consumed, db.class_count());

    std::printf("=== Step 3b: derivative resolution + linear solution (Fig. 7a)\n");
    auto discretized = abstraction::discretize(*system, 50e-9,
                                               abstraction::DiscretizationScheme::kBackwardEuler,
                                               &error);
    if (!discretized) {
        std::fprintf(stderr, "discretization failed: %s\n", error.c_str());
        return 1;
    }
    auto assignments = abstraction::solve_coupled(discretized->roots, &error);
    if (!assignments) {
        std::fprintf(stderr, "linear solution failed: %s\n", error.c_str());
        return 1;
    }
    for (const abstraction::Assignment& a : *assignments) {
        std::printf("  %s := %s\n", a.target.display().c_str(),
                    expr::to_string(a.value).c_str());
    }

    std::printf("\n=== Step 4: Code generation (Fig. 7b) ======================\n");
    abstraction::SignalFlowModel model;
    model.name = circuit.name();
    model.timestep = 50e-9;
    model.inputs.push_back(expr::input_symbol("u0"));
    model.assignments = *assignments;
    model.outputs.push_back(expr::branch_voltage("C1"));
    std::printf("%s", codegen::generate(model, codegen::Target::kCpp).c_str());
    return 0;
}
