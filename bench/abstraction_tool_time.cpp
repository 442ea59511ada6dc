// Abstraction-tool processing time (Section V-A, in-text measurement: "the
// abstraction tool spent 7.67 s to process the most complex model, i.e.
// RC20 which features 22 nodes and 41 branches"). Sweeps the ladder order
// and reports the per-phase cost of the flow.
#include <cstdio>

#include "abstraction/abstraction.hpp"
#include "bench_common.hpp"
#include "netlist/builder.hpp"

int main(int argc, char** argv) {
    (void)amsvp::bench::Args(argc, argv, {});
    using namespace amsvp;

    std::printf("ABSTRACTION TOOL PROCESSING TIME (RCn sweep; paper: RC20 in 7.67 s)\n\n");
    std::printf("%-6s %6s %9s %10s %8s %6s %12s %12s %12s %12s\n", "Model", "Nodes",
                "Branches", "Equations", "Classes", "Roots", "Enrich (ms)", "Assemble",
                "Solve (ms)", "Total (ms)");

    for (const int n : {1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20}) {
        const netlist::Circuit circuit = netlist::make_rc_ladder(n);
        std::string error;
        abstraction::AbstractionReport report;
        auto model =
            abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error, &report);
        if (!model) {
            std::fprintf(stderr, "RC%d failed: %s\n", n, error.c_str());
            return 1;
        }
        std::printf("RC%-4d %6zu %9zu %10zu %8zu %6zu %12.3f %12.3f %12.3f %12.3f\n", n,
                    circuit.node_count(), circuit.branch_count(), report.database_equations,
                    report.database_classes, report.roots, report.enrichment_seconds * 1e3,
                    report.assemble_seconds * 1e3, report.solve_seconds * 1e3,
                    report.total_seconds * 1e3);
    }

    // The 2IN and OA circuits for completeness.
    for (const auto& [name, make] :
         {std::pair{"2IN", &netlist::make_two_inputs}, std::pair{"OA", &netlist::make_opamp}}) {
        const netlist::Circuit circuit = make();
        std::string error;
        abstraction::AbstractionReport report;
        auto model =
            abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error, &report);
        if (!model) {
            std::fprintf(stderr, "%s failed: %s\n", name, error.c_str());
            return 1;
        }
        std::printf("%-6s %6zu %9zu %10zu %8zu %6zu %12.3f %12.3f %12.3f %12.3f\n", name,
                    circuit.node_count(), circuit.branch_count(), report.database_equations,
                    report.database_classes, report.roots, report.enrichment_seconds * 1e3,
                    report.assemble_seconds * 1e3, report.solve_seconds * 1e3,
                    report.total_seconds * 1e3);
    }
    return 0;
}
