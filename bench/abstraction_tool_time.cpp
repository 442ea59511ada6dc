// Abstraction-tool processing time (Section V-A, in-text measurement: "the
// abstraction tool spent 7.67 s to process the most complex model, i.e.
// RC20 which features 22 nodes and 41 branches"). Sweeps the ladder order
// and reports the per-phase cost of the flow. Each phase's time is the best
// of five abstract_circuit runs per row: one run spreads wider than the
// differences the table is read for.
#include <algorithm>
#include <cstdio>

#include "abstraction/abstraction.hpp"
#include "bench_common.hpp"
#include "netlist/builder.hpp"

namespace {

using namespace amsvp;

constexpr int kRuns = 5;

/// Abstract `circuit` kRuns times and print its row with each phase's best
/// time; false (after a message on stderr) when the flow fails.
bool print_row(const char* name, const netlist::Circuit& circuit) {
    abstraction::AbstractionReport best;
    for (int run = 0; run < kRuns; ++run) {
        std::string error;
        abstraction::AbstractionReport report;
        if (!abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error, &report)) {
            std::fprintf(stderr, "%s failed: %s\n", name, error.c_str());
            return false;
        }
        if (run == 0) {
            best = report;
            continue;
        }
        best.enrichment_seconds = std::min(best.enrichment_seconds, report.enrichment_seconds);
        best.assemble_seconds = std::min(best.assemble_seconds, report.assemble_seconds);
        best.solve_seconds = std::min(best.solve_seconds, report.solve_seconds);
        best.total_seconds = std::min(best.total_seconds, report.total_seconds);
    }
    std::printf("%-6s %6zu %9zu %10zu %8zu %6zu %6zu %12.3f %12.3f %12.3f %12.3f\n", name,
                circuit.node_count(), circuit.branch_count(), best.database_equations,
                best.database_classes, best.assembly_passes, best.roots,
                best.enrichment_seconds * 1e3, best.assemble_seconds * 1e3,
                best.solve_seconds * 1e3, best.total_seconds * 1e3);
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    (void)bench::Args(argc, argv, {});

    std::printf("ABSTRACTION TOOL PROCESSING TIME (RCn sweep; paper: RC20 in 7.67 s; "
                "best of %d runs)\n\n",
                kRuns);
    std::printf("%-6s %6s %9s %10s %8s %6s %6s %12s %12s %12s %12s\n", "Model", "Nodes",
                "Branches", "Equations", "Classes", "Passes", "Roots", "Enrich (ms)",
                "Assemble", "Solve (ms)", "Total (ms)");

    char name[16];
    for (const int n : {1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20}) {
        std::snprintf(name, sizeof name, "RC%d", n);
        if (!print_row(name, netlist::make_rc_ladder(n))) {
            return 1;
        }
    }
    // The 2IN and OA circuits for completeness.
    if (!print_row("2IN", netlist::make_two_inputs()) || !print_row("OA", netlist::make_opamp())) {
        return 1;
    }
    return 0;
}
