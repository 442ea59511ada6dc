#include "abstraction/enrichment.hpp"

#include "expr/linear_form.hpp"
#include "netlist/topology.hpp"

namespace amsvp::abstraction {

using expr::Equation;
using expr::EquationKind;
using expr::Expr;
using expr::ExprPtr;
using expr::LinearForm;
using expr::LinearKey;

namespace {

/// Insert `base` (lhs = rhs) plus one solved variant per term into a fresh
/// class. `base.lhs - base.rhs == 0` is the underlying constraint; when it is
/// linear in the branch quantities, Solve() (Algorithm 1, line 7) produces
/// one rearranged equation per unknown occurrence.
void insert_with_variants(EquationDatabase& db, Equation base, EquationKind variant_kind,
                          std::size_t* variant_counter) {
    const ClassId cls = db.new_class();
    const LinearKey base_key = base.lhs_key();
    const std::string origin = base.origin;

    // constraint = lhs - rhs (== 0)
    ExprPtr constraint = Expr::sub(base.lhs, base.rhs);
    db.insert(std::move(base), cls);

    auto linear = LinearForm::extract(constraint, expr::branch_quantities_unknown());
    if (!linear) {
        return;  // non-linear constraint: only the original form is usable
    }
    for (const auto& [key, coeff] : linear->coefficients()) {
        if (key == base_key) {
            continue;  // that variant is the original equation
        }
        auto solved = linear->solve_for(key);
        if (!solved) {
            continue;
        }
        Equation variant;
        variant.kind = variant_kind;
        variant.lhs = key.to_expr();
        variant.rhs = *solved;
        variant.origin = origin + " solved for " + key.display();
        db.insert(std::move(variant), cls);
        if (variant_counter != nullptr) {
            ++*variant_counter;
        }
    }
}

}  // namespace

EquationDatabase enrich(const netlist::Circuit& circuit, EnrichmentStats* stats) {
    EquationDatabase db;
    EnrichmentStats local;

    // Dipole equations (acquired in Step 1).
    for (const Equation& dipole : circuit.dipole_equations()) {
        insert_with_variants(db, dipole, EquationKind::kSolvedVariant, &local.solved_variants);
        ++local.dipole_equations;
    }

    // Nodal analysis: KCL at every node except ground.
    for (netlist::NodeId n = 0; n < static_cast<netlist::NodeId>(circuit.node_count()); ++n) {
        if (circuit.has_ground() && n == circuit.ground()) {
            continue;
        }
        const auto incidences = circuit.incident(n);
        if (incidences.empty()) {
            continue;
        }
        // sum(sign * I(b)) == 0; pick the first branch as the lhs so the
        // original equation also has key form.
        LinearForm form;
        for (const auto& inc : incidences) {
            form.add_term(LinearKey{circuit.branch(inc.branch).current_symbol(), false},
                          static_cast<double>(inc.sign));
        }
        const LinearKey lead{circuit.branch(incidences.front().branch).current_symbol(), false};
        auto solved = form.solve_for(lead);
        if (!solved) {
            continue;
        }
        Equation kcl;
        kcl.kind = EquationKind::kKirchhoffCurrent;
        kcl.lhs = lead.to_expr();
        kcl.rhs = *solved;
        kcl.origin = "KCL@" + circuit.node_info(n).name;
        insert_with_variants(db, std::move(kcl), EquationKind::kKirchhoffCurrent,
                             &local.solved_variants);
        ++local.kcl_equations;
    }

    // Mesh analysis: KVL around every fundamental loop.
    const std::vector<netlist::Loop> loops = netlist::fundamental_loops(circuit);
    int loop_index = 0;
    for (const netlist::Loop& loop : loops) {
        LinearForm form;
        for (const netlist::LoopEntry& entry : loop.entries) {
            form.add_term(LinearKey{circuit.branch(entry.branch).voltage_symbol(), false},
                          static_cast<double>(entry.sign));
        }
        const LinearKey lead{circuit.branch(loop.entries.front().branch).voltage_symbol(), false};
        auto solved = form.solve_for(lead);
        if (!solved) {
            ++loop_index;
            continue;
        }
        Equation kvl;
        kvl.kind = EquationKind::kKirchhoffVoltage;
        kvl.lhs = lead.to_expr();
        kvl.rhs = *solved;
        kvl.origin = "KVL#" + std::to_string(loop_index++);
        insert_with_variants(db, std::move(kvl), EquationKind::kKirchhoffVoltage,
                             &local.solved_variants);
        ++local.kvl_equations;
    }

    if (stats != nullptr) {
        *stats = local;
    }
    return db;
}

}  // namespace amsvp::abstraction
