#include "abstraction/abstraction.hpp"

#include <chrono>

#include "expr/equation.hpp"
#include "expr/simplify.hpp"
#include "support/check.hpp"

namespace amsvp::abstraction {

using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Resolve an output spec to a branch-voltage symbol, inserting a probe
/// branch into `circuit` when needed. `negate` reports reversed orientation.
std::optional<expr::Symbol> resolve_output(netlist::Circuit& circuit, const OutputSpec& spec,
                                           bool& negate, std::string* error) {
    const auto pos = circuit.find_node(spec.pos);
    const auto neg = circuit.find_node(spec.neg);
    if (!pos || !neg) {
        if (error != nullptr) {
            *error = "output " + spec.display() + " references an unknown node";
        }
        return std::nullopt;
    }
    if (auto existing = circuit.find_branch_between(*pos, *neg)) {
        const netlist::Branch& b = circuit.branch(*existing);
        negate = (b.pos != *pos);
        return b.voltage_symbol();
    }
    // Insert an open probe so the node-pair voltage becomes a branch quantity.
    netlist::Branch probe;
    probe.name = "PROBE_" + spec.pos + "_" + spec.neg;
    probe.pos = *pos;
    probe.neg = *neg;
    probe.kind = netlist::DeviceKind::kProbe;
    expr::Equation eq = expr::make_equation(expr::EquationKind::kDipole,
                                            probe.current_symbol(), expr::Expr::constant(0.0),
                                            "dipole(" + probe.name + ")");
    const netlist::BranchId id = circuit.add_branch(std::move(probe), std::move(eq));
    negate = false;
    return circuit.branch(id).voltage_symbol();
}

}  // namespace

std::optional<SignalFlowModel> abstract_circuit(const netlist::Circuit& original,
                                                const std::vector<OutputSpec>& outputs,
                                                const AbstractionOptions& options,
                                                std::string* error,
                                                AbstractionReport* report) {
    AMSVP_CHECK(!outputs.empty(), "at least one output of interest is required");
    const auto t_total = Clock::now();

    // Work on a copy: probe insertion must not mutate the caller's netlist.
    netlist::Circuit circuit = original;

    std::vector<expr::Symbol> output_symbols;
    std::vector<bool> output_negated;
    for (const OutputSpec& spec : outputs) {
        bool negate = false;
        auto symbol = resolve_output(circuit, spec, negate, error);
        if (!symbol) {
            return std::nullopt;
        }
        output_symbols.push_back(*symbol);
        output_negated.push_back(negate);
    }

    AbstractionReport local;

    // Step 2: Enrichment.
    const auto t_enrich = Clock::now();
    EquationDatabase db = enrich(circuit, &local.enrichment);
    local.enrichment_seconds = seconds_since(t_enrich);
    local.database_equations = db.equation_count();
    local.database_classes = db.class_count();

    // Step 3: Assemble.
    const auto t_assemble = Clock::now();
    auto system = assemble(db, output_symbols, error);
    if (!system) {
        return std::nullopt;
    }
    local.assemble_seconds = seconds_since(t_assemble);
    local.assembly_passes = system->passes;
    local.equations_consumed = system->equations_consumed;
    local.roots = system->roots.size();

    // Derivative resolution + linear solution.
    const auto t_solve = Clock::now();
    auto discretized = discretize(*system, options.timestep, options.scheme, error);
    if (!discretized) {
        return std::nullopt;
    }
    auto assignments = solve_coupled(discretized->roots, error);
    if (!assignments) {
        return std::nullopt;
    }
    local.solve_seconds = seconds_since(t_solve);

    // Step 4 input: the signal-flow model (code generation consumes this).
    SignalFlowModel model;
    model.name = circuit.name();
    model.timestep = options.timestep;
    for (const std::string& input : circuit.input_names()) {
        model.inputs.push_back(expr::input_symbol(input));
    }
    model.assignments = std::move(*assignments);
    for (const Assignment& post : discretized->post_assignments) {
        model.assignments.push_back(post);
    }
    // Final clean-up pass: fold constant factors and sign chains the
    // symbolic elimination left behind, so the generated code matches the
    // hand-written form of Fig. 7b.
    for (Assignment& a : model.assignments) {
        a.value = expr::simplify(a.value);
    }
    for (std::size_t i = 0; i < output_symbols.size(); ++i) {
        if (output_negated[i]) {
            // Orientation of the spanning branch is reversed w.r.t. the
            // requested (pos, neg): emit an alias assignment.
            const expr::Symbol alias =
                expr::variable_symbol("out_" + outputs[i].pos + "_" + outputs[i].neg);
            model.assignments.push_back(Assignment{
                alias, expr::Expr::neg(expr::Expr::symbol(output_symbols[i]))});
            model.outputs.push_back(alias);
        } else {
            model.outputs.push_back(output_symbols[i]);
        }
    }

    local.model_nodes = model.node_count();
    local.total_seconds = seconds_since(t_total);
    if (report != nullptr) {
        *report = local;
    }

    const std::vector<std::string> problems = model.validate();
    if (!problems.empty()) {
        if (error != nullptr) {
            *error = "generated model failed validation: " + problems.front();
        }
        return std::nullopt;
    }
    return model;
}

}  // namespace amsvp::abstraction
