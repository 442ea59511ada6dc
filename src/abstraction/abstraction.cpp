#include "abstraction/abstraction.hpp"

#include <algorithm>
#include <chrono>
#include <string>

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

    // Distinct root symbols, in first-request order: two specs naming the
    // same branch voltage (in either orientation) share one root, which the
    // assembler defines once.
    std::vector<expr::Symbol> output_symbols;
    std::vector<std::size_t> output_root;
    std::vector<bool> output_negated;
    for (const OutputSpec& spec : outputs) {
        bool negate = false;
        auto symbol = resolve_output(circuit, spec, negate, error);
        if (!symbol) {
            return std::nullopt;
        }
        const auto seen = std::find(output_symbols.begin(), output_symbols.end(), *symbol);
        output_root.push_back(static_cast<std::size_t>(seen - output_symbols.begin()));
        if (seen == output_symbols.end()) {
            output_symbols.push_back(*symbol);
        }
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
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        const expr::Symbol& root = output_symbols[output_root[i]];
        const bool repeat =
            std::find(model.outputs.begin(), model.outputs.end(), root) != model.outputs.end();
        if (!output_negated[i] && !repeat) {
            model.outputs.push_back(root);
            continue;
        }
        // The spanning branch is reversed w.r.t. the requested (pos, neg),
        // or an earlier output already is this root: emit an alias
        // assignment, negated when reversed, under a name no earlier output
        // took.
        std::string name = "out_" + outputs[i].pos + "_" + outputs[i].neg;
        if (std::find(model.outputs.begin(), model.outputs.end(),
                      expr::variable_symbol(name)) != model.outputs.end()) {
            name += "_" + std::to_string(i);
        }
        const expr::Symbol alias = expr::variable_symbol(name);
        expr::ExprPtr value = expr::Expr::symbol(root);
        if (output_negated[i]) {
            value = expr::Expr::neg(std::move(value));
        }
        model.assignments.push_back(Assignment{alias, std::move(value)});
        model.outputs.push_back(alias);
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
