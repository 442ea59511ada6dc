#include "codegen/codegen.hpp"
#include "codegen/emit_common.hpp"
#include "support/strings.hpp"

namespace amsvp::codegen {

using detail::EmitPlan;

// Plain C++ target (Fig. 7b of the paper): a dependency-free struct whose
// step() evaluates the fused signal-flow program once and rotates the
// history. The statements are the fused register-machine instructions —
// scratch registers become step()-locals, pooled constants inline as
// literals — so the generated arithmetic is exactly what the in-process
// interpreter executes.
std::string emit_cpp(const abstraction::SignalFlowModel& model, const CodegenOptions& options) {
    const EmitPlan plan = detail::build_plan(model, options);
    std::string out = detail::provenance_comment(model, "C++");
    out += "#pragma once\n";
    out += "\n";
    out += "#include <algorithm>\n";
    out += "#include <cmath>\n";
    out += "\n";
    out += "struct " + plan.type_name + " {\n";
    out += "    static constexpr double dt = " + support::format_double(plan.timestep) +
           ";  // seconds\n";
    if (!plan.inputs.empty()) {
        out += "\n    // Inputs: set before each step() call.\n";
        for (const std::string& in : plan.inputs) {
            out += "    double " + in + " = 0;\n";
        }
    }
    if (!plan.states.empty()) {
        out += "\n    // State variables and their history.\n";
        for (const auto& s : plan.states) {
            if (!s.is_input) {  // inputs are already declared above
                out += "    double " + s.id + " = " + support::format_double(s.initial) +
                       ";\n";
            }
            for (int k = 1; k <= s.depth; ++k) {
                out += "    double " + detail::history_name(s.id, k) + " = " +
                       support::format_double(s.initial) + ";\n";
            }
        }
    }
    if (!plan.plain_members.empty()) {
        out += "\n    // Intermediate quantities.\n";
        for (const std::string& m : plan.plain_members) {
            out += "    double " + m + " = 0;\n";
        }
    }
    if (plan.uses_time) {
        out += "\n    double _abstime = 0;  // $abstime\n";
    }
    out += "\n    // Evaluate one timestep at absolute time t (seconds).\n";
    out += "    void step(double t) {\n";
    out += plan.uses_time ? "        _abstime = t;\n" : "        (void)t;\n";
    for (const std::string& decl : plan.scratch_locals) {
        out += "        " + decl + "\n";
    }
    for (const std::string& stmt : plan.assignments) {
        out += "        " + stmt + "\n";
    }
    if (!plan.rotations.empty()) {
        out += "        // History rotation.\n";
        for (const std::string& stmt : plan.rotations) {
            out += "        " + stmt + "\n";
        }
    }
    out += "    }\n";
    if (!plan.outputs.empty()) {
        out += "\n    // Outputs of interest.\n";
        for (std::size_t i = 0; i < plan.outputs.size(); ++i) {
            out += "    double output" + std::to_string(i) + "() const { return " +
                   plan.outputs[i] + "; }\n";
        }
    }
    if (options.slot_accessor) {
        out += "\n    // Model slot file (runtime ModelLayout order) — differential hook.\n";
        out += "    static constexpr int slot_count = " +
               std::to_string(plan.slot_names.size()) + ";\n";
        out += "    double slot_value(int i) const {\n";
        out += detail::slot_accessor_body(plan, "        ");
        out += "    }\n";
    }
    out += "};\n";
    return out;
}

}  // namespace amsvp::codegen
