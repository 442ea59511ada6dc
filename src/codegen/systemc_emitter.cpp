#include "codegen/codegen.hpp"
#include "codegen/emit_common.hpp"
#include "support/strings.hpp"

namespace amsvp::codegen {

using detail::EmitPlan;

namespace {

/// Body shared by the DE and TDF processing() methods: read ports into
/// locals named after the input symbols, run the fused program (scratch
/// registers as locals), write outputs, rotate history.
std::string processing_body(const EmitPlan& plan, std::string_view read_suffix,
                            std::string_view time_expr) {
    std::string out;
    for (const std::string& in : plan.inputs) {
        out += "        const double " + in + " = " + in + "_port" + std::string(read_suffix) +
               ";\n";
    }
    if (plan.uses_time) {
        out += "        _abstime = " + std::string(time_expr) + ";\n";
    }
    for (const std::string& decl : plan.scratch_locals) {
        out += "        " + decl + "\n";
    }
    for (const std::string& stmt : plan.assignments) {
        out += "        " + stmt + "\n";
    }
    for (std::size_t i = 0; i < plan.outputs.size(); ++i) {
        out += "        out" + std::to_string(i) + "_port.write(" + plan.outputs[i] + ");\n";
    }
    if (!plan.rotations.empty()) {
        out += "        // History rotation.\n";
        for (const std::string& stmt : plan.rotations) {
            out += "        " + stmt + "\n";
        }
    }
    return out;
}

std::string member_declarations(const EmitPlan& plan) {
    std::string out;
    for (const auto& s : plan.states) {
        if (!s.is_input) {  // inputs read from ports as processing() locals
            out += "    double " + s.id + " = " + support::format_double(s.initial) + ";\n";
        }
        for (int k = 1; k <= s.depth; ++k) {
            out += "    double " + detail::history_name(s.id, k) + " = " +
                   support::format_double(s.initial) + ";\n";
        }
    }
    for (const std::string& m : plan.plain_members) {
        out += "    double " + m + " = 0;\n";
    }
    if (plan.uses_time) {
        out += "    double _abstime = 0;\n";
    }
    return out;
}

}  // namespace

// SystemC discrete-event target: a clocked SC_MODULE evaluating the fused
// program on every rising edge. The clock period encodes the model timestep.
std::string emit_systemc_de(const abstraction::SignalFlowModel& model,
                            const CodegenOptions& options) {
    // slot_accessor is a plain-C++-target hook; applied here it would only
    // force a dead _abstime member into the module.
    CodegenOptions sc_options = options;
    sc_options.slot_accessor = false;
    const EmitPlan plan = detail::build_plan(model, sc_options);
    std::string out = detail::provenance_comment(model, "SystemC-DE");
    out += "#pragma once\n\n#include <algorithm>\n#include <cmath>\n#include <systemc.h>\n\n";
    out += "SC_MODULE(" + plan.type_name + ") {\n";
    out += "    sc_core::sc_in<bool> clk;  // period = " +
           support::format_double(plan.timestep) + " s\n";
    for (const std::string& in : plan.inputs) {
        out += "    sc_core::sc_in<double> " + in + "_port;\n";
    }
    for (std::size_t i = 0; i < plan.outputs.size(); ++i) {
        out += "    sc_core::sc_out<double> out" + std::to_string(i) + "_port;  // " +
               plan.outputs[i] + "\n";
    }
    out += "\n";
    out += member_declarations(plan);
    out += "\n    void processing() {\n";
    out += processing_body(plan, ".read()",
                           "sc_core::sc_time_stamp().to_seconds()");
    out += "    }\n\n";
    out += "    SC_CTOR(" + plan.type_name + ") {\n";
    out += "        SC_METHOD(processing);\n";
    out += "        sensitive << clk.pos();\n";
    out += "    }\n";
    out += "};\n";
    return out;
}

// SystemC-AMS timed-dataflow target: rate-1 ports and a static timestep.
std::string emit_systemc_tdf(const abstraction::SignalFlowModel& model,
                             const CodegenOptions& options) {
    CodegenOptions sc_options = options;
    sc_options.slot_accessor = false;  // plain-C++-target hook; see emit_systemc_de
    const EmitPlan plan = detail::build_plan(model, sc_options);
    std::string out = detail::provenance_comment(model, "SystemC-AMS/TDF");
    out += "#pragma once\n\n#include <algorithm>\n#include <cmath>\n#include <systemc-ams.h>\n\n";
    out += "SCA_TDF_MODULE(" + plan.type_name + ") {\n";
    for (const std::string& in : plan.inputs) {
        out += "    sca_tdf::sca_in<double> " + in + "_port;\n";
    }
    for (std::size_t i = 0; i < plan.outputs.size(); ++i) {
        out += "    sca_tdf::sca_out<double> out" + std::to_string(i) + "_port;  // " +
               plan.outputs[i] + "\n";
    }
    out += "\n";
    out += member_declarations(plan);
    out += "\n    void set_attributes() {\n";
    out += "        set_timestep(" + support::format_double(plan.timestep) +
           ", sc_core::SC_SEC);\n";
    out += "    }\n";
    out += "\n    void processing() {\n";
    out += processing_body(plan, ".read()", "get_time().to_seconds()");
    out += "    }\n\n";
    out += "    SCA_CTOR(" + plan.type_name + ") {}\n";
    out += "};\n";
    return out;
}

}  // namespace amsvp::codegen
