#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "codegen/codegen.hpp"
#include "netlist/builder.hpp"
#include "runtime/model_layout.hpp"
#include "support/strings.hpp"

namespace amsvp::codegen {
namespace {

abstraction::SignalFlowModel rc1_model() {
    const netlist::Circuit c = netlist::make_rc_ladder(1);
    std::string error;
    auto model = abstraction::abstract_circuit(c, {{"out", "gnd"}}, {}, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return std::move(*model);
}

TEST(Codegen, DefaultTypeNameIsSanitised) {
    abstraction::SignalFlowModel m;
    m.name = "RC20";
    EXPECT_EQ(default_type_name(m), "rc20_model");
    m.name = "2IN";
    EXPECT_EQ(default_type_name(m), "m2in_model");
    m.name = "";
    EXPECT_EQ(default_type_name(m), "model_model");
}

TEST(CppEmitter, ContainsStructStepAndState) {
    const std::string code = emit_cpp(rc1_model(), {});
    EXPECT_NE(code.find("struct rc1_model {"), std::string::npos);
    EXPECT_NE(code.find("static constexpr double dt = 5e-08;"), std::string::npos);
    EXPECT_NE(code.find("double u0 = 0;"), std::string::npos);
    EXPECT_NE(code.find("double V_C1 = 0;"), std::string::npos);
    EXPECT_NE(code.find("double V_C1_prev = 0;"), std::string::npos);
    EXPECT_NE(code.find("void step(double t)"), std::string::npos);
    EXPECT_NE(code.find("V_C1_prev = V_C1;"), std::string::npos);
    EXPECT_NE(code.find("double output0() const { return V_C1; }"), std::string::npos);
}

TEST(CppEmitter, HeaderCommentCanBeDisabled) {
    CodegenOptions options;
    options.header_comment = false;
    const std::string code = emit_cpp(rc1_model(), options);
    EXPECT_EQ(code.find("Generated by"), std::string::npos);
    EXPECT_EQ(code.rfind("#pragma once", 0), 0u);
}

TEST(CppEmitter, CustomTypeName) {
    CodegenOptions options;
    options.type_name = "my_filter";
    const std::string code = emit_cpp(rc1_model(), options);
    EXPECT_NE(code.find("struct my_filter {"), std::string::npos);
}

TEST(DeEmitter, ContainsModuleClockAndPorts) {
    const std::string code = emit_systemc_de(rc1_model(), {});
    EXPECT_NE(code.find("SC_MODULE(rc1_model)"), std::string::npos);
    EXPECT_NE(code.find("sc_core::sc_in<bool> clk;"), std::string::npos);
    EXPECT_NE(code.find("sc_core::sc_in<double> u0_port;"), std::string::npos);
    EXPECT_NE(code.find("sc_core::sc_out<double> out0_port;"), std::string::npos);
    EXPECT_NE(code.find("SC_METHOD(processing);"), std::string::npos);
    EXPECT_NE(code.find("sensitive << clk.pos();"), std::string::npos);
    EXPECT_NE(code.find("out0_port.write(V_C1);"), std::string::npos);
}

TEST(TdfEmitter, ContainsTimestepAndProcessing) {
    const std::string code = emit_systemc_tdf(rc1_model(), {});
    EXPECT_NE(code.find("SCA_TDF_MODULE(rc1_model)"), std::string::npos);
    EXPECT_NE(code.find("sca_tdf::sca_in<double> u0_port;"), std::string::npos);
    EXPECT_NE(code.find("set_timestep(5e-08, sc_core::SC_SEC);"), std::string::npos);
    EXPECT_NE(code.find("void processing()"), std::string::npos);
    EXPECT_NE(code.find("SCA_CTOR(rc1_model)"), std::string::npos);
}

TEST(Codegen, GenerateDispatches) {
    const auto model = rc1_model();
    EXPECT_EQ(generate(model, Target::kCpp), emit_cpp(model, {}));
    EXPECT_EQ(generate(model, Target::kSystemCDe), emit_systemc_de(model, {}));
    EXPECT_EQ(generate(model, Target::kSystemCAmsTdf), emit_systemc_tdf(model, {}));
}

TEST(Codegen, TargetNames) {
    EXPECT_EQ(to_string(Target::kCpp), "C++");
    EXPECT_EQ(to_string(Target::kSystemCDe), "SystemC-DE");
    EXPECT_EQ(to_string(Target::kSystemCAmsTdf), "SystemC-AMS/TDF");
}

TEST(Codegen, MultiStateModelDeclaresAllHistories) {
    const netlist::Circuit c = netlist::make_rc_ladder(3);
    std::string error;
    auto model = abstraction::abstract_circuit(c, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;
    const std::string code = emit_cpp(*model, {});
    EXPECT_NE(code.find("double V_C1_prev = 0;"), std::string::npos);
    EXPECT_NE(code.find("double V_C2_prev = 0;"), std::string::npos);
    EXPECT_NE(code.find("double V_C3_prev = 0;"), std::string::npos);
}

TEST(Codegen, ProvenanceCommentMentionsModel) {
    const std::string code = emit_cpp(rc1_model(), {});
    EXPECT_NE(code.find("Model: RC1; target: C++."), std::string::npos);
}

TEST(CppEmitter, SlotAccessorIsOptIn) {
    EXPECT_EQ(emit_cpp(rc1_model(), {}).find("slot_value"), std::string::npos);
    CodegenOptions options;
    options.slot_accessor = true;
    const std::string code = emit_cpp(rc1_model(), options);
    EXPECT_NE(code.find("double slot_value(int i) const {"), std::string::npos);
    EXPECT_NE(code.find("static constexpr int slot_count ="), std::string::npos);
    // The accessor forces the time-slot member so every model slot is
    // observable.
    EXPECT_NE(code.find("double _abstime"), std::string::npos);
}

// --- Fused-IR properties of the generated text ------------------------------
//
// The emitters render the optimized FusedProgram, so the generated source
// must carry its optimizations: no re-derived subexpressions (cross-
// assignment CSE) and whole affine assignments as single FMA chains.

/// Arithmetic statements ("lhs = rhs;" with an operator in the rhs) inside
/// the generated step()/processing() body.
std::vector<std::string> arithmetic_statements(const std::string& code) {
    std::vector<std::string> out;
    std::istringstream lines(code);
    std::string line;
    while (std::getline(lines, line)) {
        const std::string_view trimmed = support::trim(line);
        const std::size_t eq = trimmed.find(" = ");
        if (eq == std::string_view::npos || !trimmed.ends_with(";")) {
            continue;
        }
        const std::string_view rhs = trimmed.substr(eq + 3);
        if (rhs.find_first_of("+*/") != std::string_view::npos ||
            rhs.find(" - ") != std::string_view::npos) {
            out.emplace_back(trimmed);
        }
    }
    return out;
}

class FusedEmission : public ::testing::TestWithParam<const char*> {
protected:
    static abstraction::SignalFlowModel paper_model(const std::string& which) {
        const netlist::Circuit c =
            which == "OA" ? netlist::make_opamp() : netlist::make_rc_ladder(20);
        std::string error;
        auto model = abstraction::abstract_circuit(c, {{"out", "gnd"}}, {}, &error);
        EXPECT_TRUE(model.has_value()) << error;
        return std::move(*model);
    }
};

TEST_P(FusedEmission, OneStatementPerFusedInstruction) {
    const auto model = paper_model(GetParam());
    const std::string code = emit_cpp(model, {});
    const auto layout = runtime::ModelLayout::compile(model);

    // The step() body is a faithful rendering of the optimized instruction
    // stream — one statement per instruction, nothing re-expanded from the
    // trees — so no subexpression the fused compiler CSE'd away can appear
    // twice in the generated text.
    const std::size_t begin = code.find("void step(");
    const std::size_t end = code.find("// History rotation.");
    ASSERT_NE(begin, std::string::npos);
    ASSERT_NE(end, std::string::npos);
    std::istringstream lines(code.substr(begin, end - begin));
    std::string line;
    std::size_t statements = 0;
    while (std::getline(lines, line)) {
        const std::string_view t = support::trim(line);
        if (!t.ends_with(";") || t.starts_with("void ") || t.starts_with("(void)") ||
            t.starts_with("double _t") || t == "_abstime = t;") {
            continue;
        }
        ++statements;
    }
    EXPECT_EQ(statements, layout->fused_program().instructions().size());
}

TEST(CppEmitter, CseSubexpressionEmittedOnce) {
    using expr::Expr;
    const expr::Symbol u0 = expr::input_symbol("u0");
    const expr::Symbol u1 = expr::input_symbol("u1");
    const expr::Symbol y{expr::SymbolKind::kVariable, "y"};
    const expr::Symbol z{expr::SymbolKind::kVariable, "z"};

    abstraction::SignalFlowModel model;
    model.name = "cse_probe";
    model.timestep = 1e-6;
    model.inputs = {u0, u1};
    const expr::ExprPtr sum = Expr::add(Expr::symbol(u0), Expr::symbol(u1));
    model.assignments.push_back({y, Expr::mul(sum, Expr::symbol(u0))});
    model.assignments.push_back({z, Expr::mul(sum, Expr::symbol(u1))});
    model.outputs = {y, z};
    ASSERT_TRUE(model.validate().empty());

    const std::string code = emit_cpp(model, {});
    // The shared subexpression u0 + u1 is computed once and reused; a
    // tree-walking emitter would derive it twice.
    std::size_t occurrences = 0;
    for (std::size_t pos = code.find("u0 + u1"); pos != std::string::npos;
         pos = code.find("u0 + u1", pos + 1)) {
        ++occurrences;
    }
    EXPECT_EQ(occurrences, 1u);
}

TEST_P(FusedEmission, LinCombRendersAsSingleFmaChain) {
    const std::string code = emit_cpp(paper_model(GetParam()), {});
    // At least one statement carries a whole linear combination (>= 3
    // coefficient*operand products) as one chain.
    std::size_t chains = 0;
    for (const std::string& stmt : arithmetic_statements(code)) {
        std::size_t products = 0;
        for (std::size_t pos = stmt.find(" * "); pos != std::string::npos;
             pos = stmt.find(" * ", pos + 3)) {
            ++products;
        }
        if (products >= 3) {
            ++chains;
        }
    }
    EXPECT_GE(chains, 1u) << "no kLinComb FMA chain in generated code";
}

INSTANTIATE_TEST_SUITE_P(PaperCircuits, FusedEmission, ::testing::Values("RC20", "OA"));

}  // namespace
}  // namespace amsvp::codegen
