#include <gtest/gtest.h>

#include "support/diagnostics.hpp"
#include "vams/circuits.hpp"
#include "vams/elaborator.hpp"
#include "vams/parser.hpp"

namespace amsvp::vams {
namespace {

ElaborationResult elaborate_ok(std::string_view source) {
    support::DiagnosticEngine diags;
    auto module = parse_module_source(source, diags);
    EXPECT_TRUE(module.has_value()) << diags.render_all();
    auto result = elaborate(*module, diags);
    EXPECT_TRUE(result.has_value()) << diags.render_all();
    return result ? std::move(*result) : ElaborationResult{netlist::Circuit(), {}};
}

void elaborate_fails(std::string_view source) {
    support::DiagnosticEngine diags;
    auto module = parse_module_source(source, diags);
    ASSERT_TRUE(module.has_value()) << diags.render_all();
    EXPECT_FALSE(elaborate(*module, diags).has_value());
    EXPECT_TRUE(diags.has_errors());
}

class LadderShapes : public ::testing::TestWithParam<int> {};

TEST_P(LadderShapes, MatchesBuilderTopology) {
    const int n = GetParam();
    const ElaborationResult result = elaborate_ok(rc_ladder_source(n));
    // in + n intermediate/out + gnd.
    EXPECT_EQ(result.circuit.node_count(), static_cast<std::size_t>(n) + 2);
    // 1 source + n R + n C.
    EXPECT_EQ(result.circuit.branch_count(), static_cast<std::size_t>(2 * n) + 1);
    EXPECT_EQ(result.inputs, std::vector<std::string>{"u0"});
    EXPECT_TRUE(result.circuit.validate().empty());
}

INSTANTIATE_TEST_SUITE_P(Orders, LadderShapes, ::testing::Values(1, 2, 3, 5, 20));

TEST(Elaborator, ClassifiesDevices) {
    const ElaborationResult result = elaborate_ok(rc_ladder_source(1));
    int resistors = 0;
    int capacitors = 0;
    int sources = 0;
    for (const netlist::Branch& b : result.circuit.branches()) {
        switch (b.kind) {
            case netlist::DeviceKind::kResistor:
                ++resistors;
                EXPECT_DOUBLE_EQ(b.value, 5e3);
                break;
            case netlist::DeviceKind::kCapacitor:
                ++capacitors;
                EXPECT_DOUBLE_EQ(b.value, 25e-9);
                break;
            case netlist::DeviceKind::kVoltageSource:
                ++sources;
                EXPECT_EQ(b.input, "u0");
                break;
            default:
                ADD_FAILURE() << "unexpected device kind for " << b.name;
        }
    }
    EXPECT_EQ(resistors, 1);
    EXPECT_EQ(capacitors, 1);
    EXPECT_EQ(sources, 1);
}

TEST(Elaborator, OpampCircuitHasVcvs) {
    const ElaborationResult result = elaborate_ok(opamp_source());
    bool found_vcvs = false;
    for (const netlist::Branch& b : result.circuit.branches()) {
        if (b.kind == netlist::DeviceKind::kVcvs) {
            found_vcvs = true;
            EXPECT_DOUBLE_EQ(b.value, -1e5);
            EXPECT_GE(b.control, 0);
        }
    }
    EXPECT_TRUE(found_vcvs);
}

TEST(Elaborator, TwoInputsHasTwoStimuli) {
    const ElaborationResult result = elaborate_ok(two_inputs_source());
    EXPECT_EQ(result.inputs, (std::vector<std::string>{"u0", "u1"}));
}

TEST(Elaborator, UsesDeclaredBranchNames) {
    const ElaborationResult result = elaborate_ok(R"(module m(a, gnd);
  electrical a, gnd;
  ground gnd;
  branch (a, gnd) rload;
  analog begin
    V(a, gnd) <+ u0;
    I(a, gnd) <+ V(a, gnd) / 1k;
  end
endmodule)");
    // The first contribution targeting (a, gnd) takes the declared name.
    EXPECT_TRUE(result.circuit.find_branch("rload").has_value());
}

TEST(Elaborator, InsertsProbeForUnmatchedVoltageAccess) {
    const ElaborationResult result = elaborate_ok(R"(module m(a, b, gnd);
  electrical a, b, gnd;
  ground gnd;
  analog begin
    V(a, gnd) <+ u0;
    I(a, b) <+ V(a, b) / 1k;
    I(b, gnd) <+ V(b, gnd) / 1k;
    // V(a, gnd) exists (source branch), but V(b, a) spans no branch in this
    // orientation... it does (the resistor, reversed). Use a genuinely
    // unmatched pair through a controlled source instead:
    V(b, gnd) <+ 0.5 * V(a, gnd);
  end
endmodule)");
    EXPECT_TRUE(result.circuit.validate().empty());
}

TEST(Elaborator, ReversedAccessGetsNegated) {
    const ElaborationResult result = elaborate_ok(R"(module m(a, gnd);
  electrical a, gnd;
  ground gnd;
  analog begin
    V(a, gnd) <+ u0;
    I(gnd, a) <+ V(gnd, a) / 1k;
  end
endmodule)");
    EXPECT_TRUE(result.circuit.validate().empty());
    EXPECT_EQ(result.circuit.branch_count(), 2u);
}

TEST(Elaborator, GroundFallsBackToNodeNamedGnd) {
    const ElaborationResult result = elaborate_ok(R"(module m(a, gnd);
  electrical a, gnd;
  analog begin
    V(a, gnd) <+ u0;
    I(a, gnd) <+ V(a, gnd) / 1k;
  end
endmodule)");
    EXPECT_TRUE(result.circuit.has_ground());
    EXPECT_EQ(result.circuit.node_info(result.circuit.ground()).name, "gnd");
}

TEST(Elaborator, ErrorWithoutGround) {
    elaborate_fails(R"(module m(a, b);
  electrical a, b;
  analog begin
    V(a, b) <+ u0;
  end
endmodule)");
}

TEST(Elaborator, ErrorOnRealVariableInConservativeContribution) {
    elaborate_fails(R"(module m(a, gnd);
  electrical a, gnd;
  ground gnd;
  real x;
  analog begin
    x = 1;
    I(a, gnd) <+ x;
  end
endmodule)");
}

TEST(Elaborator, ErrorOnUndeclaredNode) {
    elaborate_fails(R"(module m(a, gnd);
  electrical a, gnd;
  ground gnd;
  analog begin
    I(a, nowhere) <+ 1;
  end
endmodule)");
}

TEST(Elaborator, ErrorOnEmptyAnalog) {
    elaborate_fails(R"(module m(a, gnd);
  electrical a, gnd;
  ground gnd;
endmodule)");
}

TEST(Elaborator, ParameterOverridesReplaceDefaults) {
    support::DiagnosticEngine diags;
    auto module = parse_module_source(rc_ladder_source(1), diags);
    ASSERT_TRUE(module.has_value());
    auto result = elaborate(*module, diags, {{"R", 10e3}, {"C", 50e-9}});
    ASSERT_TRUE(result.has_value()) << diags.render_all();

    bool saw_r = false;
    bool saw_c = false;
    for (const netlist::Branch& b : result->circuit.branches()) {
        if (b.kind == netlist::DeviceKind::kResistor) {
            saw_r = true;
            EXPECT_DOUBLE_EQ(b.value, 10e3);
        }
        if (b.kind == netlist::DeviceKind::kCapacitor) {
            saw_c = true;
            EXPECT_DOUBLE_EQ(b.value, 50e-9);
        }
    }
    EXPECT_TRUE(saw_r);
    EXPECT_TRUE(saw_c);
}

TEST(Elaborator, OverrideOfUnknownParameterIsAnError) {
    support::DiagnosticEngine diags;
    auto module = parse_module_source(rc_ladder_source(1), diags);
    ASSERT_TRUE(module.has_value());
    EXPECT_FALSE(elaborate(*module, diags, {{"NOPE", 1.0}}).has_value());
    EXPECT_TRUE(diags.has_errors());
}

TEST(Elaborator, DerivedParametersUseOverriddenBase) {
    support::DiagnosticEngine diags;
    auto module = parse_module_source(R"(module m(a, gnd);
  electrical a, gnd;
  ground gnd;
  parameter real R = 1k;
  parameter real R2 = R * 2;
  analog begin
    V(a, gnd) <+ u0;
    I(a, gnd) <+ V(a, gnd) / R2;
  end
endmodule)",
                                      diags);
    ASSERT_TRUE(module.has_value());
    auto result = elaborate(*module, diags, {{"R", 5e3}});
    ASSERT_TRUE(result.has_value()) << diags.render_all();
    bool saw = false;
    for (const netlist::Branch& b : result->circuit.branches()) {
        if (b.kind == netlist::DeviceKind::kResistor) {
            saw = true;
            EXPECT_DOUBLE_EQ(b.value, 10e3);  // R2 = overridden R * 2
        }
    }
    EXPECT_TRUE(saw);
}

TEST(SignalFlowDetection, ClassifiesModules) {
    support::DiagnosticEngine diags;
    auto conservative = parse_module_source(rc_ladder_source(1), diags);
    ASSERT_TRUE(conservative.has_value());
    EXPECT_FALSE(is_signal_flow(*conservative));

    auto behavioral = parse_module_source(signal_flow_lowpass_source(), diags);
    ASSERT_TRUE(behavioral.has_value()) << diags.render_all();
    EXPECT_TRUE(is_signal_flow(*behavioral));
}

TEST(BundledSources, AllParse) {
    support::DiagnosticEngine diags;
    EXPECT_TRUE(parse_module_source(rc_ladder_source(20), diags).has_value())
        << diags.render_all();
    EXPECT_TRUE(parse_module_source(two_inputs_source(), diags).has_value())
        << diags.render_all();
    EXPECT_TRUE(parse_module_source(opamp_source(), diags).has_value()) << diags.render_all();
    EXPECT_TRUE(parse_module_source(signal_flow_lowpass_source(), diags).has_value())
        << diags.render_all();
}

}  // namespace
}  // namespace amsvp::vams
