#include <gtest/gtest.h>

#include <cmath>

#include "abstraction/behavioral.hpp"
#include "runtime/simulate.hpp"
#include "support/diagnostics.hpp"
#include "vams/circuits.hpp"
#include "vams/elaborator.hpp"
#include "vams/parser.hpp"

namespace amsvp::abstraction {
namespace {

SignalFlowModel convert_ok(std::string_view source, const AbstractionOptions& options = {}) {
    support::DiagnosticEngine diags;
    auto module = vams::parse_module_source(source, diags);
    EXPECT_TRUE(module.has_value()) << diags.render_all();
    EXPECT_TRUE(vams::is_signal_flow(*module));
    auto model = convert_signal_flow(*module, options, diags);
    EXPECT_TRUE(model.has_value()) << diags.render_all();
    return model ? std::move(*model) : SignalFlowModel{};
}

TEST(Behavioral, LowPassMatchesAnalyticStepResponse) {
    const SignalFlowModel model = convert_ok(vams::signal_flow_lowpass_source());
    auto result = runtime::simulate_transient(model, {{"u0", numeric::constant(1.0)}}, 1e-3);
    const numeric::Waveform& out = result.outputs.front();
    for (std::size_t k = 999; k < out.size(); k += 5000) {
        const double analytic = 1.0 - std::exp(-out.time(k) / 125e-6);
        EXPECT_NEAR(out.value(k), analytic, 2e-3) << "at t=" << out.time(k);
    }
}

TEST(Behavioral, StatementsKeepSourceOrder) {
    const SignalFlowModel model = convert_ok(R"(module chain(out);
  electrical out;
  real a, b;
  analog begin
    a = u0 * 2;
    b = a + 1;
    V(out) <+ b;
  end
endmodule)");
    ASSERT_EQ(model.assignments.size(), 3u);
    EXPECT_EQ(model.assignments[0].target.name, "a");
    EXPECT_EQ(model.assignments[1].target.name, "b");
    EXPECT_EQ(model.assignments[2].target.name, "out");

    runtime::CompiledModel compiled(model);
    compiled.set_input(0, 3.0);
    compiled.step(0.0);
    EXPECT_DOUBLE_EQ(compiled.output(0), 7.0);
}

TEST(Behavioral, ForwardReferenceReadsPreviousValue) {
    // b reads a *before* a is assigned this step: previous-step semantics.
    const SignalFlowModel model = convert_ok(R"(module fwd(out);
  electrical out;
  real a, b;
  analog begin
    b = a + 1;
    a = u0;
    V(out) <+ b;
  end
endmodule)");
    runtime::CompiledModel compiled(model);
    compiled.set_input(0, 10.0);
    compiled.step(0.0);
    EXPECT_DOUBLE_EQ(compiled.output(0), 1.0);  // a was 0 last step
    compiled.set_input(0, 20.0);
    compiled.step(1e-6);
    EXPECT_DOUBLE_EQ(compiled.output(0), 11.0);  // a from previous step
}

TEST(Behavioral, IfElseBecomesConditionalAssignment) {
    const SignalFlowModel model = convert_ok(R"(module clip(out);
  electrical out;
  real y;
  analog begin
    if (u0 > 1)
      y = 1;
    else
      y = u0;
    V(out) <+ y;
  end
endmodule)");
    runtime::CompiledModel compiled(model);
    compiled.set_input(0, 0.5);
    compiled.step(0.0);
    EXPECT_DOUBLE_EQ(compiled.output(0), 0.5);
    compiled.set_input(0, 3.0);
    compiled.step(1e-6);
    EXPECT_DOUBLE_EQ(compiled.output(0), 1.0);
}

TEST(Behavioral, IfWithoutElseKeepsPreviousValue) {
    const SignalFlowModel model = convert_ok(R"(module latch(out);
  electrical out;
  real y;
  analog begin
    if (u0 > 0)
      y = u0;
    V(out) <+ y;
  end
endmodule)");
    runtime::CompiledModel compiled(model);
    compiled.set_input(0, 5.0);
    compiled.step(0.0);
    EXPECT_DOUBLE_EQ(compiled.output(0), 5.0);
    compiled.set_input(0, -1.0);
    compiled.step(1e-6);
    EXPECT_DOUBLE_EQ(compiled.output(0), 5.0);  // held
}

TEST(Behavioral, DdtOperatorDifferentiates) {
    const SignalFlowModel model = convert_ok(R"(module differ(out);
  electrical out;
  real y;
  analog begin
    y = ddt(u0);
    V(out) <+ y;
  end
endmodule)");
    runtime::CompiledModel compiled(model);
    const double dt = model.timestep;
    // Ramp input u = 1e6 * t -> derivative 1e6.
    compiled.set_input(0, 0.0);
    compiled.step(0.0);
    compiled.set_input(0, 1e6 * dt);
    compiled.step(dt);
    EXPECT_NEAR(compiled.output(0), 1e6, 1e-3);
}

TEST(Behavioral, TrapezoidalIdtHalvesFirstIncrement) {
    AbstractionOptions options;
    options.scheme = DiscretizationScheme::kTrapezoidal;
    const SignalFlowModel model = convert_ok(R"(module integ(out);
  electrical out;
  real y;
  analog begin
    y = idt(u0);
    V(out) <+ y;
  end
endmodule)",
                                             options);
    runtime::CompiledModel compiled(model);
    const double dt = model.timestep;
    compiled.set_input(0, 1.0);
    compiled.step(0.0);
    // Trapezoid of a step from 0 history: dt/2 * (1 + 0).
    EXPECT_NEAR(compiled.output(0), dt / 2.0, 1e-18);
    compiled.step(dt);
    EXPECT_NEAR(compiled.output(0), dt / 2.0 + dt, 1e-18);
}

TEST(Behavioral, ParametersFoldIntoConstants) {
    const SignalFlowModel model = convert_ok(R"(module scaled(out);
  electrical out;
  parameter real G = 2.5;
  parameter real G2 = G * 2;
  real y;
  analog begin
    y = G2 * u0;
    V(out) <+ y;
  end
endmodule)");
    runtime::CompiledModel compiled(model);
    compiled.set_input(0, 2.0);
    compiled.step(0.0);
    EXPECT_DOUBLE_EQ(compiled.output(0), 10.0);
}

TEST(Behavioral, RejectsAssignmentToUndeclaredVariable) {
    support::DiagnosticEngine diags;
    auto module = vams::parse_module_source(R"(module bad(out);
  electrical out;
  analog begin
    y = 1;
    V(out) <+ y;
  end
endmodule)",
                                            diags);
    ASSERT_TRUE(module.has_value());
    EXPECT_FALSE(convert_signal_flow(*module, {}, diags).has_value());
    EXPECT_TRUE(diags.has_errors());
}

}  // namespace
}  // namespace amsvp::abstraction
