#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "abstraction/signal_flow_model.hpp"
#include "runtime/simulate.hpp"

namespace amsvp::runtime {
namespace {

using abstraction::Assignment;
using abstraction::SignalFlowModel;
using expr::Expr;
using expr::Symbol;

Symbol var(const char* name) {
    return expr::variable_symbol(name);
}

/// `call` throws an E whose message contains `text`.
template <typename E, typename F>
void expect_throw_naming(F&& call, const std::string& text) {
    try {
        call();
        ADD_FAILURE() << "nothing thrown; expected a message naming \"" << text << "\"";
    } catch (const E& e) {
        EXPECT_NE(std::string(e.what()).find(text), std::string::npos) << e.what();
    }
}

SignalFlowModel accumulator_model() {
    // acc := acc@(t-dt) + u
    SignalFlowModel m;
    m.name = "acc";
    m.timestep = 1e-6;
    m.inputs.push_back(expr::input_symbol("u"));
    m.assignments.push_back(Assignment{
        var("acc"), Expr::add(Expr::delayed(var("acc"), 1),
                              Expr::symbol(expr::input_symbol("u")))});
    m.outputs.push_back(var("acc"));
    return m;
}

TEST(CompiledModel, AccumulatesAcrossSteps) {
    CompiledModel compiled(accumulator_model());
    for (int k = 1; k <= 5; ++k) {
        compiled.set_input(0, 1.0);
        compiled.step(static_cast<double>(k) * 1e-6);
        EXPECT_DOUBLE_EQ(compiled.output(0), static_cast<double>(k));
    }
}

TEST(CompiledModel, ResetRestoresInitialState) {
    CompiledModel compiled(accumulator_model());
    compiled.set_input(0, 3.0);
    compiled.step(0.0);
    EXPECT_DOUBLE_EQ(compiled.output(0), 3.0);
    compiled.reset();
    compiled.set_input(0, 1.0);
    compiled.step(0.0);
    EXPECT_DOUBLE_EQ(compiled.output(0), 1.0);
}

TEST(CompiledModel, InitialValuesApplyToHistory) {
    SignalFlowModel m = accumulator_model();
    m.initial_values[var("acc")] = 10.0;
    CompiledModel compiled(m);
    compiled.set_input(0, 1.0);
    compiled.step(0.0);
    EXPECT_DOUBLE_EQ(compiled.output(0), 11.0);
}

TEST(CompiledModel, DeepDelays) {
    // y := u@(t-3dt): a pure 3-step delay line on the input.
    SignalFlowModel m;
    m.name = "delay3";
    m.timestep = 1.0;
    m.inputs.push_back(expr::input_symbol("u"));
    m.assignments.push_back(
        Assignment{var("y"), Expr::delayed(expr::input_symbol("u"), 3)});
    m.outputs.push_back(var("y"));

    CompiledModel compiled(m);
    const double inputs[] = {10, 20, 30, 40, 50};
    const double expected[] = {0, 0, 0, 10, 20};
    for (int k = 0; k < 5; ++k) {
        compiled.set_input(0, inputs[k]);
        compiled.step(static_cast<double>(k));
        EXPECT_DOUBLE_EQ(compiled.output(0), expected[k]) << "k=" << k;
    }
}

TEST(CompiledModel, TimeSymbolTracksStepTime) {
    SignalFlowModel m;
    m.name = "timer";
    m.timestep = 0.5;
    m.assignments.push_back(Assignment{var("y"), Expr::symbol(expr::time_symbol())});
    m.outputs.push_back(var("y"));

    CompiledModel compiled(m);
    compiled.step(1.25);
    EXPECT_DOUBLE_EQ(compiled.output(0), 1.25);
    compiled.step(2.5);
    EXPECT_DOUBLE_EQ(compiled.output(0), 2.5);
}

TEST(CompiledModel, InputIndexLookup) {
    CompiledModel compiled(accumulator_model());
    EXPECT_EQ(compiled.input_index("u"), 0u);
}

TEST(CompiledModel, UnknownInputNameThrowsNamingIt) {
    CompiledModel compiled(accumulator_model());
    expect_throw_naming<std::invalid_argument>([&] { (void)compiled.input_index("v"); },
                                               "unknown input name 'v'");
}

TEST(CompiledModel, IndexOutOfRangeThrowsNamingIndexAndCount) {
    CompiledModel compiled(accumulator_model());
    expect_throw_naming<std::out_of_range>([&] { compiled.set_input(1, 0.0); },
                                           "input index 1 out of range: the model has 1");
    expect_throw_naming<std::out_of_range>([&] { (void)compiled.output(3); },
                                           "output index 3 out of range: the model has 1");
    // The executor stays usable after a rejected index.
    compiled.set_input(0, 2.0);
    compiled.step(0.0);
    EXPECT_DOUBLE_EQ(compiled.output(0), 2.0);
}

TEST(CompiledModel, ValueOfArbitrarySymbol) {
    SignalFlowModel m = accumulator_model();
    m.assignments.push_back(
        Assignment{var("twice"), Expr::mul(Expr::constant(2), Expr::symbol(var("acc")))});
    CompiledModel compiled(m);
    compiled.set_input(0, 4.0);
    compiled.step(0.0);
    EXPECT_DOUBLE_EQ(compiled.value_of(var("twice")), 8.0);
}

TEST(SimulateTransient, SamplesAtMultiplesOfTimestep) {
    auto result = simulate_transient(accumulator_model(), {{"u", numeric::constant(1.0)}},
                                     10e-6);
    const numeric::Waveform& out = result.outputs.front();
    ASSERT_EQ(out.size(), 10u);
    EXPECT_DOUBLE_EQ(out.time(0), 1e-6);  // convention: first sample at dt
    EXPECT_DOUBLE_EQ(out.value(0), 1.0);
    EXPECT_DOUBLE_EQ(out.value(9), 10.0);
}

TEST(SimulateTransient, RejectsMissingStimulusAndNonPositiveTimestep) {
    // Caller input errors throw instead of aborting, like simulate_sweep.
    EXPECT_THROW((void)simulate_transient(accumulator_model(), {}, 10e-6),
                 std::invalid_argument);
    SignalFlowModel untimed = accumulator_model();
    untimed.timestep = 0.0;
    CompiledModel compiled(untimed);
    EXPECT_THROW((void)simulate_transient(compiled, untimed.inputs,
                                          {{"u", numeric::constant(1.0)}}, 10e-6),
                 std::invalid_argument);
}

}  // namespace
}  // namespace amsvp::runtime
