// The strongest codegen check: compile the generated plain-C++ model with
// the system compiler, run it, and compare it with the in-process runtime
// executing the same SignalFlowModel — sample by sample, and slot for slot
// through the generated slot_value() accessor. The emitters render the
// FusedProgram the interpreter executes, and both sides build with
// -ffp-contract=off, so everything must match bit for bit. One compile per
// test.
//
// Skipped cleanly when no compiler is available in PATH.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "codegen/codegen.hpp"
#include "netlist/builder.hpp"
#include "random_models.hpp"
#include "runtime/simulate.hpp"

namespace amsvp {
namespace {

bool have_compiler() {
    return std::system("c++ --version > /dev/null 2>&1") == 0;
}

/// Compile `generated` together with `driver` (which includes it as
/// "model_<tag>.hpp", where <tag> is driver_tag()), run the binary with
/// `input` on stdin and return its stdout.
std::string compile_and_run(const std::string& generated, const std::string& tag,
                            const std::string& driver, const std::string& input = "") {
    const std::string dir = ::testing::TempDir();
    const std::string header = dir + "/model_" + tag + ".hpp";
    const std::string driver_path = dir + "/driver_" + tag + ".cpp";
    const std::string binary = dir + "/model_bin_" + tag;
    const std::string input_path = dir + "/in_" + tag + ".txt";
    const std::string output = dir + "/out_" + tag + ".txt";
    std::ofstream(header) << generated;
    std::ofstream(driver_path) << driver;
    std::ofstream(input_path) << input;

    // -ffp-contract=off: the in-process interpreters round each operation
    // separately (the library builds with the same flag), so the generated
    // expressions must not be FMA-contracted either.
    const std::string compile_cmd = "c++ -std=c++17 -O2 -ffp-contract=off -o " + binary + " " +
                                    driver_path + " 2> " + dir + "/cc_" + tag + ".log";
    EXPECT_EQ(std::system(compile_cmd.c_str()), 0) << "generated code failed to compile";
    const std::string run_cmd = binary + " < " + input_path + " > " + output;
    EXPECT_EQ(std::system(run_cmd.c_str()), 0);

    std::ifstream in(output);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// File-name tag unique per test instance: parallel ctest runs the
/// parameterized instances concurrently, and they must not clobber each
/// other's files.
std::string driver_tag(const std::string& type_name) {
    std::string tag = type_name;
    if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
        tag += std::string("_") + info->test_suite_name() + "_" + info->name();
    }
    for (char& ch : tag) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) {
            ch = '_';
        }
    }
    return tag;
}

/// Run `generated` under a driver that prints N samples of the 1 kHz sine
/// response, one per line.
std::string run_sine_samples(const std::string& generated, const std::string& type_name,
                             int samples) {
    const std::string tag = driver_tag(type_name);
    // The stimulus replicates numeric::sine_wave(1000.0) exactly
    // (identical floating-point operations) so the generated model and
    // the in-process runtime see bit-identical inputs.
    std::ostringstream driver;
    driver << "#include <cmath>\n#include <cstdio>\n#include \"model_" << tag << ".hpp\"\n"
           << "int main() {\n    " << type_name << " model;\n"
           << "    const double omega = 2.0 * M_PI * 1000.0;\n"
           << "    for (int k = 1; k <= " << samples << "; ++k) {\n"
           << "        const double t = k * model.dt;\n"
           << "        model.u0 = 1.0 * std::sin(omega * t + 0.0) + 0.0;\n"
           << "        model.step(t);\n"
           << "        std::printf(\"%.17e\\n\", model.output0());\n"
           << "    }\n    return 0;\n}\n";
    return compile_and_run(generated, tag, driver.str());
}

/// The emitted model against the interpreter, slot for slot: emit `model`
/// with CodegenOptions::slot_accessor, replay the interpreter's step times
/// and inputs into it (written and read back as %a, so exactly), print
/// every model slot after each step as %a, and compare each with
/// CompiledModel::slot_value.
void expect_emitted_slots_match(const abstraction::SignalFlowModel& model,
                                const std::map<std::string, numeric::SourceFunction>& stimuli,
                                int steps) {
    codegen::CodegenOptions options;
    options.type_name = "gen_model";
    options.slot_accessor = true;
    const std::string code = codegen::generate(model, codegen::Target::kCpp, options);

    const std::string tag = driver_tag(options.type_name);
    std::ostringstream driver;
    driver << "#include <cstdio>\n#include \"model_" << tag << ".hpp\"\n"
           << "int main() {\n    gen_model model;\n    double t = 0.0;\n"
           << "    while (std::scanf(\"%la\", &t) == 1) {\n";
    for (const expr::Symbol& in : model.inputs) {
        driver << "        if (std::scanf(\"%la\", &model." << in.identifier()
               << ") != 1) return 1;\n";
    }
    driver << "        model.step(t);\n"
           << "        for (int s = 0; s < gen_model::slot_count; ++s) {\n"
           << "            std::printf(\"%a \", model.slot_value(s));\n"
           << "        }\n        std::printf(\"\\n\");\n    }\n    return 0;\n}\n";

    // The interpreter run, recording what the replay feeds the emitted
    // model and what every model slot holds after each step.
    runtime::CompiledModel fused(model);
    const std::size_t model_slots = fused.layout()->model_slot_count();
    std::string replay;
    std::vector<std::vector<double>> expected;
    char hex[64];
    for (int k = 1; k <= steps; ++k) {
        const double t = k * model.timestep;
        std::snprintf(hex, sizeof hex, "%a", t);
        replay += hex;
        for (std::size_t i = 0; i < model.inputs.size(); ++i) {
            const double u = stimuli.at(model.inputs[i].name)(t);
            fused.set_input(i, u);
            std::snprintf(hex, sizeof hex, " %a", u);
            replay += hex;
        }
        replay += '\n';
        fused.step(t);
        std::vector<double>& slots = expected.emplace_back();
        for (std::size_t s = 0; s < model_slots; ++s) {
            slots.push_back(fused.slot_value(static_cast<int>(s)));
        }
    }

    std::istringstream lines(compile_and_run(code, tag, driver.str(), replay));
    std::string line;
    int k = 0;
    while (std::getline(lines, line)) {
        ASSERT_LT(k, steps);
        std::istringstream fields(line);
        std::string field;
        std::size_t s = 0;
        while (fields >> field) {
            ASSERT_LT(s, model_slots) << "step " << k + 1;
            ASSERT_EQ(std::strtod(field.c_str(), nullptr),
                      expected[static_cast<std::size_t>(k)][s])
                << "slot " << s << " at step " << k + 1;
            ++s;
        }
        ASSERT_EQ(s, model_slots) << "step " << k + 1;
        ++k;
    }
    EXPECT_EQ(k, steps);
}

class GeneratedVsRuntime : public ::testing::TestWithParam<int> {};

TEST_P(GeneratedVsRuntime, SamplesMatchExactly) {
    if (!have_compiler()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const netlist::Circuit circuit = netlist::make_rc_ladder(GetParam());
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    codegen::CodegenOptions options;
    options.type_name = "gen_model";
    const std::string code = codegen::generate(*model, codegen::Target::kCpp, options);

    constexpr int kSamples = 2000;
    const std::string printed = run_sine_samples(code, "gen_model", kSamples);

    // Reference: the in-process runtime on the same model and stimulus,
    // running the fused register machine — the generated C++ renders the
    // very same FusedProgram IR, so ("%.17e" round-trips doubles exactly)
    // every sample must match bit-for-bit.
    auto reference = runtime::simulate_transient(*model, {{"u0", numeric::sine_wave(1000.0)}},
                                                 kSamples * model->timestep);
    ASSERT_EQ(reference.outputs.front().size(), static_cast<std::size_t>(kSamples));

    std::istringstream lines(printed);
    std::string line;
    int k = 0;
    while (std::getline(lines, line)) {
        ASSERT_LT(k, kSamples);
        const double generated_value = std::strtod(line.c_str(), nullptr);
        const double runtime_value = reference.outputs.front().value(static_cast<std::size_t>(k));
        ASSERT_EQ(generated_value, runtime_value) << "sample " << k;
        ++k;
    }
    EXPECT_EQ(k, kSamples);
}

INSTANTIATE_TEST_SUITE_P(Ladders, GeneratedVsRuntime, ::testing::Values(1, 3));

TEST(GeneratedCode, OpampModelCompilesAndSettles) {
    if (!have_compiler()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const netlist::Circuit circuit = netlist::make_opamp();
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;

    codegen::CodegenOptions options;
    options.type_name = "gen_model";
    const std::string code = codegen::generate(*model, codegen::Target::kCpp, options);
    constexpr int kSamples = 10000;
    const std::string printed = run_sine_samples(code, "gen_model", kSamples);

    // Compare the final sample against the in-process fused runtime under
    // the same 1 kHz sine stimulus (exact: same IR, "%.17e" round-trip).
    auto reference = runtime::simulate_transient(*model, {{"u0", numeric::sine_wave(1000.0)}},
                                                 kSamples * model->timestep);
    std::istringstream lines(printed);
    std::string line;
    std::string last;
    while (std::getline(lines, line)) {
        if (!line.empty()) {
            last = line;
        }
    }
    ASSERT_FALSE(last.empty());
    const double expected = reference.outputs.front().samples().back();
    EXPECT_EQ(std::strtod(last.c_str(), nullptr), expected);
}

// The acceptance differential: >= 10 random linear models, emitted C++ vs
// the fused interpreter, bit for bit.
class RandomModelDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomModelDifferential, GeneratedCodeMatchesFusedBitForBit) {
    if (!have_compiler()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const auto random = testing_support::make_random_rc(GetParam() + 7000);
    abstraction::AbstractionOptions options;
    options.timestep = 1e-7;
    std::string error;
    auto model = abstraction::abstract_circuit(random.circuit,
                                               {{random.observed_node, "gnd"}}, options,
                                               &error);
    ASSERT_TRUE(model.has_value()) << error << "\n" << random.circuit.describe();
    expect_emitted_slots_match(*model, {{"u0", numeric::sine_wave(25e3)}}, 2000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelDifferential, ::testing::Range(1u, 13u));

TEST(GeneratedCode, SlotFileMatchesFusedSlotForSlot) {
    if (!have_compiler()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const netlist::Circuit circuit = netlist::make_rc_ladder(3);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    ASSERT_TRUE(model.has_value()) << error;
    expect_emitted_slots_match(*model, {{"u0", numeric::sine_wave(1000.0)}}, 500);
}

// kLinComb is the one reassociating op: the emitted FMA chain must
// accumulate in the interpreter's order.
TEST(GeneratedCode, LinCombHeavyModelMatchesFused) {
    if (!have_compiler()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    expect_emitted_slots_match(testing_support::make_lincomb_heavy_model(),
                               {{"u0", numeric::sine_wave(1000.0)},
                                {"u1", numeric::sine_wave(2500.0)},
                                {"u2", numeric::square_wave(1e-3)}},
                               5000);
}

TEST(GeneratedCode, DelayedInputModelMatchesFused) {
    if (!have_compiler()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    expect_emitted_slots_match(testing_support::make_delayed_input_model(),
                               {{"u0", numeric::sine_wave(1000.0)}}, 5000);
}

}  // namespace
}  // namespace amsvp
