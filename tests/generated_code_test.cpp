// The strongest codegen check: compile the generated plain-C++ model with
// the system compiler, run it, and compare its output sample-by-sample with
// the in-process runtime executing the same SignalFlowModel.
//
// Skipped cleanly when no compiler is available in PATH.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "abstraction/abstraction.hpp"
#include "codegen/codegen.hpp"
#include "netlist/builder.hpp"
#include "runtime/simulate.hpp"

namespace amsvp {
namespace {

bool have_compiler() {
    return std::system("c++ --version > /dev/null 2>&1") == 0;
}

/// Compile `generated` together with a driver that prints N samples of the
/// square-wave response, one per line. Returns the captured stdout.
std::string compile_and_run(const std::string& generated, const std::string& type_name,
                            int samples) {
    const std::string dir = ::testing::TempDir();
    // Unique per test instance: parallel ctest runs the parameterized
    // instances concurrently, and they must not clobber each other's files.
    std::string tag = type_name;
    if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
        tag += std::string("_") + info->test_suite_name() + "_" + info->name();
    }
    for (char& ch : tag) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) {
            ch = '_';
        }
    }
    const std::string header = dir + "/model_" + tag + ".hpp";
    const std::string driver = dir + "/driver_" + tag + ".cpp";
    const std::string binary = dir + "/model_bin_" + tag;
    const std::string output = dir + "/out_" + tag + ".txt";

    {
        std::ofstream h(header);
        h << generated;
    }
    {
        std::ofstream d(driver);
        // The stimulus replicates numeric::sine_wave(1000.0) exactly
        // (identical floating-point operations) so the generated model and
        // the in-process runtime see bit-identical inputs.
        d << R"(#include <cmath>
#include <cstdio>
#include "model_)"
          << tag << R"(.hpp"
int main() {
    )" << type_name
          << R"( model;
    const double omega = 2.0 * M_PI * 1000.0;
    for (int k = 1; k <= )"
          << samples << R"(; ++k) {
        const double t = k * model.dt;
        model.u0 = 1.0 * std::sin(omega * t + 0.0) + 0.0;
        model.step(t);
        std::printf("%.17e\n", model.output0());
    }
    return 0;
}
)";
    }
    // -ffp-contract=off: the in-process interpreters round each operation
    // separately (the library builds with the same flag), so the generated
    // expressions must not be FMA-contracted either.
    const std::string compile_cmd = "c++ -std=c++17 -O2 -ffp-contract=off -o " + binary + " " +
                                    driver + " 2> " + dir + "/cc.log";
    EXPECT_EQ(std::system(compile_cmd.c_str()), 0) << "generated code failed to compile";
    const std::string run_cmd = binary + " > " + output;
    EXPECT_EQ(std::system(run_cmd.c_str()), 0);

    std::ifstream in(output);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
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
    const std::string printed = compile_and_run(code, "gen_model", kSamples);

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
    const std::string printed = compile_and_run(code, "gen_model", kSamples);

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

}  // namespace
}  // namespace amsvp
