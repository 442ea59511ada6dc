// Pinned output of the ORC mid-end pipeline: per model and row width, an
// FNV-1a-64 digest of the optimized IR text (codegen::lower_to_ir_text,
// the module ORC materializes). The pipeline is built by hand from
// early-cse (MemorySSA), instcombine and simplifycfg with only the analyses
// they request; a change to a pass, its options, the registered analyses or
// the alias-analysis stack that changes any kernel shows here as a changed
// row, even when the kernel still runs bit-identically. The rows cover RC1,
// RC5, RC20, 2IN and OA from their builders and ten random nonlinear
// models (tests/random_models.hpp), each at the batch kernel's row width
// and at width 1. The `target triple` and `target datalayout` lines are
// left out of the digest: they name the host, not the pipeline's work.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "codegen/llvm_lowering.hpp"
#include "codegen/orc_jit.hpp"
#include "netlist/builder.hpp"
#include "random_models.hpp"
#include "runtime/lane_layout.hpp"
#include "runtime/model_layout.hpp"

namespace amsvp::codegen {
namespace {

/// FNV-1a-64 over every line of `ir` but the target triple and data layout.
std::uint64_t ir_digest(const std::string& ir) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::istringstream lines(ir);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("target triple", 0) == 0 || line.rfind("target datalayout", 0) == 0) {
            continue;
        }
        line += '\n';
        for (const char c : line) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 0x100000001b3ull;
        }
    }
    return hash;
}

abstraction::SignalFlowModel abstract(const netlist::Circuit& circuit) {
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return std::move(*model);
}

struct Case {
    std::string name;
    std::function<abstraction::SignalFlowModel()> model;
};

std::vector<Case> cases() {
    std::vector<Case> out;
    for (const int n : {1, 5, 20}) {
        out.push_back(
            {"RC" + std::to_string(n), [n] { return abstract(netlist::make_rc_ladder(n)); }});
    }
    out.push_back({"2IN", [] { return abstract(netlist::make_two_inputs()); }});
    out.push_back({"OA", [] { return abstract(netlist::make_opamp()); }});
    for (unsigned seed = 1; seed <= 10; ++seed) {
        out.push_back({"random " + std::to_string(seed),
                       [seed] { return testing_support::make_random_signal_flow(seed); }});
    }
    return out;
}

struct PinnedRow {
    const char* name;
    int row_width;
    std::uint64_t digest;
};

// {name, row width, digest}, generated by this file compiled against the
// library whose pipeline llvm::PassBuilder parsed from
// "function(early-cse<memssa>,instcombine,simplifycfg)"; a row that
// differs prints in this form.
constexpr PinnedRow kPinned[] = {
    {"RC1", 4, 0x6167a18960b5e5fdull},
    {"RC1", 1, 0xebff2b2814417757ull},
    {"RC5", 4, 0x5080c4d071e8039aull},
    {"RC5", 1, 0x72372f4fd8cf84e4ull},
    {"RC20", 4, 0x6dc9c8295f105a74ull},
    {"RC20", 1, 0xe4954166c6f65f5cull},
    {"2IN", 4, 0x72db4bcb0c858596ull},
    {"2IN", 1, 0x5335adba37f757c7ull},
    {"OA", 4, 0x294de07c263861d5ull},
    {"OA", 1, 0x3fef572b101293a2ull},
    {"random 1", 4, 0x5bf391953e099d17ull},
    {"random 1", 1, 0xd76d4ccc71262298ull},
    {"random 2", 4, 0x281853f92457e1a9ull},
    {"random 2", 1, 0x69f89f8f01a3c5d3ull},
    {"random 3", 4, 0x4bdafb238b48ad07ull},
    {"random 3", 1, 0xf0f9724e025519d0ull},
    {"random 4", 4, 0xf045b8ce664c2622ull},
    {"random 4", 1, 0x62bd138e10819e4bull},
    {"random 5", 4, 0x800e4cf1f27699b8ull},
    {"random 5", 1, 0xe3d4f10ea76c73f8ull},
    {"random 6", 4, 0x35b4cfaf40cd1a7ull},
    {"random 6", 1, 0x4406bceb18d5389dull},
    {"random 7", 4, 0x7fc0ee564a0170afull},
    {"random 7", 1, 0x1250cfc331a55a16ull},
    {"random 8", 4, 0x8dc7791ac3bbd463ull},
    {"random 8", 1, 0x77c67962bf87fca5ull},
    {"random 9", 4, 0x7733b2bfb9ade73bull},
    {"random 9", 1, 0x1771f3e3d768e5c7ull},
    {"random 10", 4, 0x7da01021c75a8eaeull},
    {"random 10", 1, 0x4b0a9d6f30c3a8edull},
};

TEST(OrcJitPipeline, OptimizedIrIsUnchanged) {
    if (!orc_available()) {
        GTEST_SKIP() << "built with AMSVP_WITH_LLVM=OFF";
    }
    std::size_t row = 0;
    for (const Case& c : cases()) {
        SCOPED_TRACE(c.name);
        const auto layout = runtime::ModelLayout::compile(c.model());
        for (const int row_width : {runtime::LaneLayout::kVectorRow, 1}) {
            std::string error;
            const auto ir = lower_to_ir_text(layout, row_width, &error);
            ASSERT_TRUE(ir.has_value()) << error;
            const PinnedRow actual{c.name.c_str(), row_width, ir_digest(ir->optimized)};
            const bool same = row < std::size(kPinned) && c.name == kPinned[row].name &&
                              actual.row_width == kPinned[row].row_width &&
                              actual.digest == kPinned[row].digest;
            EXPECT_TRUE(same) << "actual row: {\"" << actual.name << "\", " << actual.row_width
                              << ", 0x" << std::hex << actual.digest << std::dec << "ull},";
            ++row;
        }
    }
    EXPECT_EQ(row, std::size(kPinned));
}

}  // namespace
}  // namespace amsvp::codegen
