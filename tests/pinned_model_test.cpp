// Pinned abstraction results: per circuit, an FNV-1a-64 digest of the
// abstracted model's canonical text (runtime::model_fingerprint) plus the
// assembler's pass, root and consumed-equation counts. Any change to which
// equation Algorithm 2 picks, in which order it inlines, or how the root
// set grows shows here as a changed row, even when the model still
// simulates correctly. The rows cover the RC ladders, the two op-amp
// circuits from their builders, the four paper circuits from their
// Verilog-AMS text and 25 random RC networks.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "netlist/builder.hpp"
#include "random_models.hpp"
#include "runtime/sweep_service.hpp"
#include "support/diagnostics.hpp"
#include "vams/circuits.hpp"
#include "vams/elaborator.hpp"
#include "vams/parser.hpp"

namespace amsvp {
namespace {

std::uint64_t fnv1a64(std::string_view text) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

netlist::Circuit from_vams(const std::string& source) {
    support::DiagnosticEngine diagnostics;
    auto module = vams::parse_module_source(source, diagnostics);
    auto elaborated = module ? vams::elaborate(*module, diagnostics) : std::nullopt;
    EXPECT_TRUE(elaborated.has_value()) << diagnostics.render_all();
    return elaborated ? std::move(elaborated->circuit) : netlist::Circuit("invalid");
}

struct PinnedRow {
    const char* name;
    std::uint64_t digest;
    std::size_t passes;
    std::size_t roots;
    std::size_t equations_consumed;
};

struct Case {
    std::string name;
    std::function<netlist::Circuit()> circuit;
    std::string observed_node = "out";
};

std::vector<Case> cases() {
    std::vector<Case> out;
    for (const int n : {1, 2, 3, 5, 10, 20}) {
        out.push_back({"RC" + std::to_string(n), [n] { return netlist::make_rc_ladder(n); }});
    }
    out.push_back({"2IN", [] { return netlist::make_two_inputs(); }});
    out.push_back({"OA", [] { return netlist::make_opamp(); }});
    out.push_back({"vams 2IN", [] { return from_vams(vams::two_inputs_source()); }});
    out.push_back({"vams RC1", [] { return from_vams(vams::rc_ladder_source(1)); }});
    out.push_back({"vams RC20", [] { return from_vams(vams::rc_ladder_source(20)); }});
    out.push_back({"vams OA", [] { return from_vams(vams::opamp_source()); }});
    for (unsigned seed = 1; seed <= 25; ++seed) {
        out.push_back({"random " + std::to_string(seed),
                       [seed] { return testing_support::make_random_rc(seed).circuit; },
                       testing_support::make_random_rc(seed).observed_node});
    }
    return out;
}

// {name, digest, passes, roots, equations consumed}, generated from the
// string-keyed assembler that this table was written to protect; a row that
// differs prints in this form.
constexpr PinnedRow kPinned[] = {
    {"RC1", 0x94b4ca78ab6b875dull, 1, 1, 5},
    {"RC2", 0x8437a71258499ceeull, 3, 4, 9},
    {"RC3", 0x1ebfab46bc072569ull, 6, 8, 13},
    {"RC5", 0xdf24af5be974e90ull, 6, 13, 21},
    {"RC10", 0xc615f1f662a7f3eaull, 6, 27, 41},
    {"RC20", 0xe35afdb469ece2eull, 8, 57, 81},
    {"2IN", 0x96e3c21214728199ull, 5, 6, 15},
    {"OA", 0x39f250d588a21588ull, 4, 7, 14},
    {"vams 2IN", 0x4f8f74d986b50606ull, 5, 6, 15},
    {"vams RC1", 0x1b289509991f704dull, 1, 1, 5},
    {"vams RC20", 0x78a2100692ba8cdfull, 8, 58, 81},
    {"vams OA", 0x31be84aad07869c7ull, 5, 8, 14},
    {"random 1", 0x14ba2e5d4f10865cull, 7, 11, 15},
    {"random 2", 0x61a25cd75d923685ull, 5, 9, 15},
    {"random 3", 0x6382efd05294add9ull, 5, 12, 23},
    {"random 4", 0x5e936654fce1b3cdull, 3, 15, 33},
    {"random 5", 0x51ffe97564405bb4ull, 3, 6, 13},
    {"random 6", 0x3cd23981c827307cull, 1, 1, 5},
    {"random 7", 0x560f173d1f46566aull, 2, 3, 9},
    {"random 8", 0x3021b9dc4f0e11daull, 6, 20, 35},
    {"random 9", 0x96013d24115bb3b5ull, 1, 1, 5},
    {"random 10", 0xeaa896f0de52d1dfull, 6, 12, 19},
    {"random 11", 0xea807eb12f0693f1ull, 1, 1, 5},
    {"random 12", 0x2aff0d55f60075ceull, 3, 7, 15},
    {"random 13", 0xc8e6291eec1f4529ull, 5, 9, 13},
    {"random 14", 0xe9988639c51f88aull, 3, 10, 25},
    {"random 15", 0xe49d2eaedc43948full, 7, 21, 33},
    {"random 16", 0x19b0b12a0fbb2f4full, 2, 3, 9},
    {"random 17", 0xd74907dd5b473583ull, 5, 10, 17},
    {"random 18", 0x33bc42b51f82df77ull, 6, 16, 27},
    {"random 19", 0xeea08add27bc33c9ull, 2, 4, 11},
    {"random 20", 0x888b545ce4ffbfa2ull, 5, 15, 29},
    {"random 21", 0xc99248d47627589bull, 3, 6, 11},
    {"random 22", 0x98c27321273d21f9ull, 8, 10, 11},
    {"random 23", 0x609523344c2a374eull, 6, 11, 21},
    {"random 24", 0x736ef6a380fb4b03ull, 4, 18, 37},
    {"random 25", 0xc7e1b897abbb5dc8ull, 1, 1, 5},
};

TEST(PinnedModels, AbstractedModelsAreUnchanged) {
    const std::vector<Case> all = cases();
    EXPECT_EQ(all.size(), std::size(kPinned));
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Case& c = all[i];
        SCOPED_TRACE(c.name);
        std::string error;
        abstraction::AbstractionReport report;
        const auto model = abstraction::abstract_circuit(c.circuit(), {{c.observed_node, "gnd"}},
                                                         {}, &error, &report);
        ASSERT_TRUE(model.has_value()) << error;
        const PinnedRow actual{c.name.c_str(), fnv1a64(runtime::model_fingerprint(*model)),
                               report.assembly_passes, report.roots,
                               report.equations_consumed};
        const bool same = i < std::size(kPinned) && c.name == kPinned[i].name &&
                          actual.digest == kPinned[i].digest &&
                          actual.passes == kPinned[i].passes && actual.roots == kPinned[i].roots &&
                          actual.equations_consumed == kPinned[i].equations_consumed;
        EXPECT_TRUE(same) << "actual row: {\"" << actual.name << "\", 0x" << std::hex
                          << actual.digest << std::dec << "ull, " << actual.passes << ", "
                          << actual.roots << ", " << actual.equations_consumed << "},";
    }
}

}  // namespace
}  // namespace amsvp
