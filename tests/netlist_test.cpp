#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "netlist/builder.hpp"
#include "netlist/topology.hpp"
#include "vams/circuits.hpp"

namespace amsvp::netlist {
namespace {

TEST(Circuit, NodesAndBranches) {
    CircuitBuilder cb("t");
    cb.ground("gnd");
    cb.voltage_source("V1", "a", "gnd", "u0");
    cb.resistor("R1", "a", "b", 1e3);
    cb.capacitor("C1", "b", "gnd", 1e-9);
    const Circuit c = cb.build();

    EXPECT_EQ(c.node_count(), 3u);
    EXPECT_EQ(c.branch_count(), 3u);
    EXPECT_TRUE(c.has_ground());
    EXPECT_EQ(c.node_info(c.ground()).name, "gnd");
    EXPECT_EQ(c.input_names(), std::vector<std::string>{"u0"});
}

TEST(Circuit, FindBranchBetweenEitherOrientation) {
    CircuitBuilder cb("t");
    cb.ground("gnd");
    cb.voltage_source("V1", "a", "gnd", "u0");
    cb.resistor("R1", "a", "b", 1e3);
    cb.capacitor("C1", "b", "gnd", 1e-9);
    const Circuit c = cb.build();

    const auto a = *c.find_node("a");
    const auto b = *c.find_node("b");
    auto fwd = c.find_branch_between(a, b);
    auto rev = c.find_branch_between(b, a);
    ASSERT_TRUE(fwd.has_value());
    ASSERT_TRUE(rev.has_value());
    EXPECT_EQ(*fwd, *rev);
    EXPECT_EQ(c.branch(*fwd).name, "R1");
}

TEST(Circuit, IncidenceSigns) {
    CircuitBuilder cb("t");
    cb.ground("gnd");
    cb.voltage_source("V1", "a", "gnd", "u0");
    cb.resistor("R1", "a", "b", 1e3);
    cb.capacitor("C1", "b", "gnd", 1e-9);
    const Circuit c = cb.build();

    const auto incidences = c.incident(*c.find_node("a"));
    ASSERT_EQ(incidences.size(), 2u);
    for (const auto& inc : incidences) {
        EXPECT_EQ(inc.sign, +1) << "both V1 and R1 leave node a";
    }
    const auto at_b = c.incident(*c.find_node("b"));
    ASSERT_EQ(at_b.size(), 2u);
    int r1_sign = 0;
    int c1_sign = 0;
    for (const auto& inc : at_b) {
        if (c.branch(inc.branch).name == "R1") {
            r1_sign = inc.sign;
        } else {
            c1_sign = inc.sign;
        }
    }
    EXPECT_EQ(r1_sign, -1);  // R1 enters b
    EXPECT_EQ(c1_sign, +1);  // C1 leaves b
}

TEST(Circuit, ValidateDetectsMissingGroundAndDisconnection) {
    Circuit c("bad");
    const NodeId a = c.add_node("a");
    const NodeId b = c.add_node("b");
    (void)a;
    (void)b;
    const auto problems = c.validate();
    EXPECT_GE(problems.size(), 2u);  // no ground + node b disconnected
}

TEST(Builder, InvalidCircuitThrowsItsProblems) {
    CircuitBuilder cb("floating");  // no ground node
    cb.resistor("R1", "a", "b", 1e3);
    EXPECT_THROW(
        {
            try {
                (void)cb.build();
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find("circuit 'floating': "), std::string::npos);
                throw;
            }
        },
        std::invalid_argument);
}

/// Expects `make()` to throw std::invalid_argument mentioning `needle`.
template <typename Make>
void expect_rejected(Make make, const std::string& needle) {
    try {
        (void)make();
        ADD_FAILURE() << "no exception; expected one mentioning: " << needle;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
}

TEST(Builder, ElementValuesMustBePositiveAndFinite) {
    CircuitBuilder cb("t");
    cb.ground("gnd");
    expect_rejected([&] { return cb.resistor("R1", "a", "gnd", 0.0); },
                    "netlist::CircuitBuilder::resistor: R1 resistance must be positive and "
                    "finite, got 0");
    expect_rejected(
        [&] { return cb.resistor("R2", "a", "gnd", std::numeric_limits<double>::infinity()); },
        "R2 resistance must be positive and finite, got inf");
    expect_rejected([&] { return cb.capacitor("C1", "a", "gnd", -25e-9); },
                    "netlist::CircuitBuilder::capacitor: C1 capacitance must be positive and "
                    "finite, got -2.5e-08");
    expect_rejected(
        [&] { return cb.inductor("L1", "a", "gnd", std::numeric_limits<double>::quiet_NaN()); },
        "netlist::CircuitBuilder::inductor: L1 inductance must be positive and finite");
    EXPECT_EQ(cb.peek().branch_count(), 0u);  // nothing half-added
}

TEST(Builder, LaddersNeedAtLeastOneStage) {
    expect_rejected([] { return make_rc_ladder(0); },
                    "netlist::make_rc_ladder: needs at least one stage, got 0");
    expect_rejected([] { return vams::rc_ladder_source(-1); },
                    "vams::rc_ladder_source: needs at least one stage, got -1");
}

TEST(Builder, PaperCircuitShapes) {
    const Circuit rc20 = make_rc_ladder(20);
    // Section V-A: RC20 features 22 nodes and 41 branches.
    EXPECT_EQ(rc20.node_count(), 22u);
    EXPECT_EQ(rc20.branch_count(), 41u);

    const Circuit two_in = make_two_inputs();
    EXPECT_TRUE(two_in.find_branch("R1").has_value());
    EXPECT_TRUE(two_in.find_branch("R3").has_value());
    EXPECT_EQ(two_in.input_names().size(), 2u);

    const Circuit oa = make_opamp();
    EXPECT_TRUE(oa.find_branch("C1").has_value());
    EXPECT_EQ(oa.input_names().size(), 1u);
    EXPECT_TRUE(oa.validate().empty());
}

TEST(Builder, DeviceKindsAndValues) {
    const Circuit c = make_rc_ladder(1);
    const auto r1 = *c.find_branch("R1");
    const auto c1 = *c.find_branch("C1");
    EXPECT_EQ(c.branch(r1).kind, DeviceKind::kResistor);
    EXPECT_DOUBLE_EQ(c.branch(r1).value, 5e3);
    EXPECT_EQ(c.branch(c1).kind, DeviceKind::kCapacitor);
    EXPECT_DOUBLE_EQ(c.branch(c1).value, 25e-9);
}

TEST(Builder, VcvsRequiresControlBranch) {
    CircuitBuilder cb("t");
    cb.ground("gnd");
    cb.resistor("RIN", "a", "gnd", 1e6);
    const BranchId e = cb.vcvs("E1", "b", "gnd", "RIN", -1e5);
    const Circuit c = cb.build();
    EXPECT_EQ(c.branch(e).kind, DeviceKind::kVcvs);
    EXPECT_EQ(c.branch(e).control, *c.find_branch("RIN"));
}

class SpanningTreeLadder : public ::testing::TestWithParam<int> {};

TEST_P(SpanningTreeLadder, TreeAndLoopCountsMatchGraphTheory) {
    const Circuit c = make_rc_ladder(GetParam());
    const SpanningTree tree = build_spanning_tree(c);
    // |tree| = N - 1; |chords| = B - N + 1.
    EXPECT_EQ(tree.tree_branches.size(), c.node_count() - 1);
    EXPECT_EQ(tree.chords.size(), c.branch_count() - c.node_count() + 1);

    const auto loops = fundamental_loops(c, tree);
    EXPECT_EQ(loops.size(), tree.chords.size());
    for (const Loop& loop : loops) {
        EXPECT_GE(loop.entries.size(), 2u);
        // Each loop must be a closed walk: walking the entries with their
        // signs returns to the starting node.
        NodeId position = -1;
        NodeId start = -1;
        for (const LoopEntry& entry : loop.entries) {
            const Branch& b = c.branch(entry.branch);
            const NodeId from = entry.sign > 0 ? b.pos : b.neg;
            const NodeId to = entry.sign > 0 ? b.neg : b.pos;
            if (position == -1) {
                start = from;
            } else {
                EXPECT_EQ(position, from) << "loop is not contiguous";
            }
            position = to;
        }
        EXPECT_EQ(position, start) << "loop does not close";
    }
}

INSTANTIATE_TEST_SUITE_P(Orders, SpanningTreeLadder, ::testing::Values(1, 2, 3, 5, 10, 20));

TEST(Topology, LoopsCoverEveryChordExactlyOnce) {
    const Circuit c = make_opamp();
    const SpanningTree tree = build_spanning_tree(c);
    const auto loops = fundamental_loops(c, tree);
    ASSERT_EQ(loops.size(), tree.chords.size());
    for (std::size_t i = 0; i < loops.size(); ++i) {
        EXPECT_EQ(loops[i].entries.front().branch, tree.chords[i]);
    }
}

TEST(Circuit, DipoleEquationDisplay) {
    const Circuit c = make_rc_ladder(1);
    const auto r1 = *c.find_branch("R1");
    EXPECT_EQ(c.dipole_equation(r1).display(), "I(R1) = V(R1) / 5000");
}

}  // namespace
}  // namespace amsvp::netlist
