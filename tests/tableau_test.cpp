// The sparse tableau both conservative engines build from: column layout,
// KCL rows, branch-quantity stamping and solution reads.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "netlist/builder.hpp"
#include "netlist/tableau.hpp"

namespace amsvp::netlist {
namespace {

struct Named {
    const char* name;
    Circuit circuit;
};

std::vector<Named> rc2_and_opamp() {
    std::vector<Named> out;
    out.push_back({"RC2", make_rc_ladder(2)});
    out.push_back({"OA", make_opamp()});
    return out;
}

TEST(Tableau, BuildsForLinearCircuits) {
    for (const auto& [name, c] : rc2_and_opamp()) {
        SCOPED_TRACE(name);
        const Tableau t(c);
        // Unknowns: (nodes - 1) potentials + one current per branch.
        ASSERT_EQ(t.size(), c.node_count() - 1 + c.branch_count());
        EXPECT_EQ(t.node_column(c.ground()), -1);
        // Potentials in node order (ground skipped), then currents in
        // branch order.
        int expected = 0;
        for (NodeId n = 0; n < static_cast<NodeId>(c.node_count()); ++n) {
            if (n != c.ground()) {
                EXPECT_EQ(t.node_column(n), expected++) << c.node_info(n).name;
            }
        }
        for (BranchId b = 0; b < static_cast<BranchId>(c.branch_count()); ++b) {
            EXPECT_EQ(t.current_column(b), expected++) << c.branch(b).name;
        }
        EXPECT_EQ(static_cast<std::size_t>(expected), t.size());
    }
}

TEST(Tableau, OneKclRowOfSignedCurrentsPerNonGroundNode) {
    for (const auto& [name, c] : rc2_and_opamp()) {
        SCOPED_TRACE(name);
        const Tableau t(c);
        ASSERT_EQ(t.kcl_rows().size(), c.node_count() - 1);
        for (NodeId n = 0; n < static_cast<NodeId>(c.node_count()); ++n) {
            if (n == c.ground()) {
                continue;
            }
            Tableau::Row expected;
            for (BranchId b = 0; b < static_cast<BranchId>(c.branch_count()); ++b) {
                if (c.branch(b).pos == n) {
                    expected.emplace_back(t.current_column(b), 1.0);
                } else if (c.branch(b).neg == n) {
                    expected.emplace_back(t.current_column(b), -1.0);
                }
            }
            EXPECT_EQ(t.kcl_rows()[static_cast<std::size_t>(t.node_column(n))], expected)
                << c.node_info(n).name;
        }
    }
}

TEST(Tableau, StampExpandsBranchQuantities) {
    for (const auto& [name, c] : rc2_and_opamp()) {
        SCOPED_TRACE(name);
        const Tableau t(c);
        for (BranchId b = 0; b < static_cast<BranchId>(c.branch_count()); ++b) {
            const Branch& br = c.branch(b);
            SCOPED_TRACE(br.name);
            Tableau::Row current;
            t.stamp(br.current_symbol(), 2.5, current);
            EXPECT_EQ(current, (Tableau::Row{{t.current_column(b), 2.5}}));

            // V(b) = potential(pos) - potential(neg); ground has no column.
            Tableau::Row voltage;
            t.stamp(br.voltage_symbol(), 2.5, voltage);
            Tableau::Row expected;
            if (br.pos != c.ground()) {
                expected.emplace_back(t.node_column(br.pos), 2.5);
            }
            if (br.neg != c.ground()) {
                expected.emplace_back(t.node_column(br.neg), -2.5);
            }
            EXPECT_EQ(voltage, expected);
            if (br.neg == c.ground() || br.pos == c.ground()) {
                EXPECT_EQ(voltage.size(), 1u);
            }
        }
    }
}

TEST(Tableau, StampAppendsInCallOrder) {
    // Engines accumulate a row's entries into the matrix in stamping order,
    // which fixes the rounding: a second stamp appends, never merges.
    const Circuit c = make_rc_ladder(2);
    const Tableau t(c);
    const int n1 = t.node_column(*c.find_node("n1"));
    const int out = t.node_column(*c.find_node("out"));
    const expr::Symbol v_r2 = expr::branch_voltage("R2");
    Tableau::Row row;
    t.stamp(v_r2, 1.0, row);
    t.stamp(v_r2, 0.5, row);
    EXPECT_EQ(row, (Tableau::Row{{n1, 1.0}, {out, -1.0}, {n1, 0.5}, {out, -0.5}}));
}

TEST(Tableau, ReadsTheSolutionById) {
    const Circuit c = make_opamp();
    const Tableau t(c);
    numeric::Vector x(t.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = 1.0 + static_cast<double>(i);
    }
    EXPECT_EQ(t.node_potential(x, c.ground()), 0.0);
    for (BranchId b = 0; b < static_cast<BranchId>(c.branch_count()); ++b) {
        const Branch& br = c.branch(b);
        EXPECT_EQ(t.branch_current(x, b), x[static_cast<std::size_t>(t.current_column(b))]);
        EXPECT_EQ(t.branch_voltage(x, b),
                  t.node_potential(x, br.pos) - t.node_potential(x, br.neg));
    }
}

TEST(Tableau, CircuitWithoutGroundThrows) {
    Circuit c("floating");
    const NodeId a = c.add_node("a");
    const NodeId b = c.add_node("b");
    Branch r;
    r.name = "R1";
    r.pos = a;
    r.neg = b;
    c.add_branch(r, expr::make_equation(expr::EquationKind::kDipole, r.voltage_symbol(),
                                        expr::Expr::constant(0.0), "dipole(R1)"));
    EXPECT_THROW(
        {
            try {
                const Tableau t(c);
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find("no ground"), std::string::npos);
                throw;
            }
        },
        std::invalid_argument);
}

}  // namespace
}  // namespace amsvp::netlist
