// The tree-walk evaluator (expr::evaluate_tree) is the reference every
// fused-engine differential compares against: unit checks of its operators,
// and a differential against one-assignment fused programs.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "expr/expr.hpp"
#include "expr/fused.hpp"

namespace amsvp::expr {
namespace {

/// Resolver over a tiny fixed slot map: x->0, y->1, x@(t-dt)->2.
int test_resolver(const Symbol& s, int delay) {
    if (s.name == "x") {
        return delay == 0 ? 0 : 2;
    }
    if (s.name == "y") {
        return 1;
    }
    ADD_FAILURE() << "unexpected symbol " << s.display();
    return 0;
}

ExprPtr x() {
    return Expr::symbol(variable_symbol("x"));
}
ExprPtr y() {
    return Expr::symbol(variable_symbol("y"));
}

TEST(TreeWalk, EvaluatesArithmetic) {
    // (x + 2) * y - x/4
    auto e = Expr::sub(Expr::mul(Expr::add(x(), Expr::constant(2)), y()),
                       Expr::div(x(), Expr::constant(4)));
    const double slots[3] = {8.0, 3.0, 0.0};
    EXPECT_DOUBLE_EQ(evaluate_tree(e, test_resolver, slots), (8.0 + 2.0) * 3.0 - 2.0);
}

TEST(TreeWalk, EvaluatesDelayedReference) {
    auto e = Expr::sub(x(), Expr::delayed(variable_symbol("x"), 1));
    const double slots[3] = {5.0, 0.0, 1.5};
    EXPECT_DOUBLE_EQ(evaluate_tree(e, test_resolver, slots), 3.5);
}

TEST(TreeWalk, EvaluatesConditional) {
    auto e = Expr::conditional(Expr::binary(BinaryOp::kLt, x(), y()), Expr::constant(-1),
                               Expr::constant(+1));
    const double below[3] = {1.0, 2.0, 0.0};
    const double above[3] = {3.0, 2.0, 0.0};
    EXPECT_DOUBLE_EQ(evaluate_tree(e, test_resolver, below), -1.0);
    EXPECT_DOUBLE_EQ(evaluate_tree(e, test_resolver, above), +1.0);
}

TEST(TreeWalk, EvaluatesFunctions) {
    auto e = Expr::unary(UnaryOp::kSqrt,
                         Expr::add(Expr::mul(x(), x()), Expr::mul(y(), y())));
    const double slots[3] = {3.0, 4.0, 0.0};
    EXPECT_DOUBLE_EQ(evaluate_tree(e, test_resolver, slots), 5.0);
}

/// Differential test: a one-assignment fused program and the tree walk must
/// agree on randomly generated expressions.
class FusedVsTreeWalk : public ::testing::TestWithParam<int> {
protected:
    ExprPtr random_expr(std::mt19937& rng, int depth) {
        std::uniform_int_distribution<int> pick(0, depth <= 0 ? 1 : 7);
        switch (pick(rng)) {
            case 0:
                return Expr::constant(value_dist_(rng));
            case 1:
                return coin_(rng) ? x() : y();
            case 2:
                return Expr::add(random_expr(rng, depth - 1), random_expr(rng, depth - 1));
            case 3:
                return Expr::sub(random_expr(rng, depth - 1), random_expr(rng, depth - 1));
            case 4:
                return Expr::mul(random_expr(rng, depth - 1), random_expr(rng, depth - 1));
            case 5:
                return Expr::unary(UnaryOp::kSin, random_expr(rng, depth - 1));
            case 6:
                return Expr::conditional(
                    Expr::binary(BinaryOp::kLt, random_expr(rng, depth - 1),
                                 random_expr(rng, depth - 1)),
                    random_expr(rng, depth - 1), random_expr(rng, depth - 1));
            default:
                return Expr::binary(BinaryOp::kMax, random_expr(rng, depth - 1),
                                    random_expr(rng, depth - 1));
        }
    }

    std::uniform_real_distribution<double> value_dist_{-4.0, 4.0};
    std::bernoulli_distribution coin_;
};

TEST_P(FusedVsTreeWalk, AgreeOnRandomExpressions) {
    // Slot file: x, y, x@(t-dt), then the assignment's target.
    constexpr int kTarget = 3;
    std::mt19937 rng(static_cast<unsigned>(GetParam()));
    for (int trial = 0; trial < 25; ++trial) {
        const ExprPtr e = random_expr(rng, 4);
        const FusedProgram p = FusedProgram::compile({{kTarget, e}}, test_resolver, kTarget + 1);
        std::vector<double> slots(static_cast<std::size_t>(kTarget + 1 + p.scratch_count()));
        slots[0] = value_dist_(rng);
        slots[1] = value_dist_(rng);
        slots[2] = value_dist_(rng);
        p.initialize_constants(slots.data());
        p.execute(slots.data());
        const double via_fused = slots[kTarget];
        const double via_tree = evaluate_tree(e, test_resolver, slots.data());
        if (std::isnan(via_fused)) {
            EXPECT_TRUE(std::isnan(via_tree));
        } else {
            EXPECT_DOUBLE_EQ(via_fused, via_tree);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedVsTreeWalk, ::testing::Range(1, 11));

}  // namespace
}  // namespace amsvp::expr
