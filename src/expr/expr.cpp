#include "expr/expr.hpp"

#include <cmath>

#include "support/check.hpp"

namespace amsvp::expr {

std::string_view to_string(UnaryOp op) {
    switch (op) {
        case UnaryOp::kNeg:
            return "-";
        case UnaryOp::kNot:
            return "!";
        case UnaryOp::kExp:
            return "exp";
        case UnaryOp::kLn:
            return "ln";
        case UnaryOp::kLog10:
            return "log";
        case UnaryOp::kSqrt:
            return "sqrt";
        case UnaryOp::kSin:
            return "sin";
        case UnaryOp::kCos:
            return "cos";
        case UnaryOp::kTan:
            return "tan";
        case UnaryOp::kAbs:
            return "abs";
    }
    return "?";
}

std::string_view to_string(BinaryOp op) {
    switch (op) {
        case BinaryOp::kAdd:
            return "+";
        case BinaryOp::kSub:
            return "-";
        case BinaryOp::kMul:
            return "*";
        case BinaryOp::kDiv:
            return "/";
        case BinaryOp::kPow:
            return "pow";
        case BinaryOp::kMin:
            return "min";
        case BinaryOp::kMax:
            return "max";
        case BinaryOp::kLt:
            return "<";
        case BinaryOp::kLe:
            return "<=";
        case BinaryOp::kGt:
            return ">";
        case BinaryOp::kGe:
            return ">=";
        case BinaryOp::kEq:
            return "==";
        case BinaryOp::kNe:
            return "!=";
        case BinaryOp::kAnd:
            return "&&";
        case BinaryOp::kOr:
            return "||";
    }
    return "?";
}

bool is_boolean_op(BinaryOp op) {
    switch (op) {
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
            return true;
        default:
            return false;
    }
}

double Expr::constant_value() const {
    AMSVP_CHECK(kind_ == ExprKind::kConstant, "not a constant node");
    return constant_;
}

const Symbol& Expr::symbol() const {
    AMSVP_CHECK(kind_ == ExprKind::kSymbol || kind_ == ExprKind::kDelayed, "not a symbol node");
    return symbol_;
}

int Expr::delay() const {
    AMSVP_CHECK(kind_ == ExprKind::kDelayed, "not a delayed node");
    return delay_;
}

UnaryOp Expr::unary_op() const {
    AMSVP_CHECK(kind_ == ExprKind::kUnary, "not a unary node");
    return unary_op_;
}

BinaryOp Expr::binary_op() const {
    AMSVP_CHECK(kind_ == ExprKind::kBinary, "not a binary node");
    return binary_op_;
}

const ExprPtr& Expr::operand() const {
    AMSVP_CHECK(kind_ == ExprKind::kUnary || kind_ == ExprKind::kDdt || kind_ == ExprKind::kIdt,
                "node has no single operand");
    return a_;
}

const ExprPtr& Expr::left() const {
    AMSVP_CHECK(kind_ == ExprKind::kBinary, "not a binary node");
    return a_;
}

const ExprPtr& Expr::right() const {
    AMSVP_CHECK(kind_ == ExprKind::kBinary, "not a binary node");
    return b_;
}

const ExprPtr& Expr::condition() const {
    AMSVP_CHECK(kind_ == ExprKind::kConditional, "not a conditional node");
    return a_;
}

const ExprPtr& Expr::then_branch() const {
    AMSVP_CHECK(kind_ == ExprKind::kConditional, "not a conditional node");
    return b_;
}

const ExprPtr& Expr::else_branch() const {
    AMSVP_CHECK(kind_ == ExprKind::kConditional, "not a conditional node");
    return c_;
}

std::size_t Expr::node_count() const {
    std::size_t n = 1;
    if (a_) {
        n += a_->node_count();
    }
    if (b_) {
        n += b_->node_count();
    }
    if (c_) {
        n += c_->node_count();
    }
    return n;
}

// Factories construct via a local mutable instance. The constructor is
// private, so construction goes through this builder.
namespace detail {
struct ExprBuilder {
    static std::shared_ptr<Expr> make(ExprKind kind) {
        return std::shared_ptr<Expr>(new Expr(kind));
    }
    // Accessors for factory internals.
    static void set_constant(Expr& e, double v) { e.constant_ = v; }
    static void set_symbol(Expr& e, Symbol s) { e.symbol_ = std::move(s); }
    static void set_delay(Expr& e, int d) { e.delay_ = d; }
    static void set_unary(Expr& e, UnaryOp op) { e.unary_op_ = op; }
    static void set_binary(Expr& e, BinaryOp op) { e.binary_op_ = op; }
    static void set_children(Expr& e, ExprPtr a, ExprPtr b = nullptr, ExprPtr c = nullptr) {
        e.a_ = std::move(a);
        e.b_ = std::move(b);
        e.c_ = std::move(c);
        e.has_dynamic_ = (e.kind_ == ExprKind::kDdt || e.kind_ == ExprKind::kIdt) ||
                         (e.a_ && e.a_->has_dynamic()) || (e.b_ && e.b_->has_dynamic()) ||
                         (e.c_ && e.c_->has_dynamic());
    }
};
}  // namespace detail

ExprPtr Expr::constant(double value) {
    auto e = detail::ExprBuilder::make(ExprKind::kConstant);
    detail::ExprBuilder::set_constant(*e, value);
    return e;
}

ExprPtr Expr::symbol(Symbol s) {
    auto e = detail::ExprBuilder::make(ExprKind::kSymbol);
    detail::ExprBuilder::set_symbol(*e, std::move(s));
    return e;
}

ExprPtr Expr::delayed(Symbol s, int delay_steps) {
    AMSVP_CHECK(delay_steps >= 1, "delay must be at least one step");
    auto e = detail::ExprBuilder::make(ExprKind::kDelayed);
    detail::ExprBuilder::set_symbol(*e, std::move(s));
    detail::ExprBuilder::set_delay(*e, delay_steps);
    return e;
}

ExprPtr Expr::unary(UnaryOp op, ExprPtr operand) {
    AMSVP_CHECK(operand != nullptr, "null operand");
    if (operand->kind() == ExprKind::kConstant) {
        return constant(apply_unary(op, operand->constant_value()));
    }
    // -(-x) => x
    if (op == UnaryOp::kNeg && operand->kind() == ExprKind::kUnary &&
        operand->unary_op() == UnaryOp::kNeg) {
        return operand->operand();
    }
    auto e = detail::ExprBuilder::make(ExprKind::kUnary);
    detail::ExprBuilder::set_unary(*e, op);
    detail::ExprBuilder::set_children(*e, std::move(operand));
    return e;
}

ExprPtr Expr::binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
    AMSVP_CHECK(lhs != nullptr && rhs != nullptr, "null operand");
    const bool lc = lhs->kind() == ExprKind::kConstant;
    const bool rc = rhs->kind() == ExprKind::kConstant;
    if (lc && rc) {
        return constant(apply_binary(op, lhs->constant_value(), rhs->constant_value()));
    }
    switch (op) {
        case BinaryOp::kAdd:
            if (lhs->is_constant(0.0)) {
                return rhs;
            }
            if (rhs->is_constant(0.0)) {
                return lhs;
            }
            break;
        case BinaryOp::kSub:
            if (rhs->is_constant(0.0)) {
                return lhs;
            }
            if (lhs->is_constant(0.0)) {
                return neg(rhs);
            }
            break;
        case BinaryOp::kMul:
            if (lhs->is_constant(0.0) || rhs->is_constant(0.0)) {
                return constant(0.0);
            }
            if (lhs->is_constant(1.0)) {
                return rhs;
            }
            if (rhs->is_constant(1.0)) {
                return lhs;
            }
            if (lhs->is_constant(-1.0)) {
                return neg(rhs);
            }
            if (rhs->is_constant(-1.0)) {
                return neg(lhs);
            }
            break;
        case BinaryOp::kDiv:
            if (rhs->is_constant(1.0)) {
                return lhs;
            }
            if (lhs->is_constant(0.0)) {
                return constant(0.0);
            }
            break;
        default:
            break;
    }
    auto e = detail::ExprBuilder::make(ExprKind::kBinary);
    detail::ExprBuilder::set_binary(*e, op);
    detail::ExprBuilder::set_children(*e, std::move(lhs), std::move(rhs));
    return e;
}

ExprPtr Expr::ddt(ExprPtr operand) {
    AMSVP_CHECK(operand != nullptr, "null operand");
    if (operand->kind() == ExprKind::kConstant) {
        return constant(0.0);  // derivative of a constant
    }
    auto e = detail::ExprBuilder::make(ExprKind::kDdt);
    detail::ExprBuilder::set_children(*e, std::move(operand));
    return e;
}

ExprPtr Expr::idt(ExprPtr operand) {
    AMSVP_CHECK(operand != nullptr, "null operand");
    auto e = detail::ExprBuilder::make(ExprKind::kIdt);
    detail::ExprBuilder::set_children(*e, std::move(operand));
    return e;
}

ExprPtr Expr::conditional(ExprPtr cond, ExprPtr then_branch, ExprPtr else_branch) {
    AMSVP_CHECK(cond && then_branch && else_branch, "null operand");
    if (cond->kind() == ExprKind::kConstant) {
        return cond->constant_value() != 0.0 ? then_branch : else_branch;
    }
    auto e = detail::ExprBuilder::make(ExprKind::kConditional);
    detail::ExprBuilder::set_children(*e, std::move(cond), std::move(then_branch),
                                      std::move(else_branch));
    return e;
}

ExprPtr Expr::add(ExprPtr a, ExprPtr b) {
    return binary(BinaryOp::kAdd, std::move(a), std::move(b));
}
ExprPtr Expr::sub(ExprPtr a, ExprPtr b) {
    return binary(BinaryOp::kSub, std::move(a), std::move(b));
}
ExprPtr Expr::mul(ExprPtr a, ExprPtr b) {
    return binary(BinaryOp::kMul, std::move(a), std::move(b));
}
ExprPtr Expr::div(ExprPtr a, ExprPtr b) {
    return binary(BinaryOp::kDiv, std::move(a), std::move(b));
}
ExprPtr Expr::neg(ExprPtr a) {
    return unary(UnaryOp::kNeg, std::move(a));
}

bool structurally_equal(const ExprPtr& a, const ExprPtr& b) {
    if (a == b) {
        return true;
    }
    if (!a || !b || a->kind() != b->kind()) {
        return false;
    }
    switch (a->kind()) {
        case ExprKind::kConstant:
            return a->constant_value() == b->constant_value();
        case ExprKind::kSymbol:
            return a->symbol() == b->symbol();
        case ExprKind::kDelayed:
            return a->symbol() == b->symbol() && a->delay() == b->delay();
        case ExprKind::kUnary:
            return a->unary_op() == b->unary_op() && structurally_equal(a->operand(), b->operand());
        case ExprKind::kBinary:
            return a->binary_op() == b->binary_op() && structurally_equal(a->left(), b->left()) &&
                   structurally_equal(a->right(), b->right());
        case ExprKind::kDdt:
        case ExprKind::kIdt:
            return structurally_equal(a->operand(), b->operand());
        case ExprKind::kConditional:
            return structurally_equal(a->condition(), b->condition()) &&
                   structurally_equal(a->then_branch(), b->then_branch()) &&
                   structurally_equal(a->else_branch(), b->else_branch());
    }
    return false;
}

double evaluate_constant(const ExprPtr& e) {
    AMSVP_CHECK(e != nullptr, "null expression");
    switch (e->kind()) {
        case ExprKind::kConstant:
            return e->constant_value();
        case ExprKind::kUnary:
            return apply_unary(e->unary_op(), evaluate_constant(e->operand()));
        case ExprKind::kBinary:
            return apply_binary(e->binary_op(), evaluate_constant(e->left()),
                                evaluate_constant(e->right()));
        case ExprKind::kConditional:
            return evaluate_constant(e->condition()) != 0.0
                       ? evaluate_constant(e->then_branch())
                       : evaluate_constant(e->else_branch());
        default:
            AMSVP_CHECK(false, "expression is not constant");
    }
    return 0.0;
}

double evaluate_tree(const ExprPtr& e, const SlotResolver& resolver, const double* slots) {
    switch (e->kind()) {
        case ExprKind::kConstant:
            return e->constant_value();
        case ExprKind::kSymbol:
            return slots[resolver(e->symbol(), 0)];
        case ExprKind::kDelayed:
            return slots[resolver(e->symbol(), e->delay())];
        case ExprKind::kUnary:
            return apply_unary(e->unary_op(), evaluate_tree(e->operand(), resolver, slots));
        case ExprKind::kBinary:
            return apply_binary(e->binary_op(), evaluate_tree(e->left(), resolver, slots),
                                evaluate_tree(e->right(), resolver, slots));
        case ExprKind::kConditional:
            return evaluate_tree(e->condition(), resolver, slots) != 0.0
                       ? evaluate_tree(e->then_branch(), resolver, slots)
                       : evaluate_tree(e->else_branch(), resolver, slots);
        case ExprKind::kDdt:
        case ExprKind::kIdt:
            AMSVP_CHECK(false, "ddt/idt must be discretized before evaluation");
    }
    return 0.0;
}

double apply_unary(UnaryOp op, double x) {
    switch (op) {
        case UnaryOp::kNeg:
            return -x;
        case UnaryOp::kNot:
            return x == 0.0 ? 1.0 : 0.0;
        case UnaryOp::kExp:
            return std::exp(x);
        case UnaryOp::kLn:
            return std::log(x);
        case UnaryOp::kLog10:
            return std::log10(x);
        case UnaryOp::kSqrt:
            return std::sqrt(x);
        case UnaryOp::kSin:
            return std::sin(x);
        case UnaryOp::kCos:
            return std::cos(x);
        case UnaryOp::kTan:
            return std::tan(x);
        case UnaryOp::kAbs:
            return std::fabs(x);
    }
    return 0.0;
}

double apply_binary(BinaryOp op, double a, double b) {
    switch (op) {
        case BinaryOp::kAdd:
            return a + b;
        case BinaryOp::kSub:
            return a - b;
        case BinaryOp::kMul:
            return a * b;
        case BinaryOp::kDiv:
            return a / b;
        case BinaryOp::kPow:
            return std::pow(a, b);
        case BinaryOp::kMin:
            return std::min(a, b);
        case BinaryOp::kMax:
            return std::max(a, b);
        case BinaryOp::kLt:
            return a < b ? 1.0 : 0.0;
        case BinaryOp::kLe:
            return a <= b ? 1.0 : 0.0;
        case BinaryOp::kGt:
            return a > b ? 1.0 : 0.0;
        case BinaryOp::kGe:
            return a >= b ? 1.0 : 0.0;
        case BinaryOp::kEq:
            return a == b ? 1.0 : 0.0;
        case BinaryOp::kNe:
            return a != b ? 1.0 : 0.0;
        case BinaryOp::kAnd:
            return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
        case BinaryOp::kOr:
            return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
    }
    return 0.0;
}

}  // namespace amsvp::expr
