// Immutable expression trees.
//
// These trees are the common currency of the whole library:
//  * the Verilog-AMS parser produces them for contribution statements,
//  * the abstraction pipeline (Algorithms 1 and 2 of the paper) rewrites
//    them symbolically,
//  * code generators print them, and the runtime compiles them to the
//    fused register machine (expr/fused.hpp).
//
// Nodes are immutable and shared (std::shared_ptr<const Expr>), so rewriting
// builds new trees that structurally share unchanged subtrees.
#pragma once

#include <functional>
#include <memory>
#include <string_view>

#include "expr/symbol.hpp"

namespace amsvp::expr {

enum class ExprKind {
    kConstant,     ///< numeric literal
    kSymbol,       ///< symbol value at current time t
    kDelayed,      ///< symbol value `delay` timesteps in the past
    kUnary,        ///< unary operator or intrinsic function
    kBinary,       ///< binary operator
    kDdt,          ///< time derivative (Verilog-AMS ddt())
    kIdt,          ///< time integral (Verilog-AMS idt())
    kConditional,  ///< cond ? then : otherwise
};

enum class UnaryOp {
    kNeg,
    kNot,
    kExp,
    kLn,
    kLog10,
    kSqrt,
    kSin,
    kCos,
    kTan,
    kAbs,
};

enum class BinaryOp {
    kAdd,
    kSub,
    kMul,
    kDiv,
    kPow,
    kMin,
    kMax,
    // Relational / logical operators (used inside conditional expressions).
    kLt,
    kLe,
    kGt,
    kGe,
    kEq,
    kNe,
    kAnd,
    kOr,
};

[[nodiscard]] std::string_view to_string(UnaryOp op);
[[nodiscard]] std::string_view to_string(BinaryOp op);

/// True for <, <=, >, >=, ==, !=, &&, || — operators whose result is boolean.
[[nodiscard]] bool is_boolean_op(BinaryOp op);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

namespace detail {
struct ExprBuilder;
}  // namespace detail

class Expr {
public:
    [[nodiscard]] ExprKind kind() const { return kind_; }

    // Accessors; each asserts the node has the matching kind.
    [[nodiscard]] double constant_value() const;
    [[nodiscard]] const Symbol& symbol() const;
    [[nodiscard]] int delay() const;
    [[nodiscard]] UnaryOp unary_op() const;
    [[nodiscard]] BinaryOp binary_op() const;
    [[nodiscard]] const ExprPtr& operand() const;        // kUnary, kDdt, kIdt
    [[nodiscard]] const ExprPtr& left() const;           // kBinary
    [[nodiscard]] const ExprPtr& right() const;          // kBinary
    [[nodiscard]] const ExprPtr& condition() const;      // kConditional
    [[nodiscard]] const ExprPtr& then_branch() const;    // kConditional
    [[nodiscard]] const ExprPtr& else_branch() const;    // kConditional

    /// True when the subtree contains a ddt() or idt() operator — the flag the
    /// paper attaches to AST elements during acquisition (Section IV-A).
    [[nodiscard]] bool has_dynamic() const { return has_dynamic_; }

    [[nodiscard]] bool is_constant(double value) const {
        return kind_ == ExprKind::kConstant && constant_ == value;
    }

    /// Number of nodes in the subtree (used by heuristics and complexity
    /// reporting).
    [[nodiscard]] std::size_t node_count() const;

    // --- Factories -------------------------------------------------------
    // All construction goes through these; they apply local algebraic
    // simplification (constant folding, neutral/absorbing elements) so the
    // rest of the pipeline never sees trivially reducible trees.

    [[nodiscard]] static ExprPtr constant(double value);
    [[nodiscard]] static ExprPtr symbol(Symbol s);
    [[nodiscard]] static ExprPtr delayed(Symbol s, int delay_steps);
    [[nodiscard]] static ExprPtr unary(UnaryOp op, ExprPtr operand);
    [[nodiscard]] static ExprPtr binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
    [[nodiscard]] static ExprPtr ddt(ExprPtr operand);
    [[nodiscard]] static ExprPtr idt(ExprPtr operand);
    [[nodiscard]] static ExprPtr conditional(ExprPtr cond, ExprPtr then_branch,
                                             ExprPtr else_branch);

    // Convenience arithmetic wrappers.
    [[nodiscard]] static ExprPtr add(ExprPtr a, ExprPtr b);
    [[nodiscard]] static ExprPtr sub(ExprPtr a, ExprPtr b);
    [[nodiscard]] static ExprPtr mul(ExprPtr a, ExprPtr b);
    [[nodiscard]] static ExprPtr div(ExprPtr a, ExprPtr b);
    [[nodiscard]] static ExprPtr neg(ExprPtr a);

private:
    friend struct detail::ExprBuilder;

    explicit Expr(ExprKind kind) : kind_(kind) {}

    ExprKind kind_;
    bool has_dynamic_ = false;
    double constant_ = 0.0;
    Symbol symbol_;
    int delay_ = 0;
    UnaryOp unary_op_ = UnaryOp::kNeg;
    BinaryOp binary_op_ = BinaryOp::kAdd;
    ExprPtr a_;
    ExprPtr b_;
    ExprPtr c_;
};

/// Structural equality (same shape, same symbols, same constants).
[[nodiscard]] bool structurally_equal(const ExprPtr& a, const ExprPtr& b);

/// Evaluate a tree of pure constants; asserts if symbols remain.
[[nodiscard]] double evaluate_constant(const ExprPtr& e);

/// Maps a (symbol, delay) reference to a slot index in the value file.
/// delay == 0 is the current-time value.
using SlotResolver = std::function<int(const Symbol&, int delay)>;

/// Reference tree-walk evaluator over a slot file: the slow path the fused
/// engine's differential tests compare against. The expression must be free
/// of ddt/idt (discretized); violations abort.
[[nodiscard]] double evaluate_tree(const ExprPtr& e, const SlotResolver& resolver,
                                   const double* slots);

/// Apply a unary/binary operator to already-evaluated operands.
[[nodiscard]] double apply_unary(UnaryOp op, double x);
[[nodiscard]] double apply_binary(BinaryOp op, double a, double b);

}  // namespace amsvp::expr
