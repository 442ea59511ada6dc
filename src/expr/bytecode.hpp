// Bytecode compilation of (discretized) expressions.
//
// Single expressions evaluated many times — the SPICE and ELN residuals,
// and the test-side reference the fused engine is checked against — are
// flattened once into a postfix program over a slot file (doubles indexed
// by the caller); evaluation is a tight switch loop. Whole signal-flow
// models run on the fused register machine instead (expr/fused.hpp). The
// tree-walk evaluator is kept alongside as this program's differential
// reference.
#pragma once

#include <functional>
#include <vector>

#include "expr/expr.hpp"

namespace amsvp::expr {

/// Maps a (symbol, delay) reference to a slot index in the value file.
/// delay == 0 is the current-time value.
using SlotResolver = std::function<int(const Symbol&, int delay)>;

enum class OpCode : std::uint8_t {
    kPushConst,
    kLoadSlot,
    kNeg,
    kNot,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kPow,
    kMin,
    kMax,
    kExp,
    kLn,
    kLog10,
    kSqrt,
    kSin,
    kCos,
    kTan,
    kAbs,
    kLt,
    kLe,
    kGt,
    kGe,
    kEq,
    kNe,
    kAnd,
    kOr,
    kSelect,  ///< pops else, then, cond; pushes cond != 0 ? then : else
};

struct Instruction {
    OpCode op;
    double constant = 0.0;  ///< kPushConst payload
    int slot = 0;           ///< kLoadSlot payload
};

class Program {
public:
    /// Compile an expression. The expression must be free of ddt/idt (the
    /// discretizer removes them before compilation); violations abort.
    [[nodiscard]] static Program compile(const ExprPtr& e, const SlotResolver& resolver);

    /// Evaluate against a slot file. `slots` must cover every slot index the
    /// resolver produced.
    [[nodiscard]] double evaluate(const double* slots) const;

    [[nodiscard]] const std::vector<Instruction>& instructions() const { return code_; }
    [[nodiscard]] std::size_t max_stack_depth() const { return max_stack_; }

private:
    std::vector<Instruction> code_;
    std::size_t max_stack_ = 0;
};

/// Reference tree-walk evaluator (slow path; the differential reference
/// Program::evaluate is tested against).
[[nodiscard]] double evaluate_tree(const ExprPtr& e, const SlotResolver& resolver,
                                   const double* slots);

}  // namespace amsvp::expr
