// The enriched equation store of Section IV-B (Fig. 5): a multimap keyed by
// the defined quantity, where each original equation and all its solved
// variants form one *dependency class* (the paper's linked chain of linearly
// dependent equations). Consuming any member of a class disables the whole
// class, so the same constraint is never used twice.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "expr/equation.hpp"

namespace amsvp::expr {
/// Hash for LinearKey so the database can bucket equations by defined key.
struct LinearKeyHash {
    [[nodiscard]] std::size_t operator()(const LinearKey& k) const {
        return SymbolHash{}(k.symbol) * 2 + (k.derivative ? 1 : 0);
    }
};
}  // namespace amsvp::expr

namespace amsvp::abstraction {

using ClassId = int;
using EquationId = int;

class EquationDatabase {
public:
    /// Open a new dependency class; subsequent insertions join it.
    ClassId new_class();

    /// Insert an equation into a class. The equation is indexed under its
    /// lhs key.
    EquationId insert(expr::Equation equation, ClassId cls);

    [[nodiscard]] std::size_t equation_count() const { return entries_.size(); }
    [[nodiscard]] std::size_t class_count() const { return class_count_; }

    [[nodiscard]] const expr::Equation& equation(EquationId id) const;
    [[nodiscard]] ClassId class_of(EquationId id) const;

    /// Equations whose lhs is exactly `key` (same derivative flag), ids
    /// ascending. Which classes are consumed is the assembler's pass-local
    /// state, not the database's.
    [[nodiscard]] std::vector<EquationId> candidates(const expr::LinearKey& key) const;

    /// All equations of one class, in insertion order (the paper's chain).
    [[nodiscard]] std::vector<EquationId> class_members(ClassId cls) const;

    /// Render the table grouped by class (Fig. 5 style).
    [[nodiscard]] std::string describe() const;

private:
    struct Entry {
        expr::Equation equation;
        ClassId cls;
    };
    std::vector<Entry> entries_;
    std::size_t class_count_ = 0;
    std::unordered_multimap<expr::LinearKey, EquationId, expr::LinearKeyHash> by_key_;
};

}  // namespace amsvp::abstraction
