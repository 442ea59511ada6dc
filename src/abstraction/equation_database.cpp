#include "abstraction/equation_database.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace amsvp::abstraction {

ClassId EquationDatabase::new_class() { return static_cast<ClassId>(class_count_++); }

EquationId EquationDatabase::insert(expr::Equation equation, ClassId cls) {
    AMSVP_CHECK(cls >= 0 && cls < static_cast<ClassId>(class_count_), "unknown class id");
    const expr::LinearKey key = equation.lhs_key();
    entries_.push_back(Entry{std::move(equation), cls});
    const EquationId id = static_cast<EquationId>(entries_.size() - 1);
    by_key_.emplace(key, id);
    return id;
}

const expr::Equation& EquationDatabase::equation(EquationId id) const {
    AMSVP_CHECK(id >= 0 && id < static_cast<EquationId>(entries_.size()),
                "equation id out of range");
    return entries_[static_cast<std::size_t>(id)].equation;
}

ClassId EquationDatabase::class_of(EquationId id) const {
    AMSVP_CHECK(id >= 0 && id < static_cast<EquationId>(entries_.size()),
                "equation id out of range");
    return entries_[static_cast<std::size_t>(id)].cls;
}

std::vector<EquationId> EquationDatabase::candidates(const expr::LinearKey& key) const {
    std::vector<EquationId> out;
    auto [begin, end] = by_key_.equal_range(key);
    for (auto it = begin; it != end; ++it) {
        out.push_back(it->second);
    }
    // unordered_multimap iteration order is not deterministic across
    // insert patterns; sort for reproducible assembly decisions.
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<EquationId> EquationDatabase::class_members(ClassId cls) const {
    std::vector<EquationId> out;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].cls == cls) {
            out.push_back(static_cast<EquationId>(i));
        }
    }
    return out;
}

std::string EquationDatabase::describe() const {
    std::string out;
    for (ClassId cls = 0; cls < static_cast<ClassId>(class_count_); ++cls) {
        out += "class #" + std::to_string(cls) + ":\n";
        for (EquationId id : class_members(cls)) {
            const Entry& e = entries_[static_cast<std::size_t>(id)];
            out += "  [" + std::string(to_string(e.equation.kind)) + "] " +
                   e.equation.display() + "    <- " + e.equation.origin + "\n";
        }
    }
    return out;
}

}  // namespace amsvp::abstraction
