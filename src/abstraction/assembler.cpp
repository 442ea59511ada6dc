#include "abstraction/assembler.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "expr/printer.hpp"
#include "expr/traversal.hpp"
#include "support/check.hpp"

namespace amsvp::abstraction {

using expr::Expr;
using expr::ExprKind;
using expr::ExprPtr;
using expr::LinearKey;
using expr::Symbol;
using expr::SymbolKind;

namespace {

/// Assembly passes before a still-growing root set counts as a failure.
constexpr std::size_t kMaxPasses = 256;

bool is_unknown_symbol(const Symbol& s) {
    return s.kind == SymbolKind::kBranchVoltage || s.kind == SymbolKind::kBranchCurrent;
}

/// One assembly pass over a fixed root set.
class Pass {
public:
    Pass(EquationDatabase db, const std::vector<Symbol>& roots)
        : db_(std::move(db)), roots_(roots.begin(), roots.end()) {}

    struct Result {
        std::vector<AssembledRoot> assembled;
        std::vector<Symbol> new_roots;  ///< non-empty => re-run with these added
        std::size_t consumed = 0;
        std::string error;              ///< non-empty => hard failure
    };

    Result run(const std::vector<Symbol>& root_order) {
        Result result;
        if (!reserve_root_equations(root_order)) {
            result.error = error_;
            return result;
        }
        for (const Symbol& root : root_order) {
            AssembledRoot assembled = expand_root(root);
            if (!error_.empty()) {
                result.error = error_;
                return result;
            }
            result.assembled.push_back(std::move(assembled));
        }
        result.new_roots.assign(new_roots_.begin(), new_roots_.end());
        result.consumed = consumed_;
        return result;
    }

private:
    /// Every root needs a defining equation, and inline expansion must not
    /// starve later roots by consuming all classes that can define them.
    /// Reserve one class per root up-front via maximum bipartite matching
    /// (Kuhn's augmenting paths; root and class counts are small).
    bool reserve_root_equations(const std::vector<Symbol>& root_order) {
        // Candidate equations per root, heuristic-preferred order.
        std::vector<std::vector<EquationId>> root_candidates;
        root_candidates.reserve(root_order.size());
        for (const Symbol& root : root_order) {
            std::vector<EquationId> candidates = db_.candidates(LinearKey{root, false});
            for (const EquationId id : db_.candidates(LinearKey{root, true})) {
                candidates.push_back(id);  // derivative definitions last
            }
            std::stable_sort(candidates.begin(), candidates.end(),
                             [&](EquationId a, EquationId b) {
                                 return score_candidate(a) < score_candidate(b);
                             });
            if (candidates.empty()) {
                error_ = "no equation in the enriched database defines root " +
                         root.display();
                return false;
            }
            root_candidates.push_back(std::move(candidates));
        }

        std::unordered_map<ClassId, std::size_t> class_owner;  // class -> root index
        std::function<bool(std::size_t, std::set<ClassId>&)> try_assign =
            [&](std::size_t root_index, std::set<ClassId>& visited) {
                for (const EquationId eq : root_candidates[root_index]) {
                    const ClassId cls = db_.class_of(eq);
                    if (visited.contains(cls)) {
                        continue;
                    }
                    visited.insert(cls);
                    const auto owner = class_owner.find(cls);
                    if (owner == class_owner.end() || try_assign(owner->second, visited)) {
                        class_owner[cls] = root_index;
                        reserved_equation_[root_order[root_index]] = eq;
                        return true;
                    }
                }
                return false;
            };

        for (std::size_t i = 0; i < root_order.size(); ++i) {
            std::set<ClassId> visited;
            if (!try_assign(i, visited)) {
                error_ = "cannot reserve a defining equation for root " +
                         root_order[i].display() + " (system over-constrained)";
                return false;
            }
        }
        // reserved_equation_ may have been overwritten during augmentation;
        // rebuild it from the final ownership map.
        reserved_equation_.clear();
        for (const auto& [cls, root_index] : class_owner) {
            for (const EquationId eq : root_candidates[root_index]) {
                if (db_.class_of(eq) == cls) {
                    reserved_equation_[root_order[root_index]] = eq;
                    break;
                }
            }
            reserved_classes_.insert(cls);
        }
        return true;
    }

    AssembledRoot expand_root(const Symbol& root) {
        AssembledRoot out;
        out.symbol = root;

        const auto reserved = reserved_equation_.find(root);
        AMSVP_CHECK(reserved != reserved_equation_.end(), "root without reserved equation");
        const EquationId eq = reserved->second;
        const bool derivative_lhs = db_.equation(eq).lhs_has_derivative();
        db_.disable_class(db_.class_of(eq));
        const std::size_t consumed_before = consumed_;
        ++consumed_;

        path_.push_back(root);
        out.tree = walk(db_.equation(eq).rhs);
        path_.pop_back();
        out.lhs_derivative = derivative_lhs;
        out.consumed_classes = consumed_ - consumed_before;
        return out;
    }

    /// Recursive rhs walk: Algorithm 2's ASSEMBLE over one pass's root set.
    ExprPtr walk(const ExprPtr& node) {
        if (!error_.empty()) {
            return node;
        }
        switch (node->kind()) {
            case ExprKind::kConstant:
            case ExprKind::kDelayed:
                return node;
            case ExprKind::kSymbol: {
                const Symbol& s = node->symbol();
                if (!is_unknown_symbol(s)) {
                    return node;  // input / parameter / time
                }
                if (roots_.contains(s)) {
                    return node;  // reference to a (current or future) root
                }
                if (on_path(s)) {
                    // Residual occurrence: the paper leaves the symbol in the
                    // tree; we additionally promote it to a root and re-run.
                    request_root(s);
                    return node;
                }
                return expand_inline(s, node);
            }
            case ExprKind::kDdt: {
                const ExprPtr& operand = node->operand();
                if (operand->kind() == ExprKind::kSymbol &&
                    is_unknown_symbol(operand->symbol())) {
                    // State variable: must be computed as its own root so the
                    // discretizer can form (x - x@(t-dt)) / dt.
                    if (!roots_.contains(operand->symbol())) {
                        request_root(operand->symbol());
                    }
                    return node;
                }
                return Expr::ddt(walk(operand));
            }
            case ExprKind::kIdt:
                error_ = "idt() inside a conservative description is not supported by the "
                         "abstraction flow";
                return node;
            case ExprKind::kUnary:
                return Expr::unary(node->unary_op(), walk(node->operand()));
            case ExprKind::kBinary:
                return Expr::binary(node->binary_op(), walk(node->left()), walk(node->right()));
            case ExprKind::kConditional:
                return Expr::conditional(walk(node->condition()), walk(node->then_branch()),
                                         walk(node->else_branch()));
        }
        return node;
    }

    ExprPtr expand_inline(const Symbol& s, const ExprPtr& original) {
        auto eq = fetch(LinearKey{s, false});
        if (!eq) {
            // Only derivative definitions (or none) remain: promote to root.
            request_root(s);
            return original;
        }
        db_.disable_class(db_.class_of(*eq));
        ++consumed_;
        path_.push_back(s);
        ExprPtr tree = walk(db_.equation(*eq).rhs);
        path_.pop_back();
        return tree;
    }

    [[nodiscard]] bool on_path(const Symbol& s) const {
        return std::find(path_.begin(), path_.end(), s) != path_.end();
    }

    void request_root(const Symbol& s) {
        if (!roots_.contains(s)) {
            new_roots_.insert(s);
        }
    }

    /// fetchEquation with the selection heuristics:
    ///  * heavily penalise equations whose rhs references a symbol currently
    ///    being expanded (would immediately create a residual),
    ///  * penalise rhs unknowns that have no other enabled definition
    ///    (depth-1 dead-end lookahead),
    ///  * prefer smaller trees.
    [[nodiscard]] std::optional<EquationId> fetch(const LinearKey& key) {
        const std::vector<EquationId> candidates = db_.candidates(key);
        EquationId best = -1;
        long best_score = 0;
        for (const EquationId id : candidates) {
            if (reserved_classes_.contains(db_.class_of(id))) {
                continue;  // spoken for by a root expansion
            }
            const long score = score_candidate(id);
            if (best == -1 || score < best_score) {
                best = id;
                best_score = score;
            }
        }
        if (best == -1) {
            return std::nullopt;
        }
        return best;
    }

    [[nodiscard]] long score_candidate(EquationId id) const {
        const expr::Equation& eq = db_.equation(id);
        long on_path_refs = 0;
        long dead_end_refs = 0;
        long new_unknown_refs = 0;
        long nodes = 0;
        const ClassId own_class = db_.class_of(id);

        expr::visit(eq.rhs, [&](const ExprPtr& node) {
            ++nodes;
            if (node->kind() != ExprKind::kSymbol) {
                return true;
            }
            const Symbol& s = node->symbol();
            if (!is_unknown_symbol(s) || roots_.contains(s)) {
                return true;
            }
            if (on_path(s)) {
                ++on_path_refs;
                return true;
            }
            // Every fresh unknown widens the extracted cone (Fig. 3): prefer
            // equations that stay inside what is already reached.
            ++new_unknown_refs;
            // Depth-1 lookahead: can s be defined by some other enabled,
            // unreserved class (directly, or as a derivative-defined state
            // which would be promoted to a root)?
            bool definable = false;
            for (const EquationId candidate : db_.candidates(LinearKey{s, false})) {
                const ClassId cls = db_.class_of(candidate);
                if (cls != own_class && !reserved_classes_.contains(cls)) {
                    definable = true;
                    break;
                }
            }
            if (!definable && !db_.candidates(LinearKey{s, true}).empty()) {
                definable = true;
            }
            if (!definable) {
                ++dead_end_refs;
            }
            return true;
        });
        return on_path_refs * 1000000 + dead_end_refs * 10000 + new_unknown_refs * 100 +
               nodes;
    }

    EquationDatabase db_;
    std::set<Symbol> roots_;
    std::vector<Symbol> path_;
    std::set<Symbol> new_roots_;
    std::map<Symbol, EquationId> reserved_equation_;
    std::set<ClassId> reserved_classes_;
    std::size_t consumed_ = 0;
    std::string error_;
};

/// Keep only roots transitively referenced from the outputs. Root sets grow
/// monotonically across assembly passes, so a root promoted early (e.g. an
/// intermediate current that later passes stopped using) may end up outside
/// the output cone; dropping it here is exactly Fig. 3's discard step.
std::vector<AssembledRoot> prune_unreachable(std::vector<AssembledRoot> roots,
                                             const std::vector<Symbol>& outputs) {
    std::set<Symbol> reachable(outputs.begin(), outputs.end());
    bool changed = true;
    while (changed) {
        changed = false;
        for (const AssembledRoot& root : roots) {
            if (!reachable.contains(root.symbol)) {
                continue;
            }
            for (const Symbol& s : expr::collect_symbols(root.tree)) {
                if (is_unknown_symbol(s) && reachable.insert(s).second) {
                    changed = true;
                }
            }
        }
    }
    std::vector<AssembledRoot> kept;
    kept.reserve(roots.size());
    for (AssembledRoot& root : roots) {
        if (reachable.contains(root.symbol)) {
            kept.push_back(std::move(root));
        }
    }
    return kept;
}

}  // namespace

const AssembledRoot* AssembledSystem::find_root(const Symbol& s) const {
    for (const AssembledRoot& r : roots) {
        if (r.symbol == s) {
            return &r;
        }
    }
    return nullptr;
}

std::optional<AssembledSystem> assemble(const EquationDatabase& database,
                                        const std::vector<Symbol>& outputs, std::string* error) {
    AMSVP_CHECK(!outputs.empty(), "assemble requires at least one output");

    std::vector<Symbol> root_order(outputs);
    AssembledSystem system;
    system.outputs = outputs;

    for (std::size_t pass = 0; pass < kMaxPasses; ++pass) {
        Pass runner(database, root_order);
        Pass::Result result = runner.run(root_order);
        ++system.passes;

        if (!result.error.empty()) {
            if (error != nullptr) {
                *error = result.error;
            }
            return std::nullopt;
        }
        if (result.new_roots.empty()) {
            system.roots = prune_unreachable(std::move(result.assembled), outputs);
            system.equations_consumed = 0;
            for (const AssembledRoot& root : system.roots) {
                system.equations_consumed += root.consumed_classes;
            }
            return system;
        }
        for (const Symbol& s : result.new_roots) {
            if (std::find(root_order.begin(), root_order.end(), s) == root_order.end()) {
                root_order.push_back(s);
            }
        }
    }
    if (error != nullptr) {
        *error = "assembly did not stabilise within " + std::to_string(kMaxPasses) + " passes";
    }
    return std::nullopt;
}

}  // namespace amsvp::abstraction
