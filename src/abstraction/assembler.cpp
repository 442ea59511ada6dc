#include "abstraction/assembler.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>

#include "support/check.hpp"

namespace amsvp::abstraction {

using expr::Expr;
using expr::ExprKind;
using expr::ExprPtr;
using expr::Symbol;
using expr::SymbolKind;

namespace {

/// Assembly passes before a still-growing root set counts as a failure.
constexpr std::size_t kMaxPasses = 256;

bool is_unknown_symbol(const Symbol& s) {
    return s.kind == SymbolKind::kBranchVoltage || s.kind == SymbolKind::kBranchCurrent;
}

/// A symbol's dense id: ids ascend in Symbol order.
using SymbolId = std::size_t;

/// The database as one assemble() call reads it, indexed once: every symbol
/// an output or an equation names (lhs, rhs unknowns) by dense id; per key
/// (id, derivative flag) the equations defining it, ids ascending; and per
/// equation its class and scoring profile: the rhs node count and the rhs
/// unknowns, by id and node, in the order Pass::walk meets them.
struct CandidateIndex {
    CandidateIndex(const EquationDatabase& db, const std::vector<Symbol>& outputs);

    [[nodiscard]] std::span<const EquationId> candidates(SymbolId id, bool derivative) const {
        const std::size_t key = 2 * id + (derivative ? 1 : 0);
        return {equations_by_key.data() + key_begin[key],
                equations_by_key.data() + key_begin[key + 1]};
    }
    [[nodiscard]] bool lhs_derivative(EquationId eq) const { return lhs_key[eq] % 2 == 1; }

    const EquationDatabase& database;
    std::vector<Symbol> symbols;        ///< by id
    std::vector<SymbolId> output_ids;   ///< the outputs, in order
    std::vector<std::size_t> key_begin; ///< 2 * symbols.size() + 1 offsets
    std::vector<EquationId> equations_by_key;
    // Per equation.
    std::vector<std::size_t> lhs_key;   ///< 2 * lhs id + derivative flag
    std::vector<ClassId> equation_class;
    std::vector<long> rhs_nodes;
    std::vector<std::size_t> ref_begin; ///< equation_count + 1 offsets into ref_*
    std::vector<SymbolId> ref_id;
    std::vector<const Expr*> ref_node;
};

CandidateIndex::CandidateIndex(const EquationDatabase& db, const std::vector<Symbol>& outputs)
    : database(db) {
    // Intern in first-seen order, then renumber in Symbol order below.
    std::unordered_map<Symbol, SymbolId, expr::SymbolHash> interned;
    std::vector<const Symbol*> seen;
    const auto intern = [&](const Symbol& s) {
        const auto [it, inserted] = interned.try_emplace(s, seen.size());
        if (inserted) {
            seen.push_back(&it->first);
        }
        return it->second;
    };
    // Same traversal order as Pass::walk: right operand before left, else and
    // then branches before the condition.
    const auto profile = [&](const auto& self, const ExprPtr& node) -> long {
        switch (node->kind()) {
            case ExprKind::kConstant:
            case ExprKind::kDelayed:
                return 1;
            case ExprKind::kSymbol:
                if (is_unknown_symbol(node->symbol())) {
                    ref_id.push_back(intern(node->symbol()));
                    ref_node.push_back(node.get());
                }
                return 1;
            case ExprKind::kUnary:
            case ExprKind::kDdt:
            case ExprKind::kIdt:
                return 1 + self(self, node->operand());
            case ExprKind::kBinary: {
                const long right = self(self, node->right());
                return 1 + right + self(self, node->left());
            }
            case ExprKind::kConditional: {
                const long otherwise = self(self, node->else_branch());
                const long then = self(self, node->then_branch());
                return 1 + otherwise + then + self(self, node->condition());
            }
        }
        return 1;
    };

    for (const Symbol& s : outputs) {
        output_ids.push_back(intern(s));
    }
    const auto equation_count = static_cast<EquationId>(db.equation_count());
    for (EquationId eq = 0; eq < equation_count; ++eq) {
        const expr::Equation& equation = db.equation(eq);
        const expr::LinearKey key = equation.lhs_key();
        lhs_key.push_back(2 * intern(key.symbol) + (key.derivative ? 1 : 0));
        equation_class.push_back(db.class_of(eq));
        ref_begin.push_back(ref_id.size());
        rhs_nodes.push_back(profile(profile, equation.rhs));
    }
    ref_begin.push_back(ref_id.size());

    std::vector<SymbolId> order(seen.size());
    std::iota(order.begin(), order.end(), SymbolId{0});
    std::sort(order.begin(), order.end(),
              [&](SymbolId a, SymbolId b) { return *seen[a] < *seen[b]; });
    std::vector<SymbolId> renumbered(seen.size());
    symbols.reserve(seen.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        renumbered[order[i]] = i;
        symbols.push_back(*seen[order[i]]);
    }
    for (SymbolId& id : output_ids) {
        id = renumbered[id];
    }
    for (SymbolId& id : ref_id) {
        id = renumbered[id];
    }

    key_begin.assign(2 * symbols.size() + 1, 0);
    for (std::size_t& key : lhs_key) {
        key = 2 * renumbered[key / 2] + key % 2;
        ++key_begin[key + 1];
    }
    std::partial_sum(key_begin.begin(), key_begin.end(), key_begin.begin());
    equations_by_key.resize(lhs_key.size());
    std::vector<std::size_t> fill(key_begin.begin(), key_begin.end() - 1);
    for (EquationId eq = 0; eq < equation_count; ++eq) {
        equations_by_key[fill[lhs_key[eq]]++] = eq;
    }
}

/// One assembly pass over a fixed root set. The pass-local state (consumed
/// and reserved classes, the expansion path, requested roots) lives in
/// flags indexed by class or symbol id, reset at the start of each run; the
/// root flags only grow, as the root set does.
class Pass {
public:
    explicit Pass(const CandidateIndex& index)
        : index_(index),
          is_root_(index.symbols.size(), 0),
          on_path_(index.symbols.size(), 0),
          requested_(index.symbols.size(), 0),
          reserved_equation_(index.symbols.size(), -1),
          class_consumed_(index.database.class_count(), 0),
          class_reserved_(index.database.class_count(), 0),
          class_owner_(index.database.class_count(), -1),
          class_visited_(index.database.class_count(), 0) {}

    /// Assemble every root of `root_order`. False on a hard failure, with
    /// the reason in error(); otherwise new_roots() lists, in Symbol order,
    /// the unknowns this pass had to promote (empty: the set is stable).
    bool run(const std::vector<SymbolId>& root_order) {
        for (const SymbolId id : root_order) {
            is_root_[id] = 1;
        }
        std::fill(class_consumed_.begin(), class_consumed_.end(), 0);
        std::fill(class_reserved_.begin(), class_reserved_.end(), 0);
        assembled_.clear();
        kept_.clear();
        kept_begin_.clear();
        new_roots_.clear();
        if (!reserve_root_equations(root_order)) {
            return false;
        }
        for (const SymbolId root : root_order) {
            expand_root(root);
            if (!error_.empty()) {
                return false;
            }
        }
        kept_begin_.push_back(kept_.size());
        std::sort(new_roots_.begin(), new_roots_.end());
        for (const SymbolId id : new_roots_) {
            requested_[id] = 0;
        }
        return true;
    }

    [[nodiscard]] const std::string& error() const { return error_; }
    [[nodiscard]] const std::vector<SymbolId>& new_roots() const { return new_roots_; }

    /// Keep only roots transitively referenced from the outputs. Root sets
    /// grow monotonically across assembly passes, so a root promoted early
    /// (e.g. an intermediate current that later passes stopped using) may
    /// end up outside the output cone; dropping it here is exactly Fig. 3's
    /// discard step.
    std::vector<AssembledRoot> take_reachable(const std::vector<SymbolId>& root_order) {
        // The unknowns of each final tree, by id. Every unknown symbol node
        // in a tree is one walk() kept; a factory may have folded some away
        // (0 * x), so the tree is read rather than the kept list.
        std::vector<SymbolId> refs;
        std::vector<std::size_t> refs_begin{0};
        for (std::size_t r = 0; r < assembled_.size(); ++r) {
            collect_refs(assembled_[r].tree, kept_begin_[r], kept_begin_[r + 1], refs);
            refs_begin.push_back(refs.size());
        }
        std::vector<char> reachable(index_.symbols.size(), 0);
        for (const SymbolId id : index_.output_ids) {
            reachable[id] = 1;
        }
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::size_t r = 0; r < assembled_.size(); ++r) {
                if (reachable[root_order[r]] == 0) {
                    continue;
                }
                for (std::size_t i = refs_begin[r]; i < refs_begin[r + 1]; ++i) {
                    char& flag = reachable[refs[i]];
                    changed |= flag == 0;
                    flag = 1;
                }
            }
        }
        std::vector<AssembledRoot> kept;
        kept.reserve(assembled_.size());
        for (std::size_t r = 0; r < assembled_.size(); ++r) {
            if (reachable[root_order[r]] != 0) {
                kept.push_back(std::move(assembled_[r]));
            }
        }
        return kept;
    }

private:
    /// Every root needs a defining equation, and inline expansion must not
    /// starve later roots by consuming all classes that can define them.
    /// Reserve one class per root up-front via maximum bipartite matching
    /// (Kuhn's augmenting paths; root and class counts are small).
    bool reserve_root_equations(const std::vector<SymbolId>& root_order) {
        // Candidate equations per root, heuristic-preferred order: each is
        // scored once (nothing consumed or reserved yet, empty path), and
        // derivative definitions come last among equal scores.
        root_candidates_.clear();
        root_candidates_begin_.assign(1, 0);
        for (const SymbolId root : root_order) {
            scored_.clear();
            for (const bool derivative : {false, true}) {
                for (const EquationId eq : index_.candidates(root, derivative)) {
                    scored_.emplace_back(score_candidate(eq), eq);
                }
            }
            if (scored_.empty()) {
                error_ = "no equation in the enriched database defines root " +
                         index_.symbols[root].display();
                return false;
            }
            std::stable_sort(scored_.begin(), scored_.end(),
                             [](const auto& a, const auto& b) { return a.first < b.first; });
            for (const auto& [score, eq] : scored_) {
                root_candidates_.push_back(eq);
            }
            root_candidates_begin_.push_back(root_candidates_.size());
        }

        std::fill(class_owner_.begin(), class_owner_.end(), -1);
        root_class_.assign(root_order.size(), -1);
        for (std::size_t i = 0; i < root_order.size(); ++i) {
            ++visit_stamp_;
            if (!try_assign(i)) {
                error_ = "cannot reserve a defining equation for root " +
                         index_.symbols[root_order[i]].display() +
                         " (system over-constrained)";
                return false;
            }
        }
        // Each root takes its best-scored candidate in the class it won.
        for (std::size_t i = 0; i < root_order.size(); ++i) {
            const ClassId cls = root_class_[i];
            class_reserved_[cls] = 1;
            for (const EquationId eq : candidates_of_root(i)) {
                if (class_of(eq) == cls) {
                    reserved_equation_[root_order[i]] = eq;
                    break;
                }
            }
        }
        return true;
    }

    /// Kuhn's augmenting path from root `root_index`, over the classes not
    /// yet visited in this search.
    bool try_assign(std::size_t root_index) {
        for (const EquationId eq : candidates_of_root(root_index)) {
            const ClassId cls = class_of(eq);
            unsigned& visited = class_visited_[cls];
            if (visited == visit_stamp_) {
                continue;
            }
            visited = visit_stamp_;
            const int owner = class_owner_[cls];
            if (owner < 0 || try_assign(static_cast<std::size_t>(owner))) {
                class_owner_[cls] = static_cast<int>(root_index);
                root_class_[root_index] = cls;
                return true;
            }
        }
        return false;
    }

    [[nodiscard]] std::span<const EquationId> candidates_of_root(std::size_t root_index) const {
        return {root_candidates_.data() + root_candidates_begin_[root_index],
                root_candidates_.data() + root_candidates_begin_[root_index + 1]};
    }

    [[nodiscard]] ClassId class_of(EquationId eq) const {
        return index_.equation_class[eq];
    }

    [[nodiscard]] bool available(ClassId cls) const {
        return class_consumed_[cls] == 0 &&
               class_reserved_[cls] == 0;
    }

    void expand_root(SymbolId root) {
        const EquationId eq = reserved_equation_[root];
        AMSVP_CHECK(eq >= 0, "root without reserved equation");
        class_consumed_[class_of(eq)] = 1;
        const std::size_t consumed_before = consumed_;
        ++consumed_;
        kept_begin_.push_back(kept_.size());

        // A root on the path is met as a root reference, never as a
        // residual, so only inlined unknowns mark the path.
        AssembledRoot out;
        out.symbol = index_.symbols[root];
        out.tree = walk_rhs(eq);
        out.lhs_derivative = index_.lhs_derivative(eq);
        out.consumed_classes = consumed_ - consumed_before;
        assembled_.push_back(std::move(out));
    }

    ExprPtr walk_rhs(EquationId eq) {
        std::size_t ref = index_.ref_begin[eq];
        return walk(index_.database.equation(eq).rhs, ref);
    }

    /// The position of the next rhs unknown, which must be `node`.
    std::size_t take_ref(std::size_t& ref, const ExprPtr& node) const {
        AMSVP_CHECK(index_.ref_node[ref] == node.get(), "assembler lost its place in an rhs");
        return ref++;
    }

    /// Recursive rhs walk: Algorithm 2's ASSEMBLE over one pass's root set.
    /// `ref` is the position of the next unknown of the rhs being walked.
    /// Children are walked right to left (else, then, condition for a
    /// conditional): the order decides which equation an unknown two
    /// subtrees share is inlined from. A subtree whose children come back
    /// unchanged is returned as it is; its factory would rebuild it equal.
    ExprPtr walk(const ExprPtr& node, std::size_t& ref) {
        if (!error_.empty()) {
            return node;
        }
        switch (node->kind()) {
            case ExprKind::kConstant:
            case ExprKind::kDelayed:
                return node;
            case ExprKind::kSymbol: {
                if (!is_unknown_symbol(node->symbol())) {
                    return node;  // input / parameter / time
                }
                const std::size_t pos = take_ref(ref, node);
                const SymbolId id = index_.ref_id[pos];
                if (is_root_[id] != 0) {
                    kept_.push_back(pos);
                    return node;  // reference to a (current or future) root
                }
                if (on_path_[id] != 0) {
                    // Residual occurrence: the paper leaves the symbol in the
                    // tree; we additionally promote it to a root and re-run.
                    request_root(id);
                    kept_.push_back(pos);
                    return node;
                }
                return expand_inline(id, node, pos);
            }
            case ExprKind::kDdt: {
                const ExprPtr& operand = node->operand();
                if (operand->kind() == ExprKind::kSymbol &&
                    is_unknown_symbol(operand->symbol())) {
                    // State variable: must be computed as its own root so the
                    // discretizer can form (x - x@(t-dt)) / dt.
                    const std::size_t pos = take_ref(ref, operand);
                    request_root(index_.ref_id[pos]);
                    kept_.push_back(pos);
                    return node;
                }
                ExprPtr walked = walk(operand, ref);
                return walked == operand ? node : Expr::ddt(std::move(walked));
            }
            case ExprKind::kIdt:
                error_ = "idt() inside a conservative description is not supported by the "
                         "abstraction flow";
                return node;
            case ExprKind::kUnary: {
                ExprPtr walked = walk(node->operand(), ref);
                return walked == node->operand() ? node
                                                 : Expr::unary(node->unary_op(), std::move(walked));
            }
            case ExprKind::kBinary: {
                ExprPtr right = walk(node->right(), ref);
                ExprPtr left = walk(node->left(), ref);
                if (left == node->left() && right == node->right()) {
                    return node;
                }
                return Expr::binary(node->binary_op(), std::move(left), std::move(right));
            }
            case ExprKind::kConditional: {
                ExprPtr otherwise = walk(node->else_branch(), ref);
                ExprPtr then = walk(node->then_branch(), ref);
                ExprPtr condition = walk(node->condition(), ref);
                if (condition == node->condition() && then == node->then_branch() &&
                    otherwise == node->else_branch()) {
                    return node;
                }
                return Expr::conditional(std::move(condition), std::move(then),
                                         std::move(otherwise));
            }
        }
        return node;
    }

    ExprPtr expand_inline(SymbolId id, const ExprPtr& original, std::size_t pos) {
        const EquationId eq = fetch(id);
        if (eq < 0) {
            // Only derivative definitions (or none) remain: promote to root.
            request_root(id);
            kept_.push_back(pos);
            return original;
        }
        class_consumed_[class_of(eq)] = 1;
        ++consumed_;
        on_path_[id] = 1;
        ExprPtr tree = walk_rhs(eq);
        on_path_[id] = 0;
        return tree;
    }

    void request_root(SymbolId id) {
        char& requested = requested_[id];
        if (is_root_[id] == 0 && requested == 0) {
            requested = 1;
            new_roots_.push_back(id);
        }
    }

    /// fetchEquation with the selection heuristics:
    ///  * heavily penalise equations whose rhs references a symbol currently
    ///    being expanded (would immediately create a residual),
    ///  * penalise rhs unknowns that have no other enabled definition
    ///    (depth-1 dead-end lookahead),
    ///  * prefer smaller trees.
    /// Returns -1 when no unconsumed, unreserved class defines `id`.
    [[nodiscard]] EquationId fetch(SymbolId id) const {
        EquationId best = -1;
        long best_score = 0;
        for (const EquationId eq : index_.candidates(id, false)) {
            if (!available(class_of(eq))) {
                continue;  // consumed, or spoken for by a root expansion
            }
            const long score = score_candidate(eq);
            if (best == -1 || score < best_score) {
                best = eq;
                best_score = score;
            }
        }
        return best;
    }

    [[nodiscard]] long score_candidate(EquationId eq) const {
        long on_path_refs = 0;
        long dead_end_refs = 0;
        long new_unknown_refs = 0;
        const ClassId own_class = class_of(eq);
        const std::size_t end = index_.ref_begin[eq + 1];
        for (std::size_t pos = index_.ref_begin[eq]; pos < end; ++pos) {
            const SymbolId s = index_.ref_id[pos];
            if (is_root_[s] != 0) {
                continue;
            }
            if (on_path_[s] != 0) {
                ++on_path_refs;
                continue;
            }
            // Every fresh unknown widens the extracted cone (Fig. 3): prefer
            // equations that stay inside what is already reached.
            ++new_unknown_refs;
            // Depth-1 lookahead: can s be defined by some other unconsumed,
            // unreserved class (directly, or as a derivative-defined state
            // which would be promoted to a root)?
            const auto direct = index_.candidates(s, false);
            const auto derivative = index_.candidates(s, true);
            const bool definable =
                std::any_of(direct.begin(), direct.end(),
                            [&](EquationId c) {
                                return class_of(c) != own_class && available(class_of(c));
                            }) ||
                std::any_of(derivative.begin(), derivative.end(), [&](EquationId c) {
                    return class_consumed_[class_of(c)] == 0;
                });
            if (!definable) {
                ++dead_end_refs;
            }
        }
        return on_path_refs * 1000000 + dead_end_refs * 10000 + new_unknown_refs * 100 +
               index_.rhs_nodes[eq];
    }

    /// Append the ids of the unknown symbol nodes of `tree`, each named by
    /// the kept position in [begin, end) that holds the node.
    void collect_refs(const ExprPtr& tree, std::size_t begin, std::size_t end,
                      std::vector<SymbolId>& out) const {
        switch (tree->kind()) {
            case ExprKind::kConstant:
            case ExprKind::kDelayed:
                return;
            case ExprKind::kSymbol:
                if (is_unknown_symbol(tree->symbol())) {
                    const std::span<const std::size_t> kept(kept_.data() + begin, end - begin);
                    const auto it = std::find_if(kept.begin(), kept.end(), [&](std::size_t pos) {
                        return index_.ref_node[pos] == tree.get();
                    });
                    AMSVP_CHECK(it != kept.end(), "tree holds an unknown walk() did not keep");
                    out.push_back(index_.ref_id[*it]);
                }
                return;
            case ExprKind::kUnary:
            case ExprKind::kDdt:
            case ExprKind::kIdt:
                collect_refs(tree->operand(), begin, end, out);
                return;
            case ExprKind::kBinary:
                collect_refs(tree->left(), begin, end, out);
                collect_refs(tree->right(), begin, end, out);
                return;
            case ExprKind::kConditional:
                collect_refs(tree->condition(), begin, end, out);
                collect_refs(tree->then_branch(), begin, end, out);
                collect_refs(tree->else_branch(), begin, end, out);
                return;
        }
    }

    const CandidateIndex& index_;
    // Per symbol id.
    std::vector<char> is_root_;
    std::vector<char> on_path_;
    std::vector<char> requested_;
    std::vector<EquationId> reserved_equation_;
    // Per class id.
    std::vector<char> class_consumed_;
    std::vector<char> class_reserved_;
    std::vector<int> class_owner_;  ///< root index, -1 when unowned
    std::vector<unsigned> class_visited_;
    unsigned visit_stamp_ = 0;
    // Per root index of the current root order.
    std::vector<EquationId> root_candidates_;
    std::vector<std::size_t> root_candidates_begin_;
    std::vector<ClassId> root_class_;
    std::vector<std::pair<long, EquationId>> scored_;

    std::vector<AssembledRoot> assembled_;
    /// Ref positions of the unknown symbol nodes walk() left in the trees;
    /// root r's are [kept_begin_[r], kept_begin_[r + 1]).
    std::vector<std::size_t> kept_;
    std::vector<std::size_t> kept_begin_;
    std::vector<SymbolId> new_roots_;
    std::size_t consumed_ = 0;
    std::string error_;
};

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

    const CandidateIndex index(database, outputs);
    Pass pass(index);
    std::vector<SymbolId> root_order = index.output_ids;
    AssembledSystem system;
    system.outputs = outputs;

    for (std::size_t n = 0; n < kMaxPasses; ++n) {
        ++system.passes;
        if (!pass.run(root_order)) {
            if (error != nullptr) {
                *error = pass.error();
            }
            return std::nullopt;
        }
        if (pass.new_roots().empty()) {
            system.roots = pass.take_reachable(root_order);
            system.equations_consumed = 0;
            for (const AssembledRoot& root : system.roots) {
                system.equations_consumed += root.consumed_classes;
            }
            return system;
        }
        // Promoted unknowns are never roots yet, so they append in Symbol order.
        root_order.insert(root_order.end(), pass.new_roots().begin(), pass.new_roots().end());
    }
    if (error != nullptr) {
        *error = "assembly did not stabilise within " + std::to_string(kMaxPasses) + " passes";
    }
    return std::nullopt;
}

}  // namespace amsvp::abstraction
