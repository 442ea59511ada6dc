#include "expr/fused.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <optional>
#include <sstream>
#include <type_traits>
#include <unordered_map>

#include "expr/traversal.hpp"
#include "runtime/lane_layout.hpp"
#include "support/check.hpp"

namespace amsvp::expr {

namespace {

/// Minimum combined term count before an affine expression is worth a
/// kLinComb over individual fused instructions.
constexpr std::size_t kLinCombMinTerms = 3;

FusedOp fused_for(UnaryOp op) {
    switch (op) {
        case UnaryOp::kNeg:
            return FusedOp::kNeg;
        case UnaryOp::kNot:
            return FusedOp::kNot;
        case UnaryOp::kExp:
            return FusedOp::kExp;
        case UnaryOp::kLn:
            return FusedOp::kLn;
        case UnaryOp::kLog10:
            return FusedOp::kLog10;
        case UnaryOp::kSqrt:
            return FusedOp::kSqrt;
        case UnaryOp::kSin:
            return FusedOp::kSin;
        case UnaryOp::kCos:
            return FusedOp::kCos;
        case UnaryOp::kTan:
            return FusedOp::kTan;
        case UnaryOp::kAbs:
            return FusedOp::kAbs;
    }
    AMSVP_CHECK(false, "unhandled unary op");
    return FusedOp::kNeg;
}

FusedOp fused_for(BinaryOp op) {
    switch (op) {
        case BinaryOp::kAdd:
            return FusedOp::kAdd;
        case BinaryOp::kSub:
            return FusedOp::kSub;
        case BinaryOp::kMul:
            return FusedOp::kMul;
        case BinaryOp::kDiv:
            return FusedOp::kDiv;
        case BinaryOp::kPow:
            return FusedOp::kPow;
        case BinaryOp::kMin:
            return FusedOp::kMin;
        case BinaryOp::kMax:
            return FusedOp::kMax;
        case BinaryOp::kLt:
            return FusedOp::kLt;
        case BinaryOp::kLe:
            return FusedOp::kLe;
        case BinaryOp::kGt:
            return FusedOp::kGt;
        case BinaryOp::kGe:
            return FusedOp::kGe;
        case BinaryOp::kEq:
            return FusedOp::kEq;
        case BinaryOp::kNe:
            return FusedOp::kNe;
        case BinaryOp::kAnd:
            return FusedOp::kAnd;
        case BinaryOp::kOr:
            return FusedOp::kOr;
    }
    AMSVP_CHECK(false, "unhandled binary op");
    return FusedOp::kAdd;
}

}  // namespace

/// Single-use compiler: builds one FusedProgram from an assignment list.
class FusedCompiler {
public:
    FusedCompiler(const SlotResolver& resolver, int slot_file_size)
        : resolver_(resolver), next_reg_(slot_file_size), first_scratch_(slot_file_size) {}

    FusedProgram run(const std::vector<FusedProgram::AssignmentSpec>& assignments) {
        for (const auto& a : assignments) {
            AMSVP_CHECK(a.value != nullptr, "fused compile of null expression");
            compile_assignment(a.target_slot, a.value);
        }
        out_.uncompacted_scratch_count_ = next_reg_ - first_scratch_;
        compact_scratch();
        return std::move(out_);
    }

private:
    // Either a compile-time constant or a slot holding the value at runtime.
    struct ValRef {
        bool is_const = false;
        double cval = 0.0;
        std::int32_t slot = -1;
    };
    static ValRef constant(double v) { return ValRef{true, v, -1}; }
    static ValRef in_slot(std::int32_t s) { return ValRef{false, 0.0, s}; }

    struct CacheEntry {
        ExprPtr expr;
        std::int32_t slot = -1;
        std::vector<std::int32_t> deps;  ///< leaf slots the value reads, sorted
        bool valid = false;
    };

    // --- Emission helpers -------------------------------------------------

    std::int32_t new_reg() { return next_reg_++; }

    std::int32_t emit(FusedOp op, std::int32_t dst, std::int32_t a = 0, std::int32_t b = 0,
                      std::int32_t c = 0, double imm = 0.0) {
        out_.code_.push_back(FusedInstr{op, dst, a, b, c, imm});
        return dst;
    }

    /// Slot of a pooled constant (deduplicated bit-exactly).
    std::int32_t const_slot(double v) {
        const auto key = std::bit_cast<std::uint64_t>(v);
        const auto it = const_slots_.find(key);
        if (it != const_slots_.end()) {
            return it->second;
        }
        const std::int32_t slot = new_reg();
        const_slots_.emplace(key, slot);
        out_.const_pool_.emplace_back(slot, v);
        return slot;
    }

    /// Any ValRef as a readable slot (constants go through the pool).
    std::int32_t materialize(const ValRef& v) {
        return v.is_const ? const_slot(v.cval) : v.slot;
    }

    // --- Structural hashing / CSE -----------------------------------------

    std::size_t hash_of(const ExprPtr& e) {
        const auto it = hash_memo_.find(e.get());
        if (it != hash_memo_.end()) {
            return it->second;
        }
        auto mix = [](std::size_t h, std::size_t v) {
            return h * 1000003ULL ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
        };
        std::size_t h = static_cast<std::size_t>(e->kind()) + 0x51ED2701ULL;
        switch (e->kind()) {
            case ExprKind::kConstant:
                h = mix(h, std::bit_cast<std::uint64_t>(e->constant_value()));
                break;
            case ExprKind::kSymbol:
                h = mix(h, SymbolHash{}(e->symbol()));
                break;
            case ExprKind::kDelayed:
                h = mix(mix(h, SymbolHash{}(e->symbol())),
                        static_cast<std::size_t>(e->delay()));
                break;
            case ExprKind::kUnary:
                h = mix(mix(h, static_cast<std::size_t>(e->unary_op())), hash_of(e->operand()));
                break;
            case ExprKind::kBinary:
                h = mix(mix(mix(h, static_cast<std::size_t>(e->binary_op())),
                            hash_of(e->left())),
                        hash_of(e->right()));
                break;
            case ExprKind::kConditional:
                h = mix(mix(mix(h, hash_of(e->condition())), hash_of(e->then_branch())),
                        hash_of(e->else_branch()));
                break;
            case ExprKind::kDdt:
            case ExprKind::kIdt:
                AMSVP_CHECK(false, "ddt/idt must be discretized before compilation");
                break;
        }
        hash_memo_.emplace(e.get(), h);
        return h;
    }

    /// Sorted slots of every leaf (symbol / delayed / $abstime) under `e`.
    std::vector<std::int32_t> leaf_slots(const ExprPtr& e) {
        std::vector<std::int32_t> slots;
        visit(e, [&](const ExprPtr& node) {
            if (node->kind() == ExprKind::kSymbol) {
                slots.push_back(resolver_(node->symbol(), 0));
            } else if (node->kind() == ExprKind::kDelayed) {
                slots.push_back(resolver_(node->symbol(), node->delay()));
            }
            return true;
        });
        std::sort(slots.begin(), slots.end());
        slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
        return slots;
    }

    const CacheEntry* cache_lookup(const ExprPtr& e) {
        const auto pit = ptr_cache_.find(e.get());
        if (pit != ptr_cache_.end() && entries_[pit->second].valid) {
            return &entries_[pit->second];
        }
        const auto bucket = struct_cache_.find(hash_of(e));
        if (bucket != struct_cache_.end()) {
            for (const std::size_t idx : bucket->second) {
                if (entries_[idx].valid && structurally_equal(entries_[idx].expr, e)) {
                    return &entries_[idx];
                }
            }
        }
        return nullptr;
    }

    void cache_insert(const ExprPtr& e, std::int32_t slot) {
        const std::size_t idx = entries_.size();
        entries_.push_back(CacheEntry{e, slot, leaf_slots(e), true});
        ptr_cache_[e.get()] = idx;  // override a stale (invalidated) mapping
        struct_cache_[hash_of(e)].push_back(idx);
    }

    /// `slot` has been rewritten: every cached value computed from its old
    /// content (or stored in it) is stale, except `keep_idx` — the entry for
    /// the value just stored there. (With a well-formed model — targets
    /// assigned before any current-time use — the dependency half never
    /// fires; it guards the engine against ill-ordered programs.)
    void invalidate_readers_of(std::int32_t slot, std::size_t keep_idx) {
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            CacheEntry& entry = entries_[i];
            if (!entry.valid) {
                continue;
            }
            // A value that *read* the rewritten slot is stale no matter where
            // it lives — including the just-retargeted root entry (a
            // self-referential assignment like `y := y + u` reads the old y).
            if (std::binary_search(entry.deps.begin(), entry.deps.end(), slot)) {
                entry.valid = false;
                continue;
            }
            // A value *stored in* the rewritten slot is gone — except the
            // root entry, which is the value just stored there.
            if (entry.slot == slot && i != keep_idx) {
                entry.valid = false;
            }
        }
    }

    // --- Affine decomposition (linear-combination superinstruction) -------

    /// Decompose `scale * e` into `bias + sum(coeff_i * slot_i)`, treating
    /// non-affine subtrees as opaque single terms. With `emit` false no code
    /// is generated (opaque terms get slot -1) — used to probe whether a
    /// kLinComb pays off before committing instructions.
    void linearize(const ExprPtr& e, double scale, bool emit, double& bias,
                   std::vector<LinTerm>& terms) {
        switch (e->kind()) {
            case ExprKind::kConstant:
                bias += scale * e->constant_value();
                return;
            case ExprKind::kSymbol:
                terms.push_back(LinTerm{resolver_(e->symbol(), 0), scale});
                return;
            case ExprKind::kDelayed:
                terms.push_back(LinTerm{resolver_(e->symbol(), e->delay()), scale});
                return;
            case ExprKind::kUnary:
                if (e->unary_op() == UnaryOp::kNeg) {
                    linearize(e->operand(), -scale, emit, bias, terms);
                    return;
                }
                break;
            case ExprKind::kBinary:
                switch (e->binary_op()) {
                    case BinaryOp::kAdd:
                        linearize(e->left(), scale, emit, bias, terms);
                        linearize(e->right(), scale, emit, bias, terms);
                        return;
                    case BinaryOp::kSub:
                        linearize(e->left(), scale, emit, bias, terms);
                        linearize(e->right(), -scale, emit, bias, terms);
                        return;
                    case BinaryOp::kMul:
                        if (e->left()->kind() == ExprKind::kConstant) {
                            linearize(e->right(), scale * e->left()->constant_value(), emit,
                                      bias, terms);
                            return;
                        }
                        if (e->right()->kind() == ExprKind::kConstant) {
                            linearize(e->left(), scale * e->right()->constant_value(), emit,
                                      bias, terms);
                            return;
                        }
                        break;
                    case BinaryOp::kDiv:
                        if (e->right()->kind() == ExprKind::kConstant &&
                            e->right()->constant_value() != 0.0) {
                            linearize(e->left(), scale / e->right()->constant_value(), emit,
                                      bias, terms);
                            return;
                        }
                        break;
                    default:
                        break;
                }
                break;
            default:
                break;
        }
        // Opaque subtree: one term with the accumulated scale.
        if (!emit) {
            terms.push_back(LinTerm{-1, scale});
            return;
        }
        const ValRef v = compile_value(e);
        if (v.is_const) {
            bias += scale * v.cval;
        } else {
            terms.push_back(LinTerm{v.slot, scale});
        }
    }

    /// Combine duplicate slots (coefficients add); keeps first-seen order.
    static void combine_terms(std::vector<LinTerm>& terms) {
        std::vector<LinTerm> combined;
        combined.reserve(terms.size());
        for (const LinTerm& t : terms) {
            auto it = std::find_if(combined.begin(), combined.end(),
                                   [&](const LinTerm& c) { return c.slot == t.slot; });
            if (it == combined.end()) {
                combined.push_back(t);
            } else {
                it->coeff += t.coeff;
            }
        }
        terms = std::move(combined);
    }

    /// Emit `e` as a kLinComb when it decomposes into enough affine terms.
    /// Returns the result, or nullopt when the shape does not pay off.
    std::optional<ValRef> try_lincomb(const ExprPtr& e) {
        if (e->kind() != ExprKind::kBinary) {
            return std::nullopt;
        }
        const BinaryOp op = e->binary_op();
        if (op != BinaryOp::kAdd && op != BinaryOp::kSub && op != BinaryOp::kMul &&
            op != BinaryOp::kDiv) {
            return std::nullopt;
        }
        // Probe without emitting.
        double bias = 0.0;
        std::vector<LinTerm> probe;
        linearize(e, 1.0, /*emit=*/false, bias, probe);
        if (probe.size() < kLinCombMinTerms) {
            return std::nullopt;
        }
        bias = 0.0;
        std::vector<LinTerm> terms;
        linearize(e, 1.0, /*emit=*/true, bias, terms);
        combine_terms(terms);
        if (terms.empty()) {
            return constant(bias);
        }
        if (terms.size() < kLinCombMinTerms) {
            // Collapsed below the threshold after combining duplicates:
            // a couple of fused instructions beat the term loop.
            std::int32_t acc = -1;
            for (const LinTerm& t : terms) {
                if (acc < 0) {
                    acc = t.coeff == 1.0
                              ? t.slot
                              : emit(FusedOp::kMulImm, new_reg(), t.slot, 0, 0, t.coeff);
                } else if (t.coeff == 1.0) {
                    acc = emit(FusedOp::kAdd, new_reg(), acc, t.slot);
                } else {
                    acc = emit(FusedOp::kMulAddImm, new_reg(), t.slot, acc, 0, t.coeff);
                }
            }
            if (bias != 0.0) {
                acc = emit(FusedOp::kAddImm, new_reg(), acc, 0, 0, bias);
            }
            return in_slot(acc);
        }
        const auto offset = static_cast<std::int32_t>(out_.lin_terms_.size());
        out_.lin_terms_.insert(out_.lin_terms_.end(), terms.begin(), terms.end());
        const std::int32_t dst = new_reg();
        emit(FusedOp::kLinComb, dst, offset, static_cast<std::int32_t>(terms.size()), 0, bias);
        return in_slot(dst);
    }

    // --- Generic compilation ----------------------------------------------

    ValRef compile_value(const ExprPtr& e) {
        switch (e->kind()) {
            case ExprKind::kConstant:
                return constant(e->constant_value());
            case ExprKind::kSymbol:
                return in_slot(resolver_(e->symbol(), 0));
            case ExprKind::kDelayed:
                return in_slot(resolver_(e->symbol(), e->delay()));
            default:
                break;
        }
        if (const CacheEntry* hit = cache_lookup(e)) {
            return in_slot(hit->slot);
        }
        const ValRef result = compile_uncached(e);
        if (!result.is_const) {
            cache_insert(e, result.slot);
        }
        return result;
    }

    ValRef compile_uncached(const ExprPtr& e) {
        if (auto lin = try_lincomb(e)) {
            return *lin;
        }
        switch (e->kind()) {
            case ExprKind::kUnary: {
                const ValRef v = compile_value(e->operand());
                if (v.is_const) {
                    return constant(apply_unary(e->unary_op(), v.cval));
                }
                return in_slot(emit(fused_for(e->unary_op()), new_reg(), v.slot));
            }
            case ExprKind::kBinary:
                return compile_binary(e);
            case ExprKind::kConditional: {
                const ValRef cond = compile_value(e->condition());
                if (cond.is_const) {
                    return cond.cval != 0.0 ? compile_value(e->then_branch())
                                            : compile_value(e->else_branch());
                }
                // Both arms evaluate eagerly; the select only picks a value
                // (expressions are side-effect free, so this matches the
                // tree walk, which evaluates the taken arm only).
                const std::int32_t t = materialize(compile_value(e->then_branch()));
                const std::int32_t o = materialize(compile_value(e->else_branch()));
                return in_slot(emit(FusedOp::kSelect, new_reg(), cond.slot, t, o));
            }
            case ExprKind::kDdt:
            case ExprKind::kIdt:
                AMSVP_CHECK(false, "ddt/idt must be discretized before compilation");
                break;
            default:
                break;
        }
        AMSVP_CHECK(false, "unhandled expression kind");
        return constant(0.0);
    }

    /// Fused multiply-add: Add/Sub where one side is a product that is not
    /// already available via CSE.
    std::optional<ValRef> try_muladd(const ExprPtr& e) {
        const BinaryOp op = e->binary_op();
        if (op != BinaryOp::kAdd && op != BinaryOp::kSub) {
            return std::nullopt;
        }
        const bool left_mul = e->left()->kind() == ExprKind::kBinary &&
                              e->left()->binary_op() == BinaryOp::kMul &&
                              cache_lookup(e->left()) == nullptr;
        const bool right_mul = e->right()->kind() == ExprKind::kBinary &&
                               e->right()->binary_op() == BinaryOp::kMul &&
                               cache_lookup(e->right()) == nullptr;
        const ExprPtr* mul = nullptr;
        const ExprPtr* other = nullptr;
        bool mul_is_left = false;
        if (left_mul) {
            mul = &e->left();
            other = &e->right();
            mul_is_left = true;
        } else if (right_mul) {
            mul = &e->right();
            other = &e->left();
        } else {
            return std::nullopt;
        }
        const ValRef p = compile_value((*mul)->left());
        const ValRef q = compile_value((*mul)->right());
        if (p.is_const && q.is_const) {
            return std::nullopt;  // product folds; the generic path handles it
        }
        const ValRef o = compile_value(*other);
        const std::int32_t dst = new_reg();
        if (op == BinaryOp::kAdd) {
            if (p.is_const || q.is_const) {
                const double k = p.is_const ? p.cval : q.cval;
                const std::int32_t x = p.is_const ? q.slot : p.slot;
                emit(FusedOp::kMulAddImm, dst, x, materialize(o), 0, k);
            } else {
                emit(FusedOp::kMulAdd, dst, p.slot, q.slot, materialize(o));
            }
            return in_slot(dst);
        }
        // Subtraction: direction matters.
        const std::int32_t a = materialize(p);
        const std::int32_t b = materialize(q);
        if (mul_is_left) {
            emit(FusedOp::kMulSub, dst, a, b, materialize(o));  // p*q - other
        } else {
            emit(FusedOp::kMulRSub, dst, a, b, materialize(o));  // other - p*q
        }
        return in_slot(dst);
    }

    ValRef compile_binary(const ExprPtr& e) {
        if (auto fused = try_muladd(e)) {
            return *fused;
        }
        const BinaryOp op = e->binary_op();
        const ValRef l = compile_value(e->left());
        const ValRef r = compile_value(e->right());
        if (l.is_const && r.is_const) {
            return constant(apply_binary(op, l.cval, r.cval));
        }
        const bool imm_able = op == BinaryOp::kAdd || op == BinaryOp::kSub ||
                              op == BinaryOp::kMul || op == BinaryOp::kDiv;
        if (imm_able && (l.is_const || r.is_const)) {
            const double k = l.is_const ? l.cval : r.cval;
            const std::int32_t x = l.is_const ? r.slot : l.slot;
            FusedOp fop = FusedOp::kAddImm;
            switch (op) {
                case BinaryOp::kAdd:
                    fop = FusedOp::kAddImm;
                    break;
                case BinaryOp::kSub:
                    fop = l.is_const ? FusedOp::kRSubImm : FusedOp::kSubImm;
                    break;
                case BinaryOp::kMul:
                    fop = FusedOp::kMulImm;
                    break;
                case BinaryOp::kDiv:
                    fop = l.is_const ? FusedOp::kRDivImm : FusedOp::kDivImm;
                    break;
                default:
                    break;
            }
            return in_slot(emit(fop, new_reg(), x, 0, 0, k));
        }
        return in_slot(emit(fused_for(op), new_reg(), materialize(l), materialize(r)));
    }

    // --- Assignment driver ------------------------------------------------

    void compile_assignment(std::int32_t target_slot, const ExprPtr& value) {
        const ValRef v = compile_value(value);
        std::size_t keep_idx = static_cast<std::size_t>(-1);
        if (v.is_const) {
            emit(FusedOp::kConst, target_slot, 0, 0, 0, v.cval);
        } else if (v.slot == target_slot) {
            // y := y (already in place) — nothing to do.
        } else if (!out_.code_.empty() && out_.code_.back().dst == v.slot &&
                   v.slot == next_reg_ - 1 && v.slot >= first_scratch_) {
            // The value was computed by the instruction just emitted for this
            // assignment: write it straight into the target instead of
            // copying, and release the never-otherwise-used scratch register.
            // Cached references to the scratch slot follow along.
            out_.code_.back().dst = target_slot;
            next_reg_--;
            for (std::size_t i = 0; i < entries_.size(); ++i) {
                if (entries_[i].valid && entries_[i].slot == v.slot) {
                    entries_[i].slot = target_slot;
                    keep_idx = i;
                }
            }
        } else {
            emit(FusedOp::kCopy, target_slot, v.slot);
        }
        invalidate_readers_of(target_slot, keep_idx);
    }

    // --- Liveness compaction ----------------------------------------------

    /// Apply `fn` to every slot operand the instruction reads, as a mutable
    /// reference so the compaction pass can rewrite operands in place.
    template <typename Fn>
    void for_each_read_slot(FusedInstr& instr, Fn&& fn) {
        switch (instr.op) {
            case FusedOp::kConst:
                return;  // no reads; a/b/c are unused
            case FusedOp::kLinComb:
                // a is the term-table offset, b the term count — the reads
                // are the term slots themselves.
                for (std::int32_t k = 0; k < instr.b; ++k) {
                    fn(out_.lin_terms_[static_cast<std::size_t>(instr.a + k)].slot);
                }
                return;
            case FusedOp::kMulAdd:
            case FusedOp::kMulSub:
            case FusedOp::kMulRSub:
            case FusedOp::kSelect:
                fn(instr.a);
                fn(instr.b);
                fn(instr.c);
                return;
            case FusedOp::kAdd:
            case FusedOp::kSub:
            case FusedOp::kMul:
            case FusedOp::kDiv:
            case FusedOp::kPow:
            case FusedOp::kMin:
            case FusedOp::kMax:
            case FusedOp::kLt:
            case FusedOp::kLe:
            case FusedOp::kGt:
            case FusedOp::kGe:
            case FusedOp::kEq:
            case FusedOp::kNe:
            case FusedOp::kAnd:
            case FusedOp::kOr:
            case FusedOp::kMulAddImm:
                fn(instr.a);
                fn(instr.b);
                return;
            default:  // copy, unary ops, single-operand immediate forms
                fn(instr.a);
                return;
        }
    }

    /// Last-use liveness over the straight-line stream: renumber the scratch
    /// area so pooled constants sit at the bottom (live for the whole
    /// program) and temporaries recycle a small register pool as their
    /// values die. Every *definition* opens a fresh live range — retargeted
    /// assignments release and re-allocate the top register, so one original
    /// number can be defined more than once. Shrinking the scratch area is a
    /// cache-locality win on large models, multiplied under batch execution
    /// where every scratch register is replicated per lane.
    void compact_scratch() {
        const std::int32_t n_orig = next_reg_ - first_scratch_;
        if (n_orig == 0) {
            out_.scratch_count_ = 0;
            return;
        }
        std::vector<bool> is_const(static_cast<std::size_t>(n_orig), false);
        for (const auto& [slot, value] : out_.const_pool_) {
            is_const[static_cast<std::size_t>(slot - first_scratch_)] = true;
        }

        // Pass 1: live ranges. Reads attach to the most recent definition of
        // their register; a range never read dies at its own definition.
        struct Interval {
            std::size_t last_use;
            std::int32_t compact = -1;
            bool freed = false;
        };
        std::vector<Interval> intervals;
        std::vector<std::int32_t> live_def(static_cast<std::size_t>(n_orig), -1);
        for (std::size_t i = 0; i < out_.code_.size(); ++i) {
            FusedInstr& instr = out_.code_[i];
            for_each_read_slot(instr, [&](std::int32_t& slot) {
                if (slot < first_scratch_ ||
                    is_const[static_cast<std::size_t>(slot - first_scratch_)]) {
                    return;
                }
                const std::int32_t id = live_def[static_cast<std::size_t>(slot - first_scratch_)];
                AMSVP_CHECK(id >= 0, "scratch register read before definition");
                intervals[static_cast<std::size_t>(id)].last_use = i;
            });
            if (instr.dst >= first_scratch_ &&
                !is_const[static_cast<std::size_t>(instr.dst - first_scratch_)]) {
                live_def[static_cast<std::size_t>(instr.dst - first_scratch_)] =
                    static_cast<std::int32_t>(intervals.size());
                intervals.push_back(Interval{i});
            }
        }

        // Pass 2: assign compact registers. Constants first, stable order.
        std::vector<std::int32_t> const_map(static_cast<std::size_t>(n_orig), -1);
        std::int32_t next = first_scratch_;
        for (std::int32_t r = 0; r < n_orig; ++r) {
            if (is_const[static_cast<std::size_t>(r)]) {
                const_map[static_cast<std::size_t>(r)] = next++;
            }
        }
        for (auto& [slot, value] : out_.const_pool_) {
            slot = const_map[static_cast<std::size_t>(slot - first_scratch_)];
        }
        // Temporaries: re-walk definitions in order (same order as pass 1)
        // and rewrite operands against the currently live mapping.
        std::int32_t high_water = next;
        std::vector<std::int32_t> free_regs;
        std::fill(live_def.begin(), live_def.end(), -1);
        std::size_t next_def = 0;
        auto release = [&](Interval& iv) {
            if (!iv.freed) {
                iv.freed = true;
                free_regs.push_back(iv.compact);
            }
        };
        for (std::size_t i = 0; i < out_.code_.size(); ++i) {
            FusedInstr& instr = out_.code_[i];
            // Rewrite reads, releasing registers whose value dies here so
            // the destination may reuse an operand's register (safe: every
            // operator reads its operands before writing, lane by lane).
            for_each_read_slot(instr, [&](std::int32_t& slot) {
                const std::int32_t orig = slot - first_scratch_;
                if (orig < 0) {
                    return;
                }
                if (is_const[static_cast<std::size_t>(orig)]) {
                    slot = const_map[static_cast<std::size_t>(orig)];
                    return;
                }
                Interval& iv = intervals[static_cast<std::size_t>(
                    live_def[static_cast<std::size_t>(orig)])];
                slot = iv.compact;
                if (iv.last_use == i) {
                    release(iv);
                }
            });
            if (instr.dst >= first_scratch_ &&
                !is_const[static_cast<std::size_t>(instr.dst - first_scratch_)]) {
                Interval& iv = intervals[next_def];
                if (free_regs.empty()) {
                    iv.compact = high_water++;
                } else {
                    iv.compact = free_regs.back();
                    free_regs.pop_back();
                }
                live_def[static_cast<std::size_t>(instr.dst - first_scratch_)] =
                    static_cast<std::int32_t>(next_def);
                ++next_def;
                instr.dst = iv.compact;
                if (iv.last_use == i) {
                    release(iv);  // dead store: reusable immediately
                }
            }
        }
        out_.scratch_count_ = high_water - first_scratch_;
    }

    const SlotResolver& resolver_;
    std::int32_t next_reg_ = 0;
    std::int32_t first_scratch_ = 0;
    FusedProgram out_;

    std::unordered_map<std::uint64_t, std::int32_t> const_slots_;
    std::unordered_map<const Expr*, std::size_t> hash_memo_;
    std::vector<CacheEntry> entries_;
    std::unordered_map<const Expr*, std::size_t> ptr_cache_;
    std::unordered_map<std::size_t, std::vector<std::size_t>> struct_cache_;
};

FusedProgram FusedProgram::compile(const std::vector<AssignmentSpec>& assignments,
                                   const SlotResolver& resolver, int slot_file_size) {
    FusedCompiler compiler(resolver, slot_file_size);
    return compiler.run(assignments);
}

void FusedProgram::initialize_constants(double* slots) const {
    for (const auto& [slot, value] : const_pool_) {
        slots[slot] = value;
    }
}

void FusedProgram::initialize_constants_batch(double* slots, int batch) const {
    // Broadcast across the whole padded row: ghost lanes compute alongside
    // the live ones in the dynamic batch kernels, and real constants keep
    // their throwaway arithmetic bounded (no divides by a zeroed pool slot).
    const std::ptrdiff_t stride = runtime::LaneLayout::padded_width(batch);
    for (const auto& [slot, value] : const_pool_) {
        double* lane = slots + static_cast<std::ptrdiff_t>(slot) * stride;
        for (std::ptrdiff_t l = 0; l < stride; ++l) {
            lane[l] = value;
        }
    }
}

// Lane iteration of one operator over the runtime::LaneLayout slot file.
// Pinned widths keep the plain constant-trip loop (the compiler unrolls it
// into straight-line SIMD, exactly as before). The dynamic form covers the
// whole padded width Bp — ghost lanes included, so there is no scalar tail
// to peel — one constant-trip vector row at a time. Since execute_batch
// dispatches every padded width up to 48 lanes to a pinned instantiation,
// the dynamic form only ever runs very wide batches, where its per-row
// loop overhead amortizes over the width.
//
// AMSVP_IVDEP tells the vectorizer the lane loops carry no dependences, so
// it skips both the runtime alias checks and the scalar fallback copy it
// would otherwise version in (in-place operators, d == a, fail that check
// on every call and run the scalar copy). The assertion is sound by the
// layout: two slot rows are either the same row (an elementwise in-place
// update — dependence distance 0) or at least one full stride apart, and a
// block never iterates more lanes than the stride, so distinct rows can
// never partially overlap within one loop.
#if defined(__clang__)
#define AMSVP_IVDEP _Pragma("clang loop vectorize(assume_safety)")
#elif defined(__GNUC__)
#define AMSVP_IVDEP _Pragma("GCC ivdep")
#else
#define AMSVP_IVDEP
#endif

#define AMSVP_FOR_LANE_BLOCK(l0, width, ...)  \
    do {                                      \
        AMSVP_IVDEP                           \
        for (int j = 0; j < (width); ++j) {   \
            const int l = (l0) + j;           \
            __VA_ARGS__;                      \
        }                                     \
    } while (0)

#define AMSVP_FOR_LANES(...)                                                      \
    do {                                                                          \
        if constexpr (kStaticBatch > 0) {                                         \
            AMSVP_IVDEP                                                           \
            for (int l = 0; l < B; ++l) {                                         \
                __VA_ARGS__;                                                      \
            }                                                                     \
        } else {                                                                  \
            constexpr int kRow = runtime::LaneLayout::kVectorRow;                 \
            for (int l0 = 0; l0 < Bp; l0 += kRow) {                               \
                AMSVP_FOR_LANE_BLOCK(l0, kRow, __VA_ARGS__);                      \
            }                                                                     \
        }                                                                         \
    } while (0)

// One interpreter body serves both entry points: a lane iteration around
// every operator, with the slot-row stride supplied by the caller
// (runtime::LaneLayout::padded_width of the lane count for batches, 1 for
// the contiguous scalar file). kStaticBatch == 1 lets the compiler fold
// the loops away (the scalar hot path of PR 1); kStaticBatch == 0 runs the
// block iteration of AMSVP_FOR_LANES over the whole padded width — ghost
// lanes compute as throwaway instances, their results never observed.
template <int kStaticBatch, int kStaticStride>
void FusedProgram::execute_impl(double* s, int batch, std::ptrdiff_t stride) const {
    const int B = kStaticBatch > 0 ? kStaticBatch : batch;
    const std::ptrdiff_t S = kStaticStride > 0 ? kStaticStride : stride;
    const int Bp = kStaticBatch > 0 ? B : runtime::LaneLayout::padded_width(B);
    (void)Bp;
    const LinTerm* terms = lin_terms_.data();
    for (const FusedInstr& I : code_) {
        // Offsets (not pointers) so the kConst/kLinComb reinterpretation of
        // the operand fields never forms an out-of-range pointer.
        const std::ptrdiff_t d = static_cast<std::ptrdiff_t>(I.dst) * S;
        const std::ptrdiff_t a = static_cast<std::ptrdiff_t>(I.a) * S;
        const std::ptrdiff_t b = static_cast<std::ptrdiff_t>(I.b) * S;
        const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(I.c) * S;
        switch (I.op) {
            case FusedOp::kConst:
                AMSVP_FOR_LANES(s[d + l] = I.imm);
                break;
            case FusedOp::kCopy:
                AMSVP_FOR_LANES(s[d + l] = s[a + l]);
                break;
            case FusedOp::kNeg:
                AMSVP_FOR_LANES(s[d + l] = -s[a + l]);
                break;
            case FusedOp::kNot:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] == 0.0 ? 1.0 : 0.0);
                break;
            case FusedOp::kExp:
                AMSVP_FOR_LANES(s[d + l] = std::exp(s[a + l]));
                break;
            case FusedOp::kLn:
                AMSVP_FOR_LANES(s[d + l] = std::log(s[a + l]));
                break;
            case FusedOp::kLog10:
                AMSVP_FOR_LANES(s[d + l] = std::log10(s[a + l]));
                break;
            case FusedOp::kSqrt:
                AMSVP_FOR_LANES(s[d + l] = std::sqrt(s[a + l]));
                break;
            case FusedOp::kSin:
                AMSVP_FOR_LANES(s[d + l] = std::sin(s[a + l]));
                break;
            case FusedOp::kCos:
                AMSVP_FOR_LANES(s[d + l] = std::cos(s[a + l]));
                break;
            case FusedOp::kTan:
                AMSVP_FOR_LANES(s[d + l] = std::tan(s[a + l]));
                break;
            case FusedOp::kAbs:
                AMSVP_FOR_LANES(s[d + l] = std::fabs(s[a + l]));
                break;
            case FusedOp::kAdd:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] + s[b + l]);
                break;
            case FusedOp::kSub:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] - s[b + l]);
                break;
            case FusedOp::kMul:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] * s[b + l]);
                break;
            case FusedOp::kDiv:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] / s[b + l]);
                break;
            case FusedOp::kPow:
                AMSVP_FOR_LANES(s[d + l] = std::pow(s[a + l], s[b + l]));
                break;
            case FusedOp::kMin:
                AMSVP_FOR_LANES(s[d + l] = std::min(s[a + l], s[b + l]));
                break;
            case FusedOp::kMax:
                AMSVP_FOR_LANES(s[d + l] = std::max(s[a + l], s[b + l]));
                break;
            case FusedOp::kLt:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] < s[b + l] ? 1.0 : 0.0);
                break;
            case FusedOp::kLe:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] <= s[b + l] ? 1.0 : 0.0);
                break;
            case FusedOp::kGt:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] > s[b + l] ? 1.0 : 0.0);
                break;
            case FusedOp::kGe:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] >= s[b + l] ? 1.0 : 0.0);
                break;
            case FusedOp::kEq:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] == s[b + l] ? 1.0 : 0.0);
                break;
            case FusedOp::kNe:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] != s[b + l] ? 1.0 : 0.0);
                break;
            case FusedOp::kAnd:
                AMSVP_FOR_LANES(s[d + l] =
                                    (s[a + l] != 0.0 && s[b + l] != 0.0) ? 1.0 : 0.0);
                break;
            case FusedOp::kOr:
                AMSVP_FOR_LANES(s[d + l] =
                                    (s[a + l] != 0.0 || s[b + l] != 0.0) ? 1.0 : 0.0);
                break;
            case FusedOp::kAddImm:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] + I.imm);
                break;
            case FusedOp::kSubImm:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] - I.imm);
                break;
            case FusedOp::kRSubImm:
                AMSVP_FOR_LANES(s[d + l] = I.imm - s[a + l]);
                break;
            case FusedOp::kMulImm:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] * I.imm);
                break;
            case FusedOp::kDivImm:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] / I.imm);
                break;
            case FusedOp::kRDivImm:
                AMSVP_FOR_LANES(s[d + l] = I.imm / s[a + l]);
                break;
            case FusedOp::kMulAdd:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] * s[b + l] + s[c + l]);
                break;
            case FusedOp::kMulSub:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] * s[b + l] - s[c + l]);
                break;
            case FusedOp::kMulRSub:
                AMSVP_FOR_LANES(s[d + l] = s[c + l] - s[a + l] * s[b + l]);
                break;
            case FusedOp::kMulAddImm:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] * I.imm + s[b + l]);
                break;
            case FusedOp::kSelect:
                AMSVP_FOR_LANES(s[d + l] = s[a + l] != 0.0 ? s[b + l] : s[c + l]);
                break;
            case FusedOp::kLinComb: {
                // Lane-innermost so every term becomes one contiguous FMA
                // row across instances. The block-local accumulator keeps
                // the scalar semantics (all term reads happen before the
                // destination write, per lane) and the scalar accumulation
                // order (terms in sequence), so lanes stay bit-identical to
                // the batch == 1 path. Every block has a compile-time lane
                // count — pinned widths run 16-lane blocks plus one
                // constexpr remainder block, the dynamic width greedy
                // 4/2/1-vector-row blocks — so the inner term loops compile to
                // straight-line SIMD instead of runtime-trip loops (this is
                // the hot operator: linear models are mostly kLinComb).
                const LinTerm* t = terms + I.a;
                if constexpr (kStaticBatch > 0) {
                    // At most 4 vector rows per accumulator block: the
                    // compiler register-promotes `acc` only when the lane
                    // loops fully unroll, and past 16 lanes it spills the
                    // accumulator to the stack instead (batch 32 used to
                    // pay ~1.7x per lane over batch 16 for exactly this).
                    // Widths that are not 16-multiples finish with one
                    // compile-time remainder block (4, 8 or 12 lanes).
                    const auto lincomb_rows = [&](int l0, auto width) {
                        constexpr int kN = decltype(width)::value;
                        double acc[kN];
                        for (int j = 0; j < kN; ++j) {
                            acc[j] = I.imm;
                        }
                        for (std::int32_t k = 0; k < I.b; ++k) {
                            const double coeff = t[k].coeff;
                            const double* src =
                                s + static_cast<std::ptrdiff_t>(t[k].slot) * S + l0;
                            AMSVP_IVDEP
                            for (int j = 0; j < kN; ++j) {
                                acc[j] += coeff * src[j];
                            }
                        }
                        double* out = s + d + l0;
                        AMSVP_IVDEP
                        for (int j = 0; j < kN; ++j) {
                            out[j] = acc[j];
                        }
                    };
                    constexpr int kFull16 = (kStaticBatch / 16) * 16;
                    for (int l0 = 0; l0 < kFull16; l0 += 16) {
                        lincomb_rows(l0, std::integral_constant<int, 16>{});
                    }
                    if constexpr (kStaticBatch % 16 != 0) {
                        lincomb_rows(kFull16,
                                     std::integral_constant<int, kStaticBatch % 16>{});
                    }
                } else {
                    // The dynamic width runs greedy 4/2/1-vector-row
                    // blocks, so every inner term
                    // loop has a compile-time trip count and compiles to
                    // straight-line SIMD (blocks above 4 rows would spill
                    // the accumulator: the compiler register-promotes it
                    // only for fully unrolled trips). Term row bases are
                    // resolved once per instruction — with a runtime
                    // stride, `slot * S` is an integer multiply, and paying
                    // it per term per BLOCK is what used to hold odd widths
                    // ~30% over their row-multiple neighbours.
                    constexpr std::int32_t kMaxCachedTerms = 64;
                    const double* bases[kMaxCachedTerms];
                    const std::int32_t cached = std::min(I.b, kMaxCachedTerms);
                    for (std::int32_t k = 0; k < cached; ++k) {
                        bases[k] = s + static_cast<std::ptrdiff_t>(t[k].slot) * S;
                    }
                    const auto lincomb_rows = [&](int l0, auto width) {
                        constexpr int kN = decltype(width)::value;
                        double acc[kN];
                        for (int j = 0; j < kN; ++j) {
                            acc[j] = I.imm;
                        }
                        for (std::int32_t k = 0; k < I.b; ++k) {
                            const double coeff = t[k].coeff;
                            const double* src =
                                (k < kMaxCachedTerms
                                     ? bases[k]
                                     : s + static_cast<std::ptrdiff_t>(t[k].slot) * S) +
                                l0;
                            AMSVP_IVDEP
                            for (int j = 0; j < kN; ++j) {
                                acc[j] += coeff * src[j];
                            }
                        }
                        double* out = s + d + l0;
                        AMSVP_IVDEP
                        for (int j = 0; j < kN; ++j) {
                            out[j] = acc[j];
                        }
                    };
                    constexpr int kRow = runtime::LaneLayout::kVectorRow;
                    int l0 = 0;
                    for (; l0 + 4 * kRow <= Bp; l0 += 4 * kRow) {
                        lincomb_rows(l0, std::integral_constant<int, 4 * kRow>{});
                    }
                    if (l0 + 2 * kRow <= Bp) {
                        lincomb_rows(l0, std::integral_constant<int, 2 * kRow>{});
                        l0 += 2 * kRow;
                    }
                    if (l0 < Bp) {
                        lincomb_rows(l0, std::integral_constant<int, kRow>{});
                    }
                }
                break;
            }
        }
    }
}

#undef AMSVP_FOR_LANES
#undef AMSVP_FOR_LANE_BLOCK
#undef AMSVP_IVDEP

void FusedProgram::execute(double* s) const {
    execute_impl<1, 1>(s, 1, 1);
}

void FusedProgram::execute_batch(double* s, int batch) const {
    AMSVP_CHECK(batch >= 1, "batch execution needs at least one lane");
    // Width 1 shares the scalar specialization's folded loops but keeps
    // the batch slot file's one-row stride (LaneLayout::padded_width(1)).
    if (batch == 1) {
        execute_impl<1, runtime::LaneLayout::kVectorRow>(
            s, 1, runtime::LaneLayout::kVectorRow);
        return;
    }
    // Dispatch on the PADDED width: ghost lanes compute as throwaway
    // instances anyway, so any width whose padded row count has a pinned
    // instantiation runs that straight-line SIMD kernel outright (e.g.
    // width 7 runs the width-8 kernel — its 8th column is a ghost). Live
    // lanes are bit-identical either way because lanes never interact.
    //
    // Every row-multiple up to 3 lane chunks (48 lanes) is pinned: with a
    // compile-time lane count and stride the lane loops unroll into
    // straight-line SIMD with immediate-offset addressing, which measures
    // ~30% faster per lane than the dynamic instantiation even when both
    // run identical lane counts. Wider batches fall through to the dynamic
    // row-loop instantiation, whose per-pass overhead amortizes over the
    // larger width.
#define AMSVP_PINNED_WIDTH_CASE(N)       \
    case N:                              \
        execute_impl<N, N>(s, N, N);     \
        break;
    switch (runtime::LaneLayout::padded_width(batch)) {
        AMSVP_PINNED_WIDTH_CASE(4)
        AMSVP_PINNED_WIDTH_CASE(8)
        AMSVP_PINNED_WIDTH_CASE(12)
        AMSVP_PINNED_WIDTH_CASE(16)
        AMSVP_PINNED_WIDTH_CASE(20)
        AMSVP_PINNED_WIDTH_CASE(24)
        AMSVP_PINNED_WIDTH_CASE(28)
        AMSVP_PINNED_WIDTH_CASE(32)
        AMSVP_PINNED_WIDTH_CASE(36)
        AMSVP_PINNED_WIDTH_CASE(40)
        AMSVP_PINNED_WIDTH_CASE(44)
        AMSVP_PINNED_WIDTH_CASE(48)
        default:
            execute_impl<0, 0>(s, batch, runtime::LaneLayout::padded_width(batch));
            break;
    }
#undef AMSVP_PINNED_WIDTH_CASE
}

std::size_t FusedProgram::count_op(FusedOp op) const {
    return static_cast<std::size_t>(
        std::count_if(code_.begin(), code_.end(),
                      [op](const FusedInstr& i) { return i.op == op; }));
}

std::string_view to_string(FusedOp op) {
    switch (op) {
        case FusedOp::kConst:
            return "const";
        case FusedOp::kCopy:
            return "copy";
        case FusedOp::kNeg:
            return "neg";
        case FusedOp::kNot:
            return "not";
        case FusedOp::kExp:
            return "exp";
        case FusedOp::kLn:
            return "ln";
        case FusedOp::kLog10:
            return "log10";
        case FusedOp::kSqrt:
            return "sqrt";
        case FusedOp::kSin:
            return "sin";
        case FusedOp::kCos:
            return "cos";
        case FusedOp::kTan:
            return "tan";
        case FusedOp::kAbs:
            return "abs";
        case FusedOp::kAdd:
            return "add";
        case FusedOp::kSub:
            return "sub";
        case FusedOp::kMul:
            return "mul";
        case FusedOp::kDiv:
            return "div";
        case FusedOp::kPow:
            return "pow";
        case FusedOp::kMin:
            return "min";
        case FusedOp::kMax:
            return "max";
        case FusedOp::kLt:
            return "lt";
        case FusedOp::kLe:
            return "le";
        case FusedOp::kGt:
            return "gt";
        case FusedOp::kGe:
            return "ge";
        case FusedOp::kEq:
            return "eq";
        case FusedOp::kNe:
            return "ne";
        case FusedOp::kAnd:
            return "and";
        case FusedOp::kOr:
            return "or";
        case FusedOp::kAddImm:
            return "add.i";
        case FusedOp::kSubImm:
            return "sub.i";
        case FusedOp::kRSubImm:
            return "rsub.i";
        case FusedOp::kMulImm:
            return "mul.i";
        case FusedOp::kDivImm:
            return "div.i";
        case FusedOp::kRDivImm:
            return "rdiv.i";
        case FusedOp::kMulAdd:
            return "muladd";
        case FusedOp::kMulSub:
            return "mulsub";
        case FusedOp::kMulRSub:
            return "mulrsub";
        case FusedOp::kMulAddImm:
            return "muladd.i";
        case FusedOp::kSelect:
            return "select";
        case FusedOp::kLinComb:
            return "lincomb";
    }
    return "?";
}

std::string FusedProgram::describe() const {
    std::ostringstream os;
    for (std::size_t i = 0; i < code_.size(); ++i) {
        const FusedInstr& I = code_[i];
        os << i << ": " << to_string(I.op) << " s" << I.dst;
        switch (I.op) {
            case FusedOp::kConst:
                os << " = " << I.imm;
                break;
            case FusedOp::kLinComb: {
                os << " = " << I.imm;
                for (std::int32_t k = 0; k < I.b; ++k) {
                    const LinTerm& t = lin_terms_[static_cast<std::size_t>(I.a + k)];
                    os << " + " << t.coeff << "*s" << t.slot;
                }
                break;
            }
            default:
                os << " <- s" << I.a << ", s" << I.b << ", s" << I.c << ", imm=" << I.imm;
                break;
        }
        os << "\n";
    }
    return os.str();
}

}  // namespace amsvp::expr
