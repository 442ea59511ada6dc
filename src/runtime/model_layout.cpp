#include "runtime/model_layout.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/verifier.hpp"
#include "expr/traversal.hpp"
#include "support/check.hpp"

namespace amsvp::runtime {

using abstraction::Assignment;
using abstraction::SignalFlowModel;
using expr::ExprKind;
using expr::ExprPtr;
using expr::Symbol;

std::shared_ptr<const ModelLayout> ModelLayout::compile(const SignalFlowModel& model) {
    auto layout = std::shared_ptr<ModelLayout>(new ModelLayout());
    ModelLayout& l = *layout;
    l.timestep_ = model.timestep;

    // Pass 1: history depth needed per symbol.
    std::unordered_map<Symbol, int, expr::SymbolHash> depth;
    auto note_depth = [&](const Symbol& s, int d) {
        auto [it, inserted] = depth.try_emplace(s, d);
        if (!inserted) {
            it->second = std::max(it->second, d);
        }
    };
    for (const Symbol& in : model.inputs) {
        note_depth(in, 0);
    }
    for (const Assignment& a : model.assignments) {
        note_depth(a.target, 0);
        expr::visit(a.value, [&](const ExprPtr& node) {
            if (node->kind() == ExprKind::kSymbol) {
                note_depth(node->symbol(), 0);
            } else if (node->kind() == ExprKind::kDelayed) {
                note_depth(node->symbol(), node->delay());
            }
            return true;
        });
    }

    // Pass 2: allocate slots (current value + history behind it).
    std::size_t slot_count = 0;
    auto allocate = [&](const Symbol& s) {
        const auto it = depth.find(s);
        const int d = it == depth.end() ? 0 : it->second;
        SymbolSlots slots{static_cast<int>(slot_count), d};
        l.layout_.emplace(s, slots);
        slot_count += static_cast<std::size_t>(d) + 1;
        if (d > 0) {
            l.rotations_.push_back(slots);
        }
    };
    for (const Symbol& in : model.inputs) {
        allocate(in);
    }
    for (const Assignment& a : model.assignments) {
        if (!l.layout_.contains(a.target)) {
            allocate(a.target);
        }
    }
    // Any symbol referenced but never assigned / declared is a bug upstream;
    // allocate defensively so resolver aborts with context below instead.
    for (const auto& [sym, d] : depth) {
        if (!l.layout_.contains(sym)) {
            allocate(sym);
        }
    }
    // $abstime.
    {
        const Symbol time = expr::time_symbol();
        if (!l.layout_.contains(time)) {
            l.layout_.emplace(time, SymbolSlots{static_cast<int>(slot_count), 0});
            ++slot_count;
        }
        l.time_slot_ = l.layout_.at(time).base;
    }
    l.model_slot_count_ = slot_count;

    // Pass 3: whole-model compilation: one fused instruction stream over the
    // slot file, with scratch registers appended behind the model slots.
    const expr::SlotResolver resolver = [&l](const Symbol& s, int delay) {
        return l.slot_for(s, delay);
    };
    std::vector<expr::FusedProgram::AssignmentSpec> specs;
    specs.reserve(model.assignments.size());
    for (const Assignment& a : model.assignments) {
        specs.push_back({l.slot_for(a.target, 0), a.value});
    }
    l.fused_ = expr::FusedProgram::compile(specs, resolver, static_cast<int>(slot_count));
    slot_count += static_cast<std::size_t>(l.fused_.scratch_count());
    l.slot_count_ = slot_count;

    for (const Symbol& in : model.inputs) {
        l.input_slots_.push_back(l.slot_for(in, 0));
    }
    for (const Symbol& out : model.outputs) {
        l.output_slots_.push_back(l.slot_for(out, 0));
    }

    for (const auto& [sym, value] : model.initial_values) {
        const auto it = l.layout_.find(sym);
        if (it == l.layout_.end()) {
            continue;
        }
        for (int k = 0; k <= it->second.depth; ++k) {
            l.initial_values_.emplace_back(it->second.base + k, value);
        }
    }
    // Remember input names for input_index().
    for (std::size_t i = 0; i < model.inputs.size(); ++i) {
        l.input_names_.emplace(model.inputs[i].name, i);
    }
#ifndef NDEBUG
    // Debug builds verify every fused compile before anything executes it;
    // Release builds verify once per model at ModelCache admission instead
    // (see ModelCache::locked_layout_for) to keep per-compile cost off the
    // sweep-service hot path.
    analysis::verify_layout_or_abort(l, "ModelLayout::compile");
#endif
    return layout;
}

int ModelLayout::slot_for(const Symbol& s, int delay) const {
    const auto it = layout_.find(s);
    AMSVP_CHECK(it != layout_.end(), "reference to unknown symbol");
    AMSVP_CHECK(delay >= 0 && delay <= it->second.depth, "delay exceeds allocated history");
    return it->second.base + delay;
}

const ModelLayout::SymbolSlots& ModelLayout::slots_of(const Symbol& s) const {
    const auto it = layout_.find(s);
    AMSVP_CHECK(it != layout_.end(), "reference to unknown symbol");
    return it->second;
}

std::size_t ModelLayout::input_index(const std::string& name) const {
    const auto it = input_names_.find(name);
    if (it == input_names_.end()) {
        throw std::invalid_argument("unknown input name '" + name + "'");
    }
    return it->second;
}

}  // namespace amsvp::runtime
