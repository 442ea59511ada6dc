#include "codegen/emit_common.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>

#include "codegen/codegen.hpp"
#include "runtime/model_layout.hpp"
#include "support/check.hpp"
#include "support/strings.hpp"

namespace amsvp::codegen::detail {

using abstraction::Assignment;
using abstraction::SignalFlowModel;
using expr::FusedInstr;
using expr::FusedOp;
using expr::FusedProgram;
using expr::LinTerm;
using expr::Symbol;

std::string history_name(const std::string& id, int delay) {
    if (delay == 1) {
        return id + "_prev";
    }
    return id + "_prev" + std::to_string(delay);
}

namespace {

/// A double literal, parenthesized when negative so it can sit to the right
/// of any binary operator ("a * (-0.5)").
std::string literal(double value) {
    std::string s = support::format_double(value);
    if (!s.empty() && s[0] == '-') {
        return "(" + s + ")";
    }
    return s;
}

/// Renders fused instructions as C++ statements over named variables (the
/// scalar step() body): model slots as named members, scratch registers as
/// `_t<n>` locals, pooled constants as literals.
///
/// Every statement performs exactly the arithmetic of the corresponding
/// interpreter case in FusedProgram::execute_impl — same operations, same
/// order, each rounding separately — so a generated model compiled with
/// -ffp-contract=off matches the fused interpreter bit-for-bit.
class ProgramRenderer {
public:
    ProgramRenderer(const FusedProgram& program, const std::vector<std::string>& slot_names,
                    int time_slot)
        : program_(program), slot_names_(slot_names), time_slot_(time_slot) {
        for (const auto& [slot, value] : program.constants()) {
            const_values_.emplace(slot, value);
        }
    }

    [[nodiscard]] bool time_was_read() const { return time_read_; }

    /// Names of the scratch locals the program needs, declaration order.
    [[nodiscard]] std::vector<std::string> scratch_declarations() const {
        std::set<std::int32_t> regs;
        const auto model_slots = static_cast<std::int32_t>(slot_names_.size());
        for (const FusedInstr& instr : program_.instructions()) {
            if (instr.dst >= model_slots) {
                regs.insert(instr.dst);
            }
        }
        std::vector<std::string> out;
        out.reserve(regs.size());
        for (const std::int32_t reg : regs) {
            out.push_back("double _t" + std::to_string(reg - model_slots) + " = 0;");
        }
        return out;
    }

    [[nodiscard]] std::string statement(const FusedInstr& I) {
        const std::string dst = operand(I.dst);
        switch (I.op) {
            case FusedOp::kConst:
                return dst + " = " + support::format_double(I.imm) + ";";
            case FusedOp::kCopy:
                return dst + " = " + operand(I.a) + ";";
            case FusedOp::kNeg:
                return dst + " = -" + operand(I.a) + ";";
            case FusedOp::kNot:
                return dst + " = (" + operand(I.a) + " == 0.0 ? 1.0 : 0.0);";
            case FusedOp::kExp:
                return unary_call(dst, "std::exp", I);
            case FusedOp::kLn:
                return unary_call(dst, "std::log", I);
            case FusedOp::kLog10:
                return unary_call(dst, "std::log10", I);
            case FusedOp::kSqrt:
                return unary_call(dst, "std::sqrt", I);
            case FusedOp::kSin:
                return unary_call(dst, "std::sin", I);
            case FusedOp::kCos:
                return unary_call(dst, "std::cos", I);
            case FusedOp::kTan:
                return unary_call(dst, "std::tan", I);
            case FusedOp::kAbs:
                return unary_call(dst, "std::fabs", I);
            case FusedOp::kAdd:
                return infix(dst, I, " + ");
            case FusedOp::kSub:
                return infix(dst, I, " - ");
            case FusedOp::kMul:
                return infix(dst, I, " * ");
            case FusedOp::kDiv:
                return infix(dst, I, " / ");
            case FusedOp::kPow:
                return dst + " = std::pow(" + operand(I.a) + ", " + operand(I.b) + ");";
            case FusedOp::kMin:
                return dst + " = std::min(" + operand(I.a) + ", " + operand(I.b) + ");";
            case FusedOp::kMax:
                return dst + " = std::max(" + operand(I.a) + ", " + operand(I.b) + ");";
            case FusedOp::kLt:
                return compare(dst, I, " < ");
            case FusedOp::kLe:
                return compare(dst, I, " <= ");
            case FusedOp::kGt:
                return compare(dst, I, " > ");
            case FusedOp::kGe:
                return compare(dst, I, " >= ");
            case FusedOp::kEq:
                return compare(dst, I, " == ");
            case FusedOp::kNe:
                return compare(dst, I, " != ");
            case FusedOp::kAnd:
                return dst + " = (" + operand(I.a) + " != 0.0 && " + operand(I.b) +
                       " != 0.0 ? 1.0 : 0.0);";
            case FusedOp::kOr:
                return dst + " = (" + operand(I.a) + " != 0.0 || " + operand(I.b) +
                       " != 0.0 ? 1.0 : 0.0);";
            case FusedOp::kAddImm:
                return dst + " = " + operand(I.a) + " + " + literal(I.imm) + ";";
            case FusedOp::kSubImm:
                return dst + " = " + operand(I.a) + " - " + literal(I.imm) + ";";
            case FusedOp::kRSubImm:
                return dst + " = " + literal(I.imm) + " - " + operand(I.a) + ";";
            case FusedOp::kMulImm:
                return dst + " = " + operand(I.a) + " * " + literal(I.imm) + ";";
            case FusedOp::kDivImm:
                return dst + " = " + operand(I.a) + " / " + literal(I.imm) + ";";
            case FusedOp::kRDivImm:
                return dst + " = " + literal(I.imm) + " / " + operand(I.a) + ";";
            case FusedOp::kMulAdd:
                return dst + " = " + operand(I.a) + " * " + operand(I.b) + " + " +
                       operand(I.c) + ";";
            case FusedOp::kMulSub:
                return dst + " = " + operand(I.a) + " * " + operand(I.b) + " - " +
                       operand(I.c) + ";";
            case FusedOp::kMulRSub:
                return dst + " = " + operand(I.c) + " - " + operand(I.a) + " * " +
                       operand(I.b) + ";";
            case FusedOp::kMulAddImm:
                return dst + " = " + operand(I.a) + " * " + literal(I.imm) + " + " +
                       operand(I.b) + ";";
            case FusedOp::kSelect:
                return dst + " = (" + operand(I.a) + " != 0.0 ? " + operand(I.b) + " : " +
                       operand(I.c) + ");";
            case FusedOp::kLinComb:
                return lincomb(dst, I);
        }
        AMSVP_CHECK(false, "unhandled fused opcode in emitter");
        return {};
    }

private:
    std::string operand(std::int32_t slot) {
        if (slot == time_slot_) {
            time_read_ = true;
        }
        // Pooled constants inline as literals.
        const auto it = const_values_.find(slot);
        if (it != const_values_.end()) {
            return literal(it->second);
        }
        if (slot < static_cast<std::int32_t>(slot_names_.size())) {
            return slot_names_[static_cast<std::size_t>(slot)];
        }
        return "_t" + std::to_string(slot - static_cast<std::int32_t>(slot_names_.size()));
    }

    std::string unary_call(const std::string& dst, std::string_view fn, const FusedInstr& I) {
        return dst + " = " + std::string(fn) + "(" + operand(I.a) + ");";
    }

    std::string infix(const std::string& dst, const FusedInstr& I, std::string_view op) {
        return dst + " = " + operand(I.a) + std::string(op) + operand(I.b) + ";";
    }

    std::string compare(const std::string& dst, const FusedInstr& I, std::string_view op) {
        return dst + " = (" + operand(I.a) + std::string(op) + operand(I.b) +
               " ? 1.0 : 0.0);";
    }

    /// One FMA chain, left-associated exactly like the interpreter's
    /// sequential accumulator (bias first, then every term in order). A
    /// negative coefficient renders as "- |c| * x", which is bit-identical
    /// to adding c * x (IEEE sign symmetry of multiplication).
    std::string lincomb(const std::string& dst, const FusedInstr& I) {
        std::string rhs = support::format_double(I.imm);
        for (std::int32_t k = 0; k < I.b; ++k) {
            const LinTerm& t = program_.lin_terms()[static_cast<std::size_t>(I.a + k)];
            const bool negative = std::signbit(t.coeff);
            rhs += negative ? " - " : " + ";
            rhs += support::format_double(std::fabs(t.coeff)) + " * " + operand(t.slot);
        }
        return dst + " = " + rhs + ";";
    }

    const FusedProgram& program_;
    const std::vector<std::string>& slot_names_;
    int time_slot_;
    std::unordered_map<std::int32_t, double> const_values_;
    bool time_read_ = false;
};

}  // namespace

EmitPlan build_plan(const SignalFlowModel& model, const CodegenOptions& options) {
    EmitPlan plan;
    plan.type_name =
        options.type_name.empty() ? default_type_name(model) : options.type_name;
    plan.timestep = model.timestep;

    for (const Symbol& in : model.inputs) {
        plan.inputs.push_back(in.identifier());
    }
    for (const Symbol& out : model.outputs) {
        plan.outputs.push_back(out.identifier());
    }

    const std::set<std::string> input_ids(plan.inputs.begin(), plan.inputs.end());
    std::set<std::string> state_ids;
    for (const Symbol& s : model.state_symbols()) {
        const int depth = model.max_delay(s);
        double initial = 0.0;
        if (const auto it = model.initial_values.find(s); it != model.initial_values.end()) {
            initial = it->second;
        }
        plan.states.push_back(EmitPlan::StateVar{s.identifier(), depth, initial,
                                                 input_ids.contains(s.identifier())});
        state_ids.insert(s.identifier());
    }
    for (const Assignment& a : model.assignments) {
        const std::string id = a.target.identifier();
        if (!state_ids.contains(id) && !input_ids.contains(id) &&
            std::find(plan.plain_members.begin(), plan.plain_members.end(), id) ==
                plan.plain_members.end()) {
            plan.plain_members.push_back(id);
        }
    }

    // Single mid-level IR: the same fused compile the interpreter executes
    // (reused when the caller already holds it).
    const auto layout =
        options.layout != nullptr ? options.layout : runtime::ModelLayout::compile(model);

    // Model slot -> variable name ($abstime last, overriding its identifier).
    plan.slot_names.assign(layout->model_slot_count(), {});
    for (const auto& [symbol, slots] : layout->symbol_slots()) {
        plan.slot_names[static_cast<std::size_t>(slots.base)] = symbol.identifier();
        for (int k = 1; k <= slots.depth; ++k) {
            plan.slot_names[static_cast<std::size_t>(slots.base + k)] =
                history_name(symbol.identifier(), k);
        }
    }
    plan.slot_names[static_cast<std::size_t>(layout->time_slot())] = "_abstime";

    ProgramRenderer renderer(layout->fused_program(), plan.slot_names, layout->time_slot());
    for (const FusedInstr& instr : layout->fused_program().instructions()) {
        plan.assignments.push_back(renderer.statement(instr));
    }
    plan.scratch_locals = renderer.scratch_declarations();
    plan.uses_time = renderer.time_was_read() || options.slot_accessor;

    // History rotation straight from the runtime layout, deepest first —
    // the same order CompiledModel::step rotates in.
    for (const EmitPlan::StateVar& s : plan.states) {
        for (int k = s.depth; k >= 1; --k) {
            const std::string to = history_name(s.id, k);
            const std::string from = (k == 1) ? s.id : history_name(s.id, k - 1);
            plan.rotations.push_back(to + " = " + from + ";");
        }
    }
    return plan;
}

std::string slot_accessor_body(const EmitPlan& plan, std::string_view indent) {
    const std::string pad(indent);
    std::string out;
    out += pad + "switch (i) {\n";
    for (std::size_t s = 0; s < plan.slot_names.size(); ++s) {
        out += pad + "    case " + std::to_string(s) + ": return " + plan.slot_names[s] +
               ";\n";
    }
    out += pad + "    default: return 0.0;\n";
    out += pad + "}\n";
    return out;
}

std::string provenance_comment(const SignalFlowModel& model, std::string_view target_name) {
    std::string out;
    out += "// Generated by the amsvp abstraction flow (DATE'16 reproduction).\n";
    out += "// Model: " + model.name + "; target: " + std::string(target_name) + ".\n";
    out += "// Timestep: " + support::format_double(model.timestep) + " s; " +
           std::to_string(model.assignments.size()) + " assignments, " +
           std::to_string(model.state_symbols().size()) + " state variables.\n";
    out += "// Lowered through the fused register-machine IR: constant folding,\n";
    out += "// cross-assignment CSE, multiply-add fusion and linear-combination\n";
    out += "// chains are shared with the in-process interpreter.\n";
    return out;
}

}  // namespace amsvp::codegen::detail
