#include "abstraction/behavioral.hpp"

#include <algorithm>
#include <set>

#include "expr/printer.hpp"
#include "expr/traversal.hpp"
#include "support/check.hpp"

namespace amsvp::abstraction {

using expr::Expr;
using expr::ExprKind;
using expr::ExprPtr;
using expr::Symbol;
using expr::SymbolKind;

namespace {

class Converter {
public:
    Converter(const vams::Module& module, const AbstractionOptions& options,
              support::DiagnosticEngine& diagnostics)
        : module_(module), options_(options), diagnostics_(diagnostics) {}

    std::optional<SignalFlowModel> run() {
        fold_parameters();
        for (const vams::StatementPtr& s : module_.analog) {
            convert_statement(*s);
        }
        if (diagnostics_.has_errors()) {
            return std::nullopt;
        }
        model_.name = module_.name;
        model_.timestep = options_.timestep;
        model_.inputs.assign(inputs_.begin(), inputs_.end());
        const std::vector<std::string> problems = model_.validate();
        for (const std::string& p : problems) {
            diagnostics_.error(module_.location, "converted model invalid: " + p);
        }
        if (diagnostics_.has_errors()) {
            return std::nullopt;
        }
        return std::move(model_);
    }

private:
    void fold_parameters() {
        for (const vams::Parameter& p : module_.parameters) {
            ExprPtr value = expr::substitute(p.value, parameters_);
            if (value->kind() != ExprKind::kConstant) {
                diagnostics_.error(p.location,
                                   "parameter '" + p.name + "' is not constant");
                continue;
            }
            parameters_[expr::variable_symbol(p.name)] = value;
        }
    }

    [[nodiscard]] bool is_real_variable(const std::string& name) const {
        return std::find(module_.real_variables.begin(), module_.real_variables.end(), name) !=
               module_.real_variables.end();
    }

    void convert_statement(const vams::Statement& s) {
        switch (s.kind) {
            case vams::Statement::Kind::kBlock:
                for (const vams::StatementPtr& child : s.body) {
                    convert_statement(*child);
                }
                break;
            case vams::Statement::Kind::kAssign: {
                if (!is_real_variable(s.target)) {
                    diagnostics_.error(s.location, "assignment to undeclared variable '" +
                                                       s.target + "'");
                    return;
                }
                const Symbol target = expr::variable_symbol(s.target);
                ExprPtr value = translate(s.rhs, s.location);
                if (!value) {
                    return;
                }
                emit(target, std::move(value));
                break;
            }
            case vams::Statement::Kind::kContribution: {
                if (s.contributes_flow || !s.neg.empty()) {
                    diagnostics_.error(s.location,
                                       "conservative contribution in signal-flow module");
                    return;
                }
                const Symbol target = expr::variable_symbol(s.pos);
                ExprPtr value = translate(s.rhs, s.location);
                if (!value) {
                    return;
                }
                emit(target, std::move(value));
                if (std::find(model_.outputs.begin(), model_.outputs.end(), target) ==
                    model_.outputs.end()) {
                    model_.outputs.push_back(target);
                }
                break;
            }
            case vams::Statement::Kind::kIf:
                convert_if(s);
                break;
        }
    }

    /// if (c) x = a; else x = b;  =>  x := c ? a : b
    /// Branches may be single assignments or blocks of assignments; a target
    /// missing from one branch keeps its prior value in that branch.
    void convert_if(const vams::Statement& s) {
        ExprPtr cond = translate(s.condition, s.location);
        if (!cond) {
            return;
        }
        std::vector<std::pair<Symbol, ExprPtr>> then_assigns;
        std::vector<std::pair<Symbol, ExprPtr>> else_assigns;
        if (s.then_branch && !collect_branch(*s.then_branch, then_assigns)) {
            return;
        }
        if (s.else_branch && !collect_branch(*s.else_branch, else_assigns)) {
            return;
        }

        std::vector<Symbol> targets;
        for (const auto& [t, v] : then_assigns) {
            targets.push_back(t);
        }
        for (const auto& [t, v] : else_assigns) {
            if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
                targets.push_back(t);
            }
        }
        for (const Symbol& target : targets) {
            ExprPtr then_v = branch_value(then_assigns, target);
            ExprPtr else_v = branch_value(else_assigns, target);
            emit(target, Expr::conditional(cond, std::move(then_v), std::move(else_v)));
        }
    }

    bool collect_branch(const vams::Statement& s,
                        std::vector<std::pair<Symbol, ExprPtr>>& out) {
        switch (s.kind) {
            case vams::Statement::Kind::kAssign: {
                ExprPtr value = translate(s.rhs, s.location);
                if (!value) {
                    return false;
                }
                out.emplace_back(expr::variable_symbol(s.target), std::move(value));
                return true;
            }
            case vams::Statement::Kind::kBlock:
                for (const vams::StatementPtr& child : s.body) {
                    if (!collect_branch(*child, out)) {
                        return false;
                    }
                }
                return true;
            default:
                diagnostics_.error(s.location,
                                   "only assignments are supported inside if branches");
                return false;
        }
    }

    ExprPtr branch_value(const std::vector<std::pair<Symbol, ExprPtr>>& assigns,
                         const Symbol& target) {
        for (const auto& [t, v] : assigns) {
            if (t == target) {
                return v;
            }
        }
        // Unassigned in this branch: keep the current (or previous) value.
        return reference(target);
    }

    /// Reference a variable on a right-hand side: already assigned this step
    /// reads the fresh value, otherwise the previous step's value.
    ExprPtr reference(const Symbol& s) {
        if (assigned_.contains(s)) {
            return Expr::symbol(s);
        }
        return Expr::delayed(s, 1);
    }

    void emit(const Symbol& target, ExprPtr value) {
        model_.assignments.push_back(Assignment{target, std::move(value)});
        assigned_.insert(target);
    }

    /// Translate an expression: fold parameters, classify identifiers,
    /// discretize analog operators.
    ExprPtr translate(const ExprPtr& e, support::SourceLocation loc) {
        switch (e->kind()) {
            case ExprKind::kConstant:
                return e;
            case ExprKind::kSymbol: {
                const Symbol& s = e->symbol();
                if (s.kind == SymbolKind::kTime) {
                    return e;
                }
                if (s.kind == SymbolKind::kVariable) {
                    if (auto it = parameters_.find(s); it != parameters_.end()) {
                        return it->second;
                    }
                    if (is_real_variable(s.name)) {
                        return reference(s);
                    }
                    const Symbol input = expr::input_symbol(s.name);
                    inputs_.insert(input);
                    return Expr::symbol(input);
                }
                if (s.kind == SymbolKind::kBranchVoltage && vams::is_node_pair(s.name)) {
                    const vams::NodePair pair = vams::decode_node_pair(s.name);
                    if (pair.neg.empty()) {
                        // Single-node potential read inside a signal-flow
                        // module: reads the module's own output variable.
                        return reference(expr::variable_symbol(pair.pos));
                    }
                }
                diagnostics_.error(loc, "unsupported symbol in signal-flow expression: " +
                                            s.display());
                return nullptr;
            }
            case ExprKind::kDelayed:
                return e;
            case ExprKind::kUnary: {
                ExprPtr a = translate(e->operand(), loc);
                return a ? Expr::unary(e->unary_op(), std::move(a)) : nullptr;
            }
            case ExprKind::kBinary: {
                ExprPtr l = translate(e->left(), loc);
                ExprPtr r = translate(e->right(), loc);
                return (l && r) ? Expr::binary(e->binary_op(), std::move(l), std::move(r))
                                : nullptr;
            }
            case ExprKind::kConditional: {
                ExprPtr c = translate(e->condition(), loc);
                ExprPtr t = translate(e->then_branch(), loc);
                ExprPtr f = translate(e->else_branch(), loc);
                return (c && t && f)
                           ? Expr::conditional(std::move(c), std::move(t), std::move(f))
                           : nullptr;
            }
            case ExprKind::kDdt: {
                ExprPtr inner = translate(e->operand(), loc);
                if (!inner) {
                    return nullptr;
                }
                // a := inner; value = (a - a@(t-dt)) / dt.
                const Symbol aux = fresh_aux("ddt_arg");
                emit(aux, inner);
                return Expr::div(
                    Expr::sub(Expr::symbol(aux), Expr::delayed(aux, 1)),
                    Expr::constant(options_.timestep));
            }
            case ExprKind::kIdt: {
                ExprPtr inner = translate(e->operand(), loc);
                if (!inner) {
                    return nullptr;
                }
                // acc := acc@(t-dt) + dt * inner  (backward Euler); the
                // trapezoidal variant averages the current and previous
                // integrand.
                const Symbol acc = fresh_aux("idt_acc");
                ExprPtr increment;
                if (options_.scheme == DiscretizationScheme::kTrapezoidal) {
                    const Symbol arg = fresh_aux("idt_arg");
                    emit(arg, inner);
                    increment = Expr::mul(
                        Expr::constant(options_.timestep / 2.0),
                        Expr::add(Expr::symbol(arg), Expr::delayed(arg, 1)));
                } else {
                    increment = Expr::mul(Expr::constant(options_.timestep), inner);
                }
                emit(acc, Expr::add(Expr::delayed(acc, 1), std::move(increment)));
                return Expr::symbol(acc);
            }
        }
        return nullptr;
    }

    Symbol fresh_aux(const std::string& stem) {
        return expr::variable_symbol(stem + std::to_string(next_aux_++));
    }

    const vams::Module& module_;
    AbstractionOptions options_;
    support::DiagnosticEngine& diagnostics_;
    SignalFlowModel model_;
    expr::Substitution parameters_;
    std::set<Symbol> inputs_;
    std::set<Symbol> assigned_;
    int next_aux_ = 0;
};

}  // namespace

std::optional<SignalFlowModel> convert_signal_flow(const vams::Module& module,
                                                   const AbstractionOptions& options,
                                                   support::DiagnosticEngine& diagnostics) {
    Converter converter(module, options, diagnostics);
    return converter.run();
}

}  // namespace amsvp::abstraction
