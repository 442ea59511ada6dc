#include "spice/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "expr/linear_form.hpp"
#include "expr/printer.hpp"
#include "expr/traversal.hpp"
#include "numeric/lu.hpp"
#include "support/check.hpp"
#include "support/step_count.hpp"
#include "support/strings.hpp"

namespace amsvp::spice {

using expr::Expr;
using expr::ExprKind;
using expr::ExprPtr;
using expr::LinearForm;
using expr::Symbol;
using expr::SymbolKind;
using netlist::BranchId;
using netlist::Circuit;
using netlist::NodeId;

namespace {

/// Newton convergence on |dx|.
constexpr double kAbsTolerance = 1e-9;
/// SPICE always re-verifies convergence with a second iteration.
constexpr int kMinIterations = 2;

/// Rewrite ddt() to backward-Euler finite differences over symbol history:
/// ddt(q) -> (q - q@(t-dt)) / h, distributed over linear structure.
ExprPtr rewrite_ddt(const ExprPtr& e, double h, std::string* error);

ExprPtr ddt_of(const ExprPtr& operand, double h, std::string* error) {
    switch (operand->kind()) {
        case ExprKind::kConstant:
            return Expr::constant(0.0);
        case ExprKind::kSymbol:
            return Expr::div(Expr::sub(operand, Expr::delayed(operand->symbol(), 1)),
                             Expr::constant(h));
        case ExprKind::kUnary:
            if (operand->unary_op() == expr::UnaryOp::kNeg) {
                ExprPtr inner = ddt_of(operand->operand(), h, error);
                return inner ? Expr::neg(std::move(inner)) : nullptr;
            }
            break;
        case ExprKind::kBinary: {
            const expr::BinaryOp op = operand->binary_op();
            if (op == expr::BinaryOp::kAdd || op == expr::BinaryOp::kSub) {
                ExprPtr l = ddt_of(operand->left(), h, error);
                ExprPtr r = ddt_of(operand->right(), h, error);
                return (l && r) ? Expr::binary(op, std::move(l), std::move(r)) : nullptr;
            }
            if (op == expr::BinaryOp::kMul &&
                operand->left()->kind() == ExprKind::kConstant) {
                ExprPtr inner = ddt_of(operand->right(), h, error);
                return inner ? Expr::mul(operand->left(), std::move(inner)) : nullptr;
            }
            if (op == expr::BinaryOp::kMul &&
                operand->right()->kind() == ExprKind::kConstant) {
                ExprPtr inner = ddt_of(operand->left(), h, error);
                return inner ? Expr::mul(std::move(inner), operand->right()) : nullptr;
            }
            if (op == expr::BinaryOp::kDiv &&
                operand->right()->kind() == ExprKind::kConstant) {
                ExprPtr inner = ddt_of(operand->left(), h, error);
                return inner ? Expr::div(std::move(inner), operand->right()) : nullptr;
            }
            break;
        }
        default:
            break;
    }
    if (error != nullptr) {
        *error = "ddt() of unsupported expression: " + expr::to_string(operand);
    }
    return nullptr;
}

ExprPtr rewrite_ddt(const ExprPtr& e, double h, std::string* error) {
    switch (e->kind()) {
        case ExprKind::kConstant:
        case ExprKind::kSymbol:
        case ExprKind::kDelayed:
            return e;
        case ExprKind::kUnary: {
            ExprPtr a = rewrite_ddt(e->operand(), h, error);
            return a ? Expr::unary(e->unary_op(), std::move(a)) : nullptr;
        }
        case ExprKind::kBinary: {
            ExprPtr l = rewrite_ddt(e->left(), h, error);
            ExprPtr r = rewrite_ddt(e->right(), h, error);
            return (l && r) ? Expr::binary(e->binary_op(), std::move(l), std::move(r))
                            : nullptr;
        }
        case ExprKind::kConditional: {
            ExprPtr c = rewrite_ddt(e->condition(), h, error);
            ExprPtr t = rewrite_ddt(e->then_branch(), h, error);
            ExprPtr f = rewrite_ddt(e->else_branch(), h, error);
            return (c && t && f) ? Expr::conditional(std::move(c), std::move(t), std::move(f))
                                 : nullptr;
        }
        case ExprKind::kDdt: {
            ExprPtr inner = rewrite_ddt(e->operand(), h, error);
            return inner ? ddt_of(inner, h, error) : nullptr;
        }
        case ExprKind::kIdt:
            if (error != nullptr) {
                *error = "idt() is not supported by the transient engine";
            }
            return nullptr;
    }
    return nullptr;
}

}  // namespace

SpiceEngine::SpiceEngine(const Circuit& circuit, const SpiceOptions& options)
    : tableau_(circuit), options_(options), inputs_(circuit.input_names()) {}

int SpiceEngine::slot_of_voltage(BranchId b, bool prev) const {
    const int nb = static_cast<int>(tableau_.circuit().branch_count());
    return prev ? 2 * nb + b : b;
}

int SpiceEngine::slot_of_current(BranchId b, bool prev) const {
    const int nb = static_cast<int>(tableau_.circuit().branch_count());
    return prev ? 3 * nb + b : nb + b;
}

std::optional<SpiceEngine> SpiceEngine::create(const Circuit& circuit,
                                               const SpiceOptions& options,
                                               std::string* error) {
    const auto fail = [error](std::string message) -> std::optional<SpiceEngine> {
        if (error != nullptr) {
            *error = std::move(message);
        }
        return std::nullopt;
    };
    if (!(std::isfinite(options.timestep) && options.timestep > 0.0)) {
        return fail("SPICE: timestep must be positive and finite, got " +
                    support::format_double(options.timestep));
    }
    if (options.internal_substeps < 1) {
        return fail("SPICE: internal_substeps must be at least 1, got " +
                    std::to_string(options.internal_substeps));
    }
    if (options.max_iterations < kMinIterations) {
        return fail("SPICE: max_iterations must be at least " + std::to_string(kMinIterations) +
                    " (convergence is always re-verified), got " +
                    std::to_string(options.max_iterations));
    }

    SpiceEngine e(circuit, options);
    const netlist::Tableau& tableau = e.tableau_;
    const int nb = static_cast<int>(circuit.branch_count());
    const int row_base = 4 * nb + static_cast<int>(e.inputs_.size()) + 1;
    e.row_slot_base_ = static_cast<std::size_t>(row_base);
    std::vector<expr::FusedProgram::AssignmentSpec> residuals;

    const expr::SlotResolver resolver = [&e, &circuit, nb](const Symbol& s, int delay) -> int {
        if (s.kind == SymbolKind::kTime) {
            AMSVP_CHECK(delay == 0, "delayed time reference");
            return 4 * nb + static_cast<int>(e.inputs_.size());
        }
        if (s.kind == SymbolKind::kInput) {
            AMSVP_CHECK(delay == 0, "delayed input in conservative equation");
            const auto it = std::find(e.inputs_.begin(), e.inputs_.end(), s.name);
            AMSVP_CHECK(it != e.inputs_.end(), "unknown input");
            return 4 * nb + static_cast<int>(it - e.inputs_.begin());
        }
        const auto bid = circuit.find_branch(s.name);
        AMSVP_CHECK(bid.has_value(), "unknown branch in equation");
        AMSVP_CHECK(delay <= 1, "only one step of history is kept");
        const bool prev = delay == 1;
        return s.kind == SymbolKind::kBranchVoltage ? e.slot_of_voltage(*bid, prev)
                                                    : e.slot_of_current(*bid, prev);
    };

    // KCL rows.
    for (std::size_t r = 0; r < tableau.kcl_rows().size(); ++r) {
        Row row;
        row.linear = true;
        row.jacobian = tableau.kcl_rows()[r];
        residuals.push_back({row_base + static_cast<int>(e.rows_.size()), tableau.kcl_residual(r)});
        e.rows_.push_back(std::move(row));
    }

    const double h_internal =
        options.timestep / static_cast<double>(options.internal_substeps);

    // Constitutive rows.
    for (BranchId b = 0; b < nb; ++b) {
        ExprPtr discretized = rewrite_ddt(tableau.constraint(b), h_internal, error);
        if (!discretized) {
            return std::nullopt;
        }

        Row row;
        residuals.push_back({row_base + static_cast<int>(e.rows_.size()), discretized});

        // Jacobian: static when the (discretized) constraint is linear in the
        // current-time branch quantities.
        auto form = LinearForm::extract(discretized, expr::branch_quantities_unknown());
        if (form) {
            row.linear = true;
            for (const auto& [key, coeff] : form->coefficients()) {
                AMSVP_CHECK(!key.derivative, "ddt survived rewrite");
                tableau.stamp(key.symbol, coeff, row.jacobian);
            }
        } else {
            // Columns this row's residual depends on, for finite differences.
            netlist::Tableau::Row stamped;
            for (const Symbol& s : expr::collect_symbols(discretized)) {
                if (s.kind == SymbolKind::kBranchVoltage || s.kind == SymbolKind::kBranchCurrent) {
                    tableau.stamp(s, 1.0, stamped);
                }
            }
            for (const auto& [col, unused] : stamped) {
                row.depends_on.push_back(col);
            }
            std::sort(row.depends_on.begin(), row.depends_on.end());
            row.depends_on.erase(std::unique(row.depends_on.begin(), row.depends_on.end()),
                                 row.depends_on.end());
        }
        e.rows_.push_back(std::move(row));
    }

    const int slot_file_size = row_base + static_cast<int>(e.rows_.size());
    e.program_ = expr::FusedProgram::compile(residuals, resolver, slot_file_size);
    e.slots_.assign(static_cast<std::size_t>(slot_file_size + e.program_.scratch_count()), 0.0);
    e.program_.initialize_constants(e.slots_.data());

    e.x_.assign(tableau.size(), 0.0);
    e.x_prev_.assign(tableau.size(), 0.0);
    return e;
}

void SpiceEngine::reset() {
    x_.assign(tableau_.size(), 0.0);
    x_prev_.assign(tableau_.size(), 0.0);
    stats_ = {};
}

void SpiceEngine::fill_slots(const numeric::Vector& x, const numeric::Vector& x_prev,
                             const std::vector<double>& input_values, double time_seconds) {
    const int nb = static_cast<int>(tableau_.circuit().branch_count());
    for (BranchId b = 0; b < nb; ++b) {
        slots_[static_cast<std::size_t>(slot_of_voltage(b, false))] =
            tableau_.branch_voltage(x, b);
        slots_[static_cast<std::size_t>(slot_of_current(b, false))] =
            tableau_.branch_current(x, b);
        slots_[static_cast<std::size_t>(slot_of_voltage(b, true))] =
            tableau_.branch_voltage(x_prev, b);
        slots_[static_cast<std::size_t>(slot_of_current(b, true))] =
            tableau_.branch_current(x_prev, b);
    }
    for (std::size_t i = 0; i < input_values.size(); ++i) {
        slots_[static_cast<std::size_t>(4 * nb) + i] = input_values[i];
    }
    slots_[static_cast<std::size_t>(4 * nb) + inputs_.size()] = time_seconds;
}

void SpiceEngine::evaluate_residual(const numeric::Vector& x, const numeric::Vector& x_prev,
                                    const std::vector<double>& input_values,
                                    double time_seconds, numeric::Vector& f) {
    fill_slots(x, x_prev, input_values, time_seconds);
    program_.execute(slots_.data());
    f.resize(tableau_.size());
    std::copy_n(slots_.begin() + static_cast<std::ptrdiff_t>(row_slot_base_), rows_.size(),
                f.begin());
    stats_.device_evaluations += rows_.size();
}

void SpiceEngine::stamp_jacobian(const numeric::Vector& x, const numeric::Vector& x_prev,
                                 const std::vector<double>& input_values, double time_seconds,
                                 const numeric::Vector& f, numeric::Matrix& j) {
    j.reset(tableau_.size(), tableau_.size());
    numeric::Vector& x_fd = fd_x_scratch_;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        const Row& row = rows_[r];
        if (row.linear) {
            for (const auto& [col, coeff] : row.jacobian) {
                j(r, static_cast<std::size_t>(col)) += coeff;
            }
            continue;
        }
        // Finite differences for non-linear rows: rerun the program on a
        // perturbed x and read this row's slot.
        const double f0 = f[r];
        x_fd = x;
        for (const int col : row.depends_on) {
            const double base = x_fd[static_cast<std::size_t>(col)];
            const double eps = 1e-9 * (1.0 + std::fabs(base));
            x_fd[static_cast<std::size_t>(col)] = base + eps;
            fill_slots(x_fd, x_prev, input_values, time_seconds);
            program_.execute(slots_.data());
            const double f1 = slots_[row_slot_base_ + r];
            j(r, static_cast<std::size_t>(col)) = (f1 - f0) / eps;
            x_fd[static_cast<std::size_t>(col)] = base;
        }
    }
}

bool SpiceEngine::step(const std::vector<double>& input_values, double time_seconds) {
    const double h = options_.timestep / static_cast<double>(options_.internal_substeps);
    for (int j = 0; j < options_.internal_substeps; ++j) {
        const double t = time_seconds - options_.timestep +
                         static_cast<double>(j + 1) * h;
        if (!substep(input_values, t)) {
            return false;
        }
    }
    return true;
}

bool SpiceEngine::substep(const std::vector<double>& input_values, double time_seconds) {
    AMSVP_CHECK(input_values.size() == inputs_.size(), "input value count mismatch");
    x_prev_ = x_;

    // Member scratch: the Newton loop re-stamps and refactorises every
    // iteration (the paper's cost model) but allocates nothing once warm.
    numeric::Matrix& jacobian = jacobian_scratch_;
    numeric::Vector& residual = residual_scratch_;
    for (int iter = 0; iter < options_.max_iterations; ++iter) {
        ++stats_.newton_iterations;
        evaluate_residual(x_, x_prev_, input_values, time_seconds, residual);
        stamp_jacobian(x_, x_prev_, input_values, time_seconds, residual, jacobian);

        ++stats_.factorizations;
        if (!lu_scratch_.refactorise(jacobian)) {
            return false;
        }
        for (double& v : residual) {
            v = -v;
        }
        lu_scratch_.solve_in_place(residual);  // residual now holds dx
        double dx_norm = 0.0;
        for (std::size_t i = 0; i < x_.size(); ++i) {
            // A non-finite residual makes the update non-finite (or the
            // factorisation fail), and std::max below would drop a NaN.
            if (!std::isfinite(residual[i])) {
                return false;
            }
            x_[i] += residual[i];
            dx_norm = std::max(dx_norm, std::fabs(residual[i]));
        }
        if (dx_norm < kAbsTolerance && iter + 1 >= kMinIterations) {
            ++stats_.steps;
            return true;
        }
    }
    return false;
}

double SpiceEngine::node_voltage(std::string_view node_name) const {
    return tableau_.node_potential(x_, tableau_.circuit().observed_node(node_name, "SPICE"));
}

double SpiceEngine::branch_current(std::string_view branch_name) const {
    return tableau_.branch_current(x_, tableau_.circuit().observed_branch(branch_name, "SPICE"));
}

double SpiceEngine::voltage_between(std::string_view pos, std::string_view neg) const {
    return node_voltage(pos) - node_voltage(neg);
}

double SpiceEngine::voltage_between(NodeId pos, NodeId neg) const {
    return tableau_.node_potential(x_, pos) - tableau_.node_potential(x_, neg);
}

numeric::Waveform SpiceEngine::run_transient(
    const std::map<std::string, numeric::SourceFunction>& stimuli, double duration,
    std::string_view observed_pos, std::string_view observed_neg) {
    const NodeId pos = tableau_.circuit().observed_node(observed_pos, "SPICE");
    const NodeId neg = tableau_.circuit().observed_node(observed_neg, "SPICE");
    reset();
    std::vector<const numeric::SourceFunction*> sources;
    for (const std::string& name : inputs_) {
        sources.push_back(&numeric::stimulus_for(stimuli, name));
    }
    const double h = options_.timestep;
    const double h_sub = h / static_cast<double>(options_.internal_substeps);
    const std::size_t steps = support::step_count(duration, h);
    numeric::Waveform trace(h, h);
    trace.reserve(steps);
    std::vector<double> inputs(sources.size());
    // Samples at t = h, 2h, ... (the common convention of all backends);
    // internal substeps sample the stimuli at their own finer times, as the
    // analog solver owns the testbench in isolation runs.
    for (std::size_t k = 0; k < steps; ++k) {
        for (int j = 0; j < options_.internal_substeps; ++j) {
            const double t = static_cast<double>(k) * h + static_cast<double>(j + 1) * h_sub;
            for (std::size_t i = 0; i < sources.size(); ++i) {
                inputs[i] = (*sources[i])(t);
            }
            if (!substep(inputs, t)) {
                throw std::runtime_error("SPICE: Newton iteration failed at t = " +
                                         support::format_double(t) + " s");
            }
        }
        trace.append(voltage_between(pos, neg));
    }
    return trace;
}

}  // namespace amsvp::spice
