#include "spice/engine.hpp"

#include <algorithm>
#include <cmath>

#include "expr/linear_form.hpp"
#include "expr/printer.hpp"
#include "expr/traversal.hpp"
#include "numeric/lu.hpp"
#include "support/check.hpp"
#include "support/step_count.hpp"

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

int SpiceEngine::node_column(NodeId node) const {
    return node_col_[static_cast<std::size_t>(node)];
}

int SpiceEngine::current_column(BranchId branch) const {
    return static_cast<int>(circuit_->node_count()) - 1 + branch;
}

int SpiceEngine::slot_of_voltage(BranchId b, bool prev) const {
    const int nb = static_cast<int>(circuit_->branch_count());
    return prev ? 2 * nb + b : b;
}

int SpiceEngine::slot_of_current(BranchId b, bool prev) const {
    const int nb = static_cast<int>(circuit_->branch_count());
    return prev ? 3 * nb + b : nb + b;
}

std::optional<SpiceEngine> SpiceEngine::create(const Circuit& circuit,
                                               const SpiceOptions& options,
                                               std::string* error) {
    AMSVP_CHECK(circuit.has_ground(), "transient engine requires a ground node");
    SpiceEngine e;
    e.circuit_ = &circuit;
    e.options_ = options;
    e.inputs_ = circuit.input_names();

    e.node_col_.assign(circuit.node_count(), -1);
    int col = 0;
    for (NodeId n = 0; n < static_cast<NodeId>(circuit.node_count()); ++n) {
        if (n != circuit.ground()) {
            e.node_col_[static_cast<std::size_t>(n)] = col++;
        }
    }
    e.size_ = circuit.node_count() - 1 + circuit.branch_count();

    const int nb = static_cast<int>(circuit.branch_count());
    const int row_base = 4 * nb + static_cast<int>(e.inputs_.size()) + 1;
    e.row_slot_base_ = static_cast<std::size_t>(row_base);
    std::vector<expr::FusedProgram::AssignmentSpec> residuals;

    const expr::SlotResolver resolver = [&e, nb](const Symbol& s, int delay) -> int {
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
        const auto bid = e.circuit_->find_branch(s.name);
        AMSVP_CHECK(bid.has_value(), "unknown branch in equation");
        AMSVP_CHECK(delay <= 1, "only one step of history is kept");
        const bool prev = delay == 1;
        return s.kind == SymbolKind::kBranchVoltage ? e.slot_of_voltage(*bid, prev)
                                                    : e.slot_of_current(*bid, prev);
    };

    // KCL rows.
    for (NodeId n = 0; n < static_cast<NodeId>(circuit.node_count()); ++n) {
        if (n == circuit.ground()) {
            continue;
        }
        ExprPtr residual = Expr::constant(0.0);
        Row row;
        row.linear = true;
        for (const Circuit::Incidence& inc : circuit.incident(n)) {
            const Symbol cur = circuit.branch(inc.branch).current_symbol();
            ExprPtr term = Expr::symbol(cur);
            residual = (inc.sign > 0) ? Expr::add(residual, term)
                                      : Expr::sub(residual, term);
            row.jacobian.emplace_back(e.current_column(inc.branch),
                                      static_cast<double>(inc.sign));
        }
        residuals.push_back({row_base + static_cast<int>(e.rows_.size()), std::move(residual)});
        e.rows_.push_back(std::move(row));
    }

    AMSVP_CHECK(options.internal_substeps >= 1, "need at least one internal substep");
    const double h_internal =
        options.timestep / static_cast<double>(options.internal_substeps);

    // Constitutive rows.
    for (BranchId b = 0; b < nb; ++b) {
        const expr::Equation& eq = circuit.dipole_equation(b);
        ExprPtr constraint = Expr::sub(eq.lhs, eq.rhs);
        ExprPtr discretized = rewrite_ddt(constraint, h_internal, error);
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
                const auto bid = circuit.find_branch(key.symbol.name);
                AMSVP_CHECK(bid.has_value(), "unknown branch");
                if (key.symbol.kind == SymbolKind::kBranchVoltage) {
                    const netlist::Branch& br = circuit.branch(*bid);
                    if (const int cp = e.node_column(br.pos); cp >= 0) {
                        row.jacobian.emplace_back(cp, coeff);
                    }
                    if (const int cn = e.node_column(br.neg); cn >= 0) {
                        row.jacobian.emplace_back(cn, -coeff);
                    }
                } else {
                    row.jacobian.emplace_back(e.current_column(*bid), coeff);
                }
            }
        } else {
            // Columns this row's residual depends on, for finite differences.
            std::vector<int> cols;
            for (const Symbol& s : expr::collect_symbols(discretized)) {
                if (s.kind == SymbolKind::kBranchVoltage) {
                    const auto bid = circuit.find_branch(s.name);
                    AMSVP_CHECK(bid.has_value(), "unknown branch");
                    const netlist::Branch& br = circuit.branch(*bid);
                    if (const int cp = e.node_column(br.pos); cp >= 0) {
                        cols.push_back(cp);
                    }
                    if (const int cn = e.node_column(br.neg); cn >= 0) {
                        cols.push_back(cn);
                    }
                } else if (s.kind == SymbolKind::kBranchCurrent) {
                    const auto bid = circuit.find_branch(s.name);
                    AMSVP_CHECK(bid.has_value(), "unknown branch");
                    cols.push_back(e.current_column(*bid));
                }
            }
            std::sort(cols.begin(), cols.end());
            cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
            row.depends_on = std::move(cols);
        }
        e.rows_.push_back(std::move(row));
    }

    const int slot_file_size = row_base + static_cast<int>(e.rows_.size());
    e.program_ = expr::FusedProgram::compile(residuals, resolver, slot_file_size);
    e.slots_.assign(static_cast<std::size_t>(slot_file_size + e.program_.scratch_count()), 0.0);
    e.program_.initialize_constants(e.slots_.data());

    e.x_.assign(e.size_, 0.0);
    e.x_prev_.assign(e.size_, 0.0);
    return e;
}

void SpiceEngine::reset() {
    x_.assign(size_, 0.0);
    x_prev_.assign(size_, 0.0);
    stats_ = {};
}

void SpiceEngine::fill_slots(const numeric::Vector& x, const numeric::Vector& x_prev,
                             const std::vector<double>& input_values, double time_seconds) {
    const int nb = static_cast<int>(circuit_->branch_count());
    auto node_v = [&](const numeric::Vector& v, NodeId n) {
        const int c = node_column(n);
        return c < 0 ? 0.0 : v[static_cast<std::size_t>(c)];
    };
    for (BranchId b = 0; b < nb; ++b) {
        const netlist::Branch& br = circuit_->branch(b);
        slots_[static_cast<std::size_t>(slot_of_voltage(b, false))] =
            node_v(x, br.pos) - node_v(x, br.neg);
        slots_[static_cast<std::size_t>(slot_of_current(b, false))] =
            x[static_cast<std::size_t>(current_column(b))];
        slots_[static_cast<std::size_t>(slot_of_voltage(b, true))] =
            node_v(x_prev, br.pos) - node_v(x_prev, br.neg);
        slots_[static_cast<std::size_t>(slot_of_current(b, true))] =
            x_prev[static_cast<std::size_t>(current_column(b))];
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
    f.resize(size_);
    std::copy_n(slots_.begin() + static_cast<std::ptrdiff_t>(row_slot_base_), rows_.size(),
                f.begin());
    stats_.device_evaluations += rows_.size();
}

void SpiceEngine::stamp_jacobian(const numeric::Vector& x, const numeric::Vector& x_prev,
                                 const std::vector<double>& input_values, double time_seconds,
                                 const numeric::Vector& f, numeric::Matrix& j) {
    j.reset(size_, size_);
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
        for (std::size_t i = 0; i < size_; ++i) {
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
    const auto node = circuit_->find_node(node_name);
    AMSVP_CHECK(node.has_value(), "unknown node");
    return voltage_at(*node);
}

double SpiceEngine::voltage_at(NodeId node) const {
    const int c = node_column(node);
    return c < 0 ? 0.0 : x_[static_cast<std::size_t>(c)];
}

double SpiceEngine::branch_current(std::string_view branch_name) const {
    const auto branch = circuit_->find_branch(branch_name);
    AMSVP_CHECK(branch.has_value(), "unknown branch");
    return x_[static_cast<std::size_t>(current_column(*branch))];
}

double SpiceEngine::voltage_between(std::string_view pos, std::string_view neg) const {
    return node_voltage(pos) - node_voltage(neg);
}

double SpiceEngine::voltage_between(NodeId pos, NodeId neg) const {
    return voltage_at(pos) - voltage_at(neg);
}

numeric::Waveform SpiceEngine::run_transient(
    const std::map<std::string, numeric::SourceFunction>& stimuli, double duration,
    std::string_view observed_pos, std::string_view observed_neg) {
    const NodeId pos = circuit_->observed_node(observed_pos, "SPICE");
    const NodeId neg = circuit_->observed_node(observed_neg, "SPICE");
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
            const bool ok = substep(inputs, t);
            AMSVP_CHECK(ok, "transient engine failed to converge");
        }
        trace.append(voltage_between(pos, neg));
    }
    return trace;
}

}  // namespace amsvp::spice
