#include "eln/tableau.hpp"

#include <algorithm>

#include "expr/printer.hpp"
#include "support/check.hpp"

namespace amsvp::eln {

using expr::ExprPtr;
using expr::LinearForm;
using expr::LinearKey;
using expr::Symbol;
using expr::SymbolKind;
using netlist::BranchId;
using netlist::Circuit;
using netlist::NodeId;

int Tableau::node_column(NodeId node) const {
    return node_col_[static_cast<std::size_t>(node)];
}

int Tableau::current_column(BranchId branch) const {
    // Currents sit after the (node_count - 1) potential columns.
    return static_cast<int>(circuit_->node_count()) - 1 + branch;
}

std::optional<Tableau> Tableau::build(const Circuit& circuit, double timestep,
                                      std::string* error) {
    AMSVP_CHECK(timestep > 0.0, "timestep must be positive");
    AMSVP_CHECK(circuit.has_ground(), "tableau requires a ground node");

    Tableau t;
    t.circuit_ = &circuit;
    t.timestep_ = timestep;
    t.inputs_ = circuit.input_names();

    // Column layout.
    t.node_col_.assign(circuit.node_count(), -1);
    int col = 0;
    for (NodeId n = 0; n < static_cast<NodeId>(circuit.node_count()); ++n) {
        if (n != circuit.ground()) {
            t.node_col_[static_cast<std::size_t>(n)] = col++;
        }
    }
    t.size_ = circuit.node_count() - 1 + circuit.branch_count();

    // Offsets read [inputs..., time] and land in one slot per row after them.
    const int first_offset_slot = static_cast<int>(t.inputs_.size()) + 1;
    std::vector<expr::FusedProgram::AssignmentSpec> offsets;
    const expr::SlotResolver offset_resolver = [&t](const Symbol& s, int delay) -> int {
        AMSVP_CHECK(delay == 0, "tableau offsets cannot reference history");
        if (s.kind == SymbolKind::kTime) {
            return static_cast<int>(t.inputs_.size());
        }
        AMSVP_CHECK(s.kind == SymbolKind::kInput, "unexpected symbol in tableau offset");
        const auto it = std::find(t.inputs_.begin(), t.inputs_.end(), s.name);
        AMSVP_CHECK(it != t.inputs_.end(), "unknown input in tableau offset");
        return static_cast<int>(it - t.inputs_.begin());
    };

    // KCL rows (one per non-ground node).
    for (NodeId n = 0; n < static_cast<NodeId>(circuit.node_count()); ++n) {
        if (n == circuit.ground()) {
            continue;
        }
        Row row;
        for (const Circuit::Incidence& inc : circuit.incident(n)) {
            row.coefficients.emplace_back(t.current_column(inc.branch),
                                          static_cast<double>(inc.sign));
        }
        t.rows_.push_back(std::move(row));
    }

    // Constitutive rows: lhs - rhs == 0, linear in branch quantities.
    for (BranchId b = 0; b < static_cast<BranchId>(circuit.branch_count()); ++b) {
        const expr::Equation& eq = circuit.dipole_equation(b);
        const ExprPtr constraint = expr::Expr::sub(eq.lhs, eq.rhs);
        auto form = LinearForm::extract(constraint, expr::branch_quantities_unknown());
        if (!form) {
            if (error != nullptr) {
                *error = "constitutive equation of branch '" + circuit.branch(b).name +
                         "' is not linear: " + eq.display();
            }
            return std::nullopt;
        }

        Row row;
        auto add_branch_quantity = [&](const Symbol& sym, double coeff, bool to_history) {
            // Map a branch quantity onto unknown columns: V(b) expands to the
            // node-potential difference, I(b) is a direct column.
            std::vector<std::pair<int, double>> cols;
            if (sym.kind == SymbolKind::kBranchVoltage) {
                const auto bid = circuit.find_branch(sym.name);
                AMSVP_CHECK(bid.has_value(), "unknown branch in equation");
                const netlist::Branch& br = circuit.branch(*bid);
                if (const int cp = t.node_column(br.pos); cp >= 0) {
                    cols.emplace_back(cp, coeff);
                }
                if (const int cn = t.node_column(br.neg); cn >= 0) {
                    cols.emplace_back(cn, -coeff);
                }
            } else {
                const auto bid = circuit.find_branch(sym.name);
                AMSVP_CHECK(bid.has_value(), "unknown branch in equation");
                cols.emplace_back(t.current_column(*bid), coeff);
            }
            auto& target = to_history ? row.history : row.coefficients;
            for (const auto& c : cols) {
                target.push_back(c);
            }
        };

        for (const auto& [key, coeff] : form->coefficients()) {
            if (!key.derivative) {
                add_branch_quantity(key.symbol, coeff, /*to_history=*/false);
            } else {
                // c * ddt(q) -> (c/h) q  - (c/h) q_prev
                const double ch = coeff / timestep;
                add_branch_quantity(key.symbol, ch, /*to_history=*/false);
                add_branch_quantity(key.symbol, ch, /*to_history=*/true);
            }
        }
        if (!form->offset()->is_constant(0.0)) {
            row.offset_slot = first_offset_slot + static_cast<int>(offsets.size());
            offsets.push_back({row.offset_slot, form->offset()});
        }
        t.rows_.push_back(std::move(row));
    }
    AMSVP_CHECK(t.rows_.size() == t.size_, "tableau row/column mismatch");

    const int file_size = first_offset_slot + static_cast<int>(offsets.size());
    t.offsets_ = expr::FusedProgram::compile(offsets, offset_resolver, file_size);
    t.offset_slots_.assign(static_cast<std::size_t>(file_size + t.offsets_.scratch_count()), 0.0);
    t.offsets_.initialize_constants(t.offset_slots_.data());
    return t;
}

void Tableau::stamp_matrix(numeric::Matrix& a) const {
    a.reset(size_, size_);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        for (const auto& [col, coeff] : rows_[r].coefficients) {
            a(r, static_cast<std::size_t>(col)) += coeff;
        }
    }
}

void Tableau::build_rhs(const numeric::Vector& x_prev, const std::vector<double>& input_values,
                        double time_seconds, numeric::Vector& b) {
    AMSVP_CHECK(x_prev.size() == size_, "previous solution size mismatch");
    AMSVP_CHECK(input_values.size() == inputs_.size(), "input value count mismatch");
    b.assign(size_, 0.0);

    // Only the inputs and time are written: the constant pool was written
    // once in build(), and build_rhs runs every analog timestep without
    // allocating.
    std::copy(input_values.begin(), input_values.end(), offset_slots_.begin());
    offset_slots_[inputs_.size()] = time_seconds;
    offsets_.execute(offset_slots_.data());

    for (std::size_t r = 0; r < rows_.size(); ++r) {
        double acc = 0.0;
        for (const auto& [col, coeff] : rows_[r].history) {
            acc += coeff * x_prev[static_cast<std::size_t>(col)];
        }
        if (rows_[r].offset_slot >= 0) {
            acc -= offset_slots_[static_cast<std::size_t>(rows_[r].offset_slot)];
        }
        b[r] = acc;
    }
}

double Tableau::node_voltage(const numeric::Vector& x, NodeId node) const {
    const int col = node_column(node);
    return col < 0 ? 0.0 : x[static_cast<std::size_t>(col)];
}

double Tableau::branch_voltage(const numeric::Vector& x, BranchId branch) const {
    const netlist::Branch& b = circuit_->branch(branch);
    return node_voltage(x, b.pos) - node_voltage(x, b.neg);
}

double Tableau::branch_current(const numeric::Vector& x, BranchId branch) const {
    return x[static_cast<std::size_t>(current_column(branch))];
}

}  // namespace amsvp::eln
