#include "eln/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "expr/linear_form.hpp"
#include "support/check.hpp"
#include "support/strings.hpp"

namespace amsvp::eln {

using expr::Symbol;
using expr::SymbolKind;
using netlist::BranchId;

ElnEngine::ElnEngine(const netlist::Circuit& circuit, double timestep)
    : tableau_(circuit), timestep_(timestep), inputs_(circuit.input_names()) {
    if (!(std::isfinite(timestep) && timestep > 0.0)) {
        throw std::invalid_argument("ELN: timestep must be positive and finite, got " +
                                    support::format_double(timestep));
    }
    const std::size_t n = tableau_.size();
    numeric::Matrix a(n, n);
    const auto add_to_matrix = [&a](std::size_t r, const netlist::Tableau::Row& coefficients) {
        for (const auto& [col, coeff] : coefficients) {
            a(r, static_cast<std::size_t>(col)) += coeff;
        }
    };

    // KCL rows: constant entries only.
    for (const netlist::Tableau::Row& kcl : tableau_.kcl_rows()) {
        add_to_matrix(rows_.size(), kcl);
        rows_.emplace_back();
    }

    // Offsets read [inputs..., time] and land in one slot per row after them.
    const int first_offset_slot = static_cast<int>(inputs_.size()) + 1;
    std::vector<expr::FusedProgram::AssignmentSpec> offsets;
    const expr::SlotResolver offset_resolver = [this](const Symbol& s, int delay) -> int {
        AMSVP_CHECK(delay == 0, "ELN offsets cannot reference history");
        if (s.kind == SymbolKind::kTime) {
            return static_cast<int>(inputs_.size());
        }
        AMSVP_CHECK(s.kind == SymbolKind::kInput, "unexpected symbol in ELN offset");
        const auto it = std::find(inputs_.begin(), inputs_.end(), s.name);
        AMSVP_CHECK(it != inputs_.end(), "unknown input in ELN offset");
        return static_cast<int>(it - inputs_.begin());
    };

    // Constitutive rows: lhs - rhs == 0, linear in branch quantities.
    for (BranchId b = 0; b < static_cast<BranchId>(circuit.branch_count()); ++b) {
        const auto form =
            expr::LinearForm::extract(tableau_.constraint(b), expr::branch_quantities_unknown());
        if (!form) {
            throw std::invalid_argument("ELN: constitutive equation of branch '" +
                                        circuit.branch(b).name +
                                        "' is not linear: " + circuit.dipole_equation(b).display());
        }
        netlist::Tableau::Row coefficients;
        Row row;
        for (const auto& [key, coeff] : form->coefficients()) {
            if (!key.derivative) {
                tableau_.stamp(key.symbol, coeff, coefficients);
            } else {
                // c * ddt(q) -> (c/h) q  - (c/h) q_prev
                const double ch = coeff / timestep;
                tableau_.stamp(key.symbol, ch, coefficients);
                tableau_.stamp(key.symbol, ch, row.history);
            }
        }
        if (!form->offset()->is_constant(0.0)) {
            row.offset_slot = first_offset_slot + static_cast<int>(offsets.size());
            offsets.push_back({row.offset_slot, form->offset()});
        }
        add_to_matrix(rows_.size(), coefficients);
        rows_.push_back(std::move(row));
    }

    auto lu = numeric::LuFactorization::factorise(a);
    if (!lu) {
        throw std::invalid_argument("ELN: system matrix of circuit '" + circuit.name() +
                                    "' is singular");
    }
    lu_ = std::move(*lu);

    const int file_size = first_offset_slot + static_cast<int>(offsets.size());
    offsets_ = expr::FusedProgram::compile(offsets, offset_resolver, file_size);
    offset_slots_.assign(static_cast<std::size_t>(file_size + offsets_.scratch_count()), 0.0);
    offsets_.initialize_constants(offset_slots_.data());
    x_.assign(n, 0.0);
    b_.assign(n, 0.0);
}

void ElnEngine::reset() {
    x_.assign(tableau_.size(), 0.0);
    steps_ = 0;
}

void ElnEngine::step(const std::vector<double>& input_values, double time_seconds) {
    AMSVP_CHECK(input_values.size() == inputs_.size(), "input value count mismatch");
    // Only the inputs and time are written: the constant pool was written
    // once at construction, and a step runs every analog timestep without
    // allocating.
    std::copy(input_values.begin(), input_values.end(), offset_slots_.begin());
    offset_slots_[inputs_.size()] = time_seconds;
    offsets_.execute(offset_slots_.data());

    for (std::size_t r = 0; r < rows_.size(); ++r) {
        double acc = 0.0;
        for (const auto& [col, coeff] : rows_[r].history) {
            acc += coeff * x_[static_cast<std::size_t>(col)];
        }
        if (rows_[r].offset_slot >= 0) {
            acc -= offset_slots_[static_cast<std::size_t>(rows_[r].offset_slot)];
        }
        b_[r] = acc;
    }
    lu_.solve_in_place(b_);
    x_.swap(b_);
    ++steps_;
}

double ElnEngine::node_voltage(std::string_view node_name) const {
    return tableau_.node_potential(x_, tableau_.circuit().observed_node(node_name, "ELN"));
}

double ElnEngine::branch_current(std::string_view branch_name) const {
    return tableau_.branch_current(x_, tableau_.circuit().observed_branch(branch_name, "ELN"));
}

double ElnEngine::voltage_between(std::string_view pos, std::string_view neg) const {
    return node_voltage(pos) - node_voltage(neg);
}

double ElnEngine::voltage_between(netlist::NodeId pos, netlist::NodeId neg) const {
    return tableau_.node_potential(x_, pos) - tableau_.node_potential(x_, neg);
}

ElnDeModule::ElnDeModule(de::Simulator& sim, const netlist::Circuit& circuit, double timestep,
                         std::map<std::string, numeric::SourceFunction> stimuli,
                         std::string observed_pos, std::string observed_neg)
    : sim_(sim),
      engine_(circuit, timestep),
      pos_(circuit.observed_node(observed_pos, "ELN")),
      neg_(circuit.observed_node(observed_neg, "ELN")),
      trace_(timestep, timestep),
      period_(de::from_seconds(timestep)) {
    for (const std::string& name : engine_.input_names()) {
        sources_.push_back(numeric::stimulus_for(stimuli, name));
    }
    input_scratch_.assign(sources_.size(), 0.0);
    output_ = std::make_unique<de::Signal<double>>(sim, "eln_out", 0.0);
    sim_.schedule_periodic(sim_.now() + period_, period_, [this] { activate(); });
}

void ElnDeModule::activate() {
    const double t = de::to_seconds(sim_.now());
    // Reused member buffer: activations run once per analog timestep and
    // must not allocate.
    for (std::size_t i = 0; i < sources_.size(); ++i) {
        input_scratch_[i] = sources_[i](t);
    }
    engine_.step(input_scratch_, t);
    const double v = engine_.voltage_between(pos_, neg_);
    output_->write(v);
    trace_.append(v);
}

}  // namespace amsvp::eln
