// Conservative transient engine — the ELDO / SPICE stand-in that simulates
// the original Verilog-AMS description without any abstraction.
//
// Per timestep it does what an analog solver does (and what makes it slow,
// per the paper's Section III-B and [5]):
//   1. device evaluation: every constitutive equation's residual is
//      re-evaluated,
//   2. the full system matrix is re-stamped and LU-factorised,
//   3. Newton-Raphson iterates until the update norm converges (linear
//      circuits converge after one solve; a second iteration verifies).
//
// The rows are the circuit's sparse tableau (netlist/tableau.hpp), which the
// ELN engine builds from too. Non-linear constitutive equations are supported
// through numeric finite-difference Jacobian rows.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "expr/fused.hpp"
#include "netlist/tableau.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/sources.hpp"
#include "numeric/waveform.hpp"

namespace amsvp::spice {

/// SpiceEngine::create rejects a timestep that is not positive and finite,
/// internal_substeps below 1 and max_iterations below 2.
struct SpiceOptions {
    double timestep = 50e-9;       ///< external sampling / synchronization step
    /// Internal refinement: the analog solver advances `internal_substeps`
    /// backward-Euler steps per external step, like a real transient engine
    /// choosing its own (finer) timestep. This is also what gives the
    /// conservative reference a different discretization error than the
    /// abstracted models (the NRMSE column of Table I).
    int internal_substeps = 8;
    int max_iterations = 50;  ///< Newton iterations before a step fails
};

struct SpiceStats {
    std::uint64_t steps = 0;
    std::uint64_t newton_iterations = 0;
    std::uint64_t factorizations = 0;
    std::uint64_t device_evaluations = 0;
};

class SpiceEngine {
public:
    /// Fails (error set) when an equation references unsupported constructs
    /// (idt), when `options.timestep` is not positive and finite, when
    /// `internal_substeps` is below 1, or when `max_iterations` is below 2
    /// (every step re-verifies convergence with a second iteration). Throws
    /// std::invalid_argument when the circuit has no ground node. Keeps a
    /// pointer to `circuit`.
    [[nodiscard]] static std::optional<SpiceEngine> create(const netlist::Circuit& circuit,
                                                           const SpiceOptions& options,
                                                           std::string* error = nullptr);

    [[nodiscard]] const std::vector<std::string>& input_names() const { return inputs_; }
    [[nodiscard]] double timestep() const { return options_.timestep; }
    [[nodiscard]] const SpiceStats& stats() const { return stats_; }

    void reset();

    /// Advance one external step (= internal_substeps solver steps) with the
    /// inputs held constant (zero-order hold, as in co-simulation). Returns
    /// false when Newton fails to converge: a singular Jacobian, a
    /// non-finite residual or update, or max_iterations spent.
    [[nodiscard]] bool step(const std::vector<double>& input_values, double time_seconds);

    /// One internal solver step of size timestep/internal_substeps, with
    /// freshly sampled inputs (used by isolated transient runs where the
    /// solver owns the testbench).
    [[nodiscard]] bool substep(const std::vector<double>& input_values, double time_seconds);

    /// By-name reads throw std::invalid_argument naming an unknown node or
    /// branch.
    [[nodiscard]] double node_voltage(std::string_view node_name) const;
    [[nodiscard]] double branch_current(std::string_view branch_name) const;
    [[nodiscard]] double voltage_between(std::string_view pos, std::string_view neg) const;
    /// Same, by node id (Circuit::observed_node): no name lookup per call.
    [[nodiscard]] double voltage_between(netlist::NodeId pos, netlist::NodeId neg) const;

    /// Convenience: full transient run observing one node-pair voltage.
    /// Throws std::invalid_argument naming an observed node the circuit
    /// does not have, before the first step, and std::runtime_error naming
    /// the simulated time of a substep whose Newton iteration fails.
    [[nodiscard]] numeric::Waveform run_transient(
        const std::map<std::string, numeric::SourceFunction>& stimuli, double duration,
        std::string_view observed_pos, std::string_view observed_neg);

private:
    SpiceEngine(const netlist::Circuit& circuit, const SpiceOptions& options);

    /// Slot file of the residual program: [V(b) per branch | I(b) per
    /// branch | V_prev(b) | I_prev(b) | inputs | time | one residual per
    /// row | scratch and constant pool]. Every row's residual is one
    /// assignment of `program_`, written to its own row slot.
    [[nodiscard]] int slot_of_voltage(netlist::BranchId b, bool prev) const;
    [[nodiscard]] int slot_of_current(netlist::BranchId b, bool prev) const;

    void fill_slots(const numeric::Vector& x, const numeric::Vector& x_prev,
                    const std::vector<double>& input_values, double time_seconds);
    void evaluate_residual(const numeric::Vector& x, const numeric::Vector& x_prev,
                           const std::vector<double>& input_values, double time_seconds,
                           numeric::Vector& f);
    /// `f` is the residual evaluate_residual() computed at the same `x`;
    /// finite-difference rows take their unperturbed value from it.
    void stamp_jacobian(const numeric::Vector& x, const numeric::Vector& x_prev,
                        const std::vector<double>& input_values, double time_seconds,
                        const numeric::Vector& f, numeric::Matrix& j);

    netlist::Tableau tableau_;
    SpiceOptions options_;
    std::vector<std::string> inputs_;

    struct Row {
        bool linear = false;              ///< static Jacobian available
        netlist::Tableau::Row jacobian;   ///< linear rows
        std::vector<int> depends_on;      ///< columns (nonlinear FD rows)
    };
    std::vector<Row> rows_;
    expr::FusedProgram program_;
    std::size_t row_slot_base_ = 0;  ///< slot of row 0's residual
    std::vector<double> slots_;

    numeric::Vector x_;
    numeric::Vector x_prev_;
    /// Newton scratch, reused across iterations and steps (like the ELN
    /// engine's member buffers): the per-step refactorisation is the paper's
    /// cost model, the allocations around it are not.
    numeric::Matrix jacobian_scratch_;
    numeric::Vector residual_scratch_;
    numeric::Vector fd_x_scratch_;
    numeric::LuFactorization lu_scratch_;
    SpiceStats stats_;
};

}  // namespace amsvp::spice
