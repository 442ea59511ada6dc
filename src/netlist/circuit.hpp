// Conservative circuit representation: the graph G = (N, B) of Section IV-A.
//
// A Circuit owns the node/branch topology plus one constitutive (dipole)
// equation per branch. It is produced either programmatically through
// CircuitBuilder or by elaborating a Verilog-AMS module, and consumed by
//  * the abstraction pipeline (which adds Kirchhoff equations), and
//  * the sparse tableau (netlist/tableau.hpp) that the two conservative
//    engines, SPICE and ELN, both build from.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "expr/equation.hpp"

namespace amsvp::netlist {

using NodeId = int;
using BranchId = int;

/// Device classification. The abstraction pipeline treats every branch as a
/// generic dipole equation (the paper's "arbitrary set of constitutive
/// equations"); the kind is kept for netlist reporting and for engines that
/// want device-aware behaviour.
enum class DeviceKind {
    kResistor,
    kCapacitor,
    kInductor,
    kVoltageSource,
    kCurrentSource,
    kVcvs,   ///< voltage-controlled voltage source
    kVccs,   ///< voltage-controlled current source
    kProbe,  ///< open branch (I = 0) inserted to observe a node-pair voltage
    kGeneric,
};

[[nodiscard]] std::string_view to_string(DeviceKind kind);

struct Node {
    std::string name;
};

/// An oriented branch: positive terminal `pos`, negative terminal `neg`.
/// V(b) = potential(pos) - potential(neg); I(b) flows from pos to neg
/// through the device (associated reference directions).
struct Branch {
    std::string name;
    NodeId pos = -1;
    NodeId neg = -1;
    DeviceKind kind = DeviceKind::kGeneric;
    double value = 0.0;               ///< R / C / L / gain, when meaningful
    BranchId control = -1;            ///< controlling branch for VCVS/VCCS
    std::string input;                ///< stimulus name for sources driven by U(t)

    [[nodiscard]] expr::Symbol voltage_symbol() const { return expr::branch_voltage(name); }
    [[nodiscard]] expr::Symbol current_symbol() const { return expr::branch_current(name); }
};

class Circuit {
public:
    explicit Circuit(std::string name = "circuit") : name_(std::move(name)) {}

    [[nodiscard]] const std::string& name() const { return name_; }

    NodeId add_node(std::string node_name);
    /// Find by name; creates nothing.
    [[nodiscard]] std::optional<NodeId> find_node(std::string_view node_name) const;
    /// Find a node a caller asked to observe, or throw std::invalid_argument
    /// "<who>: unknown observed node '<name>'". Engines resolve observed
    /// names once, before stepping, and read voltages by id.
    [[nodiscard]] NodeId observed_node(std::string_view node_name, std::string_view who) const;
    /// Find or create.
    NodeId node(std::string_view node_name);

    /// Add a branch along with its constitutive equation.
    BranchId add_branch(Branch branch, expr::Equation dipole_equation);

    [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
    [[nodiscard]] std::size_t branch_count() const { return branches_.size(); }

    [[nodiscard]] const Node& node_info(NodeId id) const;
    [[nodiscard]] const Branch& branch(BranchId id) const;
    [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
    [[nodiscard]] const std::vector<Branch>& branches() const { return branches_; }

    /// The dipole equation of branch `id`.
    [[nodiscard]] const expr::Equation& dipole_equation(BranchId id) const;

    /// Replace the right-hand side of a branch equation (used by elaboration
    /// to resolve access-function placeholders after all branches exist).
    void set_equation_rhs(BranchId id, expr::ExprPtr rhs);

    /// Mutable branch access for post-construction classification.
    [[nodiscard]] Branch& mutable_branch(BranchId id);
    [[nodiscard]] const std::vector<expr::Equation>& dipole_equations() const {
        return equations_;
    }

    void set_ground(NodeId id);
    [[nodiscard]] NodeId ground() const { return ground_; }
    [[nodiscard]] bool has_ground() const { return ground_ >= 0; }

    /// Names of external stimuli referenced by source branches, in first-use
    /// order.
    [[nodiscard]] std::vector<std::string> input_names() const;

    /// Branches incident to `node` with their orientation sign: +1 when the
    /// branch leaves the node (node == pos), -1 when it enters.
    struct Incidence {
        BranchId branch;
        int sign;
    };
    [[nodiscard]] std::vector<Incidence> incident(NodeId node) const;

    /// First branch whose terminals are exactly {a, b} in either orientation.
    [[nodiscard]] std::optional<BranchId> find_branch_between(NodeId a, NodeId b) const;
    [[nodiscard]] std::optional<BranchId> find_branch(std::string_view branch_name) const;
    /// Find a branch a caller asked to read, or throw std::invalid_argument
    /// "<who>: unknown observed branch '<name>'" (observed_node's counterpart).
    [[nodiscard]] BranchId observed_branch(std::string_view branch_name,
                                           std::string_view who) const;

    /// Structural validation: ground present, all terminals valid, graph
    /// connected, no self-loop branches. Returns problems as text (empty when
    /// valid).
    [[nodiscard]] std::vector<std::string> validate() const;

    /// Multi-line human-readable netlist report.
    [[nodiscard]] std::string describe() const;

private:
    std::string name_;
    std::vector<Node> nodes_;
    std::vector<Branch> branches_;
    std::vector<expr::Equation> equations_;  // parallel to branches_
    NodeId ground_ = -1;
};

}  // namespace amsvp::netlist
