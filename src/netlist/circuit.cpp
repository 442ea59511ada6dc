#include "netlist/circuit.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/check.hpp"

namespace amsvp::netlist {

std::string_view to_string(DeviceKind kind) {
    switch (kind) {
        case DeviceKind::kResistor:
            return "resistor";
        case DeviceKind::kCapacitor:
            return "capacitor";
        case DeviceKind::kInductor:
            return "inductor";
        case DeviceKind::kVoltageSource:
            return "vsource";
        case DeviceKind::kCurrentSource:
            return "isource";
        case DeviceKind::kVcvs:
            return "vcvs";
        case DeviceKind::kVccs:
            return "vccs";
        case DeviceKind::kProbe:
            return "probe";
        case DeviceKind::kGeneric:
            return "generic";
    }
    return "unknown";
}

NodeId Circuit::add_node(std::string node_name) {
    AMSVP_CHECK(!find_node(node_name).has_value(), "duplicate node name");
    nodes_.push_back(Node{std::move(node_name)});
    return static_cast<NodeId>(nodes_.size() - 1);
}

std::optional<NodeId> Circuit::find_node(std::string_view node_name) const {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].name == node_name) {
            return static_cast<NodeId>(i);
        }
    }
    return std::nullopt;
}

NodeId Circuit::observed_node(std::string_view node_name, std::string_view who) const {
    if (const auto node = find_node(node_name)) {
        return *node;
    }
    throw std::invalid_argument(std::string(who) + ": unknown observed node '" +
                                std::string(node_name) + "'");
}

NodeId Circuit::node(std::string_view node_name) {
    if (auto existing = find_node(node_name)) {
        return *existing;
    }
    return add_node(std::string(node_name));
}

BranchId Circuit::add_branch(Branch branch, expr::Equation dipole_equation) {
    AMSVP_CHECK(branch.pos >= 0 && branch.pos < static_cast<NodeId>(nodes_.size()),
                "branch positive terminal out of range");
    AMSVP_CHECK(branch.neg >= 0 && branch.neg < static_cast<NodeId>(nodes_.size()),
                "branch negative terminal out of range");
    AMSVP_CHECK(!find_branch(branch.name).has_value(), "duplicate branch name");
    branches_.push_back(std::move(branch));
    equations_.push_back(std::move(dipole_equation));
    return static_cast<BranchId>(branches_.size() - 1);
}

const Node& Circuit::node_info(NodeId id) const {
    AMSVP_CHECK(id >= 0 && id < static_cast<NodeId>(nodes_.size()), "node id out of range");
    return nodes_[static_cast<std::size_t>(id)];
}

const Branch& Circuit::branch(BranchId id) const {
    AMSVP_CHECK(id >= 0 && id < static_cast<BranchId>(branches_.size()), "branch id out of range");
    return branches_[static_cast<std::size_t>(id)];
}

const expr::Equation& Circuit::dipole_equation(BranchId id) const {
    AMSVP_CHECK(id >= 0 && id < static_cast<BranchId>(equations_.size()),
                "branch id out of range");
    return equations_[static_cast<std::size_t>(id)];
}

void Circuit::set_equation_rhs(BranchId id, expr::ExprPtr rhs) {
    AMSVP_CHECK(id >= 0 && id < static_cast<BranchId>(equations_.size()),
                "branch id out of range");
    equations_[static_cast<std::size_t>(id)].rhs = std::move(rhs);
}

Branch& Circuit::mutable_branch(BranchId id) {
    AMSVP_CHECK(id >= 0 && id < static_cast<BranchId>(branches_.size()), "branch id out of range");
    return branches_[static_cast<std::size_t>(id)];
}

void Circuit::set_ground(NodeId id) {
    AMSVP_CHECK(id >= 0 && id < static_cast<NodeId>(nodes_.size()), "ground id out of range");
    ground_ = id;
}

std::vector<std::string> Circuit::input_names() const {
    std::vector<std::string> out;
    for (const Branch& b : branches_) {
        if (!b.input.empty() && std::find(out.begin(), out.end(), b.input) == out.end()) {
            out.push_back(b.input);
        }
    }
    return out;
}

std::vector<Circuit::Incidence> Circuit::incident(NodeId node) const {
    std::vector<Incidence> out;
    for (std::size_t i = 0; i < branches_.size(); ++i) {
        const Branch& b = branches_[i];
        if (b.pos == node) {
            out.push_back({static_cast<BranchId>(i), +1});
        } else if (b.neg == node) {
            out.push_back({static_cast<BranchId>(i), -1});
        }
    }
    return out;
}

std::optional<BranchId> Circuit::find_branch_between(NodeId a, NodeId b) const {
    for (std::size_t i = 0; i < branches_.size(); ++i) {
        const Branch& br = branches_[i];
        if ((br.pos == a && br.neg == b) || (br.pos == b && br.neg == a)) {
            return static_cast<BranchId>(i);
        }
    }
    return std::nullopt;
}

std::optional<BranchId> Circuit::find_branch(std::string_view branch_name) const {
    for (std::size_t i = 0; i < branches_.size(); ++i) {
        if (branches_[i].name == branch_name) {
            return static_cast<BranchId>(i);
        }
    }
    return std::nullopt;
}

BranchId Circuit::observed_branch(std::string_view branch_name, std::string_view who) const {
    if (const auto branch = find_branch(branch_name)) {
        return *branch;
    }
    throw std::invalid_argument(std::string(who) + ": unknown observed branch '" +
                                std::string(branch_name) + "'");
}

std::vector<std::string> Circuit::validate() const {
    std::vector<std::string> problems;
    if (!has_ground()) {
        problems.push_back("no ground node designated");
    }
    for (const Branch& b : branches_) {
        if (b.pos == b.neg) {
            problems.push_back("branch '" + b.name + "' is a self-loop");
        }
    }
    if (!nodes_.empty()) {
        // Connectivity check via BFS over the undirected graph.
        std::vector<bool> seen(nodes_.size(), false);
        std::vector<NodeId> queue{0};
        seen[0] = true;
        while (!queue.empty()) {
            const NodeId n = queue.back();
            queue.pop_back();
            for (const Incidence& inc : incident(n)) {
                const Branch& b = branch(inc.branch);
                const NodeId other = (b.pos == n) ? b.neg : b.pos;
                if (!seen[static_cast<std::size_t>(other)]) {
                    seen[static_cast<std::size_t>(other)] = true;
                    queue.push_back(other);
                }
            }
        }
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (!seen[i]) {
                problems.push_back("node '" + nodes_[i].name + "' is disconnected");
            }
        }
    }
    return problems;
}

std::string Circuit::describe() const {
    std::string out = "circuit " + name_ + ": " + std::to_string(nodes_.size()) + " nodes, " +
                      std::to_string(branches_.size()) + " branches\n";
    for (std::size_t i = 0; i < branches_.size(); ++i) {
        const Branch& b = branches_[i];
        out += "  " + b.name + " (" + std::string(to_string(b.kind)) + "): " +
               nodes_[static_cast<std::size_t>(b.pos)].name + " -> " +
               nodes_[static_cast<std::size_t>(b.neg)].name + "   " + equations_[i].display() +
               "\n";
    }
    return out;
}

}  // namespace amsvp::netlist
