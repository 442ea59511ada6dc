// Co-simulation coupler — the Questa-ADMS stand-in.
//
// Emulates the structure (and therefore the cost) of coupling a digital
// event-driven simulator with an external analog solver, the configuration
// the paper's Table I/III "Verilog-AMS" rows measure:
//  * the analog engine keeps its own local time and internal state,
//  * every analog timestep requires a synchronization point in the digital
//    kernel: inputs are marshalled into a message buffer, control transfers
//    to the analog solver, results are marshalled back and committed to
//    digital channels,
//  * a handshake with sequence numbers guards the exchange, as a real
//    inter-simulator backplane does.
//
// Removing exactly this per-step synchronization is the first speed-up the
// paper's conversion flow claims; the coupler makes that cost measurable
// instead of assumed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "de/kernel.hpp"
#include "de/signal.hpp"
#include "numeric/sources.hpp"
#include "numeric/waveform.hpp"
#include "spice/engine.hpp"

namespace amsvp::cosim {

struct CosimStats {
    std::uint64_t sync_points = 0;
    std::uint64_t bytes_marshalled = 0;
    std::uint64_t handshakes = 0;
};

class CosimCoupler {
public:
    /// Couple `circuit` (simulated by the conservative engine) to `sim`.
    /// Stimuli provide the analog input values; the voltage between
    /// `observed_pos`/`observed_neg` is published to a digital signal at
    /// every synchronization point. Throws std::invalid_argument when the
    /// conservative engine cannot be created for `circuit`, when an observed
    /// node is not in `circuit`, or when an input has no stimulus. A
    /// synchronization point whose analog step fails to converge throws
    /// std::runtime_error naming the simulated time, out of the kernel run.
    CosimCoupler(de::Simulator& sim, const netlist::Circuit& circuit,
                 const spice::SpiceOptions& options,
                 std::map<std::string, numeric::SourceFunction> stimuli,
                 std::string observed_pos, std::string observed_neg);

    [[nodiscard]] de::Signal<double>& output() { return *output_; }
    [[nodiscard]] const numeric::Waveform& trace() const { return trace_; }
    [[nodiscard]] const CosimStats& stats() const { return stats_; }
    [[nodiscard]] const spice::SpiceEngine& engine() const { return *engine_; }

private:
    void synchronize();

    /// Marshalled message exchanged with the "external" solver.
    struct Message {
        std::uint64_t sequence = 0;
        std::vector<std::byte> payload;
    };
    void marshal(const std::vector<double>& values, Message& msg);
    void unmarshal(const Message& msg, std::vector<double>& values);

    de::Simulator& sim_;
    std::unique_ptr<spice::SpiceEngine> engine_;
    std::vector<numeric::SourceFunction> sources_;
    netlist::NodeId pos_ = -1;  ///< observed nodes, resolved once
    netlist::NodeId neg_ = -1;
    std::unique_ptr<de::Signal<double>> output_;
    numeric::Waveform trace_;
    de::Time period_;
    std::uint64_t sequence_ = 0;
    Message to_analog_;
    Message from_analog_;
    /// Reused per-sync scratch: marshalling still copies every byte (that is
    /// the cost being modelled) but does not allocate in steady state.
    std::vector<double> inputs_scratch_;
    std::vector<double> analog_inputs_scratch_;
    std::vector<double> observations_scratch_;
    std::vector<double> results_scratch_;
    CosimStats stats_;
};

}  // namespace amsvp::cosim
