// Step 4 of the flow (Section IV-D): code generation.
//
// Three targets, matching the paper's evaluation rows:
//  * plain C++     — dependency-free struct with a step() method (Fig. 7b);
//  * SystemC-DE    — an SC_MODULE with a clocked process over sc_signal ports;
//  * SystemC-AMS   — an SCA_TDF_MODULE with set_timestep / processing().
//
// The C++ target is directly compilable (integration tests build and run it
// with the system compiler); the SystemC targets emit source for the
// standard OSCI APIs so they can be dropped into an existing virtual
// platform. In-tree simulation of DE/TDF backends does not go through
// generated text: the kernels execute the SignalFlowModel directly, so
// backend benchmarks compare kernel overhead, not codegen fidelity.
//
// All three emitters render the *fused register-machine program* — the same
// mid-level IR the in-process interpreter executes — not the raw expression
// trees. Generated code therefore carries constant folding, cross-assignment
// CSE, multiply-add superinstructions and linear-combination FMA chains, and
// (compiled with -ffp-contract=off) reproduces the fused interpreter
// bit-for-bit.
#pragma once

#include <memory>
#include <string>

#include "abstraction/signal_flow_model.hpp"

namespace amsvp::runtime {
class ModelLayout;
}  // namespace amsvp::runtime

namespace amsvp::codegen {

enum class Target {
    kCpp,
    kSystemCDe,
    kSystemCAmsTdf,
};

[[nodiscard]] std::string_view to_string(Target target);

struct CodegenOptions {
    /// Class / module name; empty derives one from the model name.
    std::string type_name;
    /// C++ target only: emit a `double slot_value(int) const` accessor that
    /// exposes the model's slot file (runtime ModelLayout order), so a
    /// compiled generated model can be compared against the in-process
    /// fused interpreter slot-for-slot. Also forces the `_abstime` member
    /// so the time slot is observable.
    bool slot_accessor = false;
    /// Pre-compiled layout to render (must be the fused compile of the
    /// model being emitted). When null the emitter compiles one itself;
    /// passing the layout lets a caller that also checks or executes
    /// against it — `codegen_tool --verify`, the conformance tests — share
    /// a single compile, making the emitted slot indices and the runtime
    /// layout the same object by construction.
    std::shared_ptr<const runtime::ModelLayout> layout;
};

/// Generate source text for the requested target.
[[nodiscard]] std::string generate(const abstraction::SignalFlowModel& model, Target target,
                                   const CodegenOptions& options = {});

/// Individual emitters (generate() dispatches to these).
[[nodiscard]] std::string emit_cpp(const abstraction::SignalFlowModel& model,
                                   const CodegenOptions& options);
[[nodiscard]] std::string emit_systemc_de(const abstraction::SignalFlowModel& model,
                                          const CodegenOptions& options);
[[nodiscard]] std::string emit_systemc_tdf(const abstraction::SignalFlowModel& model,
                                           const CodegenOptions& options);

/// Sanitised default type name for a model ("rc1_model").
[[nodiscard]] std::string default_type_name(const abstraction::SignalFlowModel& model);

}  // namespace amsvp::codegen
