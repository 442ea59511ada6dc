// Direct conversion of signal-flow Verilog-AMS descriptions (Eq. 1 of the
// paper): "finding a C++/SystemC counterpart of the syntax elements and
// writing the translated equations in the same order as their original
// counterparts appear" (Section III-C).
//
// Statements are translated one-to-one; ddt()/idt() become finite-difference
// updates with auxiliary state, references to variables not yet assigned in
// the current step read the previous step's value (the C++ assignment
// semantics the paper leans on).
#pragma once

#include <optional>

#include "abstraction/abstraction.hpp"
#include "abstraction/signal_flow_model.hpp"
#include "support/diagnostics.hpp"
#include "vams/ast.hpp"

namespace amsvp::abstraction {

/// Convert a pure signal-flow module (vams::is_signal_flow must hold).
/// Problems are reported through `diagnostics`; returns nullopt on error.
[[nodiscard]] std::optional<SignalFlowModel> convert_signal_flow(
    const vams::Module& module, const AbstractionOptions& options,
    support::DiagnosticEngine& diagnostics);

}  // namespace amsvp::abstraction
