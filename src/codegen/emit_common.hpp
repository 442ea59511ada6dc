// Internal helpers shared by the three emitters. Not part of the public API.
//
// Since the FusedProgram became the single mid-level IR, the emitters no
// longer walk the raw expression trees: build_plan() compiles the model
// through runtime::ModelLayout and renders the optimized instruction
// stream as target-neutral C++ statements. Generated code
// therefore carries every optimization the interpreter has — constant
// folding, cross-assignment CSE, immediate/multiply-add superinstructions
// and kLinComb FMA chains — and, statement for statement, performs exactly
// the arithmetic the fused interpreter performs (each operation rounds
// separately; builds use -ffp-contract=off on both sides), so generated
// models and the fused interpreter are differentially comparable
// bit-for-bit, slot-for-slot.
#pragma once

#include <string>
#include <vector>

#include "abstraction/signal_flow_model.hpp"

namespace amsvp::codegen {
struct CodegenOptions;
}  // namespace amsvp::codegen

namespace amsvp::codegen::detail {

/// Pre-rendered pieces of a model, ready for any textual target.
struct EmitPlan {
    std::string type_name;
    double timestep = 0.0;
    std::vector<std::string> inputs;  ///< input identifiers, model order

    struct StateVar {
        std::string id;
        int depth;       ///< history slots: id_prev .. id_prev<depth>
        double initial;  ///< initial value for all history slots
        /// The current value is a model input (delayed-input reference):
        /// the input declaration already provides it, so emitters must
        /// only declare the history members.
        bool is_input = false;
    };
    /// Every assigned or input symbol that is referenced with a delay.
    std::vector<StateVar> states;

    /// Scratch-register declarations opening the step body ("double _t0 = 0;").
    /// The fused compiler's liveness pass already compacted these onto a
    /// small recycled pool, so the local frame stays register-resident.
    std::vector<std::string> scratch_locals;
    /// One statement per fused instruction, in program order. Model slots
    /// render as named variables, pooled constants as literals, scratch
    /// registers as the locals above; kLinComb renders as one FMA chain.
    std::vector<std::string> assignments;
    /// History rotation statements, deepest first.
    std::vector<std::string> rotations;
    /// Non-state assignment targets that still need member declarations.
    std::vector<std::string> plain_members;
    std::vector<std::string> outputs;  ///< output identifiers
    bool uses_time = false;

    /// Model slot index -> variable name, dense over the runtime layout's
    /// model_slot_count() prefix ($abstime renders as "_abstime"). Drives
    /// the optional slot_value() accessor used for slot-for-slot
    /// differentials against the in-process runtime.
    std::vector<std::string> slot_names;
};

[[nodiscard]] EmitPlan build_plan(const abstraction::SignalFlowModel& model,
                                  const CodegenOptions& options);

/// "name_prev" / "name_prev2" — matches the kCpp expression printer.
[[nodiscard]] std::string history_name(const std::string& id, int delay);

/// Provenance header comment shared by all targets.
[[nodiscard]] std::string provenance_comment(const abstraction::SignalFlowModel& model,
                                             std::string_view target_name);

/// The slot_value(int) switch body over `slot_names` (shared by the plain
/// C++ emitter and the native wrapper).
[[nodiscard]] std::string slot_accessor_body(const EmitPlan& plan, std::string_view indent);

}  // namespace amsvp::codegen::detail
