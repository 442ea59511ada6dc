// FusedProgram -> LLVM IR lowering (the front half of the in-process ORC
// JIT backend in orc_jit.hpp).
//
// The fused instruction stream is already a flat three-address IR over a
// strided slot file, so lowering is a 1:1 translation: every FusedOp —
// including the mul-add / immediate superinstructions and kLinComb —
// becomes the exact same arithmetic the interpreter executes, as one
// operation per row. The row width picks one of two kernels, each the only
// function of its module:
//
//   void amsvp_orc_step_batch(double* slots, int batch)   // row width
//                                  // runtime::LaneLayout::kVectorRow
//   void amsvp_orc_step(double* slots)                     // row width 1
//
// Both write nothing but the slot file: the batch kernel runs the program
// as <kVectorRow x double> operations in an explicit loop over every padded
// row (ghost lanes computed, never observed), the scalar kernel once over
// an unpadded slot file of doubles; then history rotates (llvm.memcpy,
// deepest row first) exactly like BatchCompiledModel::step and
// CompiledModel::step. The caller writes inputs and the $abstime slot
// first.
//
// Load/store contract (checked by analysis::verify_orc_lowering on the IR
// before the pass pipeline): each row iteration stores every instruction's
// row exactly once and loads a slot's row at most once — only the
// upward-exposed slots, read before any write in the step, are loaded; a
// slot already defined or loaded in the iteration is reused as its SSA
// value. The slot file, scratch rows included, is therefore bit-identical
// to the interpreter's after every step.
//
// Bit-exactness contract (the acceptance bar is bit-for-bit equality with
// the fused interpreter): no fast-math flags anywhere, no `contract` flags
// (the in-IR analogue of the -ffp-contract=off the interpreter and the
// generated C++ build with — LLVM only forms FMAs when the flags allow
// it), libm calls (exp/log/log10/sin/cos/tan/pow) emitted as plain
// declared calls marked nobuiltin so the pass pipeline cannot substitute
// approximations, and ORC resolves them against this process's own libm —
// the very functions the interpreter calls. sqrt and fabs lower to the
// IEEE-exact llvm intrinsics; min/max/comparisons/select reproduce the
// interpreter's exact predicate forms (including NaN behavior).
//
// This header is LLVM-free: when the library is built without LLVM
// (AMSVP_WITH_LLVM=OFF) the implementations degrade to "unavailable"
// stubs and sweeps run on the fused interpreter.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "runtime/model_layout.hpp"

namespace amsvp::codegen {

/// Human-readable LLVM version the library was built against ("14.0.6"),
/// or "none" without LLVM (tool banners, diagnostics).
[[nodiscard]] std::string llvm_backend_version();

/// IR text of one lowered model, before and after the fixed pass
/// pipeline — the debugging surface behind `codegen_tool --backend orc`.
struct LoweredIrText {
    std::string unoptimized;  ///< straight out of the lowering pass
    std::string optimized;    ///< after the fixed pass pipeline
};

/// Lower `layout`'s fused program at `row_width` (runtime::LaneLayout::
/// kVectorRow: the batch kernel; 1: the scalar kernel) and run the pass
/// pipeline — the same prelude OrcJitProgram::compile and
/// OrcScalarProgram::compile materialize — returning both IR printouts. Returns
/// nullopt with `error` set when built without LLVM or when
/// lowering/verification fails.
[[nodiscard]] std::optional<LoweredIrText> lower_to_ir_text(
    const std::shared_ptr<const runtime::ModelLayout>& layout, int row_width,
    std::string* error = nullptr);

}  // namespace amsvp::codegen
