// Internal LLVM-facing surface of the lowering pass, shared by
// llvm_lowering.cpp (IR text dumps) and orc_jit.cpp (LLJIT
// materialization). Both go through the one prelude below, so the IR dumps
// are exactly the module ORC materializes. Only those two translation
// units may include this header, and only under AMSVP_HAS_LLVM — public
// headers stay LLVM-free so the rest of the tree (and every test binary)
// builds without the LLVM include paths.
#pragma once

#ifndef AMSVP_HAS_LLVM
#error "llvm_lowering_internal.hpp requires an AMSVP_WITH_LLVM=ON build"
#endif

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include <llvm/ExecutionEngine/Orc/JITTargetMachineBuilder.h>
#include <llvm/IR/LLVMContext.h>
#include <llvm/IR/Module.h>

#include "runtime/model_layout.hpp"

namespace amsvp::codegen::orc_detail {

/// The entry point a batch module defines:
/// `void amsvp_orc_step_batch(double* slots, int batch)`.
inline constexpr const char* kStepBatchSymbol = "amsvp_orc_step_batch";

/// The entry point a scalar module defines: `void amsvp_orc_step(double* slots)`.
inline constexpr const char* kStepSymbol = "amsvp_orc_step";

/// One lowered model, verified and run through the fixed pass pipeline,
/// plus the host target it was lowered for. `context` owns the module's
/// types; every call gets a fresh context, so concurrent compiles never
/// share LLVM state.
struct PreparedModule {
    llvm::orc::JITTargetMachineBuilder target;
    std::unique_ptr<llvm::LLVMContext> context;
    std::unique_ptr<llvm::Module> module;
};

/// The lowering prelude: detect the host, create its target machine
/// (FastISel code generation, the level ORC materializes with), lower
/// `layout`'s fused program into a module defining kStepBatchSymbol (at
/// `row_width` runtime::LaneLayout::kVectorRow) or kStepSymbol (at
/// `row_width` 1), stamp the data layout and triple, verifyModule, and run
/// the fixed pass pipeline. When `unoptimized_ir` is non-null it receives the module text
/// between verification and the pipeline. Returns nullopt with `error` set
/// when the host cannot be targeted or the module fails verification.
[[nodiscard]] std::optional<PreparedModule> prepare_module(
    const runtime::ModelLayout& layout, int row_width, std::string* unoptimized_ir,
    std::string* error);

/// Store `message` in `*error` when the caller asked for error text.
inline void set_error(std::string* error, std::string message) {
    if (error != nullptr) {
        *error = std::move(message);
    }
}

}  // namespace amsvp::codegen::orc_detail
