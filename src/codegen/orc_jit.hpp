// In-process ORC JIT execution of the fused program: the library's one
// machine-code sweep engine.
//
// OrcJitProgram lowers a model's fused instruction stream to one batch
// kernel in LLVM IR (llvm_lowering.hpp), runs the fixed pass pipeline and
// materializes it through LLJIT — all inside this process, no compiler on
// PATH, no temp files, no dlopen. A cold compile costs milliseconds.
// Results are bit-identical to the fused interpreter: the lowering never
// enables fast-math or FP contraction, and libm calls resolve to this very
// process's libm. The one kernel serves every width, width 1 included
// (one padded row, three ghost lanes).
//
// OrcBatchModel is a BatchCompiledModel whose step() drives the JITed
// kernel over the same padded slot file, slotting into the make_shard /
// fallback-shard / quarantine machinery unchanged. One
// materialized program serves any number of shards and threads
// concurrently — the kernel is a pure function of the slot file.
//
// Built with AMSVP_WITH_LLVM=OFF, orc_available() is false and compile()
// returns nullptr with an explanatory error; a kNativeOrc sweep then runs
// on the fused interpreter and says so in SweepResult::diagnostics.
//
// Fault site "jit.orc_materialize" (support/fault.hpp) models a
// materialization failure so tests can exercise the graceful fallback to
// the interpreter.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "runtime/batch_model.hpp"

namespace amsvp::codegen {

/// True when the in-process ORC backend can compile at all (built with
/// LLVM). Cheap; no host probing involved.
[[nodiscard]] bool orc_available();

namespace orc_detail {

/// Process-wide count of ORC compile attempts (lower + optimize +
/// materialize; an injected jit.orc_materialize fault counts as the
/// attempt it models). Warm-path guarantees — "a repeat sweep of a cached
/// model runs zero JIT compiles" — are asserted as a zero delta of this
/// counter.
[[nodiscard]] std::uint64_t orc_compile_invocations();

}  // namespace orc_detail

/// The shared, immutable compile artifact of the ORC path: a materialized
/// LLJIT instance plus the resolved batch kernel and the layout the IR was
/// lowered against. Thread-safe after construction — the kernel touches
/// only caller-provided memory.
class OrcJitProgram {
public:
    /// Lower, optimize and materialize the kernel for a compiled layout;
    /// the IR is lowered against exactly this layout's slot assignment.
    /// Returns nullptr (with `error` set) when built without LLVM, or when
    /// lowering/verification/materialization fails.
    [[nodiscard]] static std::shared_ptr<const OrcJitProgram> compile(
        std::shared_ptr<const runtime::ModelLayout> layout, std::string* error = nullptr);

    ~OrcJitProgram();
    OrcJitProgram(const OrcJitProgram&) = delete;
    OrcJitProgram& operator=(const OrcJitProgram&) = delete;

    /// Step `batch` lanes of a padded slot file (layout()->slot_count()
    /// rows of runtime::LaneLayout::padded_width(batch) doubles). The
    /// caller writes inputs and the $abstime row first; history rotates
    /// inside.
    void step_batch(double* slots, int batch) const { step_batch_fn_(slots, batch); }

    [[nodiscard]] const std::shared_ptr<const runtime::ModelLayout>& layout() const {
        return layout_;
    }

private:
    OrcJitProgram() = default;

    using StepBatchFn = void (*)(double*, int);

    class Engine;  ///< owns the LLJIT (and with it the JITed code)
    std::unique_ptr<Engine> engine_;
    StepBatchFn step_batch_fn_ = nullptr;
    std::shared_ptr<const runtime::ModelLayout> layout_;
};

/// A BatchCompiledModel stepped by the ORC-JITed kernel, inheriting the
/// whole slot-file API — reset, set_input, set_value, output_lanes,
/// compact_lanes, scan_lane_health — unchanged.
class OrcBatchModel final : public runtime::BatchCompiledModel {
public:
    /// `batch` lanes over an already-materialized program (shards share one).
    OrcBatchModel(std::shared_ptr<const OrcJitProgram> program, int batch);

    void step(double time_seconds) override;

    /// A fresh ORC batch over the same materialized program.
    [[nodiscard]] std::unique_ptr<runtime::BatchExecutor> make_shard(
        int lane_count) const override;

    /// Degraded-mode shard: a fused *interpreter* batch over the same
    /// layout — bit-identical results, no JIT artifact involved.
    [[nodiscard]] std::unique_ptr<runtime::BatchExecutor> make_fallback_shard(
        int lane_count) const override;

    [[nodiscard]] const std::shared_ptr<const OrcJitProgram>& program() const {
        return program_;
    }

private:
    std::shared_ptr<const OrcJitProgram> program_;
};

}  // namespace amsvp::codegen
