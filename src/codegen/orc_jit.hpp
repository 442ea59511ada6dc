// In-process ORC JIT execution of the fused program: the library's one
// machine-code engine, beside the fused interpreter that is its reference
// and fallback.
//
// A model's fused instruction stream lowers to one of two kernels in LLVM
// IR (llvm_lowering.hpp), runs the fixed pass pipeline and materializes
// through one LLJIT path, code-generated by FastISel — all inside this
// process, no compiler on PATH, no temp files, no dlopen. A cold compile
// costs milliseconds (3–4 ms even for a two-instruction model, about 20 ms
// for RC20's batch kernel). Results are bit-identical to the fused
// interpreter: the lowering never enables fast-math or FP contraction, and
// libm calls resolve to this very process's libm. Sweeps run
// OrcJitProgram's batch kernel at every width, width 1 included (one padded
// row, three ghost lanes); per-instance executors (the Tables' generated
// rows) run OrcScalarProgram's scalar kernel through OrcModel.
//
// Both programs are immutable after compile() and shared: one materialized
// program serves any number of executors, shards and threads concurrently —
// a kernel is a pure function of the slot file it is handed.
// runtime::ModelCache keeps one of each per model: the batch program,
// compiled on the cache's compile thread, and the scalar program, compiled
// by the first runtime::ModelCache::scalar_executor request on the
// requesting thread.
//
// OrcBatchModel is a BatchCompiledModel whose step() drives the JITed
// kernel over the same padded slot file, slotting into the make_shard /
// fallback-shard / quarantine machinery unchanged.
//
// TieredOrcBatchModel is the executor that can start before its program
// exists. It holds an OrcCompileTicket — the handle of a compile queued or
// running elsewhere (runtime::ModelCache's compile thread) — and steps the
// fused interpreter until the ticket lands, then switches to the kernel at
// the next step boundary. The switch is exact: both engines leave the
// padded slot file bit-identical after every step.
//
// Built with AMSVP_WITH_LLVM=OFF, orc_available() is false and every
// compile() returns nullptr with an explanatory error; a kNativeOrc sweep
// then runs on the fused interpreter and says so in
// SweepResult::diagnostics, and runtime::ModelCache::scalar_executor hands
// out the interpreter.
//
// Fault site "jit.orc_materialize" (support/fault.hpp) models a
// materialization failure of either kernel so tests can exercise the
// graceful fallback to the interpreter.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "runtime/batch_model.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/executor.hpp"

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

/// Owns one materialized LLJIT instance and with it the JITed code; defined
/// in orc_jit.cpp so public includes stay LLVM-free.
class Engine;

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

    std::unique_ptr<orc_detail::Engine> engine_;
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

    /// 0: every step runs the kernel.
    [[nodiscard]] std::size_t promoted_at() const override { return 0; }

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

/// The shared, immutable scalar counterpart of OrcJitProgram: a
/// materialized LLJIT instance plus the resolved scalar kernel and the
/// layout it was lowered against. The kernel runs the program once over an
/// unpadded slot file of doubles and rotates history.
class OrcScalarProgram {
public:
    /// Lower, optimize and materialize the scalar kernel for a compiled
    /// layout. Returns nullptr (with `error` set) when built without LLVM,
    /// or when lowering/verification/materialization fails.
    [[nodiscard]] static std::shared_ptr<const OrcScalarProgram> compile(
        std::shared_ptr<const runtime::ModelLayout> layout, std::string* error = nullptr);

    ~OrcScalarProgram();
    OrcScalarProgram(const OrcScalarProgram&) = delete;
    OrcScalarProgram& operator=(const OrcScalarProgram&) = delete;

    using StepFn = void (*)(double*);

    /// The kernel: the caller writes inputs and the $abstime slot first.
    [[nodiscard]] StepFn step_fn() const { return step_fn_; }

    [[nodiscard]] const std::shared_ptr<const runtime::ModelLayout>& layout() const {
        return layout_;
    }

private:
    OrcScalarProgram() = default;

    std::unique_ptr<orc_detail::Engine> engine_;
    StepFn step_fn_ = nullptr;
    std::shared_ptr<const runtime::ModelLayout> layout_;
};

/// A CompiledModel stepped by the ORC-JITed scalar kernel. It keeps the
/// interpreter's slot file with its reset, set_input and output; step()
/// writes the $abstime slot and calls the kernel, which runs the program
/// and rotates history. After every step the slot file, scratch included,
/// is bit-identical to the interpreter's.
class OrcModel final : public runtime::CompiledModel {
public:
    /// An instance over a shared program (runtime::ModelCache hands out
    /// one per model).
    explicit OrcModel(std::shared_ptr<const OrcScalarProgram> program);

    /// An instance over a program of its own, compiled for `layout` and not
    /// cached. Returns nullptr (with `error` set) when the program cannot be
    /// compiled (OrcScalarProgram::compile).
    [[nodiscard]] static std::unique_ptr<OrcModel> compile(
        std::shared_ptr<const runtime::ModelLayout> layout, std::string* error = nullptr);

    void step(double time_seconds) override;

    [[nodiscard]] const std::shared_ptr<const OrcScalarProgram>& program() const {
        return program_;
    }

private:
    std::shared_ptr<const OrcScalarProgram> program_;
    OrcScalarProgram::StepFn step_fn_ = nullptr;
};

/// The handle of one ORC compile that may not have finished: a program
/// that can be waited for or polled. Resolved exactly once — landed with a
/// program, failed with the compile's error, or dropped before it ran —
/// and immutable afterwards, so any number of executors and threads may
/// share it.
class OrcCompileTicket {
public:
    enum class State {
        kPending,  ///< queued or compiling
        kLanded,   ///< program() holds the kernel
        kFailed,   ///< the compile returned no program; error() says why
        kDropped,  ///< never ran: its cache entry was cleared or evicted first
    };

    /// One acquire load: program() and error() are safe to read once this
    /// has returned anything but kPending.
    [[nodiscard]] State state() const { return state_.load(std::memory_order_acquire); }
    [[nodiscard]] const std::shared_ptr<const OrcJitProgram>& program() const {
        return program_;
    }
    [[nodiscard]] const std::string& error() const { return error_; }

    /// Block until the ticket resolves; returns the final state.
    State wait() const;

    /// Resolve the ticket; each may be called once, by whoever ran (or
    /// dropped) the compile, and wakes every waiter.
    void land(std::shared_ptr<const OrcJitProgram> program);
    void fail(std::string error);
    void drop();

private:
    void resolve(State state);

    std::atomic<State> state_{State::kPending};
    std::shared_ptr<const OrcJitProgram> program_;
    std::string error_;
    mutable std::mutex mutex_;
    mutable std::condition_variable resolved_;
};

/// A batch that starts on the fused interpreter over `layout` and switches
/// to the ORC kernel at the first step boundary after `ticket` lands. Until
/// then each step() costs one acquire load on top of the interpreter step;
/// afterwards it is an OrcBatchModel step holding its own reference to the
/// program. A ticket that fails or is dropped leaves the batch on the
/// interpreter, bit-identically.
class TieredOrcBatchModel final : public runtime::BatchCompiledModel {
public:
    TieredOrcBatchModel(std::shared_ptr<const runtime::ModelLayout> layout,
                        std::shared_ptr<const OrcCompileTicket> ticket, int batch);

    /// Also restarts the step count; a batch that already switched keeps
    /// the kernel and runs it from the next run's first step.
    void reset() override;
    void step(double time_seconds) override;

    /// The step (counted from reset()) at which this batch switched, or
    /// kNeverPromoted while it is still on the interpreter.
    [[nodiscard]] std::size_t promoted_at() const override { return promoted_at_; }

    /// A tiered batch over the same layout, sharing the ticket.
    [[nodiscard]] std::unique_ptr<runtime::BatchExecutor> make_shard(
        int lane_count) const override;

    /// Degraded-mode shard: a plain interpreter batch over the same layout.
    [[nodiscard]] std::unique_ptr<runtime::BatchExecutor> make_fallback_shard(
        int lane_count) const override;

private:
    std::shared_ptr<const OrcCompileTicket> ticket_;
    std::shared_ptr<const OrcJitProgram> program_;  ///< set at the switch
    std::size_t steps_ = 0;                         ///< steps since reset()
    std::size_t promoted_at_ = kNeverPromoted;
};

}  // namespace amsvp::codegen
