// Convenience transient simulation of a signal-flow model under named
// stimuli, tracing every output into a waveform — plus the batched sweep
// driver that runs many instances (parameter sweeps, Monte-Carlo corners)
// through one fused instruction stream. There is one sweep path:
// simulate_sweep(model, ...) and SweepService both call
// detail::sweep_model, which picks the engine and drives detail::run_sweep,
// and every shard writes its samples straight into SweepResult::outputs.
#pragma once

#include <map>
#include <string>

#include "numeric/sources.hpp"
#include "numeric/waveform.hpp"
#include "runtime/batch_model.hpp"
#include "runtime/compiled_model.hpp"

namespace amsvp::support {
class ThreadPool;
}  // namespace amsvp::support

namespace amsvp::runtime {

class ModelCache;

struct TransientResult {
    std::vector<numeric::Waveform> outputs;
    std::size_t steps = 0;
};

/// Run `duration_seconds` of simulated time with the model's own timestep.
/// Every model input must have a stimulus in `stimuli`; a missing stimulus
/// or a timestep that is not positive throws std::invalid_argument.
[[nodiscard]] TransientResult simulate_transient(
    const abstraction::SignalFlowModel& model,
    const std::map<std::string, numeric::SourceFunction>& stimuli, double duration_seconds);

/// Same, reusing an existing executor (state is reset first). Works with
/// any ModelExecutor, including the native-compiled one.
[[nodiscard]] TransientResult simulate_transient(
    ModelExecutor& executor, const std::vector<expr::Symbol>& input_symbols,
    const std::map<std::string, numeric::SourceFunction>& stimuli, double duration_seconds);

/// One instance of a batched sweep. Anything not overridden falls back to
/// the sweep's shared configuration, so a Monte-Carlo run only specifies
/// what varies per lane.
struct SweepLane {
    /// Per-lane stimulus overrides by input name; inputs not listed use the
    /// shared stimuli map.
    std::map<std::string, numeric::SourceFunction> stimuli;
    /// Per-lane symbol overrides (parameters / initial conditions), applied
    /// to the symbol's current and history slots after reset.
    std::map<expr::Symbol, double> overrides;
};

struct SweepResult {
    /// outputs[o] holds every lane of model output o, frame per step.
    std::vector<numeric::WaveformBatch> outputs;
    std::size_t steps = 0;
    /// Step at which each lane was retired by steady-state detection
    /// (`steps` when the lane ran to the end or detection was off). A
    /// retired lane's remaining samples hold its settled value.
    std::vector<std::size_t> settled_at;
    /// Per-lane health verdict from the periodic slot-file scan
    /// (SweepOptions::lane_health_interval). A lane that goes non-finite or
    /// diverges is *quarantined*: it is compacted out of the batch so it
    /// stops consuming step time and cannot leak into any shared decision;
    /// its remaining samples hold the last captured frame, its status and
    /// detection step land here, and every healthy lane finishes
    /// bit-identically to a sweep that never contained the poisoned lane.
    std::vector<LaneHealth> lane_health;
    /// Human-readable notes about degraded-mode recoveries the sweep took
    /// (ORC→interpreter backend fallback, per-shard fallback executors,
    /// worker-failure single-threaded retry). Empty on an untroubled run.
    std::vector<std::string> diagnostics;
};

/// Execution engine for simulate_sweep: the interpreter is the reference
/// and the fallback, ORC produces the machine code.
enum class SweepBackend {
    /// The in-process fused batch interpreter (BatchCompiledModel).
    kInterpreter,
    /// In-process LLVM ORC JIT: the fused instruction stream lowered to
    /// LLVM IR and materialized through LLJIT (codegen::OrcJitProgram),
    /// a cold compile of milliseconds. Bit-identical to the interpreter
    /// lane for lane — outputs and settled_at — at every batch width and
    /// thread count (the lowering never enables fast-math or FP
    /// contraction and libm resolves in-process).
    ///
    /// When the program cannot be had — the library was built without
    /// LLVM (AMSVP_WITH_LLVM=OFF), or materialization failed (e.g. the
    /// injected jit.orc_materialize fault) — the sweep runs on the
    /// interpreter and reports "native sweep backend unavailable" in
    /// SweepResult::diagnostics (no stderr chatter — headless and service
    /// callers observe the fallback programmatically).
    ///
    /// The model-compiling simulate_sweep overload serves the program from
    /// the process-wide ModelCache (sweep_service.hpp), so only the first
    /// sweep of a model pays the materialization. Long-lived callers
    /// juggling many models and jobs should run a SweepService, which
    /// additionally keeps a persistent worker pool.
    kNativeOrc,
};

/// The machine-code engine to prefer on this build: kNativeOrc when the
/// library was built with LLVM (codegen::orc_available()), else
/// kInterpreter. Callers that just want "machine code, please" use this
/// instead of hard-coding a backend.
[[nodiscard]] SweepBackend preferred_native_backend();

/// Convergence helpers for simulate_sweep.
struct SweepOptions {
    /// > 0 enables per-lane steady-state detection: a lane settles once
    /// every output stays within `steady_tolerance * max(1, |value|)` of
    /// its value at the start of the quiet streak for `steady_window`
    /// consecutive steps (a window-span check, so a slow but steady drift
    /// cannot false-settle). Settled lanes are retired —
    /// the batch is compacted in place (BatchCompiledModel::compact_lanes)
    /// so surviving lanes keep full SIMD throughput — and their waveforms
    /// hold the settled value. Detection only pays off for stimuli that
    /// actually settle (decay / step responses); periodic stimuli never
    /// trigger it.
    double steady_tolerance = 0.0;
    int steady_window = 8;
    /// Worker threads for the sweep. 1 (default) is the classic
    /// single-threaded path; 0 means "all hardware threads"; n > 1 shards
    /// the batch into per-thread contiguous slot files over the shared
    /// ModelLayout (split at BatchCompiledModel::kLaneChunk boundaries) and
    /// runs one shard per worker, with per-shard steady-state retirement
    /// and compaction. Results — outputs and settled_at — are bit-identical
    /// to the single-threaded path at any thread count: lanes never
    /// interact, and both paths run the same shard loop.
    ///
    /// With more than one shard, stimulus callables are invoked
    /// concurrently from multiple workers: every SourceFunction in the
    /// shared and per-lane stimulus maps must be safe to call concurrently
    /// (pure functions of time — everything in numeric/sources.hpp — are;
    /// a callable mutating shared state, e.g. a memoizing interpolator, is
    /// not and needs its own synchronization).
    int threads = 1;
    /// Execution engine. Honored by the model-compiling overload; the
    /// executor-reusing overload steps whatever executor it is handed (a
    /// BatchCompiledModel runs interpreted, a codegen::OrcBatchModel runs
    /// JITed machine code — shards always match the executor's backend via
    /// BatchExecutor::make_shard).
    SweepBackend backend = SweepBackend::kInterpreter;

    /// Lane health: every `lane_health_interval` steps the driver scans the
    /// shard's whole slot file for non-finite values (both backends share
    /// the scan — it reads memory, not the stepping engine) and quarantines
    /// failing lanes via compact_lanes. Healthy lanes are unaffected
    /// bit-for-bit; the failure is reported in SweepResult::lane_health
    /// instead of shipping NaN frames to the end. 0 disables scanning.
    /// The scan costs well under 2% of a step at the default interval
    /// (enforced by bench/compare.py), so leaving it on is the default.
    std::size_t lane_health_interval = 32;
    /// > 0 also quarantines lanes whose finite slot magnitude exceeds this
    /// limit (status kDiverged) — catches blow-ups on their way to
    /// infinity. 0 checks non-finiteness only.
    double divergence_limit = 0.0;
};

/// Run all `lanes` for `duration_seconds` through one BatchCompiledModel:
/// one compile, one strided slot file, per-lane stimuli and overrides,
/// per-lane waveforms out. Sampling matches simulate_transient (t = dt,
/// 2dt, ...), and each lane agrees bit-for-bit with a scalar CompiledModel
/// run of the same configuration. Both overloads throw
/// std::invalid_argument for a malformed request (detail::validate_sweep)
/// before they compile or step anything.
[[nodiscard]] SweepResult simulate_sweep(
    const abstraction::SignalFlowModel& model,
    const std::map<std::string, numeric::SourceFunction>& shared_stimuli,
    const std::vector<SweepLane>& lanes, double duration_seconds,
    const SweepOptions& options = {});

/// Same, reusing an existing batch executor (state is reset first, which
/// also restores the constructed width after a previous sweep's
/// steady-state compaction; the constructed batch width must equal
/// lanes.size()). Any BatchExecutor works — the interpreter's
/// BatchCompiledModel or the ORC-JITed codegen::OrcBatchModel — and the
/// sweep runs entirely through it. When `options.threads` yields more than
/// one shard the sweep steps per-shard executors built by
/// `batch.make_shard()` (same backend, own slot file) and `batch` itself
/// is left reset; with a single shard (few lanes or threads <= 1) `batch`
/// is the executor that gets stepped — and possibly compacted by
/// steady-state retirement or lane quarantine — exactly as before.
///
/// Fault tolerance: a shard whose construction fails is rebuilt via
/// `make_fallback_shard()` (the ORC backend degrades that shard to the
/// bit-identical interpreter); if a worker thread throws, the pool cancels
/// the job and the whole sweep is re-run once on the calling thread using
/// `batch` itself — a deterministic failure then propagates to the caller
/// from that single-threaded run. Every recovery is recorded in
/// SweepResult::diagnostics.
[[nodiscard]] SweepResult simulate_sweep(
    BatchExecutor& batch, const std::vector<expr::Symbol>& input_symbols,
    const std::map<std::string, numeric::SourceFunction>& shared_stimuli,
    const std::vector<SweepLane>& lanes, double duration_seconds,
    const SweepOptions& options = {});

namespace detail {

/// Throws std::invalid_argument when a sweep request cannot run: no lanes,
/// a model input with neither a shared nor a per-lane stimulus on every
/// lane, negative SweepOptions::threads, steady detection with a zero-step
/// window, a timestep `dt` that is not positive, or a duration
/// support::step_count rejects. Every entry point calls it before it
/// builds an executor.
void validate_sweep(const std::vector<expr::Symbol>& input_symbols,
                    const std::map<std::string, numeric::SourceFunction>& shared_stimuli,
                    const std::vector<SweepLane>& lanes, double duration_seconds, double dt,
                    const SweepOptions& options);

/// The model sweep behind simulate_sweep(model, ...) and SweepService:
/// validate the request (validate_sweep), fingerprint the model once, take
/// the ORC program (kNativeOrc) or the kFused layout from `cache`, build
/// the job's full-width executor and run_sweep it on `pool`. A kNativeOrc
/// job that cannot get its program runs on the interpreter with the
/// "native sweep backend unavailable" note first in
/// SweepResult::diagnostics; `*fell_back` (when non-null) reports whether
/// that happened.
[[nodiscard]] SweepResult sweep_model(
    ModelCache& cache, support::ThreadPool* pool, const abstraction::SignalFlowModel& model,
    const std::map<std::string, numeric::SourceFunction>& shared_stimuli,
    const std::vector<SweepLane>& lanes, double duration_seconds, const SweepOptions& options,
    bool* fell_back);

/// The one sweep engine behind every public entry point: the
/// executor-reusing simulate_sweep overload, with one injection point for
/// the persistent service — `pool`, a caller-owned worker pool reused
/// across jobs (nullptr = a pool local to this call). The caller must hold
/// `pool` exclusively for the duration of the call — the sweep uses its
/// cancel flag for failure propagation.
///
/// Every path — sharding, steady retirement, lane quarantine, fallback
/// shards, the single-threaded worker-failure retry — is this function, so
/// service results are bit-identical to direct simulate_sweep calls by
/// construction rather than by testing alone (the tests check anyway).
[[nodiscard]] SweepResult run_sweep(
    BatchExecutor& batch, const std::vector<expr::Symbol>& input_symbols,
    const std::map<std::string, numeric::SourceFunction>& shared_stimuli,
    const std::vector<SweepLane>& lanes, double duration_seconds,
    const SweepOptions& options, support::ThreadPool* pool);

}  // namespace detail

}  // namespace amsvp::runtime
