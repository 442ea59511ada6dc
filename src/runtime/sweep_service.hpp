// Persistent sweep service: Monte-Carlo as a served workload.
//
// A single simulate_sweep call pays cold-start costs that dominate short
// jobs — the FusedCompiler run, the ORC materialization (tens of ms per
// model) and, with threads > 1, a worker pool spun up for the call. This
// header owns the machinery that makes repeat sweeps warm:
//
//  * model_fingerprint(): a deterministic canonical text of a
//    SignalFlowModel — same program, same fingerprint — used as the cache
//    key everywhere below;
//  * ModelCache: a thread-safe fingerprint-keyed cache of the two shared,
//    immutable compile artifacts (runtime::ModelLayout and
//    codegen::OrcJitProgram). The model-compiling simulate_sweep
//    overload serves from ModelCache::global(), so even service-less
//    callers skip recompiles after the first sweep of a model;
//  * SweepService: a long-lived object owning a ModelCache, one
//    persistent support::ThreadPool shared across jobs, and an async job
//    queue — submit(SweepJob) -> std::future — accepting concurrent sweep
//    requests from many client threads.
//
// Warm-path results are bit-identical to a direct simulate_sweep call by
// construction: a served job and a direct call run the same
// detail::sweep_model (simulate.hpp), which picks the engine, builds the
// job's executor and drives detail::run_sweep; the cache only removes
// *redundant* work (recompiles), never reorders the arithmetic. The
// fault-tolerance paths flow through unchanged — the ORC→interpreter
// fallback, fallback shards, the single-threaded worker-failure retry —
// and a failed job never poisons the cache: compile failures are not
// cached (the next job retries), and every job builds its own executors.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/simulate.hpp"
#include "support/thread_pool.hpp"

namespace amsvp::codegen {
class OrcJitProgram;
}  // namespace amsvp::codegen

namespace amsvp::runtime {

/// Deterministic canonical text of a model: name, timestep, inputs,
/// assignments (fused-order program text), outputs and initial values, all
/// doubles rendered round-trip exactly. Two models with equal fingerprints
/// compile to interchangeable layouts and kernels, so this is the cache
/// key for every per-model artifact.
[[nodiscard]] std::string model_fingerprint(const abstraction::SignalFlowModel& model);

/// Thread-safe fingerprint-keyed cache of the per-model compile artifacts:
/// the kFused ModelLayout and (kNativeOrc jobs) the materialized
/// OrcJitProgram. Both are immutable and shared by any number of executors
/// and threads, so one cache entry serves every width, shard and job of a
/// model.
///
/// Compiles run under the cache lock: concurrent first requests for one
/// model dedupe into a single compile (the losers wait, then hit), at the
/// cost of briefly blocking unrelated lookups — the right trade for a
/// compile measured in milliseconds against lookups measured in
/// microseconds. Failed ORC compiles are NOT cached: the next request
/// retries, so a transient failure (or an injected jit.orc_materialize
/// fault) cannot permanently poison the entry.
class ModelCache {
public:
    struct Stats {
        std::uint64_t layout_hits = 0;
        std::uint64_t layout_misses = 0;
        std::uint64_t orc_hits = 0;
        std::uint64_t orc_misses = 0;
        std::uint64_t orc_failures = 0;  ///< ORC compiles that returned null
        /// Entries dropped by the LRU capacity bound (set_capacity).
        std::uint64_t evictions = 0;
        /// Wall-clock seconds spent in ORC compiles (misses and failures).
        double orc_compile_seconds = 0.0;
        /// Estimated seconds NOT spent: each ORC hit credits the model's
        /// measured compile cost.
        double orc_compile_seconds_saved = 0.0;
    };

    /// The process-wide cache behind the model-compiling simulate_sweep
    /// overload. Never destroyed (function-local static); entries live for
    /// the process unless clear()ed.
    [[nodiscard]] static ModelCache& global();

    /// The cached kFused layout of `model`, compiling it on first request.
    [[nodiscard]] std::shared_ptr<const ModelLayout> layout_for(
        const abstraction::SignalFlowModel& model);
    [[nodiscard]] std::shared_ptr<const ModelLayout> layout_for(
        const abstraction::SignalFlowModel& model, const std::string& fingerprint);

    /// The cached in-process ORC JIT program of `model` (the artifact
    /// behind SweepBackend::kNativeOrc), materializing over the cached
    /// layout on first request. Returns nullptr with `error` set when the
    /// library was built without LLVM or the compile fails — the failure
    /// is not cached. Lives in the same Entry as the layout, so one
    /// model's artifacts age (and evict) together.
    [[nodiscard]] std::shared_ptr<const codegen::OrcJitProgram> orc_program_for(
        const abstraction::SignalFlowModel& model, std::string* error = nullptr);
    [[nodiscard]] std::shared_ptr<const codegen::OrcJitProgram> orc_program_for(
        const abstraction::SignalFlowModel& model, const std::string& fingerprint,
        std::string* error = nullptr);

    [[nodiscard]] Stats stats() const;

    /// Bound the entry count: every artifact request refreshes its model's
    /// recency, and an insert over capacity evicts the least recently used
    /// entry (counted in Stats::evictions). Artifacts still referenced by
    /// live executors survive eviction through their shared_ptrs — only
    /// the cache forgets. Shrinking below the current size evicts
    /// immediately. The default is generous (kDefaultCapacity): eviction
    /// is an unbounded-growth backstop for model-churning services, not a
    /// working-set tuning knob.
    void set_capacity(std::size_t capacity);
    [[nodiscard]] std::size_t capacity() const;
    static constexpr std::size_t kDefaultCapacity = 1024;

    /// Drop every cached entry (counters survive; does not count as
    /// eviction). Artifacts still referenced by live executors stay alive
    /// through their shared_ptrs.
    void clear();

    [[nodiscard]] std::size_t size() const;

private:
    struct Entry {
        std::shared_ptr<const ModelLayout> layout;
        std::shared_ptr<const codegen::OrcJitProgram> orc_program;
        double orc_compile_seconds = 0.0;
        /// This entry's position in lru_ (front = most recent).
        std::list<std::string>::iterator lru_position;
    };

    /// Serve-or-compile the layout under the held lock.
    [[nodiscard]] std::shared_ptr<const ModelLayout> locked_layout_for(
        const abstraction::SignalFlowModel& model, const std::string& fingerprint);

    /// The entry for `fingerprint`, created if absent, bumped to the front
    /// of the recency list either way; evicts from the back when the
    /// creation pushes the map over capacity. Call with mutex_ held.
    [[nodiscard]] Entry& locked_touch_entry(const std::string& fingerprint);
    void locked_evict_over_capacity();

    mutable std::mutex mutex_;
    std::unordered_map<std::string, Entry> entries_;
    /// Recency order over entries_ keys, most recently used first.
    std::list<std::string> lru_;
    std::size_t capacity_ = kDefaultCapacity;
    Stats stats_;
};

/// One queued sweep request: exactly the arguments of the model-compiling
/// simulate_sweep overload, owned by value so the submitting thread can
/// move on (stimulus callables must stay valid until the job's future
/// resolves, and — as with any threads > 1 sweep — be safe to call
/// concurrently).
struct SweepJob {
    abstraction::SignalFlowModel model;
    std::map<std::string, numeric::SourceFunction> stimuli;
    std::vector<SweepLane> lanes;
    double duration_seconds = 0.0;
    SweepOptions options;
};

struct ServiceOptions {
    /// Workers in the persistent sweep pool (0 = all hardware threads; a
    /// negative count throws std::invalid_argument at construction). This
    /// is capacity, not sharding policy: each job shards per its own
    /// SweepOptions::threads, and shards queue when they outnumber
    /// workers.
    int sweep_threads = 0;
    /// Cache to serve from; nullptr gives the service a private cache
    /// (deterministic stats). Pass a shared one — e.g. a shared_ptr
    /// wrapping ModelCache::global() machinery — to share compiles across
    /// services.
    std::shared_ptr<ModelCache> cache;
};

/// Service-level counters, all monotonic except queue_depth. Snapshot via
/// SweepService::stats() from any thread.
struct ServiceStats {
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;
    /// Jobs whose future carries an exception instead of a result.
    std::uint64_t jobs_failed = 0;
    /// Completed kNativeOrc jobs that ran on the interpreter because the
    /// ORC program failed to materialize or the build has no LLVM (the
    /// job's SweepResult::diagnostics carries the detail).
    std::uint64_t native_fallbacks = 0;
    /// Full-width executors built: one per completed job (shards are not
    /// counted). executors_reused is always 0 — every job builds its own
    /// executors. Both are kept because perfbench reads them.
    std::uint64_t executors_built = 0;
    std::uint64_t executors_reused = 0;
    std::size_t queue_depth = 0;  ///< jobs waiting or running right now
    std::size_t peak_queue_depth = 0;
    ModelCache::Stats cache;  ///< the service cache's counters
};

/// The long-lived sweep server. One dispatcher thread drains the job queue
/// in FIFO order; each job runs through detail::sweep_model over cached
/// artifacts and the persistent worker pool. submit() is
/// thread-safe and non-blocking (enqueue + notify); concurrency across
/// clients is queued, concurrency within a job comes from
/// SweepOptions::threads.
///
/// Destruction completes every queued job first (futures stay valid), then
/// stops the dispatcher and the pool.
class SweepService {
public:
    explicit SweepService(ServiceOptions options = {});
    ~SweepService();

    SweepService(const SweepService&) = delete;
    SweepService& operator=(const SweepService&) = delete;

    /// Enqueue a sweep; the future resolves to its SweepResult, or to the
    /// exception that failed it (the service itself keeps serving). A
    /// malformed job (detail::validate_sweep) fails with
    /// std::invalid_argument before any executor is built.
    [[nodiscard]] std::future<SweepResult> submit(SweepJob job);

    /// Convenience synchronous round-trip: submit(job).get().
    [[nodiscard]] SweepResult run(SweepJob job);

    [[nodiscard]] ServiceStats stats() const;

    [[nodiscard]] const std::shared_ptr<ModelCache>& cache() const { return cache_; }

    /// Workers in the persistent sweep pool (fixed at construction).
    [[nodiscard]] int sweep_threads() const { return pool_.workers(); }

private:
    struct Pending {
        SweepJob job;
        std::promise<SweepResult> promise;
    };

    void dispatcher_loop();
    [[nodiscard]] SweepResult execute(SweepJob& job);

    ServiceOptions options_;
    std::shared_ptr<ModelCache> cache_;
    support::ThreadPool pool_;

    mutable std::mutex mutex_;  ///< guards queue_ / stop_ / queue-depth stats
    std::condition_variable wake_;
    std::deque<Pending> queue_;
    std::size_t in_flight_ = 0;  ///< the job the dispatcher popped but hasn't finished
    std::size_t peak_queue_depth_ = 0;
    bool stop_ = false;

    std::atomic<std::uint64_t> jobs_submitted_{0};
    std::atomic<std::uint64_t> jobs_completed_{0};
    std::atomic<std::uint64_t> jobs_failed_{0};
    std::atomic<std::uint64_t> native_fallbacks_{0};
    std::atomic<std::uint64_t> executors_built_{0};

    std::thread dispatcher_;  ///< last member: joins before the rest dies
};

}  // namespace amsvp::runtime
