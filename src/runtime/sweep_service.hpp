// Persistent sweep service: Monte-Carlo as a served workload.
//
// A single simulate_sweep call pays cold-start costs that dominate short
// jobs — the fingerprint, the FusedCompiler run and, with threads > 1, a
// worker pool spun up for the call. The ORC materialization (milliseconds
// per model) runs on the cache's compile thread while the job starts on the
// interpreter: a service job queues it at its model's first job, a
// simulate_sweep call only once the model's interpreted kNativeOrc work
// would have paid for it. This header owns the machinery that makes repeat
// sweeps warm:
//
//  * model_fingerprint(): a deterministic canonical text of a
//    SignalFlowModel — same program, same fingerprint — used as the cache
//    key everywhere below;
//  * ModelCache: a thread-safe fingerprint-keyed cache of the two shared,
//    immutable compile artifacts (runtime::ModelLayout and
//    codegen::OrcJitProgram), with the thread that compiles the latter.
//    The model-compiling simulate_sweep overload serves from
//    ModelCache::global(), so even service-less callers skip recompiles
//    after the first sweep of a model;
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
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/simulate.hpp"
#include "support/thread_pool.hpp"

namespace amsvp::codegen {
class OrcCompileTicket;
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
/// simulate_sweep's kNativeOrc jobs buy the compile by the rent-or-buy
/// ("ski rental") rule: each entry counts the lane-steps its jobs have
/// planned to run without the kernel, and request_orc_for_job queues the
/// compile only once that count, the asking job included, reaches the
/// model's compile_budget — the lane-steps whose kernel savings would repay
/// the compile. Until then jobs run the interpreter and queue nothing
/// (Stats::orc_deferred), so a model swept once never pays a compile.
/// Paying rent until it equals the purchase price costs at most twice the
/// offline optimum (Karlin, Manasse, Rudolph, Sleator, "Competitive Snoopy
/// Caching", Algorithmica 3, 1988). request_orc_program and orc_program_for
/// compile whatever the count says; SweepService jobs take the former, so a
/// service warms with one job per model and no compile lands in its
/// traffic later.
///
/// Layouts compile under the cache lock (microseconds to a millisecond).
/// ORC compiles take milliseconds, so they run off the lock, one at a time,
/// on a compile thread the cache owns, started by the first compile it
/// queues and inheriting the queuing thread's CPU mask. Each entry holds at most one
/// compile ticket (codegen::OrcCompileTicket): concurrent requests for a
/// model share it, so a model costs one compile however many jobs ask. A
/// compile lands only in the entry whose ticket it carries: clear() and
/// eviction drop queued compiles (Stats::orc_dropped) and detach the
/// running one, whose program then reaches its waiting jobs but never the
/// cache (Stats::orc_discarded); both forget the entry's lane-step count
/// with the entry. Failed compiles are NOT cached and leave the count over
/// budget: the next request or job retries, so a transient failure (or an
/// injected jit.orc_materialize fault) cannot permanently poison the entry.
///
/// Destruction drops queued compiles and joins the thread. The global()
/// cache is never destroyed, so it joins its thread from an atexit handler
/// registered when the thread starts, before static destructors (LLVM's
/// among them) run. Built without LLVM, ORC requests — every job's
/// included, whatever its size — fail synchronously on the calling thread
/// and no thread starts.
class ModelCache {
public:
    struct Stats {
        std::uint64_t layout_hits = 0;
        std::uint64_t layout_misses = 0;
        std::uint64_t orc_hits = 0;
        /// ORC compiles that landed in their cache entry.
        std::uint64_t orc_misses = 0;
        std::uint64_t orc_failures = 0;  ///< ORC compiles that returned null
        /// kNativeOrc jobs (request_orc_for_job) that ran on the
        /// interpreter and queued no compile: their model's count stayed
        /// below its compile budget. Service jobs are never deferred.
        std::uint64_t orc_deferred = 0;
        /// Queued ORC compiles dropped by clear() or eviction before they ran.
        std::uint64_t orc_dropped = 0;
        /// ORC compiles that finished after clear() or eviction removed
        /// their entry: the program reached the jobs holding the ticket and
        /// was not cached.
        std::uint64_t orc_discarded = 0;
        /// Entries dropped by the LRU capacity bound (set_capacity).
        std::uint64_t evictions = 0;
        /// Wall-clock seconds spent in ORC compiles (every compile that ran).
        double orc_compile_seconds = 0.0;
        /// Estimated seconds NOT spent: each ORC hit credits the model's
        /// measured compile cost.
        double orc_compile_seconds_saved = 0.0;
    };

    /// What a kNativeOrc job takes from the cache: the landed program on a
    /// hit; otherwise the layout and the ticket of the model's compile,
    /// queued by this request or shared with an earlier one — or no ticket
    /// when request_orc_for_job left the compile unbought. Built without
    /// LLVM the ticket has already failed.
    struct OrcRequest {
        std::shared_ptr<const codegen::OrcJitProgram> program;
        std::shared_ptr<const ModelLayout> layout;
        std::shared_ptr<const codegen::OrcCompileTicket> ticket;
    };

    ModelCache() = default;
    ~ModelCache();
    ModelCache(const ModelCache&) = delete;
    ModelCache& operator=(const ModelCache&) = delete;

    /// The process-wide cache behind the model-compiling simulate_sweep
    /// overload. Never destroyed (function-local static); entries live for
    /// the process unless clear()ed.
    [[nodiscard]] static ModelCache& global();

    /// The cached kFused layout of `model`, compiling it on first request.
    [[nodiscard]] std::shared_ptr<const ModelLayout> layout_for(
        const abstraction::SignalFlowModel& model);
    [[nodiscard]] std::shared_ptr<const ModelLayout> layout_for(
        const abstraction::SignalFlowModel& model, const std::string& fingerprint);

    /// The model's ORC program if it has landed, else its compile ticket,
    /// queuing the compile whatever the compile budget says (never blocks
    /// on a compile). The ORC program and the layout live in the same
    /// entry, so one model's artifacts age (and evict) together.
    [[nodiscard]] OrcRequest request_orc_program(const abstraction::SignalFlowModel& model,
                                                 const std::string& fingerprint);

    /// The same for a kNativeOrc job that plans `lane_steps` lane-steps
    /// (lanes × steps): with neither the program nor a compile in flight,
    /// the job's lane-steps join the entry's count, and the compile is
    /// queued only when the count reaches compile_budget(). Below it the
    /// request carries the layout and no ticket, and the job is counted in
    /// Stats::orc_deferred. Built without LLVM it fails like any request.
    [[nodiscard]] OrcRequest request_orc_for_job(const abstraction::SignalFlowModel& model,
                                                 const std::string& fingerprint,
                                                 std::uint64_t lane_steps);

    /// The interpreted lane-steps whose kernel savings repay one ORC
    /// compile of `layout`: a pure function of its fused instruction count
    /// (no clock read), so jobs can be sized against it exactly.
    [[nodiscard]] static std::uint64_t compile_budget(const ModelLayout& layout);

    /// The cached in-process ORC JIT program of `model` (the artifact
    /// behind SweepBackend::kNativeOrc), blocking until it lands: joins the
    /// model's in-flight compile, or queues one. Returns nullptr with
    /// `error` set when the library was built without LLVM or the compile
    /// fails — the failure is not cached.
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

    /// Drop every cached entry, with its lane-step count, and every queued
    /// compile (counters survive; does not count as eviction). A compile
    /// already running finishes for the jobs holding its ticket but lands
    /// nowhere. Artifacts still referenced by live executors stay alive
    /// through their shared_ptrs.
    void clear();

    [[nodiscard]] std::size_t size() const;

private:
    struct Entry {
        std::shared_ptr<const ModelLayout> layout;
        std::shared_ptr<const codegen::OrcJitProgram> orc_program;
        /// The model's queued or running compile; reset when it resolves.
        std::shared_ptr<codegen::OrcCompileTicket> orc_ticket;
        /// Lane-steps that kNativeOrc jobs planned while the program was
        /// missing (saturating): the rent paid against compile_budget().
        std::uint64_t interpreted_lane_steps = 0;
        double orc_compile_seconds = 0.0;
        /// This entry's position in lru_ (front = most recent).
        std::list<std::string>::iterator lru_position;
    };

    /// One ORC compile for the compile thread.
    struct CompileJob {
        std::string fingerprint;  ///< the entry it lands in, if still there
        std::shared_ptr<const ModelLayout> layout;
        std::shared_ptr<codegen::OrcCompileTicket> ticket;
    };

    /// Serve-or-compile the layout under the held lock.
    [[nodiscard]] std::shared_ptr<const ModelLayout> locked_layout_for(
        const abstraction::SignalFlowModel& model, const std::string& fingerprint);

    /// request_orc_program (no `job_lane_steps`) and request_orc_for_job.
    [[nodiscard]] OrcRequest request_orc(const abstraction::SignalFlowModel& model,
                                         const std::string& fingerprint,
                                         std::optional<std::uint64_t> job_lane_steps);

    /// The entry for `fingerprint`, created if absent, bumped to the front
    /// of the recency list either way; evicts from the back when the
    /// creation pushes the map over capacity. Call with mutex_ held.
    [[nodiscard]] Entry& locked_touch_entry(const std::string& fingerprint);
    void locked_evict_over_capacity();
    void locked_evict_back();
    /// Drop the queued compile carrying `which` (nullptr: every queued
    /// compile): its ticket resolves kDropped and leaves its entry.
    void locked_drop_queued(const codegen::OrcCompileTicket* which);

    /// Run `job`'s compile with `lock` released, then, holding it again,
    /// book the outcome and resolve the ticket.
    void run_compile(std::unique_lock<std::mutex>& lock, CompileJob& job);
    void compiler_loop();
    void locked_start_compiler();
    /// Drop the queue and join the compile thread (destructor, exit).
    void stop_compiler();
    static void stop_global_compiler();

    mutable std::mutex mutex_;
    std::unordered_map<std::string, Entry> entries_;
    /// Recency order over entries_ keys, most recently used first.
    std::list<std::string> lru_;
    std::size_t capacity_ = kDefaultCapacity;
    Stats stats_;

    std::deque<CompileJob> compile_queue_;
    std::condition_variable compile_wake_;
    bool compiler_stopped_ = false;
    bool is_global_ = false;  ///< join the compile thread at exit
    std::thread compiler_;
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
    /// Completed kNativeOrc jobs that ran on the interpreter because their
    /// ORC compile failed before they ended or the build has no LLVM (the
    /// job's SweepResult::diagnostics carries the detail). A job that ended
    /// while its compile was still running is not counted.
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
/// artifacts and the persistent worker pool. A kNativeOrc job queues its
/// model's ORC compile at the model's first job, whatever its size
/// (detail::CompilePurchase::kAtFirstJob), so one warm-up job per model
/// warms the service and no compile runs during later traffic. submit() is
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
