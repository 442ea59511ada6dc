#include "runtime/sweep_service.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

// A one-way .cpp-level dependency: the ORC artifacts live in codegen, and
// runtime headers never include codegen ones.
#include "analysis/verifier.hpp"
#include "codegen/orc_jit.hpp"
#include "expr/printer.hpp"
#include "runtime/lane_layout.hpp"
#include "support/check.hpp"
#include "support/strings.hpp"

namespace amsvp::runtime {

namespace {

/// Kind-tagged symbol spelling: parameter "x" and variable "x" display
/// identically but are different symbols, so the fingerprint tags every
/// name with its kind.
void append_symbol(std::string& out, const expr::Symbol& symbol) {
    out += to_string(symbol.kind);
    out += ':';
    out += symbol.name;
}

}  // namespace

std::string model_fingerprint(const abstraction::SignalFlowModel& model) {
    // Every piece that reaches a compile artifact, spelled deterministically:
    // the printer renders expressions with round-trip-exact literals
    // (support::format_double), so equal fingerprints really do mean
    // interchangeable layouts and kernels. The full text is the cache key —
    // no hashing, no collisions.
    std::string fp;
    fp.reserve(256 + model.assignments.size() * 32);
    fp += "model ";
    fp += model.name;
    fp += "\ndt ";
    fp += support::format_double(model.timestep);
    fp += "\ninputs";
    for (const expr::Symbol& in : model.inputs) {
        fp += ' ';
        append_symbol(fp, in);
    }
    fp += "\noutputs";
    for (const expr::Symbol& out : model.outputs) {
        fp += ' ';
        append_symbol(fp, out);
    }
    fp += '\n';
    for (const abstraction::Assignment& a : model.assignments) {
        append_symbol(fp, a.target);
        fp += " := ";
        fp += expr::to_string(a.value);
        fp += '\n';
    }
    fp += "init\n";
    for (const auto& [symbol, value] : model.initial_values) {
        append_symbol(fp, symbol);
        fp += " = ";
        fp += support::format_double(value);
        fp += '\n';
    }
    return fp;
}

// ---------------------------------------------------------------------------
// ModelCache

ModelCache& ModelCache::global() {
    // Leaked on purpose: executors handed out against cached layouts may
    // legally outlive every static-destruction order.
    static ModelCache* cache = new ModelCache();
    return *cache;
}

ModelCache::Entry& ModelCache::locked_touch_entry(const std::string& fingerprint) {
    const auto it = entries_.find(fingerprint);
    if (it != entries_.end()) {
        // Refresh recency: splice the key to the front without invalidating
        // any other entry's stored position.
        lru_.splice(lru_.begin(), lru_, it->second.lru_position);
        return it->second;
    }
    lru_.push_front(fingerprint);
    Entry& entry = entries_[fingerprint];
    entry.lru_position = lru_.begin();
    locked_evict_over_capacity();
    return entry;
}

void ModelCache::locked_evict_over_capacity() {
    // Never evict the front — that is the entry the caller is about to
    // fill or read, and its reference must stay valid.
    while (entries_.size() > capacity_ && lru_.size() > 1) {
        entries_.erase(lru_.back());
        lru_.pop_back();
        ++stats_.evictions;
    }
}

std::shared_ptr<const ModelLayout> ModelCache::locked_layout_for(
    const abstraction::SignalFlowModel& model, const std::string& fingerprint) {
    Entry& entry = locked_touch_entry(fingerprint);
    if (entry.layout != nullptr) {
        ++stats_.layout_hits;
        return entry.layout;
    }
    std::shared_ptr<const ModelLayout> layout = ModelLayout::compile(model);
#ifdef NDEBUG
    // Release builds verify at cache admission: once per model, before the
    // layout can fan out to executors, shards or JIT lowerings. (Debug
    // builds already verified inside ModelLayout::compile.)
    analysis::verify_layout_or_abort(*layout, "ModelCache::locked_layout_for");
#endif
    ++stats_.layout_misses;
    entry.layout = layout;
    return layout;
}

std::shared_ptr<const ModelLayout> ModelCache::layout_for(
    const abstraction::SignalFlowModel& model) {
    return layout_for(model, model_fingerprint(model));
}

std::shared_ptr<const ModelLayout> ModelCache::layout_for(
    const abstraction::SignalFlowModel& model, const std::string& fingerprint) {
    std::lock_guard<std::mutex> lock(mutex_);
    return locked_layout_for(model, fingerprint);
}

std::shared_ptr<const codegen::OrcJitProgram> ModelCache::orc_program_for(
    const abstraction::SignalFlowModel& model, std::string* error) {
    return orc_program_for(model, model_fingerprint(model), error);
}

std::shared_ptr<const codegen::OrcJitProgram> ModelCache::orc_program_for(
    const abstraction::SignalFlowModel& model, const std::string& fingerprint,
    std::string* error, CompileInfo* info) {
    std::lock_guard<std::mutex> lock(mutex_);
    {
        Entry& entry = locked_touch_entry(fingerprint);
        if (entry.orc_program != nullptr) {
            ++stats_.orc_hits;
            stats_.orc_compile_seconds_saved += entry.orc_compile_seconds;
            if (info != nullptr) {
                info->hit = true;
                info->seconds = entry.orc_compile_seconds;
            }
            return entry.orc_program;
        }
    }
    std::shared_ptr<const ModelLayout> layout = locked_layout_for(model, fingerprint);
    const auto start = std::chrono::steady_clock::now();
    std::string compile_error;
    std::shared_ptr<const codegen::OrcJitProgram> program =
        codegen::OrcJitProgram::compile(layout, &compile_error);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    stats_.orc_compile_seconds += seconds;
    if (info != nullptr) {
        info->hit = false;
        info->seconds = seconds;
    }
    if (program == nullptr) {
        // NOT cached: the next request retries, so a transient failure (an
        // injected jit.orc_materialize fault) cannot poison the entry.
        ++stats_.orc_failures;
        if (error != nullptr) {
            *error = compile_error.empty() ? "orc jit compilation failed" : compile_error;
        }
        return nullptr;
    }
    ++stats_.orc_misses;
    Entry& entry = locked_touch_entry(fingerprint);
    entry.orc_program = program;
    entry.orc_compile_seconds = seconds;
    return program;
}

ModelCache::Stats ModelCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void ModelCache::set_capacity(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mutex_);
    // At least one entry: the serve-or-compile paths rely on the entry
    // they just touched staying resident for the duration of the call.
    capacity_ = std::max<std::size_t>(1, capacity);
    while (entries_.size() > capacity_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
        ++stats_.evictions;
    }
}

std::size_t ModelCache::capacity() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
}

void ModelCache::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    lru_.clear();
}

std::size_t ModelCache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

// ---------------------------------------------------------------------------
// Engine choice

namespace detail {

std::unique_ptr<BatchExecutor> SweepEngine::make_executor(int width) const {
    if (orc_program != nullptr) {
        return std::make_unique<codegen::OrcBatchModel>(orc_program, width);
    }
    return std::make_unique<BatchCompiledModel>(layout, width);
}

void SweepEngine::annotate(SweepResult& result) const {
    if (!fallback_note.empty()) {
        result.diagnostics.insert(result.diagnostics.begin(), fallback_note);
    }
    if (!compile_note.empty()) {
        result.diagnostics.push_back(compile_note);
    }
}

SweepEngine choose_sweep_engine(ModelCache& cache, const abstraction::SignalFlowModel& model,
                                const std::string& fingerprint, const SweepOptions& options) {
    SweepEngine engine;
    if (options.backend == SweepBackend::kNativeOrc) {
        std::string error;
        ModelCache::CompileInfo info;
        engine.orc_program = cache.orc_program_for(model, fingerprint, &error, &info);
        if (engine.orc_program != nullptr) {
            engine.layout = engine.orc_program->layout();
            if (options.compile_diagnostics) {
                char text[128];
                std::snprintf(text, sizeof(text),
                              info.hit ? "orc jit: cache hit (saved ~%.3f ms)"
                                       : "orc jit: cold compile %.3f ms",
                              info.seconds * 1e3);
                engine.compile_note = text;
            }
            return engine;
        }
        // No stderr note: the degradation is data, not chatter — headless
        // and service callers read it in the diagnostics (and ServiceStats).
        engine.fallback_note =
            "native sweep backend unavailable (" + error + "); ran on the batch interpreter";
    }
    engine.layout = cache.layout_for(model, fingerprint);
    return engine;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// SweepService

namespace {

int resolve_service_threads(int requested) {
    AMSVP_CHECK(requested >= 0, "ServiceOptions::sweep_threads must be >= 0");
    return requested == 0 ? support::ThreadPool::hardware_threads() : requested;
}

}  // namespace

/// detail::SweepShardPool over the service's warm executor pools: one
/// adapter per job, carrying the job's engine so a cold acquire can build
/// the right executor at the requested width.
class SweepService::ShardPoolAdapter final : public detail::SweepShardPool {
public:
    ShardPoolAdapter(SweepService& service, std::string key_prefix,
                     const detail::SweepEngine& engine)
        : service_(service), key_prefix_(std::move(key_prefix)), engine_(engine) {}

    std::unique_ptr<BatchExecutor> acquire(int lane_count) override {
        return service_.acquire_executor(key_prefix_, lane_count, engine_);
    }

    void release(std::unique_ptr<BatchExecutor> executor) override {
        // Only run_sweep's clean-completion path calls this (see the
        // SweepShardPool contract), so everything handed back is safe to
        // serve to the next job.
        service_.release_executor(key_prefix_, std::move(executor));
    }

private:
    SweepService& service_;
    std::string key_prefix_;
    const detail::SweepEngine& engine_;
};

SweepService::SweepService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache != nullptr ? options_.cache : std::make_shared<ModelCache>()),
      pool_(resolve_service_threads(options_.sweep_threads)) {
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

SweepService::~SweepService() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    if (dispatcher_.joinable()) {
        dispatcher_.join();  // drains the queue first — every future resolves
    }
}

std::future<SweepResult> SweepService::submit(SweepJob job) {
    Pending pending;
    pending.job = std::move(job);
    std::future<SweepResult> future = pending.promise.get_future();
    jobs_submitted_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(pending));
        peak_queue_depth_ = std::max(peak_queue_depth_, queue_.size() + in_flight_);
    }
    wake_.notify_one();
    return future;
}

SweepResult SweepService::run(SweepJob job) { return submit(std::move(job)).get(); }

void SweepService::dispatcher_loop() {
    for (;;) {
        Pending pending;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) {
                return;  // stop_ raised and nothing left to drain
            }
            pending = std::move(queue_.front());
            queue_.pop_front();
            in_flight_ = 1;
        }
        SweepResult result;
        std::exception_ptr error;
        try {
            result = execute(pending.job);
        } catch (...) {
            // The job failed; the service keeps serving. Executors the job
            // touched were dropped, not released, so the pools stay clean.
            error = std::current_exception();
        }
        // Settle the books BEFORE resolving the future: a client that just
        // came back from get() must see its job gone from queue_depth and
        // counted in jobs_completed / jobs_failed.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            in_flight_ = 0;
        }
        if (error == nullptr) {
            jobs_completed_.fetch_add(1, std::memory_order_relaxed);
            pending.promise.set_value(std::move(result));
        } else {
            jobs_failed_.fetch_add(1, std::memory_order_relaxed);
            pending.promise.set_exception(error);
        }
    }
}

SweepResult SweepService::execute(SweepJob& job) {
    detail::validate_sweep(job.model.inputs, job.stimuli, job.lanes, job.duration_seconds,
                           job.model.timestep, job.options);
    const std::string fingerprint = model_fingerprint(job.model);
    const detail::SweepEngine engine =
        detail::choose_sweep_engine(*cache_, job.model, fingerprint, job.options);
    if (!engine.fallback_note.empty()) {
        native_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }

    // Interpreter-fallback jobs pool under the interpreter key: if the next
    // job's compile succeeds it must NOT be handed an interpreter executor.
    const std::string key_prefix =
        fingerprint + (engine.orc_program != nullptr ? "|orc|" : "|interp|");
    std::unique_ptr<BatchExecutor> primary =
        acquire_executor(key_prefix, static_cast<int>(job.lanes.size()), engine);
    ShardPoolAdapter shard_pool(*this, key_prefix, engine);

    // Any failure below throws through to the dispatcher: `primary` (and
    // every shard run_sweep acquired) is destroyed instead of released.
    SweepResult result =
        detail::run_sweep(*primary, job.model.inputs, job.stimuli, job.lanes,
                          job.duration_seconds, job.options, &shard_pool, &pool_);
    release_executor(key_prefix, std::move(primary));
    engine.annotate(result);
    return result;
}

std::unique_ptr<BatchExecutor> SweepService::acquire_executor(
    const std::string& key_prefix, int width, const detail::SweepEngine& engine) {
    const std::string key = key_prefix + std::to_string(width);
    const auto it = idle_.find(key);
    if (it != idle_.end() && !it->second.empty()) {
        std::unique_ptr<BatchExecutor> executor = std::move(it->second.back());
        it->second.pop_back();
        executors_reused_.fetch_add(1, std::memory_order_relaxed);
        return executor;
    }
    executors_built_.fetch_add(1, std::memory_order_relaxed);
    slot_doubles_built_.fetch_add(
        LaneLayout::slot_file_size(engine.layout->slot_count(), width),
        std::memory_order_relaxed);
    return engine.make_executor(width);
}

void SweepService::release_executor(const std::string& key_prefix,
                                    std::unique_ptr<BatchExecutor> executor) {
    // reset() restores the constructed width after any in-job compaction
    // (steady retirement, quarantine) — required both for the key and so a
    // pooled executor is indistinguishable from a freshly built one.
    executor->reset();
    const std::string key = key_prefix + std::to_string(executor->batch());
    std::vector<std::unique_ptr<BatchExecutor>>& pool = idle_[key];
    if (pool.size() < kMaxIdleExecutorsPerKey) {
        pool.push_back(std::move(executor));
    }
    // else: drop — bounds the slot-file memory a bursty width mix can pin.
}

ServiceStats SweepService::stats() const {
    ServiceStats s;
    s.jobs_submitted = jobs_submitted_.load(std::memory_order_relaxed);
    s.jobs_completed = jobs_completed_.load(std::memory_order_relaxed);
    s.jobs_failed = jobs_failed_.load(std::memory_order_relaxed);
    s.native_fallbacks = native_fallbacks_.load(std::memory_order_relaxed);
    s.executors_built = executors_built_.load(std::memory_order_relaxed);
    s.executors_reused = executors_reused_.load(std::memory_order_relaxed);
    s.slot_doubles_built = slot_doubles_built_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        s.queue_depth = queue_.size() + in_flight_;
        s.peak_queue_depth = peak_queue_depth_;
    }
    s.cache = cache_->stats();
    return s;
}

}  // namespace amsvp::runtime
