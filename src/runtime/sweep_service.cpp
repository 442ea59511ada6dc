#include "runtime/sweep_service.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <utility>

// A one-way .cpp-level dependency: the ORC artifacts live in codegen, and
// runtime headers never include codegen ones.
#include "analysis/verifier.hpp"
#include "codegen/orc_jit.hpp"
#include "expr/printer.hpp"
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
    std::string* error) {
    std::lock_guard<std::mutex> lock(mutex_);
    {
        Entry& entry = locked_touch_entry(fingerprint);
        if (entry.orc_program != nullptr) {
            ++stats_.orc_hits;
            stats_.orc_compile_seconds_saved += entry.orc_compile_seconds;
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
// SweepService

namespace {

int resolve_service_threads(int requested) {
    if (requested < 0) {
        throw std::invalid_argument("ServiceOptions::sweep_threads must be >= 0");
    }
    return requested == 0 ? support::ThreadPool::hardware_threads() : requested;
}

}  // namespace

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
            // The job failed; the service keeps serving. The job's
            // executors die with it, so nothing it touched reaches the next.
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
    bool fell_back = false;
    SweepResult result =
        detail::sweep_model(*cache_, &pool_, job.model, job.stimuli, job.lanes,
                            job.duration_seconds, job.options, &fell_back);
    executors_built_.fetch_add(1, std::memory_order_relaxed);
    if (fell_back) {
        native_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
    return result;
}

ServiceStats SweepService::stats() const {
    ServiceStats s;
    s.jobs_submitted = jobs_submitted_.load(std::memory_order_relaxed);
    s.jobs_completed = jobs_completed_.load(std::memory_order_relaxed);
    s.jobs_failed = jobs_failed_.load(std::memory_order_relaxed);
    s.native_fallbacks = native_fallbacks_.load(std::memory_order_relaxed);
    s.executors_built = executors_built_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        s.queue_depth = queue_.size() + in_flight_;
        s.peak_queue_depth = peak_queue_depth_;
    }
    s.cache = cache_->stats();
    return s;
}

}  // namespace amsvp::runtime
