#include "runtime/sweep_service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
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

ModelCache::~ModelCache() { stop_compiler(); }

ModelCache& ModelCache::global() {
    // Leaked on purpose: executors handed out against cached layouts may
    // legally outlive every static-destruction order.
    static ModelCache* cache = [] {
        auto* global = new ModelCache();
        global->is_global_ = true;
        return global;
    }();
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
        locked_evict_back();
    }
}

void ModelCache::locked_evict_back() {
    const auto it = entries_.find(lru_.back());
    if (it->second.orc_ticket != nullptr) {
        locked_drop_queued(it->second.orc_ticket.get());
    }
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
}

void ModelCache::locked_drop_queued(const codegen::OrcCompileTicket* which) {
    for (auto it = compile_queue_.begin(); it != compile_queue_.end();) {
        if (which != nullptr && it->ticket.get() != which) {
            ++it;
            continue;
        }
        const auto entry = entries_.find(it->fingerprint);
        if (entry != entries_.end() && entry->second.orc_ticket == it->ticket) {
            entry->second.orc_ticket.reset();
        }
        it->ticket->drop();
        ++stats_.orc_dropped;
        it = compile_queue_.erase(it);
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

std::uint64_t ModelCache::compile_budget(const ModelLayout& layout) {
    // Measured on a 4-vCPU x86-64 host (LLVM 14 already loaded, one CPU)
    // over the paper circuits, n fused instructions each:
    //  * an ORC compile costs about 3.5 ms + 0.18 ms * n: RC1 (n = 2)
    //    3.8-4.4 ms, 2IN (13) 5.1-5.6, OA (15) 5.0-6.0, RC20 (100) 21.5-25.8;
    //  * the kernel saves about 0.3-0.5 ns * n per lane-step over the
    //    interpreter in a width-8 sweep (interpreter vs kernel, ns per
    //    lane-step: RC1 12.2 vs 11.3, 2IN 25.8 vs 21.8, OA 19.6 vs 13.3,
    //    RC20 92.7 vs 40.6).
    // The budget is their quotient: RC20 478 k lane-steps, OA 919 k,
    // 2IN 998 k, RC1 4.29 M.
    constexpr double kCompileFixedNs = 3.5e6;
    constexpr double kCompilePerInstructionNs = 0.18e6;
    constexpr double kSavedPerInstructionNs = 0.45;
    const auto n = static_cast<double>(layout.fused_program().instructions().size());
    if (n == 0.0) {
        return std::numeric_limits<std::uint64_t>::max();  // no kernel saves anything
    }
    return static_cast<std::uint64_t>(
        std::ceil((kCompileFixedNs + kCompilePerInstructionNs * n) / (kSavedPerInstructionNs * n)));
}

ModelCache::OrcRequest ModelCache::request_orc_program(
    const abstraction::SignalFlowModel& model, const std::string& fingerprint) {
    return request_orc(model, fingerprint, std::nullopt);
}

ModelCache::OrcRequest ModelCache::request_orc_for_job(const abstraction::SignalFlowModel& model,
                                                       const std::string& fingerprint,
                                                       std::uint64_t lane_steps) {
    return request_orc(model, fingerprint, lane_steps);
}

ModelCache::OrcRequest ModelCache::request_orc(const abstraction::SignalFlowModel& model,
                                               const std::string& fingerprint,
                                               std::optional<std::uint64_t> job_lane_steps) {
    std::unique_lock<std::mutex> lock(mutex_);
    OrcRequest request;
    Entry& entry = locked_touch_entry(fingerprint);
    if (entry.orc_program != nullptr) {
        ++stats_.orc_hits;
        stats_.orc_compile_seconds_saved += entry.orc_compile_seconds;
        request.program = entry.orc_program;
        return request;
    }
    request.layout = locked_layout_for(model, fingerprint);
    if (entry.orc_ticket != nullptr) {
        request.ticket = entry.orc_ticket;
        return request;
    }
    if (job_lane_steps.has_value() && codegen::orc_available()) {
        // Rent or buy: interpret until the model's planned interpreted work
        // reaches what the compile costs.
        entry.interpreted_lane_steps +=
            std::min(*job_lane_steps,
                     std::numeric_limits<std::uint64_t>::max() - entry.interpreted_lane_steps);
        if (entry.interpreted_lane_steps < compile_budget(*request.layout)) {
            ++stats_.orc_deferred;
            return request;
        }
    }
    entry.orc_ticket = std::make_shared<codegen::OrcCompileTicket>();
    CompileJob job{fingerprint, request.layout, entry.orc_ticket};
    request.ticket = job.ticket;
    if (!codegen::orc_available() || compiler_stopped_) {
        // Nothing to wait for (the stub fails at once) or nobody left to
        // compile (the global cache after exit began): compile here.
        run_compile(lock, job);
        return request;
    }
    compile_queue_.push_back(std::move(job));
    locked_start_compiler();
    compile_wake_.notify_one();
    return request;
}

std::shared_ptr<const codegen::OrcJitProgram> ModelCache::orc_program_for(
    const abstraction::SignalFlowModel& model, std::string* error) {
    return orc_program_for(model, model_fingerprint(model), error);
}

std::shared_ptr<const codegen::OrcJitProgram> ModelCache::orc_program_for(
    const abstraction::SignalFlowModel& model, const std::string& fingerprint,
    std::string* error) {
    for (;;) {
        const OrcRequest request = request_orc_program(model, fingerprint);
        if (request.program != nullptr) {
            return request.program;
        }
        const codegen::OrcCompileTicket::State state = request.ticket->wait();
        if (state == codegen::OrcCompileTicket::State::kLanded) {
            return request.ticket->program();
        }
        if (state == codegen::OrcCompileTicket::State::kFailed) {
            if (error != nullptr) {
                *error = request.ticket->error();
            }
            return nullptr;
        }
        // Dropped by clear() or eviction before it ran: ask again.
    }
}

void ModelCache::run_compile(std::unique_lock<std::mutex>& lock, CompileJob& job) {
    lock.unlock();
    const auto start = std::chrono::steady_clock::now();
    std::string error;
    std::shared_ptr<const codegen::OrcJitProgram> program =
        codegen::OrcJitProgram::compile(job.layout, &error);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    lock.lock();
    stats_.orc_compile_seconds += seconds;
    // Land only in the entry that still holds this compile's ticket: after
    // clear() or eviction the entry is gone or holds a newer ticket.
    const auto it = entries_.find(job.fingerprint);
    const bool current = it != entries_.end() && it->second.orc_ticket == job.ticket;
    if (current) {
        it->second.orc_ticket.reset();
    }
    if (program == nullptr) {
        // NOT cached: the next request retries, so a transient failure (an
        // injected jit.orc_materialize fault) cannot poison the entry.
        ++stats_.orc_failures;
        job.ticket->fail(error.empty() ? "orc jit compilation failed" : error);
        return;
    }
    if (current) {
        it->second.orc_program = program;
        it->second.orc_compile_seconds = seconds;
        ++stats_.orc_misses;
    } else {
        ++stats_.orc_discarded;
    }
    job.ticket->land(std::move(program));
}

void ModelCache::compiler_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        compile_wake_.wait(lock, [this] { return compiler_stopped_ || !compile_queue_.empty(); });
        if (compile_queue_.empty()) {
            return;  // stopped: stop_compiler() dropped whatever was queued
        }
        CompileJob job = std::move(compile_queue_.front());
        compile_queue_.pop_front();
        run_compile(lock, job);
        // A discarded program dies with the job's last ticket reference:
        // tear its LLJIT down off the lock.
        lock.unlock();
        job = CompileJob{};
        lock.lock();
    }
}

void ModelCache::locked_start_compiler() {
    if (compiler_.joinable()) {
        return;
    }
    if (is_global_) {
        // Exit runs atexit handlers and static destructors in reverse order
        // of registration, so this join precedes the destructors of every
        // static constructed so far — LLVM's global options among them.
        std::atexit(stop_global_compiler);
    }
    compiler_ = std::thread([this] { compiler_loop(); });
}

void ModelCache::stop_compiler() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        compiler_stopped_ = true;
        locked_drop_queued(nullptr);
    }
    compile_wake_.notify_all();
    if (compiler_.joinable()) {
        compiler_.join();
    }
}

void ModelCache::stop_global_compiler() { global().stop_compiler(); }

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
        locked_evict_back();
    }
}

std::size_t ModelCache::capacity() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
}

void ModelCache::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    locked_drop_queued(nullptr);
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
        detail::sweep_model(*cache_, &pool_, detail::CompilePurchase::kAtFirstJob, job.model,
                            job.stimuli, job.lanes, job.duration_seconds, job.options, &fell_back);
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
