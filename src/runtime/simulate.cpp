#include "runtime/simulate.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>

// The ORC backend lives in codegen; this .cpp-level dependency is one-way —
// no codegen header includes runtime/simulate.hpp — and keeps backend
// selection a plain SweepOptions field instead of a registration scheme.
#include "codegen/orc_jit.hpp"
#include "runtime/sweep_service.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/step_count.hpp"
#include "support/thread_pool.hpp"

namespace amsvp::runtime {

TransientResult simulate_transient(const abstraction::SignalFlowModel& model,
                                   const std::map<std::string, numeric::SourceFunction>& stimuli,
                                   double duration_seconds) {
    CompiledModel compiled(model);
    return simulate_transient(compiled, model.inputs, stimuli, duration_seconds);
}

TransientResult simulate_transient(ModelExecutor& compiled,
                                   const std::vector<expr::Symbol>& input_symbols,
                                   const std::map<std::string, numeric::SourceFunction>& stimuli,
                                   double duration_seconds) {
    compiled.reset();
    const double dt = compiled.timestep();
    if (!(dt > 0.0)) {
        throw std::invalid_argument("model has no timestep");
    }

    std::vector<const numeric::SourceFunction*> sources;
    sources.reserve(input_symbols.size());
    for (const expr::Symbol& in : input_symbols) {
        sources.push_back(&numeric::stimulus_for(stimuli, in.name));
    }

    const std::size_t steps = support::step_count(duration_seconds, dt);
    TransientResult result;
    result.steps = steps;
    // All backends in this library sample at t = dt, 2dt, ... so traces are
    // directly comparable.
    result.outputs.assign(compiled.output_count(), numeric::Waveform(dt, dt));
    for (auto& w : result.outputs) {
        w.reserve(steps);
    }

    for (std::size_t k = 0; k < steps; ++k) {
        const double t = static_cast<double>(k + 1) * dt;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            compiled.set_input(i, (*sources[i])(t));
        }
        compiled.step(t);
        for (std::size_t o = 0; o < result.outputs.size(); ++o) {
            result.outputs[o].append(compiled.output(o));
        }
    }
    return result;
}

SweepBackend preferred_native_backend() {
    return codegen::orc_available() ? SweepBackend::kNativeOrc : SweepBackend::kInterpreter;
}

SweepResult simulate_sweep(const abstraction::SignalFlowModel& model,
                           const std::map<std::string, numeric::SourceFunction>& shared_stimuli,
                           const std::vector<SweepLane>& lanes, double duration_seconds,
                           const SweepOptions& options) {
    // All compile artifacts come from the process-wide ModelCache: repeat
    // sweeps of one model skip the FusedCompiler re-run and — on kNativeOrc
    // — the ORC materialization, even without a SweepService. Results are
    // unaffected (layouts and programs are immutable); only cold-start cost
    // changes.
    return detail::sweep_model(ModelCache::global(), nullptr, detail::CompilePurchase::kRentOrBuy,
                               model, shared_stimuli, lanes, duration_seconds, options, nullptr);
}

namespace {

/// True when the move from `anchor` to `value` is within the steady band. A
/// diverged (non-finite) value is never steady: |inf - x| <= inf would
/// otherwise retire a blown-up lane as "settled". The relative tolerance
/// scales with the *larger* endpoint magnitude: a lane decaying toward zero
/// from a large anchor keeps the band of the magnitude it is leaving,
/// instead of the band collapsing with |value| and judging the tail of the
/// decay ever more strictly than its start.
bool within_steady_band(double value, double anchor, double tolerance) {
    return std::isfinite(value) &&
           std::fabs(value - anchor) <=
               tolerance * std::max({1.0, std::fabs(value), std::fabs(anchor)});
}

/// Step one contiguous shard of sweep lanes to completion. This is the
/// whole sweep engine — the single-threaded path runs it once over all
/// lanes, the worker-pool path runs it once per shard — so both paths are
/// the same code and bit-identical by construction (lane results do not
/// depend on batch width; see batch_model_test). It drives the abstract
/// BatchExecutor surface, so the same loop serves the fused interpreter
/// and the ORC-JITed kernel — including the lane-health scan and
/// quarantine, which read the slot file and so behave identically on both
/// backends.
///
///  - `batch` is the shard's own executor (width == the shard's lane
///    count), already reset with per-lane overrides applied.
///  - `sources` are the input-major stimulus rows over ALL sweep lanes
///    (row stride `source_stride`); the shard reads the columns
///    [lane_begin, lane_begin + batch.batch()).
///  - `outputs` are the sweep result's WaveformBatches, already sized to
///    every lane and every step; the shard writes only its own columns
///    [lane_begin, lane_begin + batch.batch()) of each frame, so shards
///    never write the same sample. `settled_at` and `lane_health` point
///    at the shard's slices of the result (batch.batch() entries,
///    pre-filled with `steps` / healthy).
///  - `cancel`, when non-null, is polled once per step: a raised flag
///    aborts the shard early (the worker pool raises it when another shard
///    failed — this shard's results are about to be discarded anyway).
///
/// Lanes leave the batch two ways, through the same compaction machinery:
/// steady-state *retirement* (the lane finished early, samples hold the
/// settled value) and health *quarantine* (the lane went non-finite or
/// diverged — samples hold the last captured frame, the verdict lands in
/// `lane_health`). Lanes never interact arithmetically, so the surviving
/// lanes' outputs are bit-identical to a sweep that never contained the
/// removed ones.
void run_sweep_shard(BatchExecutor& batch,
                     const numeric::SourceFunction* const* sources,
                     std::size_t source_stride, std::size_t lane_begin,
                     std::size_t n_inputs, std::size_t steps, double dt,
                     const SweepOptions& options,
                     std::vector<numeric::WaveformBatch>& outputs,
                     std::size_t* settled_at, LaneHealth* lane_health,
                     const std::atomic<bool>* cancel) {
    const std::size_t n_outputs = outputs.size();
    const bool detect = options.steady_tolerance > 0.0;
    const std::size_t scan_every = options.lane_health_interval;
    const std::size_t n_lanes = static_cast<std::size_t>(batch.batch());

    // `origin[pos]` maps a current batch position back to its shard-local
    // lane. While no lane has left the shard it is the identity and each
    // output row is one copy into the frame; afterwards the live lanes
    // scatter to their columns and removed lanes are held after the loop.
    std::vector<int> origin(n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        origin[l] = static_cast<int>(l);
    }
    /// Streak anchor: each output's value when the lane's current quiet
    /// streak started. Comparing against the anchor (not the previous
    /// step) bounds the total drift over the whole window by the steady
    /// band — a merely slow transient (per-step move below tolerance but
    /// steadily accumulating) cannot false-settle.
    std::vector<std::vector<double>> anchor;
    std::vector<int> quiet_steps;  ///< consecutive in-band steps per lane
    if (detect) {
        anchor.assign(n_outputs, std::vector<double>(n_lanes, 0.0));
        quiet_steps.assign(n_lanes, 0);
    }
    std::vector<LaneStatus> health;  ///< scan scratch, sized by the scan
    std::vector<int> keep;           ///< scratch for compact_lanes

    for (std::size_t k = 0; k < steps; ++k) {
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
            return;  // another shard failed; these results get discarded
        }
        const double t = static_cast<double>(k + 1) * dt;
        const int active = batch.batch();
        for (std::size_t i = 0; i < n_inputs; ++i) {
            const numeric::SourceFunction* const* row =
                sources + i * source_stride + lane_begin;
            for (int pos = 0; pos < active; ++pos) {
                batch.set_input(pos, i, (*row[origin[static_cast<std::size_t>(pos)]])(t));
            }
        }
        // Fault site sweep.lane_nan (context = global lane index): poison
        // the lane's first input with NaN before the step, exactly like a
        // bad parameter set or a diverging upstream model would. One
        // relaxed load when unarmed; the per-lane checks only run armed.
        if (support::fault::any_armed() && n_inputs > 0) {
            for (int pos = 0; pos < active; ++pos) {
                const int global_lane = static_cast<int>(lane_begin) +
                                        origin[static_cast<std::size_t>(pos)];
                if (support::fault::should_fire("sweep.lane_nan", global_lane)) {
                    batch.set_input(pos, 0, std::numeric_limits<double>::quiet_NaN());
                }
            }
        }
        batch.step(t);
        for (std::size_t o = 0; o < n_outputs; ++o) {
            const double* values = batch.output_lanes(o);
            double* frame = outputs[o].frame(k) + lane_begin;
            if (static_cast<std::size_t>(active) == n_lanes) {
                std::memcpy(frame, values, n_lanes * sizeof(double));
            } else {
                for (int pos = 0; pos < active; ++pos) {
                    frame[origin[static_cast<std::size_t>(pos)]] = values[pos];
                }
            }
        }

        // Settle check against the streak anchor (first step only seeds it).
        bool any_settled = false;
        if (detect) {
            for (int pos = 0; pos < active; ++pos) {
                const auto lane =
                    static_cast<std::size_t>(origin[static_cast<std::size_t>(pos)]);
                bool quiet = k > 0;
                for (std::size_t o = 0; quiet && o < n_outputs; ++o) {
                    quiet = within_steady_band(outputs[o].frame(k)[lane_begin + lane],
                                               anchor[o][lane], options.steady_tolerance);
                }
                if (quiet) {
                    ++quiet_steps[lane];
                } else {
                    quiet_steps[lane] = 0;
                    for (std::size_t o = 0; o < n_outputs; ++o) {
                        anchor[o][lane] = outputs[o].frame(k)[lane_begin + lane];
                    }
                }
                if (quiet_steps[lane] >= options.steady_window) {
                    settled_at[lane] = k + 1;
                    any_settled = true;
                }
            }
        }

        // Periodic health scan: classify every lane from its slot file and
        // mark failures for quarantine.
        bool any_failed = false;
        if (scan_every > 0 && (k + 1) % scan_every == 0) {
            batch.scan_lane_health(options.divergence_limit, health);
            for (int pos = 0; pos < active; ++pos) {
                if (health[static_cast<std::size_t>(pos)] != LaneStatus::kOk) {
                    const auto lane =
                        static_cast<std::size_t>(origin[static_cast<std::size_t>(pos)]);
                    lane_health[lane].status = health[static_cast<std::size_t>(pos)];
                    lane_health[lane].failed_at = k + 1;
                    any_failed = true;
                }
            }
        }
        if (!any_settled && !any_failed) {
            continue;
        }

        keep.clear();
        for (int pos = 0; pos < active; ++pos) {
            const auto lane = static_cast<std::size_t>(origin[static_cast<std::size_t>(pos)]);
            if (settled_at[lane] == steps && lane_health[lane].status == LaneStatus::kOk) {
                keep.push_back(pos);
            }
        }
        if (keep.empty()) {
            break;  // everything retired or quarantined: stop stepping
        }
        if (static_cast<int>(keep.size()) < active) {
            batch.compact_lanes(keep);
            for (std::size_t j = 0; j < keep.size(); ++j) {
                origin[j] = origin[static_cast<std::size_t>(keep[j])];
            }
            origin.resize(keep.size());
        }
    }

    // Hold every removed lane's last captured sample to the end, so all
    // waveforms span `steps` frames. A lane left the batch right after
    // capturing frame end - 1, where end is its settle or failure step.
    for (std::size_t l = 0; l < n_lanes; ++l) {
        std::size_t end = settled_at[l];
        if (lane_health[l].status != LaneStatus::kOk) {
            end = std::min(end, lane_health[l].failed_at);
        }
        if (end == steps) {
            continue;  // ran to the end
        }
        for (std::size_t o = 0; o < n_outputs; ++o) {
            const double held = outputs[o].frame(end - 1)[lane_begin + l];
            for (std::size_t k = end; k < steps; ++k) {
                outputs[o].frame(k)[lane_begin + l] = held;
            }
        }
    }
}

/// Resolve SweepOptions::threads: 0 means "all hardware threads".
int resolve_threads(int requested) {
    AMSVP_CHECK(requested >= 0, "SweepOptions::threads must be >= 0");
    return requested == 0 ? support::ThreadPool::hardware_threads() : requested;
}

}  // namespace

namespace detail {

void validate_sweep(const std::vector<expr::Symbol>& input_symbols,
                    const std::map<std::string, numeric::SourceFunction>& shared_stimuli,
                    const std::vector<SweepLane>& lanes, double duration_seconds, double dt,
                    const SweepOptions& options) {
    if (lanes.empty()) {
        throw std::invalid_argument("sweep needs at least one lane");
    }
    if (options.threads < 0) {
        throw std::invalid_argument("SweepOptions::threads must be >= 0");
    }
    if (options.steady_tolerance > 0.0 && options.steady_window < 1) {
        throw std::invalid_argument("steady_window must be at least one step");
    }
    if (!(dt > 0.0)) {
        throw std::invalid_argument("model has no timestep");
    }
    (void)support::step_count(duration_seconds, dt);
    for (const expr::Symbol& in : input_symbols) {
        if (shared_stimuli.count(in.name) != 0) {
            continue;
        }
        for (const SweepLane& lane : lanes) {
            if (lane.stimuli.count(in.name) == 0) {
                throw std::invalid_argument("missing stimulus for model input " + in.name);
            }
        }
    }
}

SweepResult sweep_model(ModelCache& cache, support::ThreadPool* pool, CompilePurchase purchase,
                        const abstraction::SignalFlowModel& model,
                        const std::map<std::string, numeric::SourceFunction>& shared_stimuli,
                        const std::vector<SweepLane>& lanes, double duration_seconds,
                        const SweepOptions& options, bool* fell_back) {
    validate_sweep(model.inputs, shared_stimuli, lanes, duration_seconds, model.timestep,
                   options);
    const std::string fingerprint = model_fingerprint(model);
    const int width = static_cast<int>(lanes.size());
    std::unique_ptr<BatchExecutor> batch;
    std::shared_ptr<const codegen::OrcCompileTicket> ticket;
    if (options.backend == SweepBackend::kNativeOrc) {
        ModelCache::OrcRequest request;
        if (purchase == CompilePurchase::kAtFirstJob) {
            request = cache.request_orc_program(model, fingerprint);
        } else {
            // The job's planned work, saturating: steady retirement can
            // only make it an overestimate.
            const std::uint64_t steps = support::step_count(duration_seconds, model.timestep);
            const std::uint64_t lane_steps =
                steps > std::numeric_limits<std::uint64_t>::max() / lanes.size()
                    ? std::numeric_limits<std::uint64_t>::max()
                    : steps * lanes.size();
            request = cache.request_orc_for_job(model, fingerprint, lane_steps);
        }
        ticket = std::move(request.ticket);
        if (request.program != nullptr) {
            batch = std::make_unique<codegen::OrcBatchModel>(std::move(request.program), width);
        } else if (ticket == nullptr ||
                   ticket->state() == codegen::OrcCompileTicket::State::kFailed) {
            // Under the compile budget, or the compile failed.
            batch = std::make_unique<BatchCompiledModel>(std::move(request.layout), width);
        } else {
            batch = std::make_unique<codegen::TieredOrcBatchModel>(std::move(request.layout),
                                                                   ticket, width);
        }
    } else {
        batch = std::make_unique<BatchCompiledModel>(cache.layout_for(model, fingerprint), width);
    }
    SweepResult result = run_sweep(*batch, model.inputs, shared_stimuli, lanes,
                                   duration_seconds, options, pool);
    // Only a failed compile degrades the job. One not bought yet, still
    // running when the job ended, or dropped by a cache clear leaves a job
    // that ran the reference engine by design.
    const bool failed =
        ticket != nullptr && ticket->state() == codegen::OrcCompileTicket::State::kFailed;
    if (fell_back != nullptr) {
        *fell_back = failed;
    }
    if (failed) {
        // No stderr note: the degradation is data, not chatter — headless
        // and service callers read it in the diagnostics.
        result.diagnostics.insert(result.diagnostics.begin(),
                                  "native sweep backend unavailable (" + ticket->error() +
                                      "); ran on the batch interpreter");
    }
    return result;
}

SweepResult run_sweep(BatchExecutor& batch,
                      const std::vector<expr::Symbol>& input_symbols,
                      const std::map<std::string, numeric::SourceFunction>& shared_stimuli,
                      const std::vector<SweepLane>& lanes, double duration_seconds,
                      const SweepOptions& options, support::ThreadPool* pool) {
    AMSVP_CHECK(!lanes.empty(), "sweep needs at least one lane");
    // reset() first: it restores the constructed width if a previous sweep's
    // steady-state retirement compacted the batch, so reuse just works.
    batch.reset();
    AMSVP_CHECK(batch.batch() == static_cast<int>(lanes.size()),
                "batch width must match the lane count");
    const double dt = batch.timestep();
    AMSVP_CHECK(dt > 0.0, "model has no timestep");

    // Per (input, lane) stimulus: the lane's own override or the shared one.
    std::vector<const numeric::SourceFunction*> sources;
    sources.reserve(input_symbols.size() * lanes.size());
    for (const expr::Symbol& in : input_symbols) {
        for (const SweepLane& lane : lanes) {
            auto it = lane.stimuli.find(in.name);
            if (it == lane.stimuli.end()) {
                it = shared_stimuli.find(in.name);
                AMSVP_CHECK(it != shared_stimuli.end(), "missing stimulus for model input");
            }
            sources.push_back(&it->second);
        }
    }

    const std::size_t steps = support::step_count(duration_seconds, dt);
    const std::size_t n_lanes = lanes.size();
    SweepResult result;
    result.steps = steps;
    result.settled_at.assign(n_lanes, steps);
    result.lane_health.assign(n_lanes, LaneHealth{});
    // Sized once: every shard writes its own columns of every frame.
    result.outputs.assign(batch.output_count(), numeric::WaveformBatch(n_lanes, dt, dt));
    for (auto& w : result.outputs) {
        w.resize(steps);
    }

    if (options.steady_tolerance > 0.0) {
        AMSVP_CHECK(options.steady_window >= 1, "steady_window must be at least one step");
    }

    // Apply per-lane overrides to the caller's (already reset) full-width
    // batch and run the whole sweep on it, single-threaded. Used by the
    // one-shard path and as the recovery path after a worker-pool failure;
    // it rewrites every sample, so a failed pool run leaves no trace.
    const auto run_single_threaded = [&] {
        for (std::size_t l = 0; l < n_lanes; ++l) {
            for (const auto& [symbol, value] : lanes[l].overrides) {
                batch.set_value(static_cast<int>(l), symbol, value);
            }
        }
        run_sweep_shard(batch, sources.data(), n_lanes, 0, input_symbols.size(), steps, dt,
                        options, result.outputs, result.settled_at.data(),
                        result.lane_health.data(), nullptr);
    };

    const int threads = resolve_threads(options.threads);
    const std::vector<BatchCompiledModel::LaneRange> shards =
        threads > 1 ? BatchCompiledModel::shard_lanes(static_cast<int>(n_lanes), threads)
                    : std::vector<BatchCompiledModel::LaneRange>{
                          {0, static_cast<int>(n_lanes)}};

    if (shards.size() == 1) {
        // Single-threaded: the caller's batch *is* the one shard.
        run_single_threaded();
        result.promoted_at = std::min(steps, batch.promoted_at());
        return result;
    }

    // Worker-pool mode: each shard is its own executor over the shared
    // compile artifact — make_shard keeps the backend, so ORC sweeps shard
    // through the same materialized kernel — stepped by one worker; shards
    // write disjoint columns of the result, so the only synchronization is
    // the join. The caller's full-width batch is left reset and untouched —
    // which is what makes the single-threaded retry below a clean re-run
    // rather than a resume.
    std::vector<std::unique_ptr<BatchExecutor>> work;
    work.reserve(shards.size());
    for (const BatchCompiledModel::LaneRange& range : shards) {
        const int shard_index = static_cast<int>(work.size());
        std::unique_ptr<BatchExecutor> model;
        try {
            // Fault site sweep.shard_alloc (context = shard index): models a
            // shard executor failing to come up (allocation failure, a
            // backend resource giving out) without needing a real one.
            if (support::fault::should_fire("sweep.shard_alloc", shard_index)) {
                throw std::runtime_error("injected fault: sweep.shard_alloc (shard " +
                                         std::to_string(shard_index) + ")");
            }
            model = batch.make_shard(range.count);
        } catch (const std::exception& e) {
            // Degrade this shard instead of failing the sweep: the fallback
            // executor (interpreter for the ORC backend) is bit-identical,
            // so only this shard's throughput suffers.
            model = batch.make_fallback_shard(range.count);
            result.diagnostics.push_back("shard " + std::to_string(shard_index) +
                                         " executor construction failed (" + e.what() +
                                         "); using the fallback executor");
        }
        for (int j = 0; j < range.count; ++j) {
            const auto lane = static_cast<std::size_t>(range.begin + j);
            for (const auto& [symbol, value] : lanes[lane].overrides) {
                model->set_value(j, symbol, value);
            }
        }
        work.push_back(std::move(model));
    }

    // Caller-provided persistent pool, or one local to this call. run()
    // hands out shard indices dynamically, so a pool with fewer workers
    // than shards still completes the job (shards queue).
    std::optional<support::ThreadPool> local_pool;
    if (pool == nullptr) {
        local_pool.emplace(static_cast<int>(work.size()));
        pool = &*local_pool;
    }
    try {
        pool->run(static_cast<int>(work.size()), [&](int s) {
            const BatchCompiledModel::LaneRange& range = shards[static_cast<std::size_t>(s)];
            run_sweep_shard(*work[static_cast<std::size_t>(s)], sources.data(), n_lanes,
                            static_cast<std::size_t>(range.begin), input_symbols.size(), steps,
                            dt, options, result.outputs, result.settled_at.data() + range.begin,
                            result.lane_health.data() + range.begin, &pool->cancel_flag());
        });
        result.promoted_at = steps;
        for (const std::unique_ptr<BatchExecutor>& shard : work) {
            result.promoted_at = std::min(result.promoted_at, shard->promoted_at());
        }
    } catch (const std::exception& e) {
        // A worker threw (a stimulus callable, an executor invariant, an
        // injected pool.worker fault). The pool has cancelled the job and
        // every started shard has stopped; the captured samples are partial
        // garbage, but the caller's batch was never touched — so re-run the
        // whole sweep on the calling thread. A deterministic failure then
        // propagates to the caller from this single-threaded run instead of
        // from a worker; a transient one is healed.
        result.diagnostics.push_back(std::string("worker pool sweep failed (") + e.what() +
                                     "); re-ran single-threaded on the calling thread");
        result.settled_at.assign(n_lanes, steps);
        result.lane_health.assign(n_lanes, LaneHealth{});
        batch.reset();
        run_single_threaded();
        result.promoted_at = std::min(steps, batch.promoted_at());
    }
    return result;
}

}  // namespace detail

SweepResult simulate_sweep(BatchExecutor& batch,
                           const std::vector<expr::Symbol>& input_symbols,
                           const std::map<std::string, numeric::SourceFunction>& shared_stimuli,
                           const std::vector<SweepLane>& lanes, double duration_seconds,
                           const SweepOptions& options) {
    detail::validate_sweep(input_symbols, shared_stimuli, lanes, duration_seconds,
                           batch.timestep(), options);
    return detail::run_sweep(batch, input_symbols, shared_stimuli, lanes, duration_seconds,
                             options, /*pool=*/nullptr);
}

}  // namespace amsvp::runtime
