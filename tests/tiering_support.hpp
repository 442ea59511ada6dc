// Deterministic handshakes with a ModelCache's compile thread for tests of
// tiered kNativeOrc sweeps, which start on the interpreter and switch to
// the ORC kernel when its compile lands, and job sizes against the compile
// budget that decides whether a cold simulate_sweep job queues that compile
// at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "abstraction/signal_flow_model.hpp"
#include "numeric/sources.hpp"
#include "runtime/model_layout.hpp"
#include "runtime/sweep_service.hpp"

namespace amsvp::testing_support {

/// The steps a job of `lanes` lanes needs to plan just over `fraction` of
/// `model`'s compile budget (ModelCache::compile_budget): at 1 a cold
/// kNativeOrc simulate_sweep job of that length reaches the budget and
/// queues the compile at its start; at 0.6 it stays under it, and the
/// second such job reaches it.
inline std::size_t steps_for_budget(const abstraction::SignalFlowModel& model,
                                    std::size_t lanes, double fraction) {
    const std::uint64_t budget =
        runtime::ModelCache::compile_budget(*runtime::ModelLayout::compile(model));
    return static_cast<std::size_t>(fraction * static_cast<double>(budget) /
                                    static_cast<double>(lanes)) +
           1;
}

/// `source`, except that its call at time `at` blocks until `cache` has
/// landed one more ORC compile than when the wrapper was made. The landing
/// is booked before the compile's ticket resolves, so a tiered job stepping
/// this stimulus switches to the kernel no later than the step sampled at
/// `at`. The wait polls the cache's counters and yields; it never sleeps.
inline numeric::SourceFunction hold_until_compile_lands(
    std::shared_ptr<runtime::ModelCache> cache, double at, numeric::SourceFunction source) {
    const std::uint64_t landed = cache->stats().orc_misses;
    return [cache = std::move(cache), source = std::move(source), at, landed](double t) {
        if (t == at) {
            while (cache->stats().orc_misses == landed) {
                std::this_thread::yield();
            }
        }
        return source(t);
    };
}

/// `source`, except that its first call blocks until `cache` has counted
/// one more ORC compile failure than when the wrapper was made. A job that
/// steps it cannot end before its compile has failed, so the failure
/// degrades the job deterministically. The wait polls the cache's counters
/// and yields; it never sleeps.
inline numeric::SourceFunction hold_until_compile_fails(
    std::shared_ptr<runtime::ModelCache> cache, numeric::SourceFunction source) {
    const std::uint64_t failures = cache->stats().orc_failures;
    auto first_call = std::make_shared<std::once_flag>();
    return [cache = std::move(cache), source = std::move(source), failures,
            first_call](double t) {
        std::call_once(*first_call, [&] {
            while (cache->stats().orc_failures == failures) {
                std::this_thread::yield();
            }
        });
        return source(t);
    };
}

}  // namespace amsvp::testing_support
