// Deterministic handshakes with a ModelCache's compile thread for tests of
// tiered kNativeOrc sweeps, which start on the interpreter and switch to
// the ORC kernel when its compile lands.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "numeric/sources.hpp"
#include "runtime/sweep_service.hpp"

namespace amsvp::testing_support {

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
