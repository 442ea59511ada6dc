// Deterministic fault injection for robustness tests.
//
// Production code is sprinkled with named *fault sites* — e.g. the ORC
// JIT's materialization ("jit.orc_materialize"), the worker pool's task dispatch
// ("pool.worker"), the sweep driver's per-lane stimulus write
// ("sweep.lane_nan"). A site is one `fault::should_fire(...)` call; tests
// *arm* a site to make it fire once, always, or after N matching checks,
// and the code under test takes its real recovery path — no mocks, no
// special test-only builds.
//
// Unarmed cost: `should_fire` is an inline check of one relaxed atomic
// counter (`any_armed()`); the registry lookup only happens while at least
// one site is armed anywhere in the process. Hot loops can therefore keep
// their fault sites in production builds.
//
// Known sites (keep this list in sync with the code and README):
//   jit.orc_materialize  the in-process ORC JIT fails to materialize a
//                     kernel (codegen::OrcJitProgram::compile for the batch
//                     kernel, codegen::OrcScalarProgram::compile for the
//                     scalar one)
//   pool.worker       a ThreadPool task throws (context = task index)
//   sweep.lane_nan    a sweep lane's input goes NaN (context = global lane)
//   sweep.shard_alloc building a per-worker sweep shard fails
//                     (context = shard index)
//
// Thread safety: arm/disarm/should_fire may be called from any thread; the
// slow path serializes on one mutex. Counting triggers (kOnce, kAfterN)
// fire exactly once process-wide even under concurrent checks.
#pragma once

#include <atomic>
#include <string>

namespace amsvp::support::fault {

/// How an armed site decides to fire.
enum class Trigger {
    kOnce,    ///< the next matching check fires, then the site disarms
    kAlways,  ///< every matching check fires until disarm()
    kAfterN,  ///< the first `after` matching checks pass, the next fires
              ///< once, then the site disarms
};

/// Context wildcard: the armed site matches checks with any context value.
inline constexpr int kAnyContext = -1;

/// Arm `site`. `after` is only meaningful for Trigger::kAfterN. When
/// `context != kAnyContext`, only checks reporting that exact context value
/// match (e.g. one specific sweep lane or pool task index); non-matching
/// checks neither fire nor advance the kAfterN countdown. Re-arming an
/// armed site replaces its trigger and resets its countdown (the fire count
/// is kept).
void arm(const std::string& site, Trigger trigger, int after = 0, int context = kAnyContext);

/// Disarm one site. Its fire count survives for later assertions.
void disarm(const std::string& site);

/// Disarm every site and forget all fire counts.
void reset();

/// How many times `site` has fired since it was first armed (test
/// assertions: "the recovery path really was exercised").
[[nodiscard]] int fire_count(const std::string& site);

namespace detail {
extern std::atomic<int> g_armed_sites;
[[nodiscard]] bool should_fire_slow(const char* site, int context);
}  // namespace detail

/// True while at least one site is armed — a single relaxed load, the
/// production fast path.
[[nodiscard]] inline bool any_armed() {
    return detail::g_armed_sites.load(std::memory_order_relaxed) != 0;
}

/// The fault site check. Unarmed: one relaxed atomic load and a predicted
/// branch. Armed: a mutex-guarded registry lookup deciding per the site's
/// trigger.
[[nodiscard]] inline bool should_fire(const char* site, int context = kAnyContext) {
    return any_armed() && detail::should_fire_slow(site, context);
}

}  // namespace amsvp::support::fault
