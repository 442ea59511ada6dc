// Discrete-event simulation kernel — the SystemC stand-in substrate.
//
// Reproduces the cost structure of an event-driven HDL kernel:
//  * a timed event queue (binary heap),
//  * two-phase delta cycles (evaluate, then channel update),
//  * processes triggered through sensitivity lists.
//
// Generated SystemC-DE models, the TDF/ELN AMS layers, the virtual platform
// and the co-simulation coupler all run on this kernel, so Table I/III's
// "kernel overhead" rows are measured against a real scheduler, not a stub.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <type_traits>
#include <vector>

#include "de/time.hpp"
#include "support/check.hpp"

namespace amsvp::de {

using ProcessId = int;
using PeriodicId = int;

struct KernelStats {
    std::uint64_t process_activations = 0;
    std::uint64_t delta_cycles = 0;
    std::uint64_t timed_events = 0;
    std::uint64_t channel_updates = 0;
};

/// A primitive channel with request/update semantics (the
/// sc_prim_channel::update analogue). The kernel queues a plain pointer per
/// request_update() and calls apply_update() once in that delta's update
/// phase; the channel must outlive the pending request.
class Updatable {
public:
    virtual void apply_update() = 0;

protected:
    ~Updatable() = default;
};

class Simulator {
public:
    using ProcessFn = std::function<void()>;
    using Callback = std::function<void()>;

    /// Register a process. Processes never run before being triggered
    /// (either via sensitivity or an explicit timed trigger).
    ProcessId add_process(std::string name, ProcessFn fn);

    [[nodiscard]] std::size_t process_count() const { return processes_.size(); }
    [[nodiscard]] const std::string& process_name(ProcessId pid) const;

    /// Make a process runnable in the next delta cycle of the current time.
    void trigger(ProcessId pid) {
        AMSVP_CHECK(pid >= 0 && pid < static_cast<ProcessId>(processes_.size()),
                    "process id out of range");
        Process& p = processes_[static_cast<std::size_t>(pid)];
        if (!p.runnable) {
            p.runnable = true;
            runnable_.push_back(pid);
        }
    }

    /// Run `cb` at absolute time `at` (timed notification). `at` must not be
    /// in the past. The callback waits in a slab slot, not in the heap; the
    /// slot returns to a free list when the callback is moved out to run, so
    /// steady-state one-shot traffic reuses slots instead of allocating.
    void schedule_at(Time at, Callback cb);
    /// Run `cb` after `delay` from now.
    void schedule_after(Time delay, Callback cb);

    /// Periodic fast path: run `cb` at `first`, then every `period`, until
    /// cancelled. The callback is stored once in a task whose address never
    /// changes; re-arming pushes another heap entry naming the task, so
    /// steady-state periodic activity performs no heap allocation (unlike a
    /// callback that re-schedules itself each time). Ordering matches the
    /// self-rescheduling pattern exactly: the next occurrence is sequenced
    /// directly after the callback returns.
    /// Slots of cancelled schedules are recycled once their last pending
    /// heap entry drains, so repeated schedule/cancel cycles (re-tuned
    /// Event::notify_every, re-programmed timers) keep the task table
    /// bounded instead of growing with simulated time.
    PeriodicId schedule_periodic(Time first, Time period, Callback cb);
    /// Stop a periodic schedule. Safe to call from within its own callback.
    /// Call at most once per id: a cancelled id may be recycled by a later
    /// schedule_periodic, so double-cancel could hit an unrelated schedule.
    void cancel_periodic(PeriodicId id);

    /// Task-table slots currently allocated (diagnostics: boundedness tests).
    [[nodiscard]] std::size_t periodic_slot_count() const { return periodic_tasks_.size(); }
    /// One-shot slab slots currently allocated (diagnostics: slot reuse).
    [[nodiscard]] std::size_t one_shot_slot_count() const { return one_shots_.size(); }

    /// Queue `channel` for the current delta's update phase.
    void request_update(Updatable& channel) { updates_.push_back(&channel); }

    [[nodiscard]] Time now() const { return now_; }
    [[nodiscard]] const KernelStats& stats() const { return stats_; }

    /// Advance until `end` (inclusive); `end` must not be before now().
    /// Returns `end`, which becomes now() even when the queue drains first.
    Time run_until(Time end);
    /// Advance by `duration` from the current time.
    Time run(Time duration) { return run_until(now_ + duration); }

    /// True when timed events remain.
    [[nodiscard]] bool has_pending_events() const { return !timed_.empty(); }

private:
    struct Process {
        std::string name;
        ProcessFn fn;
        bool runnable = false;
    };
    /// Heap entry: 24 trivially copyable bytes, ordered by (at, seq). `id`
    /// >= 0 names a periodic task; a one-shot stores ~slot (always
    /// negative) for its callback's one_shots_ slot.
    struct TimedEvent {
        Time at;
        std::uint64_t seq;  ///< FIFO order among same-time events
        std::int64_t id;
    };
    static_assert(sizeof(TimedEvent) == 24 && std::is_trivially_copyable_v<TimedEvent>);
    struct PeriodicTask {
        Time period;
        Callback fn;
        bool active = false;
    };
    struct TimedEventOrder {
        bool operator()(const TimedEvent& a, const TimedEvent& b) const {
            if (a.at != b.at) {
                return a.at > b.at;
            }
            return a.seq > b.seq;
        }
    };

    std::vector<Process> processes_;
    std::vector<ProcessId> runnable_;
    std::vector<Updatable*> updates_;
    /// Delta-cycle scratch, kept as members so the evaluate/update double
    /// buffers retain their capacity across delta cycles (no per-delta
    /// allocation in steady state).
    std::vector<ProcessId> runnable_scratch_;
    std::vector<Updatable*> updates_scratch_;
    std::priority_queue<TimedEvent, std::vector<TimedEvent>, TimedEventOrder> timed_;
    /// One-shot callback slab and its free slots.
    std::vector<Callback> one_shots_;
    std::vector<std::uint32_t> free_one_shots_;
    /// Tasks live behind pointers: a periodic callback may register new
    /// periodic tasks while it runs, and growing the table must not move
    /// the PeriodicTask whose fn() is currently on the stack.
    std::vector<std::unique_ptr<PeriodicTask>> periodic_tasks_;
    /// Recyclable task slots: cancelled schedules whose pending heap entry
    /// has drained.
    std::vector<PeriodicId> free_periodic_;
    std::uint64_t next_seq_ = 0;
    Time now_ = 0;
    KernelStats stats_;
};

}  // namespace amsvp::de
