#include "de/kernel.hpp"

#include <utility>

namespace amsvp::de {

ProcessId Simulator::add_process(std::string name, ProcessFn fn) {
    processes_.push_back(Process{std::move(name), std::move(fn), false});
    return static_cast<ProcessId>(processes_.size() - 1);
}

const std::string& Simulator::process_name(ProcessId pid) const {
    AMSVP_CHECK(pid >= 0 && pid < static_cast<ProcessId>(processes_.size()),
                "process id out of range");
    return processes_[static_cast<std::size_t>(pid)].name;
}

void Simulator::schedule_at(Time at, Callback cb) {
    AMSVP_CHECK(at >= now_, "cannot schedule an event in the past");
    std::uint32_t slot;
    if (!free_one_shots_.empty()) {
        slot = free_one_shots_.back();
        free_one_shots_.pop_back();
        one_shots_[slot] = std::move(cb);
    } else {
        slot = static_cast<std::uint32_t>(one_shots_.size());
        one_shots_.push_back(std::move(cb));
    }
    timed_.push(TimedEvent{at, next_seq_++, ~static_cast<std::int64_t>(slot)});
}

void Simulator::schedule_after(Time delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
}

PeriodicId Simulator::schedule_periodic(Time first, Time period, Callback cb) {
    AMSVP_CHECK(first >= now_, "cannot schedule an event in the past");
    AMSVP_CHECK(period > 0, "periodic schedule needs a positive period");
    PeriodicId id;
    if (!free_periodic_.empty()) {
        // Recycle a drained cancelled slot: a slot only reaches the free
        // list once no heap entry references it, so reuse cannot collide
        // with a stale in-flight occurrence.
        id = free_periodic_.back();
        free_periodic_.pop_back();
        *periodic_tasks_[static_cast<std::size_t>(id)] = PeriodicTask{period, std::move(cb), true};
    } else {
        id = static_cast<PeriodicId>(periodic_tasks_.size());
        periodic_tasks_.push_back(
            std::make_unique<PeriodicTask>(PeriodicTask{period, std::move(cb), true}));
    }
    timed_.push(TimedEvent{first, next_seq_++, id});
    return id;
}

void Simulator::cancel_periodic(PeriodicId id) {
    AMSVP_CHECK(id >= 0 && id < static_cast<PeriodicId>(periodic_tasks_.size()),
                "periodic id out of range");
    // Only flag here: the callback may be the one currently executing. Its
    // closure is released when the pending heap entry drains in run_until.
    periodic_tasks_[static_cast<std::size_t>(id)]->active = false;
}

Time Simulator::run_until(Time end) {
    AMSVP_CHECK(end >= now_, "cannot run the simulation backwards in time");
    // One loop, no call per timestamp or per timed event: settle the delta
    // cycles at now_ (on entry, anything triggered before the run), then
    // drain the next timestamp's events and come back to settle them.
    for (;;) {
        while (!runnable_.empty() || !updates_.empty()) {
            // Evaluate phase. The scratch buffers are members so both sides
            // of the swap keep their capacity: no allocation per delta.
            runnable_scratch_.clear();
            runnable_scratch_.swap(runnable_);
            for (const ProcessId pid : runnable_scratch_) {
                Process& p = processes_[static_cast<std::size_t>(pid)];
                p.runnable = false;
                p.fn();
                ++stats_.process_activations;
            }
            // Update phase.
            updates_scratch_.clear();
            updates_scratch_.swap(updates_);
            for (Updatable* channel : updates_scratch_) {
                channel->apply_update();
                ++stats_.channel_updates;
            }
            ++stats_.delta_cycles;
        }
        if (timed_.empty() || timed_.top().at > end) {
            break;
        }
        const Time at = timed_.top().at;
        now_ = at;
        // Drain all events at this timestamp in FIFO order, those the
        // callbacks schedule for `at` included.
        do {
            const TimedEvent event = timed_.top();
            timed_.pop();
            ++stats_.timed_events;
            if (event.id >= 0) {
                // The task never moves, even when its callback registers
                // more periodic tasks.
                const auto id = static_cast<PeriodicId>(event.id);
                PeriodicTask& task = *periodic_tasks_[static_cast<std::size_t>(id)];
                if (task.active) {
                    task.fn();
                    if (task.active) {
                        timed_.push(TimedEvent{at + task.period, next_seq_++, id});
                        continue;
                    }
                }
                // Cancelled, before or during this occurrence: this was its
                // last pending entry, so release the closure and recycle
                // the slot.
                task.fn = nullptr;
                free_periodic_.push_back(id);
            } else {
                // Move the callback out before it runs: it may schedule
                // further one-shots into the slot it frees.
                const auto slot = static_cast<std::uint32_t>(~event.id);
                const Callback cb = std::exchange(one_shots_[slot], nullptr);
                free_one_shots_.push_back(slot);
                cb();
            }
        } while (!timed_.empty() && timed_.top().at == at);
    }
    now_ = end;
    return now_;
}

}  // namespace amsvp::de
