// sc_signal-like channel with delta-cycle request/update semantics: writes
// become visible in the next delta, and sensitive processes wake only when
// the value actually changes. A write queues the signal itself (a pointer)
// for the kernel's update phase, at most once per delta.
#pragma once

#include <string>
#include <vector>

#include "de/kernel.hpp"

namespace amsvp::de {

template <typename T>
class Signal final : public Updatable {
public:
    Signal(Simulator& sim, std::string name, T initial = T{})
        : sim_(sim), name_(std::move(name)), current_(initial), next_(initial) {}

    Signal(const Signal&) = delete;
    Signal& operator=(const Signal&) = delete;

    [[nodiscard]] const T& read() const { return current_; }
    [[nodiscard]] const std::string& name() const { return name_; }

    void write(const T& value) {
        next_ = value;
        if (!update_pending_) {
            update_pending_ = true;
            sim_.request_update(*this);
        }
    }

    /// Wake `pid` whenever the stored value changes.
    void add_sensitive(ProcessId pid) { sensitive_.push_back(pid); }

    /// Number of committed value changes (testing / tracing).
    [[nodiscard]] std::uint64_t change_count() const { return changes_; }

private:
    void apply_update() override {
        update_pending_ = false;
        if (next_ == current_) {
            return;
        }
        current_ = next_;
        ++changes_;
        for (const ProcessId pid : sensitive_) {
            sim_.trigger(pid);
        }
    }

    Simulator& sim_;
    std::string name_;
    T current_;
    T next_;
    bool update_pending_ = false;
    std::uint64_t changes_ = 0;
    std::vector<ProcessId> sensitive_;
};

}  // namespace amsvp::de
