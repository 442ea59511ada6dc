// Steady-state zero-allocation guarantees for the simulation hot paths.
//
// A counting global operator new (malloc passthrough plus an atomic
// counter) observes every heap allocation in the test binary. Each test
// warms its subject up — first iterations legitimately grow buffers to
// their steady capacity — and then asserts that further steps allocate
// nothing at all:
//  * CompiledModel::step (the fused interpreter),
//  * BatchCompiledModel::step (the strided multi-instance hot loop),
//  * a DE kernel running clocked models on the periodic fast path,
//  * de::Event::notify_every and the vp::Timer periodic devices,
//  * repeated de::Event::notify_after one-shots (slab slot reuse),
//  * ElnEngine::step (RHS rebuild + LU back-substitution),
//  * SpiceEngine::substep (Newton: residual, Jacobian, refactorisation).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "abstraction/abstraction.hpp"
#include "backends/de_modules.hpp"
#include "de/clock.hpp"
#include "de/event.hpp"
#include "de/kernel.hpp"
#include "eln/engine.hpp"
#include "netlist/builder.hpp"
#include "numeric/sources.hpp"
#include "runtime/batch_model.hpp"
#include "runtime/compiled_model.hpp"
#include "spice/engine.hpp"
#include "vp/timer.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
    return ::operator new(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(align), size == 0 ? 1 : size) != 0) {
        throw std::bad_alloc();
    }
    return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}

void operator delete(void* p) noexcept {
    std::free(p);
}
void operator delete[](void* p) noexcept {
    std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
    std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace amsvp {
namespace {

std::uint64_t allocation_count() {
    return g_allocations.load(std::memory_order_relaxed);
}

abstraction::SignalFlowModel ladder_model(int stages) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(stages);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return std::move(*model);
}

void run_model_steps(runtime::CompiledModel& compiled, double dt, int first_step, int steps) {
    for (int k = first_step; k < first_step + steps; ++k) {
        compiled.set_input(0, k % 2 == 0 ? 1.0 : 0.0);
        compiled.step(static_cast<double>(k) * dt);
        (void)compiled.output(0);
    }
}

TEST(AllocationFree, CompiledModelStep) {
    const auto model = ladder_model(20);
    runtime::CompiledModel compiled(model);
    run_model_steps(compiled, model.timestep, 1, 64);  // warm-up

    const std::uint64_t before = allocation_count();
    run_model_steps(compiled, model.timestep, 65, 10000);
    EXPECT_EQ(allocation_count() - before, 0u)
        << "CompiledModel::step allocated in steady state";
}

TEST(AllocationFreeDe, PeriodicClockedModelActivation) {
    // A clocked DE model on the periodic fast path: clock toggles, stimulus
    // and model processes, signal updates and delta cycles — all without a
    // single steady-state allocation. (No waveform sink on purpose: trace
    // recording grows a buffer by design.)
    const auto model = ladder_model(5);
    de::Simulator sim;
    de::Clock clock(sim, "clk", de::from_seconds(model.timestep));
    backends::DeSource source(sim, clock, "u0", numeric::square_wave(1e-3));
    backends::DeModel dut(sim, clock, "dut", model, {&source.out()},
                          std::make_unique<runtime::CompiledModel>(model));

    sim.run(de::from_seconds(2000 * model.timestep));  // warm-up

    const std::uint64_t before = allocation_count();
    sim.run(de::from_seconds(20000 * model.timestep));
    EXPECT_EQ(allocation_count() - before, 0u)
        << "DE periodic activation allocated in steady state";
    EXPECT_GT(sim.stats().timed_events, 40000u);  // the clock actually ran
}

TEST(AllocationFreeDe, EventNotifyAfterOneShots) {
    // Three events that each re-arm themselves with a timed one-shot when
    // they fire: every callback leaves its slab slot before running and the
    // next notify_after takes the slot back, so neither the heap nor the
    // slab grows.
    de::Simulator sim;
    std::vector<std::unique_ptr<de::Event>> events;
    int wakes = 0;
    for (const de::Time delay :
         {7 * de::kNanosecond, 10 * de::kNanosecond, 13 * de::kNanosecond}) {
        events.push_back(std::make_unique<de::Event>(sim, "ping"));
        de::Event& ev = *events.back();
        const de::ProcessId p = sim.add_process("w", [&ev, &wakes, delay] {
            ++wakes;
            ev.notify_after(delay);
        });
        ev.add_sensitive(p);
        ev.notify_after(delay);
    }

    sim.run(10 * de::kMicrosecond);  // warm-up
    const std::size_t slots = sim.one_shot_slot_count();

    const std::uint64_t before = allocation_count();
    sim.run(100 * de::kMicrosecond);
    EXPECT_EQ(allocation_count() - before, 0u)
        << "Event::notify_after one-shots allocated in steady state";
    EXPECT_EQ(sim.one_shot_slot_count(), slots) << "one-shot slab grew";
    EXPECT_LE(slots, 3u);
    EXPECT_GT(wakes, 25000);
}

TEST(AllocationFreeBatch, BatchModelStep) {
    const auto model = ladder_model(20);
    runtime::BatchCompiledModel batch(model, 8);
    auto run = [&](int first, int steps) {
        for (int k = first; k < first + steps; ++k) {
            for (int l = 0; l < batch.batch(); ++l) {
                batch.set_input(l, 0, (k + l) % 2 == 0 ? 1.0 : 0.0);
            }
            batch.step(static_cast<double>(k) * model.timestep);
            (void)batch.output_lanes(0);
        }
    };
    run(1, 64);  // warm-up

    const std::uint64_t before = allocation_count();
    run(65, 10000);
    EXPECT_EQ(allocation_count() - before, 0u)
        << "BatchCompiledModel::step allocated in steady state";
}

TEST(AllocationFreePeriodic, EventNotifyEveryAndTimer) {
    // Both schedule_periodic clients added on top of the clock: a repeating
    // event notification and the memory-mapped timer device must run their
    // steady state without a single allocation.
    de::Simulator sim;
    de::Event ev(sim, "tick");
    int wakes = 0;
    const de::ProcessId p = sim.add_process("w", [&] { ++wakes; });
    ev.add_sensitive(p);
    ev.notify_every(10 * de::kNanosecond, 10 * de::kNanosecond);

    vp::Timer timer(sim);
    timer.write32(vp::Timer::kPeriodNs, 25);
    timer.write32(vp::Timer::kCtrl, 1);

    sim.run(10 * de::kMicrosecond);  // warm-up

    const std::uint64_t before = allocation_count();
    sim.run(100 * de::kMicrosecond);
    EXPECT_EQ(allocation_count() - before, 0u)
        << "periodic event/timer activity allocated in steady state";
    EXPECT_GT(wakes, 10000);
    EXPECT_GT(timer.ticks(), 4000u);
}

TEST(AllocationFreeSpice, NewtonSubstep) {
    // The conservative engine refactorises every iteration by design; the
    // buffers around that (residual, Jacobian, LU, FD scratch) are members
    // and must stop allocating once warm.
    const netlist::Circuit circuit = netlist::make_rc_ladder(8);
    auto engine = spice::SpiceEngine::create(circuit, {});
    ASSERT_TRUE(engine.has_value());
    std::vector<double> inputs(engine->input_names().size(), 1.0);
    const double h = engine->timestep() / 8.0;
    for (int k = 1; k <= 16; ++k) {  // warm-up
        ASSERT_TRUE(engine->substep(inputs, k * h));
    }

    const std::uint64_t before = allocation_count();
    for (int k = 17; k <= 1016; ++k) {
        ASSERT_TRUE(engine->substep(inputs, k * h));
    }
    EXPECT_EQ(allocation_count() - before, 0u)
        << "SpiceEngine::substep allocated in steady state";
}

TEST(AllocationFreeEln, EngineStep) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(20);
    eln::ElnEngine engine(circuit, 50e-9);
    std::vector<double> inputs(engine.input_names().size(), 1.0);
    for (int k = 1; k <= 16; ++k) {  // warm-up
        engine.step(inputs, k * 50e-9);
    }

    const std::uint64_t before = allocation_count();
    for (int k = 17; k <= 2016; ++k) {
        engine.step(inputs, k * 50e-9);
    }
    EXPECT_EQ(allocation_count() - before, 0u)
        << "ElnEngine::step (build_rhs + LU solve) allocated in steady state";
}

}  // namespace
}  // namespace amsvp
