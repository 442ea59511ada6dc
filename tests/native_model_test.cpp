// Native execution: generated C++ compiled to a shared object and loaded at
// runtime must behave exactly like the in-process fused interpreter — the
// emitters render the same FusedProgram IR the interpreter executes, and
// both sides build with -ffp-contract=off, so traces (and the whole model
// slot file) must match bit-for-bit, not just to tolerance. Also covers the
// guarded compiler runner and concurrent native compilation (suite name
// ThreadedSweepNativeCompile feeds the `threads` ctest label for the
// -DAMSVP_TSAN=ON config).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "abstraction/abstraction.hpp"
#include "codegen/native_jit.hpp"
#include "codegen/native_model.hpp"
#include "expr/fused.hpp"
#include "netlist/builder.hpp"
#include "random_models.hpp"
#include "runtime/simulate.hpp"
#include "support/fault.hpp"
#include "support/thread_pool.hpp"

namespace amsvp::codegen {
namespace {

/// Redirect $TMPDIR to a fresh empty directory for one test, restoring the
/// previous value on destruction — the native compile path creates its
/// temp files there, so the test can assert exactly what survives.
class ScopedTmpDir {
public:
    ScopedTmpDir() {
        const char* previous = std::getenv("TMPDIR");
        had_previous_ = previous != nullptr;
        if (had_previous_) {
            previous_ = previous;
        }
        char pattern[] = "/tmp/amsvp_test_XXXXXX";
        const char* dir = ::mkdtemp(pattern);
        EXPECT_NE(dir, nullptr);
        dir_ = dir;
        ::setenv("TMPDIR", dir, 1);
    }

    ~ScopedTmpDir() {
        if (had_previous_) {
            ::setenv("TMPDIR", previous_.c_str(), 1);
        } else {
            ::unsetenv("TMPDIR");
        }
        std::filesystem::remove_all(dir_);
    }

    [[nodiscard]] const std::string& path() const { return dir_; }

    [[nodiscard]] std::vector<std::string> files() const {
        std::vector<std::string> names;
        for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
            names.push_back(entry.path().filename().string());
        }
        return names;
    }

private:
    std::string dir_;
    std::string previous_;
    bool had_previous_ = false;
};

abstraction::SignalFlowModel ladder_model(int stages) {
    const netlist::Circuit circuit = netlist::make_rc_ladder(stages);
    std::string error;
    auto model = abstraction::abstract_circuit(circuit, {{"out", "gnd"}}, {}, &error);
    EXPECT_TRUE(model.has_value()) << error;
    return std::move(*model);
}

/// Bit-for-bit trace comparison of `executor` and the fused interpreter
/// under the given stimuli.
void expect_matches_fused(runtime::ModelExecutor& executor,
                          const abstraction::SignalFlowModel& model,
                          const std::map<std::string, numeric::SourceFunction>& stimuli,
                          double duration) {
    runtime::CompiledModel fused(model);
    auto native_run = runtime::simulate_transient(executor, model.inputs, stimuli, duration);
    auto fused_run = runtime::simulate_transient(fused, model.inputs, stimuli, duration);

    ASSERT_EQ(native_run.outputs.size(), fused_run.outputs.size());
    for (std::size_t o = 0; o < native_run.outputs.size(); ++o) {
        const auto& n = native_run.outputs[o];
        const auto& f = fused_run.outputs[o];
        ASSERT_EQ(n.size(), f.size());
        for (std::size_t k = 0; k < n.size(); ++k) {
            // Exact: generated code renders the fused instruction stream.
            ASSERT_EQ(n.value(k), f.value(k)) << "output " << o << " sample " << k;
        }
    }
}

/// The same, for the native-compiled generated code.
void expect_native_matches_fused(const abstraction::SignalFlowModel& model,
                                 const std::map<std::string, numeric::SourceFunction>& stimuli,
                                 double duration) {
    std::string error;
    auto native = NativeModel::compile(model, &error);
    ASSERT_NE(native, nullptr) << error;
    expect_matches_fused(*native, model, stimuli, duration);
}

class NativeVsFused : public ::testing::TestWithParam<int> {};

TEST_P(NativeVsFused, TracesAreBitIdentical) {
    if (!native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const auto model = ladder_model(GetParam());
    expect_native_matches_fused(model, {{"u0", numeric::square_wave(1e-3)}}, 5e-4);
}

INSTANTIATE_TEST_SUITE_P(Ladders, NativeVsFused, ::testing::Values(1, 2, 5, 20));

// The acceptance differential: >= 10 random linear models, generated C++
// vs the fused interpreter, bit-for-bit.
class RandomModelDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomModelDifferential, GeneratedCodeMatchesFusedBitForBit) {
    if (!native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const auto random = testing_support::make_random_rc(GetParam() + 7000);
    abstraction::AbstractionOptions options;
    options.timestep = 1e-7;
    std::string error;
    auto model = abstraction::abstract_circuit(random.circuit,
                                               {{random.observed_node, "gnd"}}, options,
                                               &error);
    ASSERT_TRUE(model.has_value()) << error << "\n" << random.circuit.describe();
    expect_native_matches_fused(*model, {{"u0", numeric::sine_wave(25e3)}}, 2e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelDifferential, ::testing::Range(1u, 13u));

TEST(NativeModel, SlotFileMatchesFusedSlotForSlot) {
    if (!native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const auto model = ladder_model(3);
    auto native = NativeModel::compile(model);
    ASSERT_NE(native, nullptr);
    runtime::CompiledModel fused(model);

    // The generated struct exposes the same model-slot prefix the runtime
    // layout allocates (named variables in slot order, scratch excluded).
    const int model_slots = static_cast<int>(fused.layout()->model_slot_count());
    ASSERT_EQ(native->model_slot_count(), model_slots);

    const auto stimulus = numeric::sine_wave(1000.0);
    const double dt = model.timestep;
    for (int k = 1; k <= 500; ++k) {
        const double t = k * dt;
        native->set_input(0, stimulus(t));
        fused.set_input(0, stimulus(t));
        native->step(t);
        fused.step(t);
        for (int s = 0; s < model_slots; ++s) {
            ASSERT_EQ(native->slot_value(s), fused.slot_value(s))
                << "slot " << s << " at step " << k;
        }
    }
}

// A model built to hit the linear-combination superinstruction hard: wide
// affine assignments over inputs and state history. Verifies the emitters
// reproduce kLinComb (the one reassociating op) exactly.
TEST(NativeModel, LinCombHeavyModelMatchesFused) {
    if (!native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    using expr::Expr;
    const expr::Symbol u0 = expr::input_symbol("u0");
    const expr::Symbol u1 = expr::input_symbol("u1");
    const expr::Symbol u2 = expr::input_symbol("u2");
    const expr::Symbol y{expr::SymbolKind::kVariable, "y"};
    const expr::Symbol z{expr::SymbolKind::kVariable, "z"};

    abstraction::SignalFlowModel model;
    model.name = "lincomb_heavy";
    model.timestep = 1e-6;
    model.inputs = {u0, u1, u2};
    // y := 0.75*y' + 0.25*u0 - 0.5*u1 + 0.125*u2 + 3.5
    model.assignments.push_back(
        {y, Expr::add(
                Expr::add(Expr::add(Expr::mul(Expr::constant(0.75), Expr::delayed(y, 1)),
                                    Expr::mul(Expr::constant(0.25), Expr::symbol(u0))),
                          Expr::sub(Expr::mul(Expr::constant(0.125), Expr::symbol(u2)),
                                    Expr::mul(Expr::constant(0.5), Expr::symbol(u1)))),
                Expr::constant(3.5))});
    // z := 2*y - 0.0625*u0 + 0.03125*u1 - 7*z'
    model.assignments.push_back(
        {z, Expr::sub(
                Expr::add(Expr::mul(Expr::constant(2.0), Expr::symbol(y)),
                          Expr::sub(Expr::mul(Expr::constant(0.03125), Expr::symbol(u1)),
                                    Expr::mul(Expr::constant(0.0625), Expr::symbol(u0)))),
                Expr::mul(Expr::constant(7.0), Expr::delayed(z, 1)))});
    model.outputs = {z};
    model.initial_values[y] = 0.25;
    ASSERT_TRUE(model.validate().empty());

    // The fused compile must actually use the superinstruction, otherwise
    // this test exercises nothing.
    runtime::CompiledModel fused(model);
    EXPECT_GE(fused.fused_program().count_op(expr::FusedOp::kLinComb), 2u);

    expect_native_matches_fused(model,
                                {{"u0", numeric::sine_wave(1000.0)},
                                 {"u1", numeric::sine_wave(2500.0)},
                                 {"u2", numeric::square_wave(1e-3)}},
                                5e-3);
}

// A delayed *input* reference makes the input symbol a state variable too;
// the emitters must not declare it twice (the runtime handles the same
// model through input history slots).
TEST(NativeModel, DelayedInputModelMatchesFused) {
    if (!native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    using expr::Expr;
    const expr::Symbol u0 = expr::input_symbol("u0");
    const expr::Symbol y{expr::SymbolKind::kVariable, "y"};

    abstraction::SignalFlowModel model;
    model.name = "fir_taps";
    model.timestep = 1e-6;
    model.inputs = {u0};
    // y := 0.5*u0 + 0.3*u0' + 0.2*u0'' (a small FIR — input history only).
    model.assignments.push_back(
        {y, Expr::add(Expr::add(Expr::mul(Expr::constant(0.5), Expr::symbol(u0)),
                                Expr::mul(Expr::constant(0.3), Expr::delayed(u0, 1))),
                      Expr::mul(Expr::constant(0.2), Expr::delayed(u0, 2)))});
    model.outputs = {y};
    ASSERT_TRUE(model.validate().empty());

    expect_native_matches_fused(model, {{"u0", numeric::sine_wave(1000.0)}}, 5e-3);
}

TEST(NativeModel, ResetRestoresInitialState) {
    if (!native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const auto model = ladder_model(1);
    auto native = NativeModel::compile(model);
    ASSERT_NE(native, nullptr);
    native->set_input(0, 1.0);
    for (int k = 1; k <= 100; ++k) {
        native->step(k * model.timestep);
    }
    EXPECT_GT(native->output(0), 0.0);
    native->reset();
    native->set_input(0, 0.0);
    native->step(0.0);
    EXPECT_DOUBLE_EQ(native->output(0), 0.0);
}

// Regression (PR 5): NativeModel::reset() used to keep the cached input
// vector, so the step after a reset re-applied stale inputs where
// CompiledModel::reset() zeroes the input slots — the two executors
// diverged on the reset -> step sequence. Fails before the fix.
TEST(NativeModel, ResetClearsCachedInputs) {
    if (!native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const auto model = ladder_model(2);
    auto native = NativeModel::compile(model);
    ASSERT_NE(native, nullptr);
    runtime::CompiledModel fused(model);

    const double dt = model.timestep;
    for (int k = 1; k <= 20; ++k) {
        native->set_input(0, 1.0);
        fused.set_input(0, 1.0);
        native->step(k * dt);
        fused.step(k * dt);
    }
    EXPECT_GT(native->output(0), 0.0);
    native->reset();
    fused.reset();
    // Reading before the next step must see the re-initialized model, not
    // the last pre-reset step's cached value.
    ASSERT_EQ(native->output(0), fused.output(0));
    // No set_input after reset: both executors must step with zeroed
    // inputs, not whatever was cached before.
    for (int k = 1; k <= 20; ++k) {
        native->step(k * dt);
        fused.step(k * dt);
        ASSERT_EQ(native->output(0), fused.output(0)) << "step " << k;
    }
}

// Regression (PR 5): unique_stem() hardcoded /tmp; the compile path now
// honors $TMPDIR, keeps exactly the .so while the model is alive, and
// removes it on destruction. Fails before the fix (files land in /tmp, the
// redirected directory stays empty).
TEST(NativeModel, TempFilesHonorTmpdirAndAreCleanedUp) {
    if (!native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const auto model = ladder_model(1);
    ScopedTmpDir tmpdir;
    {
        auto native = NativeModel::compile(model);
        ASSERT_NE(native, nullptr);
        const auto files = tmpdir.files();
        ASSERT_EQ(files.size(), 1u) << "expected only the .so to survive compilation";
        EXPECT_NE(files[0].find(".so"), std::string::npos) << files[0];
    }
    // Destruction removes the loaded .so too.
    EXPECT_TRUE(tmpdir.files().empty());
}

// Regression (PR 5): a shared object that compiles but lacks the expected
// entry points used to leak all three temp files (the .so path was only
// recorded after the dlsym check, so the "destructor cleans up" assumption
// was wrong). The scope guard now owns every path until success.
TEST(NativeJit, MissingEntryPointLeavesNoTempFiles) {
    if (!native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    ScopedTmpDir tmpdir;
    std::string error;
    auto library = detail::JitLibrary::compile(
        "extern \"C\" int amsvp_something_else() { return 1; }\n", {"amsvp_step"}, &error);
    EXPECT_EQ(library, nullptr);
    EXPECT_NE(error.find("amsvp_step"), std::string::npos) << error;
    EXPECT_TRUE(tmpdir.files().empty()) << "dlsym failure must remove .cpp/.so/.log";
}

TEST(NativeJit, CompilerFailureKeepsOnlyTheLog) {
    if (!native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    ScopedTmpDir tmpdir;
    std::string error;
    auto library =
        detail::JitLibrary::compile("this is not C++\n", {"amsvp_step"}, &error);
    EXPECT_EQ(library, nullptr);
    // The diagnostic log survives — the error message points at it — but
    // the source and the (never produced) .so do not.
    EXPECT_NE(error.find(".log"), std::string::npos) << error;
    const auto files = tmpdir.files();
    ASSERT_EQ(files.size(), 1u);
    EXPECT_NE(files[0].find(".log"), std::string::npos) << files[0];
}

/// Whether process `pid` has exited: gone from /proc, or a zombie waiting
/// for a reaper that may never come (a container's init need not reap).
bool process_exited(pid_t pid) {
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(stat, line)) {
        return true;
    }
    // "<pid> (<comm>) <state> ...": the state follows the last ')'.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos || close + 2 >= line.size()) {
        return true;
    }
    return line[close + 2] == 'Z' || line[close + 2] == 'X';
}

// The guarded runner's timeout leg: a command that outlives its limit comes
// back promptly as timed out, and the SIGKILL reaches its whole process
// group — here a background child the shell spawned, which a kill of the
// shell alone would orphan.
TEST(NativeJit, GuardedRunnerKillsTheProcessGroupOnTimeout) {
    ScopedTmpDir tmpdir;
    const std::string pid_file = tmpdir.path() + "/child.pid";
    const auto start = std::chrono::steady_clock::now();
    const detail::CommandResult result = detail::run_guarded_command(
        "sleep 30 & echo $! > " + detail::shell_quote(pid_file) + "; wait", 200);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_TRUE(result.timed_out);
    EXPECT_EQ(result.exit_code, -1);
    EXPECT_LT(elapsed, 5.0) << "the runner waited for the command instead of killing it";

    std::ifstream in(pid_file);
    pid_t child = 0;
    ASSERT_TRUE(in >> child) << "the shell never recorded its background child";
    bool exited = process_exited(child);
    for (int poll = 0; poll < 200 && !exited; ++poll) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        exited = process_exited(child);
    }
    EXPECT_TRUE(exited) << "background child " << child << " survived the timeout";
}

TEST(NativeModel, FactoryFallsBackGracefully) {
    // Every compile attempt fails, so the factory must take its fallback
    // branch even on a host with a compiler: the fused interpreter, which
    // matches a direct fused run bit for bit.
    const auto model = ladder_model(1);
    ScopedTmpDir tmpdir;  // takes the failed compile's kept .log
    support::fault::arm("jit.compile", support::fault::Trigger::kAlways);
    auto executor = native_executor_factory()(model);
    support::fault::disarm("jit.compile");
    ASSERT_NE(executor, nullptr);
    EXPECT_NE(dynamic_cast<runtime::CompiledModel*>(executor.get()), nullptr);
    expect_matches_fused(*executor, model, {{"u0", numeric::square_wave(1e-3)}}, 2e-4);
}

TEST(NativeModel, TwoInstancesAreIndependent) {
    if (!native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    const auto model = ladder_model(1);
    auto a = NativeModel::compile(model);
    auto b = NativeModel::compile(model);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    a->set_input(0, 1.0);
    b->set_input(0, 0.0);
    for (int k = 1; k <= 50; ++k) {
        a->step(k * model.timestep);
        b->step(k * model.timestep);
    }
    EXPECT_GT(a->output(0), 0.0);
    EXPECT_DOUBLE_EQ(b->output(0), 0.0);
}

// Concurrent native compilation (runs under `ctest -L threads` / TSan): N
// workers compiling and stepping generated models at the same time —
// unique temp stems, no cross-talk between per-.so state.
TEST(ThreadedSweepNativeCompile, ConcurrentCompilesAreIsolated) {
    if (!native_compilation_available()) {
        GTEST_SKIP() << "no C++ compiler in PATH";
    }
    constexpr int kJobs = 8;
    // Distinct stage counts per job so every .so is genuinely different
    // and a cross-talk bug (shared temp stem, wrong handle) changes
    // results instead of passing silently.
    std::vector<abstraction::SignalFlowModel> models;
    models.reserve(kJobs);
    for (int j = 0; j < kJobs; ++j) {
        models.push_back(ladder_model(1 + j % 4));
    }
    std::vector<double> out(kJobs, 0.0);
    std::vector<std::string> errors(kJobs);

    support::ThreadPool pool(4);
    pool.run(kJobs, [&](int j) {
        const auto& model = models[static_cast<std::size_t>(j)];
        auto native = NativeModel::compile(model, &errors[static_cast<std::size_t>(j)]);
        if (native == nullptr) {
            return;
        }
        for (int k = 1; k <= 100; ++k) {
            native->set_input(0, 1.0);
            native->step(k * model.timestep);
        }
        out[static_cast<std::size_t>(j)] = native->output(0);
    });

    for (int j = 0; j < kJobs; ++j) {
        const auto& model = models[static_cast<std::size_t>(j)];
        ASSERT_NE(out[static_cast<std::size_t>(j)], 0.0)
            << "job " << j << ": " << errors[static_cast<std::size_t>(j)];
        // Native and the interpreter agree per job.
        runtime::CompiledModel reference(model);
        for (int k = 1; k <= 100; ++k) {
            reference.set_input(0, 1.0);
            reference.step(k * model.timestep);
        }
        EXPECT_EQ(out[static_cast<std::size_t>(j)], reference.output(0)) << j;
    }
}

}  // namespace
}  // namespace amsvp::codegen
