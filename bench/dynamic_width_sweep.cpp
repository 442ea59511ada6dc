// Dynamic (non-pinned) batch widths: per-lane step cost at odd widths
// 7/17/33 against the neighbouring pinned row-multiple widths 8/16/32,
// for the interpreter and the ORC JIT. Before the runtime::LaneLayout refactor an odd
// width ran a runtime-trip scalar lane loop per instruction (the
// vectorizer only reliably fired on the pinned constant-trip widths); with
// the padded AoSoA rows every width rounds up to whole vector rows and
// dispatches on the padded width (width 17 runs the pinned width-20 kernel
// with three computed ghost lanes), so an odd width should cost close to
// its pinned neighbour per lane — the padded/width ghost-work factor, not
// a scalar cliff.
//
// `--json <path>` emits results for bench/compare.py, whose gate table
// caps odd-width / pinned-neighbour per-lane ratios on both arms.
// AMSVP_WITH_LLVM=OFF skips the ORC arm, with a note printed and
// compare.py skipping the ORC rows.
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "codegen/orc_jit.hpp"
#include "runtime/batch_model.hpp"

namespace {

using namespace amsvp;
using Clock = std::chrono::steady_clock;

/// One executor being measured: an executor at one width for one backend.
///
/// The numbers feed a RATIO gate (odd width / pinned neighbour), so the
/// estimator has to be noise-robust: on a busy single-core CI box a
/// scheduling or frequency burst can skew one width by 30%+. Two defenses:
/// each arm's estimate is the minimum over several short windows (the
/// minimum converges on the undisturbed cost), and the windows of ALL arms
/// are interleaved round-robin, so a burst that spans one round degrades
/// every width of a ratio pair together instead of just one side.
struct Arm {
    std::string mode;
    int lanes = 0;
    std::unique_ptr<runtime::BatchExecutor> executor;
    double t = 0.0;       ///< simulated time cursor, advanced every call
    long reps = 0;        ///< calls per measurement window
    double best_ns = 0.0; ///< min over rounds of per-call ns
};

/// ~60 ms of calls per window, at least 10^4.
void calibrate(Arm& arm, double dt) {
    constexpr long kProbe = 10000;
    for (int l = 0; l < arm.lanes; ++l) {
        arm.executor->set_input(l, 0, 1.0);
    }
    for (long i = 0; i < kProbe; ++i) {
        arm.t += dt;
        arm.executor->step(arm.t);
    }
    auto probe_start = Clock::now();
    for (long i = 0; i < kProbe; ++i) {
        arm.t += dt;
        arm.executor->step(arm.t);
    }
    const double probe_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - probe_start).count();
    const double per_call = std::max(probe_ns / kProbe, 0.1);
    arm.reps = std::max<long>(kProbe, static_cast<long>(0.06e9 / per_call));
    arm.best_ns = probe_ns / kProbe;
}

/// One timed window; folds the result into the arm's running minimum.
void run_window(Arm& arm, double dt) {
    auto start = Clock::now();
    for (long i = 0; i < arm.reps; ++i) {
        arm.t += dt;
        arm.executor->step(arm.t);
    }
    const double total =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    arm.best_ns = std::min(arm.best_ns, total / static_cast<double>(arm.reps));
}

}  // namespace

int main(int argc, char** argv) {
    const std::string json_path = bench::Args(argc, argv, {bench::kJsonFlag}).json_path();
    bench::JsonReport report("dynamic_width_sweep");

    std::printf("DYNAMIC WIDTH SWEEP — odd lane counts vs pinned row-multiple neighbours\n\n");

    const auto circuits = bench::paper_circuits();
    const bench::BenchCircuit* rc20 = nullptr;
    for (const bench::BenchCircuit& c : circuits) {
        if (c.name == "RC20") {
            rc20 = &c;
        }
    }
    if (rc20 == nullptr) {
        std::fprintf(stderr, "dynamic_width_sweep: RC20 missing from paper_circuits()\n");
        return 1;
    }
    const double dt = rc20->model.timestep;
    const auto layout = runtime::ModelLayout::compile(rc20->model);

    std::string error;
    std::shared_ptr<const codegen::OrcJitProgram> orc_program;
    if (codegen::orc_available()) {
        orc_program = codegen::OrcJitProgram::compile(layout, &error);
        if (orc_program == nullptr) {
            std::printf("# ORC compile failed (%s): orc arm skipped.\n", error.c_str());
        }
    } else {
        std::printf("# built with AMSVP_WITH_LLVM=OFF: orc arm skipped.\n");
    }

    // Build every (width, backend) arm up front so measurement windows can
    // interleave round-robin across all of them (see Arm).
    constexpr int kWidths[] = {7, 8, 16, 17, 32, 33};
    std::vector<Arm> arms;
    for (const int lanes : kWidths) {
        arms.push_back(
            {"interpreter", lanes,
             std::make_unique<runtime::BatchCompiledModel>(layout, lanes)});
        if (orc_program != nullptr) {
            arms.push_back({"orc", lanes,
                            std::make_unique<codegen::OrcBatchModel>(orc_program, lanes)});
        }
    }
    for (Arm& arm : arms) {
        calibrate(arm, dt);
    }
    constexpr int kRounds = 7;
    for (int round = 0; round < kRounds; ++round) {
        for (Arm& arm : arms) {
            run_window(arm, dt);
        }
    }

    const auto per_lane = [&](const std::string& mode, int lanes) {
        for (const Arm& arm : arms) {
            if (arm.mode == mode && arm.lanes == lanes) {
                return arm.best_ns / static_cast<double>(lanes);
            }
        }
        return 0.0;
    };
    std::printf("%-26s %6s %18s %18s\n", "dynamic_width (RC20)", "lanes",
                "interp ns/st/lane", "orc ns/st/lane");
    // Each odd width next to its pinned row-multiple neighbour, so the
    // cliff (or its absence) is visible line by line.
    for (const Arm& arm : arms) {
        report.add(
            {{"name", "dynamic_width_sweep"}, {"circuit", "RC20"}, {"mode", arm.mode}},
            {{"width", static_cast<double>(arm.lanes)},
             {"ns_per_step_per_lane", arm.best_ns / static_cast<double>(arm.lanes)}});
    }
    for (const int lanes : kWidths) {
        std::printf("%-26s %6d %18.1f %18.1f\n", "", lanes, per_lane("interpreter", lanes),
                    per_lane("orc", lanes));
    }
    std::printf("\n");

    if (!report.write(json_path)) {
        return 1;
    }
    return 0;
}
