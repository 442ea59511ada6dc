// cold_text — one op takes all four paper circuits from Verilog-AMS text to
// waveforms with every cache cold: for each circuit it clears
// ModelCache::global(), parses, elaborates and abstracts the text, then runs
// an 8-lane, 2000-step ORC simulate_sweep, so fingerprint, layout compile,
// admission verify and ORC materialize all run cold. The compile layers do
// most of this op and nothing in the other workloads' timed phases (there
// they hide inside one setup_s sample), which is why this workload exists:
// without it those layers go unmeasured.
#include <cstdio>
#include <stdexcept>

#include "abstraction/abstraction.hpp"
#include "analysis/verifier.hpp"
#include "codegen/orc_jit.hpp"
#include "runtime/model_layout.hpp"
#include "runtime/sweep_service.hpp"
#include "support/diagnostics.hpp"
#include "vams/elaborator.hpp"
#include "vams/parser.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kLanes = 8;
constexpr double kSteps = 2000.0;
constexpr double kPeriod = 40e-6;

struct Circuit {
    PaperText text;
    std::vector<runtime::SweepLane> lanes;
    double duration = 0.0;
    runtime::SweepResult reference;
};

class ColdText final : public Workload {
public:
    explicit ColdText(std::uint64_t seed) {
        Rng rng(seed);
        for (PaperText& text : paper_texts()) {
            // The model only supplies input names and the timestep here; the
            // timed op abstracts the text again from scratch.
            const TextModel parsed = abstract_from_text(text.name, text.source);
            Circuit circuit;
            circuit.duration = kSteps * parsed.model.timestep;
            circuit.lanes.resize(kLanes);
            for (runtime::SweepLane& lane : circuit.lanes) {
                for (const amsvp::expr::Symbol& input : parsed.model.inputs) {
                    const double amplitude = rng.uniform(0.2, 1.0);
                    digest_.add(amplitude);
                    lane.stimuli[input.name] = numeric::square_wave(kPeriod, -amplitude, amplitude);
                }
            }
            digest_.add(text.source);
            circuit.text = std::move(text);
            circuits_.push_back(std::move(circuit));
        }
        // No warm-up op: every op runs the compile layers cold by design,
        // so there is no cache or pool to warm.
        options_.backend = runtime::SweepBackend::kNativeOrc;
    }

    double tail_percentile() const override { return 90.0; }

    void prepare_checks(bool perturb_reference) override {
        runtime::SweepOptions reference_options;
        reference_options.backend = runtime::SweepBackend::kInterpreter;
        reference_options.threads = 1;
        for (Circuit& circuit : circuits_) {
            const TextModel parsed = abstract_from_text(circuit.text.name, circuit.text.source);
            circuit.reference = runtime::simulate_sweep(parsed.model, {}, circuit.lanes,
                                                        circuit.duration, reference_options);
            if (perturb_reference) {
                perturb(circuit.reference);
            }
        }
    }

    Phase run(double seconds) override {
        const runtime::ModelCache::Stats before = runtime::ModelCache::global().stats();
        Phase phase = run_closed_loop(seconds, 11, Placement::kRotate, [&] {
            OpRecord record;
            std::vector<runtime::SweepResult> results;
            const Clock::time_point start = Clock::now();
            try {
                for (const Circuit& circuit : circuits_) {
                    results.push_back(run_circuit(circuit, circuit.lanes));
                }
            } catch (const std::exception& e) {
                record.failure = e.what();
            }
            record.seconds = seconds_between(start, Clock::now());
            return finish(record, results);
        });
        const runtime::ModelCache::Stats after = runtime::ModelCache::global().stats();
        orc_misses_per_op_ = static_cast<double>(after.orc_misses - before.orc_misses) /
                             static_cast<double>(phase.attempted);
        return phase;
    }

    Phase run_traced(double seconds, Trace& trace, double clock_seconds,
                     std::vector<Metric>& layers) override {
        std::vector<std::vector<runtime::SweepLane>> counted_lanes;
        for (const Circuit& circuit : circuits_) {
            std::vector<runtime::SweepLane> lanes = circuit.lanes;
            for (runtime::SweepLane& lane : lanes) {
                for (auto& [name, source] : lane.stimuli) {
                    source = counted_stimulus(std::move(source));
                }
            }
            counted_lanes.push_back(std::move(lanes));
        }
        SweepLayers sweep_layers;
        int op_id = 0;
        Phase phase = run_closed_loop(seconds, 11, Placement::kRotate, [&] {
            OpRecord record;
            std::vector<runtime::SweepResult> results;
            const int op = op_id++;
            const Clock::time_point start = Clock::now();
            std::vector<Span> spans;
            std::vector<std::pair<SweepTotals, std::size_t>> sweeps;
            try {
                for (std::size_t c = 0; c < circuits_.size(); ++c) {
                    results.push_back(
                        traced_circuit(circuits_[c], counted_lanes[c], clock_seconds, spans, sweeps));
                }
            } catch (const std::exception& e) {
                record.failure = e.what();
            }
            const Clock::time_point end = Clock::now();
            record.seconds = seconds_between(start, end);

            const int root = trace.add({"op", start, end, -1, op});
            for (Span& span : spans) {
                span.parent = root;
                span.op = op;
                trace.add(std::move(span));
            }
            for (const auto& [sweep, executors] : sweeps) {
                add_shard_spans(trace, sweep, clock_seconds, root, op);
                sweep_layers.add(sweep, executors);
            }
            return finish(record, results);
        });
        layers = sweep_layers.metrics(clock_seconds, static_cast<double>(phase.attempted));
        layers.insert(layers.end(), {
            {"vams.parse_us", layer_median(trace, "vams.parse", 1e-6), "us"},
            {"vams.elaborate_us", layer_median(trace, "vams.elaborate", 1e-6), "us"},
            {"abstraction.abstract_us", layer_median(trace, "abstraction.abstract", 1e-6), "us"},
            {"abstraction.enrich_us", layer_median(trace, "abstraction.enrich", 1e-6), "us"},
            {"abstraction.assemble_us", layer_median(trace, "abstraction.assemble", 1e-6), "us"},
            {"abstraction.solve_us", layer_median(trace, "abstraction.solve", 1e-6), "us"},
            {"runtime.fingerprint_us", layer_median(trace, "runtime.fingerprint", 1e-6), "us"},
            {"runtime.layout_compile_us", layer_median(trace, "runtime.layout_compile", 1e-6),
             "us"},
            {"analysis.verify_us", layer_median(trace, "analysis.verify", 1e-6), "us"},
            {"codegen.orc_materialize_ms", layer_median(trace, "codegen.orc_materialize", 1e-3),
             "ms"},
            {"support.pool_dispatch_us", layer_median(trace, "support.pool_dispatch", 1e-6), "us"},
            {"runtime.sweep_merge_ms", layer_median(trace, "runtime.sweep_merge", 1e-3), "ms"},
            {"runtime.orc_misses", orc_misses_per_op_, "count/op"},
        });
        return phase;
    }

    std::string describe(const Timing& /*timing*/) const override {
        char text[512];
        std::snprintf(text, sizeof(text),
                      "inputs: 2IN, RC1, RC20, OA from Verilog-AMS text, %d lanes of square "
                      "waves (%g s period, seeded amplitudes); digest %s\n"
                      "simulated per op: %.0f lane-steps (4 circuits x %d lanes x %.0f steps)\n",
                      kLanes, kPeriod, digest_.hex().c_str(), 4.0 * kLanes * kSteps, kLanes,
                      kSteps);
        return text;
    }

private:
    /// The untraced op's body for one circuit, through the public entry
    /// points a user calls.
    runtime::SweepResult run_circuit(const Circuit& circuit,
                                     const std::vector<runtime::SweepLane>& lanes) const {
        runtime::ModelCache::global().clear();
        const TextModel parsed = abstract_from_text(circuit.text.name, circuit.text.source);
        return runtime::simulate_sweep(parsed.model, {}, lanes, circuit.duration, options_);
    }

    /// The same work as run_circuit, one layer's public function at a time,
    /// each call recorded as a span (parents filled in by the caller).
    runtime::SweepResult traced_circuit(const Circuit& circuit,
                                        const std::vector<runtime::SweepLane>& lanes,
                                        double clock_seconds, std::vector<Span>& spans,
                                        std::vector<std::pair<SweepTotals, std::size_t>>& sweeps)
        const {
        Clock::time_point mark = Clock::now();
        const auto lap = [&spans, &mark](const char* layer) -> Span& {
            const Clock::time_point now = Clock::now();
            spans.push_back({layer, mark, now});
            mark = now;
            return spans.back();
        };
        runtime::ModelCache::global().clear();
        lap("runtime.cache_clear");

        amsvp::support::DiagnosticEngine diagnostics;
        auto module = amsvp::vams::parse_module_source(circuit.text.source, diagnostics);
        lap("vams.parse");
        if (!module) {
            throw std::runtime_error(circuit.text.name + ": parse failed");
        }
        auto elaborated = amsvp::vams::elaborate(*module, diagnostics);
        lap("vams.elaborate");
        if (!elaborated) {
            throw std::runtime_error(circuit.text.name + ": elaboration failed");
        }
        std::string error;
        abstraction::AbstractionReport report;
        auto model = abstraction::abstract_circuit(elaborated->circuit, {{"out", "gnd"}}, {},
                                                   &error, &report);
        Span& abstract = lap("abstraction.abstract");
        abstract.self_name = "abstraction.abstract_other";
        abstract.parts = {{"abstraction.enrich", report.enrichment_seconds},
                          {"abstraction.assemble", report.assemble_seconds},
                          {"abstraction.solve", report.solve_seconds}};
        if (!model) {
            throw std::runtime_error(circuit.text.name + ": abstraction failed: " + error);
        }
        (void)runtime::model_fingerprint(*model);
        lap("runtime.fingerprint");
        auto layout = runtime::ModelLayout::compile(*model, runtime::EvalStrategy::kFused);
        lap("runtime.layout_compile");
        const bool verified = amsvp::analysis::verify_layout(*layout, diagnostics);
        lap("analysis.verify");
        if (!verified) {
            throw std::runtime_error(circuit.text.name + ": verification failed");
        }
        auto program = amsvp::codegen::OrcJitProgram::compile(layout, &error);
        lap("codegen.orc_materialize");
        if (program == nullptr) {
            throw std::runtime_error(circuit.text.name + ": ORC compile failed: " + error);
        }
        runtime::SweepResult result;
        {
            auto probe = std::make_shared<SweepProbe>(clock_seconds);
            TimedBatch batch(std::make_unique<amsvp::codegen::OrcBatchModel>(program, kLanes),
                             probe);
            lap("runtime.executor_build");
            result = runtime::simulate_sweep(batch, model->inputs, {}, lanes, circuit.duration,
                                             options_);
            const Clock::time_point returned = Clock::now();
            const SweepTotals sweep = totals(*probe);
            if (!sweep.shards.empty()) {
                spans.push_back({"support.pool_dispatch", mark, sweep.first_start});
                spans.push_back({"runtime.sweep_merge", sweep.last_end, returned});
            }
            sweeps.emplace_back(sweep, probe->registered());
            mark = returned;
        }
        lap("runtime.executor_release");
        // The untraced op frees these kernels in the next cache clear.
        program.reset();
        layout.reset();
        lap("codegen.orc_release");
        return result;
    }

    OpRecord finish(OpRecord record, const std::vector<runtime::SweepResult>& results) const {
        for (std::size_t c = 0; record.failure.empty() && c < results.size(); ++c) {
            record.failure = check_sweep(results[c], circuits_[c].reference);
            if (!record.failure.empty()) {
                record.failure = circuits_[c].text.name + ": " + record.failure;
            }
        }
        record.ok = record.failure.empty();
        record.lane_steps = 4.0 * kLanes * kSteps;
        return record;
    }

    std::vector<Circuit> circuits_;
    runtime::SweepOptions options_;
    Digest digest_;
    double orc_misses_per_op_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_cold_text(std::uint64_t seed) {
    return std::make_unique<ColdText>(seed);
}

}  // namespace perfbench
