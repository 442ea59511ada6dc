// Shared plumbing for the benches: the paper's four test circuits, their
// abstracted models, the square-wave stimulus, the checked command line and
// JSON output.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "abstraction/abstraction.hpp"
#include "netlist/builder.hpp"
#include "numeric/sources.hpp"
#include "support/diagnostics.hpp"
#include "vams/circuits.hpp"
#include "vams/elaborator.hpp"
#include "vams/parser.hpp"

namespace amsvp::bench {

struct BenchCircuit {
    std::string name;
    netlist::Circuit circuit;
    abstraction::SignalFlowModel model;
};

/// The four components of Section V-A: 2IN, RC1, RC20, OA, parsed and
/// elaborated from the bundled Verilog-AMS sources (vams/circuits.hpp),
/// the same text perfbench's cold_text workload abstracts.
inline std::vector<BenchCircuit> paper_circuits(double timestep = 50e-9) {
    std::vector<BenchCircuit> out;
    abstraction::AbstractionOptions options;
    options.timestep = timestep;

    auto add = [&](std::string name, const std::string& source) {
        support::DiagnosticEngine diagnostics;
        auto module = vams::parse_module_source(source, diagnostics);
        auto elaborated = module ? vams::elaborate(*module, diagnostics) : std::nullopt;
        if (!elaborated) {
            std::fprintf(stderr, "elaboration of %s failed:\n%s", name.c_str(),
                         diagnostics.render_all().c_str());
            std::exit(1);
        }
        std::string error;
        auto model = abstraction::abstract_circuit(elaborated->circuit, {{"out", "gnd"}},
                                                   options, &error);
        if (!model) {
            std::fprintf(stderr, "abstraction of %s failed: %s\n", name.c_str(),
                         error.c_str());
            std::exit(1);
        }
        out.push_back(BenchCircuit{std::move(name), std::move(elaborated->circuit),
                                   std::move(*model)});
    };
    add("2IN", vams::two_inputs_source());
    add("RC1", vams::rc_ladder_source(1));
    add("RC20", vams::rc_ladder_source(20));
    add("OA", vams::opamp_source());
    return out;
}

/// The paper's stimulus: square wave, period 1 ms (both inputs of 2IN).
inline std::map<std::string, numeric::SourceFunction> paper_stimuli() {
    return {{"u0", numeric::square_wave(1e-3)},
            {"u1", numeric::square_wave(1e-3, 0.0, 0.5)}};
}

/// A value-taking command-line flag and its placeholder in the usage line.
struct Flag {
    const char* name;
    const char* placeholder;
};
inline constexpr Flag kDurationFlag{"--duration-ms", "<ms>"};
inline constexpr Flag kJsonFlag{"--json", "<path>"};

/// A bench's command line, checked before the bench measures anything.
/// Each bench names the flags it takes; `--help` prints the usage line and
/// exits 0, and an unknown flag, a stray argument or a flag without its
/// value is a usage error: the message and the usage line on stderr, exit
/// status 2.
class Args {
public:
    Args(int argc, char** argv, std::vector<Flag> flags)
        : program_(argv[0]), flags_(std::move(flags)) {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help") {
                std::printf("%s\n", usage().c_str());
                std::exit(0);
            }
            const bool known = std::any_of(flags_.begin(), flags_.end(),
                                           [&](const Flag& f) { return arg == f.name; });
            if (!known) {
                error((arg.rfind('-', 0) == 0 ? "unknown option '" : "unexpected argument '") +
                      arg + "'");
            }
            if (i + 1 == argc) {
                error(arg + " needs a value");
            }
            values_[arg] = argv[++i];
        }
    }

    /// Simulated duration: default (seconds), overridable via --duration-ms
    /// or the AMSVP_DURATION_MS environment variable. Either must be a
    /// positive number of milliseconds; anything else is a usage error.
    [[nodiscard]] double duration_seconds(double default_seconds) const {
        const char* source = kDurationFlag.name;
        const char* text = value(source);
        if (text == nullptr) {
            source = "AMSVP_DURATION_MS";
            text = std::getenv(source);
        }
        if (text == nullptr) {
            return default_seconds;
        }
        char* end = nullptr;
        const double ms = std::strtod(text, &end);
        if (end == text || *end != '\0' || !std::isfinite(ms) || ms <= 0.0) {
            error(std::string(source) + " must be a positive number of ms, got '" + text + "'");
        }
        return ms * 1e-3;
    }

    /// Machine-readable output: `--json <path>` writes the collected
    /// results for the perf gate table (bench/compare.py). Empty when
    /// absent.
    [[nodiscard]] std::string json_path() const {
        const char* path = value(kJsonFlag.name);
        return path != nullptr ? path : std::string();
    }

    /// `flag`'s value as a positive integer, `fallback` when absent.
    [[nodiscard]] int positive_int(const char* flag, int fallback) const {
        const char* text = value(flag);
        if (text == nullptr) {
            return fallback;
        }
        char* end = nullptr;
        const long n = std::strtol(text, &end, 10);
        if (end == text || *end != '\0' || n < 1 || n > std::numeric_limits<int>::max()) {
            error(std::string(flag) + " must be a positive integer, got '" + text + "'");
        }
        return static_cast<int>(n);
    }

private:
    /// The value given for `flag`, or null when it is absent.
    [[nodiscard]] const char* value(const char* flag) const {
        const auto it = values_.find(flag);
        return it != values_.end() ? it->second.c_str() : nullptr;
    }

    /// Report a bad command line on stderr and exit with status 2.
    [[noreturn]] void error(const std::string& message) const {
        std::fprintf(stderr, "%s: %s\n%s\n", program_.c_str(), message.c_str(), usage().c_str());
        std::exit(2);
    }

    [[nodiscard]] std::string usage() const {
        std::string line = "usage: " + program_;
        for (const Flag& f : flags_) {
            line += std::string(" [") + f.name + " " + f.placeholder + "]";
        }
        return line;
    }

    std::string program_;
    std::vector<Flag> flags_;
    std::map<std::string, std::string> values_;
};

inline void print_scaling_note(double duration, double paper_duration) {
    std::printf("# simulated time: %.3f ms (paper: %.0f ms on a 2009-era testbed).\n"
                "# absolute times differ by construction; compare the ordering and the\n"
                "# speed-up ratios. Override with --duration-ms <ms>.\n\n",
                duration * 1e3, paper_duration * 1e3);
}

/// Tiny flat-schema JSON emitter: one object per result, string labels plus
/// numeric values, no external dependency.
class JsonReport {
public:
    explicit JsonReport(std::string bench_name) : bench_name_(std::move(bench_name)) {}

    JsonReport& add(std::map<std::string, std::string> labels,
                    std::map<std::string, double> values) {
        results_.push_back({std::move(labels), std::move(values)});
        return *this;
    }

    /// Write to `path`; no-op when `path` is empty. Returns false on I/O
    /// failure (also printed to stderr).
    bool write(const std::string& path) const {
        if (path.empty()) {
            return true;
        }
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        }
        const auto escape = [](const std::string& s) {
            std::string out;
            out.reserve(s.size());
            for (const char ch : s) {
                if (ch == '"' || ch == '\\') {
                    out.push_back('\\');
                }
                out.push_back(ch);
            }
            return out;
        };
        std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
                     escape(bench_name_).c_str());
        for (std::size_t i = 0; i < results_.size(); ++i) {
            std::fprintf(f, "    {");
            bool first = true;
            for (const auto& [key, value] : results_[i].labels) {
                std::fprintf(f, "%s\"%s\": \"%s\"", first ? "" : ", ", escape(key).c_str(),
                             escape(value).c_str());
                first = false;
            }
            for (const auto& [key, value] : results_[i].values) {
                std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", key.c_str(), value);
                first = false;
            }
            std::fprintf(f, "}%s\n", i + 1 < results_.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("# wrote %s\n", path.c_str());
        return true;
    }

private:
    struct Result {
        std::map<std::string, std::string> labels;
        std::map<std::string, double> values;
    };
    std::string bench_name_;
    std::vector<Result> results_;
};

}  // namespace amsvp::bench
