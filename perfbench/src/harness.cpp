#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "abstraction/abstraction.hpp"
#include "support/diagnostics.hpp"
#include "vams/circuits.hpp"
#include "vams/elaborator.hpp"
#include "vams/parser.hpp"

namespace perfbench {

// --- seeded inputs -----------------------------------------------------------

std::uint64_t Rng::next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
    const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * unit;
}

double Rng::normal(double sigma) {
    const double u1 = 1.0 - uniform(0.0, 1.0);  // (0, 1]: log stays finite
    const double u2 = uniform(0.0, 1.0);
    return sigma * std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

std::size_t Rng::pick(const std::vector<double>& weights) {
    double total = 0.0;
    for (const double w : weights) {
        total += w;
    }
    double x = uniform(0.0, total);
    for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
        if (x < weights[i]) {
            return i;
        }
        x -= weights[i];
    }
    return weights.size() - 1;
}

void Digest::add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
        hash_ ^= (value >> (8 * byte)) & 0xffu;
        hash_ *= 1099511628211ull;
    }
}

void Digest::add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    add(bits);
}

void Digest::add(std::string_view text) {
    for (const char c : text) {
        hash_ ^= static_cast<unsigned char>(c);
        hash_ *= 1099511628211ull;
    }
    add(static_cast<std::uint64_t>(text.size()));
}

std::string Digest::hex() const {
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(hash_));
    return text;
}

std::vector<PaperText> paper_texts() {
    return {{"2IN", amsvp::vams::two_inputs_source()},
            {"RC1", amsvp::vams::rc_ladder_source(1)},
            {"RC20", amsvp::vams::rc_ladder_source(20)},
            {"OA", amsvp::vams::opamp_source()}};
}

std::string paper_text(std::string_view name) {
    for (PaperText& text : paper_texts()) {
        if (text.name == name) {
            return std::move(text.source);
        }
    }
    throw std::runtime_error("unknown paper circuit " + std::string(name));
}

TextModel abstract_from_text(const std::string& name, const std::string& source) {
    amsvp::support::DiagnosticEngine diagnostics;
    auto module = amsvp::vams::parse_module_source(source, diagnostics);
    if (!module) {
        throw std::runtime_error(name + ": parse failed\n" + diagnostics.render_all());
    }
    auto elaborated = amsvp::vams::elaborate(*module, diagnostics);
    if (!elaborated) {
        throw std::runtime_error(name + ": elaboration failed\n" + diagnostics.render_all());
    }
    std::string error;
    auto model = abstraction::abstract_circuit(elaborated->circuit, {{"out", "gnd"}}, {}, &error);
    if (!model) {
        throw std::runtime_error(name + ": abstraction failed: " + error);
    }
    return TextModel{std::move(elaborated->circuit), std::move(*model)};
}

// --- output checks -----------------------------------------------------------

std::string check_sweep(const runtime::SweepResult& got, const runtime::SweepResult& want) {
    if (!got.diagnostics.empty()) {
        return "diagnostics: " + got.diagnostics.front();
    }
    for (std::size_t lane = 0; lane < got.lane_health.size(); ++lane) {
        if (got.lane_health[lane].status != runtime::LaneStatus::kOk) {
            return "lane " + std::to_string(lane) + " unhealthy";
        }
    }
    if (got.steps != want.steps || got.settled_at != want.settled_at) {
        return "steps or settled_at differ from the reference";
    }
    if (got.outputs.size() != want.outputs.size()) {
        return "output count differs from the reference";
    }
    for (std::size_t o = 0; o < got.outputs.size(); ++o) {
        const numeric::WaveformBatch& a = got.outputs[o];
        const numeric::WaveformBatch& b = want.outputs[o];
        if (a.lanes() != b.lanes() || a.size() != b.size()) {
            return "output " + std::to_string(o) + " shape differs from the reference";
        }
        if (a.size() > 0 &&
            std::memcmp(a.frame_data(0), b.frame_data(0), a.size() * a.lanes() * sizeof(double)) !=
                0) {
            return "output " + std::to_string(o) + " differs from the reference";
        }
    }
    return {};
}

void perturb(runtime::SweepResult& reference) {
    numeric::WaveformBatch& out = reference.outputs.at(0);
    auto* first = const_cast<double*>(out.frame_data(0));
    std::uint64_t bits = 0;
    std::memcpy(&bits, first, sizeof(bits));
    bits ^= 1u;
    std::memcpy(first, &bits, sizeof(bits));
}

// --- statistics --------------------------------------------------------------

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values, double percentile) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    Tail result;
    result.percentile = percentile;
    result.samples = n;
    if (n == 0) {
        return result;
    }
    const auto rank =
        static_cast<std::size_t>(std::ceil(percentile / 100.0 * static_cast<double>(n)));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    result.value = values[index];
    result.beyond = n - 1 - index;
    return result;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double clock_read_ns() {
    std::vector<double> samples;
    samples.reserve(2000);
    for (int i = 0; i < 2000; ++i) {
        const Clock::time_point a = Clock::now();
        const Clock::time_point b = Clock::now();
        samples.push_back(std::chrono::duration<double, std::nano>(b - a).count());
    }
    return median(std::move(samples));
}

namespace {

/// A fixed amount of integer work that no compiler can fold away.
std::uint64_t spin(std::uint64_t iterations, std::uint64_t seed) {
    std::uint64_t x = seed | 1u;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        x ^= x >> 29;
    }
    return x;
}

/// Wall seconds for `threads` concurrent spin loops (best of two).
double spin_seconds(int threads, std::uint64_t iterations) {
    double best = 1e30;
    for (int attempt = 0; attempt < 2; ++attempt) {
        std::vector<std::uint64_t> sink(static_cast<std::size_t>(threads));
        const Clock::time_point start = Clock::now();
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&sink, t, iterations] {
                sink[static_cast<std::size_t>(t)] =
                    spin(iterations, static_cast<std::uint64_t>(t) + 7u);
            });
        }
        for (std::thread& w : workers) {
            w.join();
        }
        best = std::min(best, seconds_between(start, Clock::now()));
        if (std::find(sink.begin(), sink.end(), 0u) != sink.end()) {
            std::fprintf(stderr, "spin sink hit zero\n");  // keeps the work observable
        }
    }
    return best;
}

}  // namespace

HostRecord measure_host() {
    HostRecord host;
    cpu_set_t set;
    CPU_ZERO(&set);
    host.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                     ? static_cast<unsigned>(CPU_COUNT(&set))
                     : std::thread::hardware_concurrency();
    host.hardware_threads = std::thread::hardware_concurrency();
    const int n = std::max(1, static_cast<int>(host.nproc));
    constexpr std::uint64_t kIterations = 20'000'000;
    const double one = spin_seconds(1, kIterations);
    const double many = spin_seconds(n, kIterations);
    host.effective_parallelism = static_cast<double>(n) * one / many;
    host.clock_read_ns = clock_read_ns();
    return host;
}

// --- the timed phase ---------------------------------------------------------

void Phase::add(const OpRecord& op, double end) {
    ++attempted;
    samples.push_back({op.seconds, end, op.ok ? op.lane_steps : 0.0, op.ok});
    if (!op.ok) {
        ++failed;
        if (first_failure.empty()) {
            first_failure = op.failure;
        }
    }
}

std::vector<double> Phase::op_seconds() const {
    std::vector<double> out;
    out.reserve(samples.size());
    for (const Sample& s : samples) {
        out.push_back(s.seconds);
    }
    return out;
}

Phase run_closed_loop(double seconds, std::size_t min_ops, Placement placement,
                      const std::function<OpRecord()>& op) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (placement == Placement::kRotate && sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &allowed)) {
                cpus.push_back(cpu);
            }
        }
    }
    Phase phase;
    const Clock::time_point start = Clock::now();
    while (phase.attempted < min_ops || seconds_between(start, Clock::now()) < seconds) {
        if (!cpus.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[phase.attempted % cpus.size()], &one);
            sched_setaffinity(0, sizeof(one), &one);
        }
        const OpRecord record = op();
        phase.add(record, seconds_between(start, Clock::now()));
    }
    phase.wall_seconds = seconds_between(start, Clock::now());
    phase.rotation = cpus.size();
    if (!cpus.empty()) {
        sched_setaffinity(0, sizeof(allowed), &allowed);
    }
    return phase;
}

double op_p50_seconds(const Timing& timing) {
    return median(timing.round_seconds.empty() ? timing.op_seconds : timing.round_seconds);
}

PhaseTimings split_phase(const Phase& phase) {
    constexpr std::size_t kWindows = 10;
    const auto window_of = [&](double end) {
        const auto w = static_cast<std::size_t>(end / phase.wall_seconds * kWindows);
        return std::min(w, kWindows - 1);
    };
    std::vector<std::size_t> completed(kWindows, 0);
    for (const Phase::Sample& s : phase.samples) {
        ++completed[window_of(s.end)];
    }
    std::vector<std::size_t> order(kWindows);
    for (std::size_t w = 0; w < kWindows; ++w) {
        order[w] = w;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return completed[a] > completed[b]; });
    std::vector<char> quiet(kWindows, 0);
    for (std::size_t i = 0; i < kWindows / 2; ++i) {
        quiet[order[i]] = 1;
    }

    PhaseTimings timings;
    const auto add = [&](Timing& timing, const Phase::Sample& s) {
        timing.op_seconds.push_back(s.seconds);
        timing.ok_ops += s.ok ? 1.0 : 0.0;
        timing.lane_steps += s.lane_steps;
        if (phase.clients == 1) {
            timing.host_seconds += s.seconds;
        }
    };
    // A round of one op per CPU belongs to the window its last op ends in.
    double round_sum = 0.0;
    for (std::size_t i = 0; i < phase.samples.size(); ++i) {
        const Phase::Sample& s = phase.samples[i];
        Timing& half = quiet[window_of(s.end)] ? timings.quiet : timings.dropped;
        add(half, s);
        add(timings.whole, s);
        if (phase.rotation > 0) {
            round_sum += s.seconds;
            if ((i + 1) % phase.rotation == 0) {
                const double mean = round_sum / static_cast<double>(phase.rotation);
                half.round_seconds.push_back(mean);
                timings.whole.round_seconds.push_back(mean);
                round_sum = 0.0;
            }
        }
    }
    if (phase.clients > 1) {
        timings.whole.host_seconds = phase.wall_seconds;
        timings.quiet.host_seconds = phase.wall_seconds / 2.0;
        timings.dropped.host_seconds = phase.wall_seconds / 2.0;
    }
    return timings;
}

// --- results -----------------------------------------------------------------

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
        out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

}  // namespace perfbench
