// perfbench-driver: one cold process of one benchmark workload.
//
// The driver calls the same public functions that `ga-sim` and `ga-serve`
// call, times them from outside with std::chrono::steady_clock, checks the
// outputs, and prints one JSON object on stdout. It changes no program code
// and reads no program-internal timers: the only program instruments it
// reads are the obs sim counters, in traced runs only.
//
//   perfbench-driver host
//   perfbench-driver requests <scenario.json> <seed> <count> <out.jsonl>
//   perfbench-driver sim <scenario.json> --threads N [--trace FILE]
//   perfbench-driver sim-reference <scenario.json> --threads N
//   perfbench-driver serve <scenario.json> <requests.jsonl> [--trace FILE]
//
// `requests` writes the serve_mix client's request stream. Its jobs come
// from the program's own arrival model: submits ask the session to
// `generate` them, and quote and charge shapes are drawn the way
// ServeSession::generate_job draws a job.
//
// `--trace FILE` turns on the benchmark's own spans (name, start, end,
// parent, request id), kept in memory and written to FILE as a Chrome
// trace_event document when the process ends. In a traced sim run the
// driver also splits `build_workload` into its public sub-calls and runs
// every grid point once more serially, with obs metrics on, after the
// end-to-end path; the results bytes must still match an untraced run.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.hpp"
#include "io/results.hpp"
#include "io/scenario.hpp"
#include "machine/catalog.hpp"
#include "obs/metrics.hpp"
#include "service/session.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "util/rng.hpp"
#include "util/parallel.hpp"
#include "workload/counters.hpp"
#include "workload/predictor.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using ga::io::JsonValue;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

/// Microseconds since the driver started.
double now_us() {
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     kProcessStart)
        .count();
}

// ------------------------------------------------------------------ spans

struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;          ///< index of the enclosing span, -1 for a root
    std::int64_t id;     ///< request id for serve spans, -1 otherwise
};

/// In-memory span recorder. Disabled recorders cost one branch per call.
class Spans {
public:
    explicit Spans(bool enabled) : enabled_(enabled) {
        if (enabled_) spans_.reserve(1 << 16);
    }

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Opens a span under the innermost open one.
    void begin(const char* name, std::int64_t id = -1) {
        if (!enabled_) return;
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back(Span{name, now_us(), 0.0, parent, id});
        open_.push_back(static_cast<int>(spans_.size() - 1));
    }

    void end() {
        if (!enabled_) return;
        spans_[static_cast<std::size_t>(open_.back())].end_us = now_us();
        open_.pop_back();
    }

    /// Chrome trace_event document (opens in Perfetto); the span index,
    /// parent index and request id ride in `args`.
    void write(const std::string& path) const {
        JsonValue::Array events;
        events.reserve(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            JsonValue args{JsonValue::Object{}};
            args.set("span", JsonValue(static_cast<double>(i)));
            args.set("parent", JsonValue(s.parent));
            args.set("id", JsonValue(static_cast<double>(s.id)));
            JsonValue event{JsonValue::Object{}};
            event.set("name", JsonValue(s.name));
            event.set("ph", JsonValue("X"));
            event.set("pid", JsonValue(1));
            event.set("tid", JsonValue(1));
            event.set("ts", JsonValue(s.start_us));
            event.set("dur", JsonValue(s.end_us - s.start_us));
            event.set("args", std::move(args));
            events.push_back(std::move(event));
        }
        JsonValue document{JsonValue::Object{}};
        document.set("traceEvents", JsonValue(std::move(events)));
        std::ofstream out(path, std::ios::binary);
        out << ga::io::write_json(document, 0) << '\n';
        if (!out) throw std::runtime_error("cannot write trace " + path);
    }

private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// RAII scope for one span.
class Scope {
public:
    Scope(Spans& spans, const char* name, std::int64_t id = -1)
        : spans_(spans) {
        spans_.begin(name, id);
    }
    ~Scope() { spans_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Spans& spans_;
};

// ------------------------------------------------------------- utilities

JsonValue count(std::uint64_t value) {
    return JsonValue(static_cast<double>(value));
}

/// Prints the driver's one-line report.
void print_report(const JsonValue& report) {
    std::printf("%s\n", ga::io::write_json(report, 0).c_str());
}

std::string hex64(std::uint64_t value) {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
    return buffer;
}

/// FNV-1a over the bytes: a cheap fingerprint for byte-identity checks.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t peak_rss_kb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss);
}

[[noreturn]] void usage_error(const std::string& message) {
    std::fprintf(stderr, "perfbench-driver: %s\n", message.c_str());
    std::exit(2);
}

// ------------------------------------------------------------------- sim

/// Output invariants of one grid point: every job either completed or was
/// skipped, one finish time per completion, and finite totals.
bool point_ok(const ga::sim::SimResult& r, std::size_t jobs) {
    const auto finite = [](double v) { return std::isfinite(v); };
    if (r.jobs_completed + r.jobs_skipped != jobs) return false;
    if (r.finish_times_s.size() != r.jobs_completed) return false;
    if (!std::all_of(r.finish_times_s.begin(), r.finish_times_s.end(),
                     finite)) {
        return false;
    }
    for (const double v : {r.work_core_hours, r.total_cost, r.energy_mwh,
                           r.operational_carbon_kg, r.attributed_carbon_kg,
                           r.makespan_s}) {
        if (!finite(v)) return false;
    }
    return std::all_of(r.currency_spent.begin(), r.currency_spent.end(),
                       [&](const auto& kv) { return finite(kv.second); });
}

std::string results_text(const std::vector<ga::sim::SweepOutcome>& outcomes,
                         const std::string& scenario_name) {
    ga::io::ResultWriteOptions options;
    options.scenario_name = scenario_name;
    return ga::io::results_to_json_text(outcomes, options);
}

/// `build_workload` split into its public sub-calls, one span each. The
/// traced run's results must match the untraced run byte for byte, which
/// pins this split to the program's own composition.
ga::workload::Workload build_workload_traced(
    const ga::workload::TraceOptions& options, Spans& spans) {
    const Scope build(spans, "workload.build");
    ga::workload::Workload w;
    {
        const Scope s(spans, "workload.generate_trace");
        w.jobs = ga::workload::generate_trace(options);
    }
    {
        // First call runs the kernel suite; later callers hit its cache.
        const Scope s(spans, "kernels.benchmark_points");
        (void)ga::workload::benchmark_points();
    }
    ga::stats::Gmm gmm = [&] {
        const Scope s(spans, "stats.gmm_fit");
        return ga::workload::fit_counter_gmm(4000, options.seed ^ 0x9E5u);
    }();
    {
        const Scope s(spans, "workload.synthesize_counters");
        ga::workload::synthesize_counters(w.jobs, gmm, options.seed ^ 0x51Du);
    }
    {
        const Scope s(spans, "workload.predictor");
        w.predictor = std::make_shared<ga::workload::CrossPlatformPredictor>(
            ga::machine::simulation_machines());
    }
    return w;
}

std::uint64_t counter(const char* name) {
    return ga::obs::Registry::global().counter_handle(name).value();
}

int run_sim(const std::string& scenario_path, std::size_t threads,
            const std::string& trace_path) {
    Spans spans(!trace_path.empty());
    const double t0 = now_us();
    spans.begin("bench.e2e");
    spans.begin("bench.setup");
    ga::io::ScenarioFile scenario = [&] {
        const Scope s(spans, "io.load_scenario");
        return ga::io::load_scenario_file(scenario_path);
    }();
    const std::vector<ga::sim::ScenarioSpec> specs = scenario.grid.expand();
    ga::workload::Workload workload =
        spans.enabled() ? build_workload_traced(scenario.workload, spans)
                        : ga::workload::build_workload(scenario.workload);
    std::optional<ga::sim::BatchSimulator> simulator;
    {
        const Scope s(spans, "sim.precompute");
        simulator.emplace(std::move(workload));
    }
    spans.end();  // bench.setup
    const double t_setup = now_us();

    ga::sim::SweepRunner runner(*simulator, threads);
    std::vector<ga::sim::SweepOutcome> outcomes;
    double sweep_us = 0.0;
    {
        const Scope s(spans, "sweep.run");
        const double start = now_us();
        outcomes = runner.run(specs);
        sweep_us = now_us() - start;
    }
    std::string text;
    {
        const Scope s(spans, "io.results_json");
        text = results_text(outcomes, scenario.name);
    }
    spans.end();  // bench.e2e
    const double t_end = now_us();

    // ---- outside the timed region: output checks ----
    const std::size_t jobs = simulator->workload().jobs.size();
    std::uint64_t failed = 0;
    for (const auto& outcome : outcomes) {
        if (!point_ok(outcome.result, jobs)) ++failed;
    }

    JsonValue report{JsonValue::Object{}};
    report.set("setup_s", JsonValue((t_setup - t0) * 1e-6));
    report.set("sweep_s", JsonValue(sweep_us * 1e-6));
    report.set("e2e_s", JsonValue((t_end - t0) * 1e-6));
    report.set("jobs", count(jobs));
    report.set("points", count(outcomes.size()));
    report.set("failed", count(failed));
    report.set("results_hash", JsonValue(hex64(fnv1a(text))));
    report.set("results_bytes", count(text.size()));

    if (spans.enabled()) {
        // Each point once more, serially, for the single-thread per-point
        // baseline and the event-loop counters.
        ga::obs::set_metrics_enabled(true);
        const std::uint64_t scans0 = counter("sim.queue.scans");
        const std::uint64_t drains0 = counter("sim.queue.drains");
        const std::uint64_t submits0 = counter("sim.events.submit");
        const std::uint64_t started0 = counter("sim.jobs.started");
        {
            const Scope serial(spans, "bench.serial_points");
            for (const auto& spec : specs) {
                const Scope s(spans, "sim.point");
                (void)simulator->run(spec.options);
            }
        }
        ga::obs::set_metrics_enabled(false);
        report.set("scans", count(counter("sim.queue.scans") - scans0));
        report.set("drains", count(counter("sim.queue.drains") - drains0));
        report.set("submits", count(counter("sim.events.submit") - submits0));
        report.set("started", count(counter("sim.jobs.started") - started0));
        spans.write(trace_path);
    }
    report.set("peak_rss_kb", count(peak_rss_kb()));
    print_report(report);
    return 0;
}

/// The LinearQueues oracle: every point of the grid through
/// `run_reference`, compared byte for byte (finish times included) with
/// the indexed sweep.
int run_sim_reference(const std::string& scenario_path, std::size_t threads) {
    const ga::io::ScenarioFile scenario =
        ga::io::load_scenario_file(scenario_path);
    const std::vector<ga::sim::ScenarioSpec> specs = scenario.grid.expand();
    const ga::sim::BatchSimulator simulator(
        ga::workload::build_workload(scenario.workload));
    ga::sim::SweepRunner runner(simulator, threads);
    const std::vector<ga::sim::SweepOutcome> outcomes = runner.run(specs);

    std::vector<ga::sim::SweepOutcome> reference(specs.size());
    ga::util::parallel_for(specs.size(), threads, [&](std::size_t i) {
        reference[i].spec = specs[i];
        reference[i].result = simulator.run_reference(specs[i].options);
    });

    ga::io::ResultWriteOptions with_finish;
    with_finish.include_finish_times = true;
    const std::size_t jobs = simulator.workload().jobs.size();
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::span<const ga::sim::SweepOutcome> a(&outcomes[i], 1);
        const std::span<const ga::sim::SweepOutcome> b(&reference[i], 1);
        if (!point_ok(outcomes[i].result, jobs) ||
            ga::io::results_to_json_text(a, with_finish) !=
                ga::io::results_to_json_text(b, with_finish)) {
            ++failed;
        }
    }
    JsonValue report{JsonValue::Object{}};
    report.set("points", count(specs.size()));
    report.set("failed", count(failed));
    report.set("results_hash",
               JsonValue(hex64(fnv1a(results_text(outcomes, scenario.name)))));
    print_report(report);
    return 0;
}

// ----------------------------------------------------------------- serve

constexpr std::array<const char*, 5> kVerbs = {"submit_jobs", "quote",
                                              "balance", "charge", "stats"};
constexpr std::array<const char*, 6> kVerbSpans = {
    "service.submit_jobs", "service.quote", "service.balance",
    "service.charge",      "service.stats", "service.other"};
constexpr std::size_t kSubmitVerb = 0;
constexpr std::size_t kQuoteVerb = 1;
constexpr std::size_t kBalanceVerb = 2;
constexpr std::size_t kChargeVerb = 3;
constexpr std::size_t kStatsVerb = 4;
constexpr std::size_t kOtherVerb = 5;

// One block of ten requests: 6 submit : 1 quote : 1 balance : 1 charge :
// 1 stats, in a seeded order.
constexpr std::array<std::size_t, 10> kBlock = {
    kSubmitVerb, kSubmitVerb,  kSubmitVerb, kSubmitVerb, kSubmitVerb,
    kSubmitVerb, kQuoteVerb,   kBalanceVerb, kChargeVerb, kStatsVerb};

// Mean gap between simulated job arrivals (seconds). The first share of the
// submits arrives faster than the deployment drains, so a backlog of
// thousands of jobs builds; the rest arrive slower, so it drains again
// before the session ends instead of growing without bound.
constexpr double kBurstShare = 0.2;
constexpr double kBurstGapS = 2.0;
constexpr double kCalmGapS = 40.0;
constexpr double kAccountBudget = 1e15;
// Tag of the stream's RNG, split from the seed so that it stays independent
// of the session's own generator, which is seeded from the same number.
constexpr std::uint64_t kStreamTag = 0x5E12;

/// A job shape drawn as ServeSession::generate_job draws one
/// (src/service/session.cpp): an app archetype from the trace model, then a
/// runtime, power and counters from its intensity.
struct Shape {
    int cores;
    double runtime_s;
    double power_w;
    double gips;
    double llc_mps;
};

Shape draw_shape(ga::util::Rng& rng) {
    const ga::workload::AppProfile app = ga::workload::sample_app_profile(rng);
    const double ci = app.compute_intensity;
    return Shape{app.cores,
                 rng.lognormal(std::log(app.runtime_median_s),
                               app.runtime_sigma),
                 app.cores * (10.0 + 20.0 * ci), 0.5 + 3.5 * ci,
                 4.0 - 3.5 * ci};
}

/// Writes the serve_mix stream: `total` protocol lines with ids 1..total.
/// One `create_account` per user the session generates jobs for (u0, u1,
/// ...), then blocks of kBlock, ending in `stats` so the session's final
/// state is in the transcript. Each submit asks the session to generate
/// 1-3 jobs at seeded burst-then-calm arrival times.
int write_requests(const std::string& scenario_path, std::uint64_t seed,
                   std::size_t total, const std::string& out_path) {
    const ga::io::ScenarioFile scenario =
        ga::io::load_scenario_file(scenario_path);
    const auto users = static_cast<std::int64_t>(
        std::max<std::size_t>(1, scenario.workload.users));
    std::vector<std::string> machines;
    for (const auto& cfg : ga::sim::default_clusters()) {
        machines.push_back(cfg.entry.node.name);
    }
    if (total < static_cast<std::size_t>(users) + kBlock.size()) {
        usage_error("requests: count too small for the accounts and a block");
    }
    ga::util::Rng rng = ga::util::Rng(seed).split(kStreamTag);

    std::vector<std::size_t> verbs;
    while (static_cast<std::size_t>(users) + verbs.size() < total) {
        std::vector<std::size_t> block(kBlock.begin(), kBlock.end());
        rng.shuffle(block);
        verbs.insert(verbs.end(), block.begin(), block.end());
    }
    verbs.resize(total - static_cast<std::size_t>(users));
    const auto last_stats = std::find(verbs.rbegin(), verbs.rend(), kStatsVerb);
    std::swap(*last_stats, verbs.back());
    const auto submits = static_cast<double>(
        std::count(verbs.begin(), verbs.end(), kSubmitVerb));

    const auto user_name = [](std::int64_t u) {
        std::string name = "u";
        name += std::to_string(u);
        return name;
    };
    const auto any_user = [&] {
        return user_name(rng.uniform_int(0, users - 1));
    };
    std::ofstream out(out_path, std::ios::binary);
    double id = 0.0;
    const auto request = [&](const char* type) {
        JsonValue r{JsonValue::Object{}};
        r.set("id", JsonValue(++id));
        r.set("type", JsonValue(type));
        return r;
    };
    for (std::int64_t u = 0; u < users; ++u) {
        JsonValue r = request("create_account");
        r.set("user", JsonValue(user_name(u)));
        r.set("budget", JsonValue(kAccountBudget));
        out << ga::io::write_json(r, 0) << '\n';
    }
    double clock_s = 0.0;
    double submitted = 0.0;
    std::uint64_t jobs = 0;
    for (const std::size_t verb : verbs) {
        JsonValue r = request(kVerbs[verb]);
        if (verb == kSubmitVerb) {
            const double gap =
                submitted < kBurstShare * submits ? kBurstGapS : kCalmGapS;
            const auto n = rng.uniform_int(1, 3);
            const double start = clock_s + rng.exponential(1.0 / gap);
            const double spacing = rng.exponential(1.0 / gap);
            // The session places job i at start + i * spacing.
            clock_s = start + static_cast<double>(n - 1) * spacing;
            JsonValue generate{JsonValue::Object{}};
            generate.set("count", JsonValue(static_cast<double>(n)));
            generate.set("start_s", JsonValue(start));
            generate.set("spacing_s", JsonValue(spacing));
            r.set("generate", std::move(generate));
            submitted += 1.0;
            jobs += static_cast<std::uint64_t>(n);
        } else if (verb == kQuoteVerb) {
            r.set("user", JsonValue(any_user()));
            const Shape job = draw_shape(rng);
            r.set("cores", JsonValue(job.cores));
            r.set("runtime_ic_s", JsonValue(job.runtime_s));
            r.set("power_ic_w", JsonValue(job.power_w));
            r.set("gips", JsonValue(job.gips));
            r.set("llc_mps", JsonValue(job.llc_mps));
        } else if (verb == kBalanceVerb) {
            r.set("user", JsonValue(any_user()));
        } else if (verb == kChargeVerb) {
            r.set("user", JsonValue(any_user()));
            r.set("machine",
                  JsonValue(machines[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(machines.size()) - 1))]));
            const Shape job = draw_shape(rng);
            r.set("duration_s", JsonValue(job.runtime_s));
            r.set("energy_j", JsonValue(job.runtime_s * job.power_w));
            r.set("cores", JsonValue(job.cores));
        }
        out << ga::io::write_json(r, 0) << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + out_path);

    JsonValue report{JsonValue::Object{}};
    report.set("requests", count(total));
    report.set("jobs", count(jobs));
    print_report(report);
    return 0;
}

/// The numeric member `key` of a stats response's result.
double stats_field(const JsonValue& response, std::string_view key) {
    return response.at("result").at(key).as_number();
}

int run_serve(const std::string& scenario_path,
              const std::string& requests_path,
              const std::string& trace_path) {
    // The client's request stream is read and indexed before the clock
    // starts.
    std::vector<std::string> lines;
    {
        std::ifstream in(requests_path, std::ios::binary);
        if (!in) usage_error("cannot read " + requests_path);
        for (std::string line; std::getline(in, line);) {
            if (!line.empty()) lines.push_back(std::move(line));
        }
    }
    const std::size_t n = lines.size();
    std::vector<double> request_ids(n);
    std::vector<std::size_t> verbs(n, kOtherVerb);
    for (std::size_t i = 0; i < n; ++i) {
        const JsonValue request = ga::io::parse_json(lines[i]);
        request_ids[i] = request.at("id").as_number();
        const std::string& type = request.at("type").as_string();
        for (std::size_t v = 0; v < kVerbs.size(); ++v) {
            if (type == kVerbs[v]) verbs[i] = v;
        }
    }
    std::vector<std::string> responses(n);
    std::vector<double> latency_us(n);

    Spans spans(!trace_path.empty());
    const double t0 = now_us();
    spans.begin("bench.e2e");
    spans.begin("bench.setup");
    std::optional<ga::service::ServeSession> session;
    {
        ga::io::ScenarioFile scenario = [&] {
            const Scope s(spans, "io.load_scenario");
            return ga::io::load_scenario_file(scenario_path);
        }();
        if (spans.enabled()) {
            const Scope s(spans, "kernels.benchmark_points");
            (void)ga::workload::benchmark_points();
        }
        const Scope s(spans, "service.session_init");
        session.emplace(std::move(scenario));
    }
    spans.end();  // bench.setup
    const double t_setup = now_us();
    {
        const Scope replay(spans, "service.replay");
        for (std::size_t i = 0; i < n; ++i) {
            const Scope s(spans, kVerbSpans[verbs[i]],
                          static_cast<std::int64_t>(request_ids[i]));
            const double start = now_us();
            responses[i] = session->handle_line(lines[i]);
            latency_us[i] = now_us() - start;
        }
    }
    spans.end();  // bench.e2e
    const double t_end = now_us();

    // ---- outside the timed region: output checks ----
    std::uint64_t failed = 0;
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::size_t bytes = 0;
    JsonValue last_stats;
    double queue_depth_max = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        hash = fnv1a(responses[i], hash);
        hash = fnv1a("\n", hash);
        bytes += responses[i].size() + 1;
        // Every response must be ok and echo its request's id.
        const JsonValue response = ga::io::parse_json(responses[i]);
        const JsonValue* id = response.find("id");
        const JsonValue* ok = response.find("ok");
        if (id == nullptr || *id != JsonValue(request_ids[i]) ||
            ok == nullptr || *ok != JsonValue(true)) {
            ++failed;
            continue;
        }
        if (verbs[i] == kStatsVerb) {
            queue_depth_max =
                std::max(queue_depth_max, stats_field(response, "jobs_queued"));
            last_stats = response;
        }
    }
    if (last_stats.is_null()) {
        throw std::runtime_error("no stats request succeeded");
    }

    JsonValue report{JsonValue::Object{}};
    report.set("setup_s", JsonValue((t_setup - t0) * 1e-6));
    report.set("replay_s", JsonValue((t_end - t_setup) * 1e-6));
    report.set("e2e_s", JsonValue((t_end - t0) * 1e-6));
    report.set("requests", count(n));
    report.set("failed", count(failed));
    report.set("transcript_hash", JsonValue(hex64(hash)));
    report.set("transcript_bytes", count(bytes));
    report.set("queue_depth_max", JsonValue(queue_depth_max));
    report.set("queue_depth_end",
               JsonValue(stats_field(last_stats, "jobs_queued")));
    report.set("ledger_history_end",
               JsonValue(stats_field(last_stats, "transactions")));
    report.set("jobs_accounted",
               JsonValue(stats_field(last_stats, "jobs_submitted") +
                         stats_field(last_stats, "jobs_rejected")));
    JsonValue::Array latency;
    latency.reserve(n);
    for (const double us : latency_us) latency.emplace_back(us);
    report.set("latency_us", JsonValue(std::move(latency)));
    if (spans.enabled()) spans.write(trace_path);
    report.set("peak_rss_kb", count(peak_rss_kb()));
    print_report(report);
    return 0;
}

// ------------------------------------------------------------------ main

int run(int argc, char** argv) {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) usage_error("missing mode");
    const std::string& mode = args[0];
    if (mode == "host") {
        JsonValue report{JsonValue::Object{}};
        report.set("compiler", JsonValue(PERFBENCH_COMPILER));
        report.set("build_type", JsonValue(PERFBENCH_BUILD_TYPE));
        print_report(report);
        return 0;
    }
    std::vector<std::string> positional;
    std::size_t threads = 1;
    std::string trace_path;
    for (std::size_t i = 1; i < args.size(); ++i) {
        if ((args[i] == "--threads" || args[i] == "--trace") &&
            i + 1 < args.size()) {
            if (args[i] == "--threads") {
                threads = std::stoul(args[++i]);
            } else {
                trace_path = args[++i];
            }
        } else {
            positional.push_back(args[i]);
        }
    }
    if (mode == "sim" && positional.size() == 1) {
        return run_sim(positional[0], threads, trace_path);
    }
    if (mode == "sim-reference" && positional.size() == 1) {
        return run_sim_reference(positional[0], threads);
    }
    if (mode == "requests" && positional.size() == 4) {
        return write_requests(positional[0], std::stoull(positional[1]),
                              std::stoul(positional[2]), positional[3]);
    }
    if (mode == "serve" && positional.size() == 2) {
        return run_serve(positional[0], positional[1], trace_path);
    }
    usage_error("bad arguments for mode '" + mode + "'");
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench-driver: error: %s\n", e.what());
        return 1;
    }
}
