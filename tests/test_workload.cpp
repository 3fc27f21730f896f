// Tests for the workload substrate: trace generation, GMM counter synthesis,
// and the KNN cross-platform predictor.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "kernels/kernel.hpp"
#include "util/error.hpp"
#include "workload/counters.hpp"
#include "workload/predictor.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace {

namespace wl = ga::workload;
namespace mc = ga::machine;

wl::TraceOptions small_options() {
    wl::TraceOptions o;
    o.base_jobs = 3000;
    o.users = 60;
    o.span_days = 5.0;
    o.seed = 11;
    return o;
}

// ---------------------------------------------------------------- trace
TEST(Trace, ProducesRequestedJobCount) {
    const auto jobs = wl::generate_trace(small_options());
    EXPECT_EQ(jobs.size(), 6000u);  // base * 2 repetitions
}

TEST(Trace, PaperScaleDefaults) {
    const wl::TraceOptions o;
    EXPECT_EQ(o.base_jobs, 71190u);
    EXPECT_EQ(o.total_jobs(), 142380u);
}

TEST(Trace, SortedBySubmitTimeWithDenseIds) {
    const auto jobs = wl::generate_trace(small_options());
    for (std::size_t i = 1; i < jobs.size(); ++i) {
        EXPECT_LE(jobs[i - 1].submit_s, jobs[i].submit_s);
        EXPECT_EQ(jobs[i].id, i);
    }
}

TEST(Trace, SeventeenPercentNeedMoreThanSixteenCores) {
    const auto jobs = wl::generate_trace(small_options());
    std::size_t large = 0;
    for (const auto& j : jobs) {
        if (j.cores > 16) ++large;
    }
    const double frac = static_cast<double>(large) / jobs.size();
    EXPECT_NEAR(frac, 0.17, 0.04);  // paper: 17% cannot run on Desktop
}

TEST(Trace, RepetitionsShareAppCharacteristics) {
    const auto jobs = wl::generate_trace(small_options());
    // All jobs of the same (user, app) must request identical cores and
    // power class (the paper's repetition assumption).
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::pair<int, double>> seen;
    for (const auto& j : jobs) {
        const auto key = std::make_pair(j.user, j.app);
        const auto it = seen.find(key);
        if (it == seen.end()) {
            seen.emplace(key, std::make_pair(j.cores, j.power_ic_w));
        } else {
            EXPECT_EQ(it->second.first, j.cores);
            EXPECT_DOUBLE_EQ(it->second.second, j.power_ic_w);
        }
    }
}

TEST(Trace, DeterministicInSeed) {
    const auto a = wl::generate_trace(small_options());
    const auto b = wl::generate_trace(small_options());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].runtime_ic_s, b[i].runtime_ic_s);
        EXPECT_DOUBLE_EQ(a[i].submit_s, b[i].submit_s);
    }
}

TEST(Trace, PhysicalValues) {
    const auto jobs = wl::generate_trace(small_options());
    for (const auto& j : jobs) {
        EXPECT_GT(j.runtime_ic_s, 0.0);
        EXPECT_LE(j.runtime_ic_s, 24.0 * 3600.0);
        EXPECT_GT(j.power_ic_w, 0.0);
        EXPECT_GE(j.cores, 1);
        EXPECT_LE(j.cores, 64);
    }
}

TEST(Trace, CoreMixMatchesDeclaredWeights) {
    ga::util::Rng rng(5);
    std::map<int, int> counts;
    for (int i = 0; i < 20000; ++i) counts[wl::sample_core_count(rng)]++;
    EXPECT_NEAR(counts[1] / 20000.0, 0.25, 0.02);
    EXPECT_NEAR(counts[16] / 20000.0, 0.23, 0.02);
    EXPECT_NEAR((counts[32] + counts[48] + counts[64]) / 20000.0, 0.17, 0.02);
}

// ---------------------------------------------------------------- counters
TEST(Counters, GmmTrainsAndSamplesInRange) {
    const auto gmm = wl::fit_counter_gmm(1000, 3);
    ga::util::Rng rng(4);
    for (int i = 0; i < 200; ++i) {
        const auto c = wl::counters_from_sample(gmm.sample(rng));
        EXPECT_GT(c.gips, 0.0);
        EXPECT_GT(c.llc_mps, 0.0);
        EXPECT_LT(c.gips, 1000.0);     // log-space sampling keeps scales sane
        EXPECT_LT(c.llc_mps, 100000.0);
    }
}

TEST(Counters, RepetitionsShareCounters) {
    auto jobs = wl::generate_trace(small_options());
    const auto gmm = wl::fit_counter_gmm(600, 3);
    wl::synthesize_counters(jobs, gmm, 9);
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> seen;
    for (const auto& j : jobs) {
        const auto key = std::make_pair(j.user, j.app);
        const auto it = seen.find(key);
        if (it == seen.end()) {
            seen.emplace(key, j.counters.gips);
        } else {
            EXPECT_DOUBLE_EQ(it->second, j.counters.gips);
        }
    }
}

// ---------------------------------------------------------------- predictor
TEST(Predictor, BenchmarkPointsCached) {
    const auto& a = wl::benchmark_points();
    const auto& b = wl::benchmark_points();
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.size(), 14u);  // 7 kernels x 2 scales
}

// The pinned profile table in workload/predictor.cpp must be exactly what the
// live kernel suite counts. On drift, the message carries the live row in the
// table's own hexfloat format.
TEST(Predictor, PinnedProfilesMatchLiveSuite) {
    const auto& pinned = wl::benchmark_points();
    const auto& names = ga::kernels::suite_names();
    const auto suite = ga::kernels::make_suite();
    ASSERT_EQ(suite.size(), names.size());
    ASSERT_EQ(pinned.size(), suite.size() * 2);
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    std::size_t row = 0;
    for (std::size_t k = 0; k < suite.size(); ++k) {
        for (const int scale : {1, 2}) {
            const auto live = suite[k]->run(suite[k]->test_scale() * scale);
            const auto& p = pinned[row++];
            char line[160];
            std::snprintf(line, sizeof line, "{\"%s\", {%a, %a, %a}},",
                          std::string(suite[k]->name()).c_str(), live.profile.flops,
                          live.profile.mem_bytes, live.profile.parallel_fraction);
            EXPECT_EQ(p.kernel, names[k]) << "live row: " << line;
            const std::array<std::uint64_t, 3> want = {
                bits(live.profile.flops), bits(live.profile.mem_bytes),
                bits(live.profile.parallel_fraction)};
            const std::array<std::uint64_t, 3> got = {
                bits(p.profile.flops), bits(p.profile.mem_bytes),
                bits(p.profile.parallel_fraction)};
            EXPECT_EQ(got, want) << "live row: " << line;
        }
    }
}

TEST(Predictor, IcScalingPinnedToUnity) {
    const wl::CrossPlatformPredictor pred(mc::simulation_machines());
    const auto scaling = pred.predict({5.0, 10.0});
    const auto ic = pred.machine_index("IC");
    EXPECT_DOUBLE_EQ(scaling[ic].runtime_factor, 1.0);
    EXPECT_DOUBLE_EQ(scaling[ic].power_factor, 1.0);
}

TEST(Predictor, ComputeBoundJobsSlowerOnTheta) {
    const wl::CrossPlatformPredictor pred(mc::simulation_machines());
    // High GIPS, low LLC misses: compute-bound. Theta's 3 GF/s cores are
    // ~3.7x slower than IC's 11.1.
    const auto scaling = pred.predict({9.0, 2.0});
    const auto theta = pred.machine_index("Theta");
    EXPECT_GT(scaling[theta].runtime_factor, 2.0);
}

TEST(Predictor, FasterIsMoreEnergyEfficientForMemoryBound) {
    const wl::CrossPlatformPredictor pred(mc::simulation_machines());
    // Memory-bound job: FASTER's bandwidth and low active power win on
    // energy = runtime_factor * power_factor relative to IC.
    const auto scaling = pred.predict({0.6, 40.0});
    const auto faster = pred.machine_index("FASTER");
    const double energy_factor =
        scaling[faster].runtime_factor * scaling[faster].power_factor;
    EXPECT_LT(energy_factor, 1.0);
}

TEST(Predictor, AllFactorsPositive) {
    const wl::CrossPlatformPredictor pred(mc::simulation_machines());
    ga::util::Rng rng(6);
    const auto gmm = wl::fit_counter_gmm(500, 3);
    for (int i = 0; i < 100; ++i) {
        const auto c = wl::counters_from_sample(gmm.sample(rng));
        for (const auto& s : pred.predict(c)) {
            EXPECT_GT(s.runtime_factor, 0.0);
            EXPECT_GT(s.power_factor, 0.0);
        }
    }
}

TEST(Predictor, RequiresIcInMachineSet) {
    std::vector<mc::CatalogEntry> no_ic = {mc::find(mc::CatalogId::Faster),
                                           mc::find(mc::CatalogId::Theta)};
    EXPECT_THROW((void)wl::CrossPlatformPredictor(no_ic),
                 ga::util::PreconditionError);
}

// ---------------------------------------------------------------- facade
TEST(Workload, BuildAndExtrapolate) {
    wl::TraceOptions o = small_options();
    o.base_jobs = 500;
    const auto w = wl::build_workload(o);
    EXPECT_EQ(w.jobs.size(), 1000u);
    ASSERT_NE(w.predictor, nullptr);
    const auto per_machine = w.extrapolate(w.jobs.front());
    EXPECT_EQ(per_machine.size(), 4u);
    const auto ic = w.predictor->machine_index("IC");
    EXPECT_NEAR(per_machine[ic].runtime_s, w.jobs.front().runtime_ic_s, 1e-9);
    EXPECT_NEAR(per_machine[ic].energy_j(), w.jobs.front().energy_ic_j(), 1e-6);
}

// ------------------------------------------------------- diurnal arrivals
wl::TraceOptions diurnal_options() {
    auto o = small_options();
    o.base_jobs = 10'000;
    o.users = 200;
    o.span_days = 14.0;  // two full weeks: weekends are represented
    o.arrival = wl::ArrivalProcess::Diurnal;
    return o;
}

/// Jobs-per-hour-of-day histogram (24 buckets), normalized to a fraction.
std::array<double, 24> hour_histogram(const std::vector<wl::TraceJob>& jobs) {
    std::array<double, 24> h{};
    for (const auto& j : jobs) {
        const auto hour = static_cast<std::size_t>(
                              std::fmod(j.submit_s, 86'400.0) / 3'600.0) %
                          24;
        h[hour] += 1.0;
    }
    for (auto& v : h) v /= static_cast<double>(jobs.size());
    return h;
}

TEST(TraceDiurnal, DeterministicInTheOptionsAndSeedSensitive) {
    const auto a = wl::generate_trace(diurnal_options());
    const auto b = wl::generate_trace(diurnal_options());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].submit_s, b[i].submit_s);
        EXPECT_EQ(a[i].user, b[i].user);
        EXPECT_EQ(a[i].runtime_ic_s, b[i].runtime_ic_s);
    }

    auto reseeded = diurnal_options();
    reseeded.seed += 1;
    const auto c = wl::generate_trace(reseeded);
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        diffs += a[i].submit_s != c[i].submit_s ? 1 : 0;
    }
    EXPECT_GT(diffs, a.size() / 2);
}

TEST(TraceDiurnal, UniformPathIgnoresDiurnalKnobs) {
    // The Uniform arrival process must consume the RNG exactly as before
    // the diurnal mode existed: knob values cannot leak into it.
    auto plain = small_options();
    auto knobbed = small_options();
    knobbed.diurnal_peak_hour = 3.0;
    knobbed.diurnal_amplitude = 0.95;
    knobbed.weekend_factor = 0.05;
    knobbed.burst_fraction = 0.9;
    const auto a = wl::generate_trace(plain);
    const auto b = wl::generate_trace(knobbed);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].submit_s, b[i].submit_s);
        EXPECT_EQ(a[i].runtime_ic_s, b[i].runtime_ic_s);
    }
}

TEST(TraceDiurnal, DayNightContrastFollowsTheAmplitude) {
    // With a deep amplitude, the 6 hours around the peak must carry several
    // times the mass of the 6 hours around the trough.
    auto o = diurnal_options();
    o.diurnal_peak_hour = 14.0;
    o.diurnal_amplitude = 0.9;
    o.burst_fraction = 0.0;  // isolate the base process
    const auto h = hour_histogram(wl::generate_trace(o));
    double peak = 0.0;
    double trough = 0.0;
    for (int d = -3; d < 3; ++d) {
        peak += h[static_cast<std::size_t>((14 + d + 24) % 24)];
        trough += h[static_cast<std::size_t>((2 + d + 24) % 24)];
    }
    EXPECT_GT(peak, 3.0 * trough);

    // Near-flat amplitude: the same windows are close to equal mass.
    o.diurnal_amplitude = 0.01;
    const auto flat = hour_histogram(wl::generate_trace(o));
    double flat_peak = 0.0;
    double flat_trough = 0.0;
    for (int d = -3; d < 3; ++d) {
        flat_peak += flat[static_cast<std::size_t>((14 + d + 24) % 24)];
        flat_trough += flat[static_cast<std::size_t>((2 + d + 24) % 24)];
    }
    EXPECT_LT(flat_peak, 1.5 * flat_trough);
}

TEST(TraceDiurnal, WeekendsCarryLessTraffic) {
    auto o = diurnal_options();
    o.weekend_factor = 0.2;
    o.burst_fraction = 0.0;
    double weekday_jobs = 0.0;
    double weekend_jobs = 0.0;
    for (const auto& j : wl::generate_trace(o)) {
        const auto day =
            static_cast<std::size_t>(j.submit_s / 86'400.0) % 7;
        (day >= 5 ? weekend_jobs : weekday_jobs) += 1.0;
    }
    // 5 weekdays vs 2 weekend days at 0.2x: per-day weekend rate must be
    // well below the weekday rate (ratio 0.2 in expectation; assert < 0.5
    // to stay far from sampling noise).
    EXPECT_LT(weekend_jobs / 2.0, 0.5 * (weekday_jobs / 5.0));
}

TEST(TraceDiurnal, BurstsConcentrateArrivals) {
    // Burstiness shows up as dispersion of per-10-minute bin counts: the
    // variance-to-mean ratio of a Poisson-like smooth process is ~1, while
    // burst epicenters push it far above.
    const auto dispersion = [](const std::vector<wl::TraceJob>& jobs,
                               double span_s) {
        const auto bins = static_cast<std::size_t>(span_s / 600.0) + 1;
        std::vector<double> counts(bins, 0.0);
        for (const auto& j : jobs) {
            counts[static_cast<std::size_t>(j.submit_s / 600.0)] += 1.0;
        }
        double mean = 0.0;
        for (const double c : counts) mean += c;
        mean /= static_cast<double>(bins);
        double var = 0.0;
        for (const double c : counts) var += (c - mean) * (c - mean);
        var /= static_cast<double>(bins);
        return var / mean;
    };

    auto smooth = diurnal_options();
    smooth.burst_fraction = 0.0;
    auto bursty = diurnal_options();
    bursty.burst_fraction = 0.5;
    const double span_s = smooth.span_days * 86'400.0;
    const double d_smooth = dispersion(wl::generate_trace(smooth), span_s);
    const double d_bursty = dispersion(wl::generate_trace(bursty), span_s);
    EXPECT_GT(d_bursty, 2.0 * d_smooth);
}

TEST(TraceDiurnal, SubmitsStayInsideTheSpanSortedAndDense) {
    const auto o = diurnal_options();
    const auto jobs = wl::generate_trace(o);
    EXPECT_EQ(jobs.size(), o.total_jobs());
    const double span_s = o.span_days * 86'400.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].id, i);
        EXPECT_GE(jobs[i].submit_s, 0.0);
        EXPECT_LT(jobs[i].submit_s, span_s);
        if (i > 0) EXPECT_LE(jobs[i - 1].submit_s, jobs[i].submit_s);
    }
}

TEST(TraceDiurnal, KnobDomainsAreValidated) {
    const auto expect_rejected = [](auto&& mutate) {
        auto o = wl::TraceOptions{};
        o.base_jobs = 10;
        o.arrival = wl::ArrivalProcess::Diurnal;
        mutate(o);
        EXPECT_THROW((void)wl::generate_trace(o),
                     ga::util::PreconditionError);
    };
    expect_rejected([](wl::TraceOptions& o) { o.diurnal_peak_hour = 24.0; });
    expect_rejected([](wl::TraceOptions& o) { o.diurnal_peak_hour = -0.1; });
    expect_rejected([](wl::TraceOptions& o) { o.diurnal_amplitude = 1.0; });
    expect_rejected([](wl::TraceOptions& o) { o.weekend_factor = 0.0; });
    expect_rejected([](wl::TraceOptions& o) { o.burst_fraction = 1.01; });
    expect_rejected([](wl::TraceOptions& o) { o.burst_width_s = 0.0; });
    expect_rejected([](wl::TraceOptions& o) { o.burst_mean_jobs = 0.5; });
}

}  // namespace
