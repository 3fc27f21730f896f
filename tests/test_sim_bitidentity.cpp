// Bit-identity regression suite for the indexed simulator hot path.
//
// The indexed queue (`run`) must make exactly the decisions the linear
// executor (`run_reference`) makes, on adversarial queue shapes chosen to
// break tie-handling shortcuts: simultaneous events, exact-capacity fits,
// eligible jobs straddling the kBackfillDepth window, a freed user whose
// first window entry is too wide or sits deep in the window, an outage
// landing between a finish and a submit at the same timestamp, and an
// outage that slides a queued entry into the window. Where a scalar pins
// the semantics, it is pinned as a hexfloat literal — any change to event
// ordering, queue traversal, or float-op sequencing trips an exact mismatch,
// not a tolerance.
//
// Both executors share one event loop (submits streamed past a heap of
// finishes), so executor identity cannot catch a change to event order.
// The event-order and window-storage tests below therefore pin every
// job's start time, computed by hand, and compare the exact finish times.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "machine/catalog.hpp"
#include "sim/simulator.hpp"
#include "sim_result_matchers.hpp"
#include "util/error.hpp"
#include "workload/workload.hpp"

namespace {

namespace sm = ga::sim;
namespace wl = ga::workload;
namespace mc = ga::machine;

wl::Workload craft_workload(std::vector<wl::TraceJob> jobs) {
    wl::Workload w;
    w.jobs = std::move(jobs);
    w.predictor = std::make_shared<wl::CrossPlatformPredictor>(
        mc::simulation_machines());
    return w;
}

wl::TraceJob make_job(std::uint32_t id, std::uint32_t user, std::uint32_t app,
                      int cores, double submit_s, double runtime_ic_s) {
    wl::TraceJob j;
    j.id = id;
    j.user = user;
    j.app = app;
    j.cores = cores;
    j.submit_s = submit_s;
    j.runtime_ic_s = runtime_ic_s;
    j.power_ic_w = 100.0 * cores;
    j.counters = {1.5 + 0.1 * app, 2.0 + 0.2 * user};
    return j;
}

/// Single one-node IC cluster (48 cores): every queue decision is visible.
std::vector<sm::ClusterConfig> one_ic() {
    return {sm::ClusterConfig{mc::find("IC"), 1}};
}

/// Runs both executors, demands bit-identity, returns the indexed result.
sm::SimResult run_both(const sm::BatchSimulator& sim,
                       const sm::SimOptions& options) {
    const auto indexed = sim.run(options);
    ga::testutil::expect_identical(indexed, sim.run_reference(options));
    return indexed;
}

bool contains_time(const std::vector<double>& times, double t) {
    for (const double v : times) {
        if (std::abs(v - t) < 1e-6) return true;
    }
    return false;
}

/// Job j's predicted runtime on an IC cluster, the value the executor adds
/// to a start time.
double ic_runtime(const sm::BatchSimulator& sim, std::size_t j) {
    const auto& w = sim.workload();
    return w.extrapolate(w.jobs[j])[w.predictor->machine_index("IC")].runtime_s;
}

/// The sorted finish times of jobs started at the given (job, start) pairs
/// on IC clusters: each ends at start + runtime, the same double addition
/// the executor makes, so the result compares with `==`.
std::vector<double> finishes_of(
    const sm::BatchSimulator& sim,
    const std::vector<std::pair<std::uint32_t, double>>& starts) {
    std::vector<double> out;
    for (const auto& [j, start] : starts) {
        out.push_back(start + ic_runtime(sim, j));
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST(BitIdentity, SimultaneousSubmitsAndFinishesResolveByJobId) {
    // Six jobs, three users, all submitted at t=0 with equal runtimes: the
    // event queue is all ties. Submit order (and thus queue order) must be
    // job-id order; the per-user rule then admits exactly one job per user.
    std::vector<wl::TraceJob> jobs;
    for (std::uint32_t i = 0; i < 6; ++i) {
        jobs.push_back(make_job(i, i % 3, 0, 16, 0.0, 500.0));
    }
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());
    const auto r = run_both(sim, sm::SimOptions{});
    EXPECT_EQ(r.jobs_completed, 6u);
    // Users 0,1,2 run jobs 0,1,2 together (48 cores exactly); jobs 3,4,5
    // wait for their users' first finish, then run together.
    ASSERT_EQ(r.finish_times_s.size(), 6u);
    EXPECT_EQ(r.finish_times_s[0], r.finish_times_s[2]);
    EXPECT_EQ(r.finish_times_s[3], r.finish_times_s[5]);
    EXPECT_EQ(r.finish_times_s[3], 2.0 * r.finish_times_s[0]);
}

TEST(BitIdentity, ExactCapacityFitStartsAndOneCoreMoreWaits) {
    // J0 takes 24 cores. J1 (24 cores) fits the free half exactly and must
    // start at submit; J2 (25 cores > 24+... free 0 now) queues until a
    // finish frees capacity. Exact-fit comparisons are the <= boundary the
    // index's bucket minimum must not shift.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 24, 0.0, 1000.0));
    jobs.push_back(make_job(1, 1, 0, 24, 10.0, 400.0));
    jobs.push_back(make_job(2, 2, 0, 25, 20.0, 100.0));
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());
    const auto r = run_both(sim, sm::SimOptions{});
    EXPECT_EQ(r.jobs_completed, 3u);
    const auto& w = sim.workload();
    const std::size_t ic = w.predictor->machine_index("IC");
    const double r1 = w.extrapolate(w.jobs[1])[ic].runtime_s;
    // J1 started at its submit time (exact fit), not at J0's finish.
    EXPECT_TRUE(contains_time(r.finish_times_s, 10.0 + r1));
}

TEST(BitIdentity, BackfillWindowBoundsTheSkipAhead) {
    // User 1 occupies one core with a long job, then queues 300 more
    // one-core jobs behind the per-user rule. A job from user 2 lands at
    // queue position 300 — beyond the 256-entry backfill window — so it
    // must NOT start at submit even though 47 cores sit free; it starts
    // only once enough of user 1's jobs have drained to pull it inside the
    // window. A control trace with the eligible job at position 200 starts
    // it immediately. Both shapes must be executor-identical.
    const double kLong = 100'000.0;
    const double kShort = 100.0;

    for (const std::size_t blocked : {300u, 200u}) {
        std::vector<wl::TraceJob> jobs;
        std::uint32_t id = 0;
        jobs.push_back(make_job(id++, 1, 0, 1, 0.0, kLong));
        for (std::size_t i = 0; i < blocked; ++i) {
            jobs.push_back(make_job(id++, 1, 1, 1, 1.0, kShort));
        }
        jobs.push_back(make_job(id++, 2, 0, 1, 2.0, kShort));
        const sm::BatchSimulator sim(craft_workload(std::move(jobs)),
                                     one_ic());
        const auto r = run_both(sim, sm::SimOptions{});
        EXPECT_EQ(r.jobs_completed, blocked + 2);

        const auto& w = sim.workload();
        const std::size_t ic = w.predictor->machine_index("IC");
        const std::uint32_t user2_job = static_cast<std::uint32_t>(id - 1);
        const double run_user2 =
            w.extrapolate(w.jobs[user2_job])[ic].runtime_s;
        const bool started_at_submit =
            contains_time(r.finish_times_s, 2.0 + run_user2);
        if (blocked < 256) {
            EXPECT_TRUE(started_at_submit)
                << "eligible job inside the window must start at submit";
        } else {
            EXPECT_FALSE(started_at_submit)
                << "eligible job beyond kBackfillDepth must wait";
        }
    }
}

TEST(BitIdentity, OutageBetweenSimultaneousFinishAndSubmit) {
    // At t = finish of J0, three events carry the same timestamp: J0's
    // finish, a full outage, and J2's submit. The pinned order is
    // Finish < Outage < Submit: the finish-drain starts queued J1 first,
    // the outage then strands nothing runnable but wipes remaining
    // capacity, and J2's submit finds an infeasible cluster and is skipped.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 48, 0.0, 1000.0));
    jobs.push_back(make_job(1, 1, 0, 48, 10.0, 500.0));
    const sm::BatchSimulator probe(craft_workload(jobs), one_ic());
    const auto& pw = probe.workload();
    const std::size_t ic = pw.predictor->machine_index("IC");
    const double finish0 = pw.extrapolate(pw.jobs[0])[ic].runtime_s;

    jobs.push_back(make_job(2, 2, 0, 1, finish0, 100.0));
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());

    sm::SimOptions options;
    options.outage = sm::ClusterOutage{0, finish0, 1};
    const auto r = run_both(sim, options);
    // J0 completes; J1 starts at the drain belonging to J0's finish (before
    // the outage shrinks the pool) and runs to completion on the retained
    // cores; J2 is skipped by the post-outage submit.
    EXPECT_EQ(r.jobs_completed, 2u);
    EXPECT_EQ(r.jobs_skipped, 1u);
}

TEST(BitIdentity, OutageMidQueueRefundsStrandedJobsExactly) {
    // Budgeted run: J1/J2 are charged at admission and queue behind J0.
    // The outage halves nothing — it wipes 1 of 1 nodes — so both queued
    // jobs are stranded and refunded; the budget ends where it started
    // minus J0's charge only. Pinned via executor identity plus exact
    // skip/completion counts.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 48, 0.0, 2000.0));
    jobs.push_back(make_job(1, 1, 0, 24, 10.0, 300.0));
    jobs.push_back(make_job(2, 2, 0, 24, 20.0, 300.0));
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());

    sm::SimOptions options;
    options.budget = 1e9;  // generous: all three admit (and are charged)
    options.outage = sm::ClusterOutage{0, 100.0, 1};
    const auto r = run_both(sim, options);
    EXPECT_EQ(r.jobs_completed, 1u);  // J0 runs to completion
    EXPECT_EQ(r.jobs_skipped, 2u);    // J1, J2 stranded and refunded
    // The refunds must leave exactly J0's cost on the ledger: re-running
    // without the queued jobs charges the same total.
    std::vector<wl::TraceJob> only_j0;
    only_j0.push_back(make_job(0, 0, 0, 48, 0.0, 2000.0));
    const sm::BatchSimulator solo(craft_workload(std::move(only_j0)),
                                  one_ic());
    const auto solo_r = run_both(solo, [] {
        sm::SimOptions o;
        o.budget = 1e9;
        return o;
    }());
    // Not EXPECT_EQ: the refund path computes c0+c1+c2-c1-c2, which differs
    // from c0 by accumulation rounding.
    EXPECT_NEAR(r.total_cost, solo_r.total_cost,
                1e-12 * std::abs(solo_r.total_cost));
}

TEST(BitIdentity, FreedUsersLaterEntryStartsPastTheirTooWideFirst) {
    // J0 (user 0, 30 cores) and J1 (user 1, 10 cores) run from t=0, leaving
    // 8 cores free. Queued behind them: J2 (user 1, 20 cores), J3 (user 2,
    // 10 cores), J4 (user 1, 5 cores). When J1 finishes, 18 cores are free
    // and user 1 is free again: J2, user 1's first entry, is too wide, J3
    // (another free user's) starts, and then J4, user 1's later entry, fits
    // the 8 cores left. A drain that gives up on a user at their first
    // entry would leave J4 queued.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 30, 0.0, 100'000.0));
    jobs.push_back(make_job(1, 1, 0, 10, 0.0, 1000.0));
    jobs.push_back(make_job(2, 1, 1, 20, 10.0, 100.0));
    jobs.push_back(make_job(3, 2, 0, 10, 20.0, 100.0));
    jobs.push_back(make_job(4, 1, 2, 5, 30.0, 100.0));
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());
    const auto r = run_both(sim, sm::SimOptions{});
    EXPECT_EQ(r.jobs_completed, 5u);

    const auto& w = sim.workload();
    const std::size_t ic = w.predictor->machine_index("IC");
    const auto runtime = [&](std::size_t j) {
        return w.extrapolate(w.jobs[j])[ic].runtime_s;
    };
    const double freed_at = runtime(1);
    EXPECT_TRUE(contains_time(r.finish_times_s, freed_at + runtime(3)));
    EXPECT_TRUE(contains_time(r.finish_times_s, freed_at + runtime(4)))
        << "the freed user's later, fitting window entry must start";
}

TEST(BitIdentity, FreedUserDeepInTheWindowStartsAtTheirFinish) {
    // User 0 runs a long one-core job and queues 200 more behind it; user 1
    // runs a short job and queues one entry at window position 200. When
    // user 1's job finishes, that entry is the window's only candidate:
    // the drain must reach it past 200 running-user entries and start it
    // at that finish, not wait for user 0.
    const std::size_t kBlocked = 200;
    std::vector<wl::TraceJob> jobs;
    std::uint32_t id = 0;
    jobs.push_back(make_job(id++, 0, 0, 1, 0.0, 100'000.0));
    jobs.push_back(make_job(id++, 1, 0, 1, 0.0, 1000.0));
    for (std::size_t i = 0; i < kBlocked; ++i) {
        jobs.push_back(make_job(id++, 0, 1, 1, 1.0, 100.0));
    }
    const std::uint32_t deep = id;
    jobs.push_back(make_job(id++, 1, 1, 1, 2.0, 100.0));
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());
    const auto r = run_both(sim, sm::SimOptions{});
    EXPECT_EQ(r.jobs_completed, kBlocked + 3);

    const auto& w = sim.workload();
    const std::size_t ic = w.predictor->machine_index("IC");
    const double freed_at = w.extrapolate(w.jobs[1])[ic].runtime_s;
    const double deep_runtime = w.extrapolate(w.jobs[deep])[ic].runtime_s;
    EXPECT_TRUE(contains_time(r.finish_times_s, freed_at + deep_runtime));
}

TEST(BitIdentity, OutageSlidesAnEntryIntoTheWindowAndTheNextDrainStartsIt) {
    // Two IC nodes (96 cores). User 1 runs a long one-core job and queues
    // 256 sixty-core jobs behind it, filling the backfill window; user 2's
    // one-core job lands at position 256, just outside, and waits. The
    // outage takes one node: every window entry is now wider than the
    // 48-core cluster and is refunded, so user 2's entry slides to the
    // front. User 3's submit at t=4 drains the queue, which must start user
    // 2's job there and then user 3's.
    const std::size_t kWide = 256;  // kBackfillDepth: the whole window
    std::vector<wl::TraceJob> jobs;
    std::uint32_t id = 0;
    jobs.push_back(make_job(id++, 1, 0, 1, 0.0, 100'000.0));
    for (std::size_t i = 0; i < kWide; ++i) {
        jobs.push_back(make_job(id++, 1, 1, 60, 1.0, 100.0));
    }
    const std::uint32_t slid = id;
    jobs.push_back(make_job(id++, 2, 0, 1, 2.0, 100.0));
    const std::uint32_t late = id;
    jobs.push_back(make_job(id++, 3, 0, 1, 4.0, 100.0));
    const sm::BatchSimulator sim(
        craft_workload(std::move(jobs)),
        {sm::ClusterConfig{mc::find("IC"), 2}});

    sm::SimOptions options;
    options.outage = sm::ClusterOutage{0, 3.0, 1};
    const auto r = run_both(sim, options);
    EXPECT_EQ(r.jobs_skipped, kWide);
    EXPECT_EQ(r.jobs_completed, 3u);

    const auto& w = sim.workload();
    const std::size_t ic = w.predictor->machine_index("IC");
    for (const std::uint32_t j : {slid, late}) {
        EXPECT_TRUE(contains_time(
            r.finish_times_s, 4.0 + w.extrapolate(w.jobs[j])[ic].runtime_s))
            << "job " << j << " must start at the first drain after the outage";
    }
}

TEST(EventOrder, FinishAtASubmitsInstantRunsFirst) {
    // Two one-node IC clusters A and B under LeastLoaded (fewest queued,
    // then least backlog, then lowest index). J0 goes to A and J1 (long) to
    // B, both starting at 0; J2 arrives at t=1 and queues on A. J3 arrives
    // exactly when J0 finishes. The finish runs first: its drain starts J2
    // on A, so J3 sees both queues empty and A's smaller backlog, queues on
    // A and starts when J2 ends. Had the submit run first, it would have
    // seen J2 still queued on A and gone to B behind J1.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 48, 0.0, 1000.0));
    jobs.push_back(make_job(1, 1, 0, 48, 0.0, 100'000.0));
    jobs.push_back(make_job(2, 2, 0, 48, 1.0, 1000.0));
    const sm::BatchSimulator probe(craft_workload(jobs), one_ic());
    const double f0 = 0.0 + ic_runtime(probe, 0);
    jobs.push_back(make_job(3, 3, 0, 48, f0, 100.0));
    const sm::BatchSimulator sim(
        craft_workload(std::move(jobs)),
        {sm::ClusterConfig{mc::find("IC"), 1},
         sm::ClusterConfig{mc::find("IC"), 1}});

    sm::SimOptions options;
    options.policy = {"LeastLoaded", {}};
    const auto r = run_both(sim, options);
    EXPECT_EQ(r.jobs_completed, 4u);
    const double f2 = f0 + ic_runtime(sim, 2);
    EXPECT_EQ(r.finish_times_s,
              finishes_of(sim, {{0, 0.0}, {1, 0.0}, {2, f0}, {3, f2}}));
}

TEST(EventOrder, OutageAtASubmitsInstantShrinksCapacityFirst) {
    // Two IC nodes (96 cores). J0 (30 cores) runs from t=0. At t=5 one node
    // is lost and J1 (60 cores) and J2 (1 core) arrive. The outage runs
    // first, so J1 no longer fits the 48-core cluster and is skipped; J2
    // starts at 5 on the 18 cores left. Had J1's submit run first, it
    // would have started on the 66 free cores and completed.
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 30, 0.0, 1000.0));
    jobs.push_back(make_job(1, 1, 0, 60, 5.0, 100.0));
    jobs.push_back(make_job(2, 2, 0, 1, 5.0, 100.0));
    const sm::BatchSimulator sim(
        craft_workload(std::move(jobs)),
        {sm::ClusterConfig{mc::find("IC"), 2}});

    sm::SimOptions options;
    options.outage = sm::ClusterOutage{0, 5.0, 1};
    const auto r = run_both(sim, options);
    EXPECT_EQ(r.jobs_completed, 2u);
    EXPECT_EQ(r.jobs_skipped, 1u);
    EXPECT_EQ(r.finish_times_s, finishes_of(sim, {{0, 0.0}, {2, 5.0}}));
}

TEST(EventOrder, CompressionCollapsedSubmitsRunInIdOrder) {
    // J0 and J1 submit at 100 and the next double above it; divided by an
    // arrival compression of 3 both land on the same instant T. The tie
    // goes by id: J0 takes the whole cluster at T and J1 follows when it
    // ends (the other order would finish at T + r1 and T + r1 + r0).
    const double a = 100.0;
    const double b = std::nextafter(a, 200.0);
    const double compression = 3.0;
    ASSERT_LT(a, b);
    ASSERT_EQ(a / compression, b / compression);
    const double t = a / compression;

    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 48, a, 1000.0));
    jobs.push_back(make_job(1, 1, 0, 48, b, 3000.0));
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());

    sm::SimOptions options;
    options.arrival_compression = compression;
    const auto r = run_both(sim, options);
    EXPECT_EQ(r.jobs_completed, 2u);
    const double f0 = t + ic_runtime(sim, 0);
    EXPECT_EQ(r.finish_times_s, finishes_of(sim, {{0, t}, {1, f0}}));
}

TEST(EventOrder, ConstructorRejectsASubmitTimeThatFallsInIdOrder) {
    std::vector<wl::TraceJob> jobs;
    jobs.push_back(make_job(0, 0, 0, 1, 0.0, 100.0));
    jobs.push_back(make_job(1, 1, 0, 1, 10.0, 100.0));
    jobs.push_back(make_job(2, 2, 0, 1, 5.0, 100.0));
    try {
        const sm::BatchSimulator sim(craft_workload(std::move(jobs)),
                                     one_ic());
        FAIL() << "a trace whose submit times fall in id order must be "
                  "rejected";
    } catch (const ga::util::PreconditionError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("job 2 submits before job 1"), std::string::npos)
            << what;
    }
}

TEST(WindowStorage, StartsAtWindowPositions0And127And255RefillFromTheTail) {
    // One IC node. User 0 runs a very long job and queues one-core fillers
    // behind it; users 1, 2 and 3 run jobs ending at F1 < F2 < F3 and queue
    // one entry each, at queue positions 0, 128 and 257 (257 is in the
    // tail). At F1 user 1's entry starts from window position 0 and the
    // tail's head slides in. At F2 user 2's entry has moved to position
    // 127 and starts, and user 3's entry slides in from the tail to
    // position 255, where it starts at F3. The fillers then run one at a
    // time after user 0's long job, in queue order.
    const std::size_t kDepth = 300;
    std::vector<wl::TraceJob> jobs;
    std::uint32_t id = 0;
    jobs.push_back(make_job(id++, 0, 0, 1, 0.0, 100'000.0));
    jobs.push_back(make_job(id++, 1, 0, 1, 0.0, 1000.0));
    jobs.push_back(make_job(id++, 2, 0, 1, 0.0, 2000.0));
    jobs.push_back(make_job(id++, 3, 0, 1, 0.0, 3000.0));
    std::vector<std::uint32_t> fillers;
    std::vector<std::uint32_t> waiting(4);  // user u's queued entry
    for (std::size_t pos = 0; pos < kDepth; ++pos) {
        std::uint32_t user = 0;
        if (pos == 0) user = 1;
        if (pos == 128) user = 2;
        if (pos == 257) user = 3;
        if (user == 0) {
            fillers.push_back(id);
        } else {
            waiting[user] = id;
        }
        jobs.push_back(make_job(id++, user, 1, 1, 1.0, 100.0));
    }
    const sm::BatchSimulator sim(craft_workload(std::move(jobs)), one_ic());
    const auto r = run_both(sim, sm::SimOptions{});
    ASSERT_EQ(r.jobs_completed, kDepth + 4);

    std::vector<std::pair<std::uint32_t, double>> starts;
    for (std::uint32_t u = 0; u < 4; ++u) starts.emplace_back(u, 0.0);
    for (std::uint32_t u = 1; u < 4; ++u) {
        starts.emplace_back(waiting[u], 0.0 + ic_runtime(sim, u));
    }
    double t = 0.0 + ic_runtime(sim, 0);
    for (const std::uint32_t j : fillers) {
        starts.emplace_back(j, t);
        t += ic_runtime(sim, j);
    }
    EXPECT_EQ(r.finish_times_s, finishes_of(sim, starts));
}

TEST(WindowStorage, OutageCompactionAcrossTheWindowTailBoundary) {
    // Two IC nodes (96 cores), a budgeted run so every removal refunds.
    // User 0 runs a very long job and queues, in order: 200 one-core
    // fillers (app 1), 100 sixty-core entries (positions 200-299: 56 in
    // the window, 44 in the tail), 10 one-core fillers with another app
    // (tail), and user 5's one-core entry at position 310 (tail), which
    // waits outside the window although it fits. The outage at t=3 takes
    // one node: the 100 wide entries are removed from both window and
    // tail, and the window refills up to user 5's entry, which starts at
    // the next drain (user 6's submit at t=4), as does user 6's. The kept
    // fillers then run after user 0's long job in their old order.
    std::vector<wl::TraceJob> jobs;
    std::uint32_t id = 0;
    jobs.push_back(make_job(id++, 0, 0, 1, 0.0, 100'000.0));
    std::vector<std::uint32_t> fillers;
    for (std::size_t i = 0; i < 200; ++i) {
        fillers.push_back(id);
        jobs.push_back(make_job(id++, 0, 1, 1, 1.0, 100.0));
    }
    for (std::size_t i = 0; i < 100; ++i) {
        jobs.push_back(make_job(id++, 0, 2, 60, 1.0, 100.0));
    }
    for (std::size_t i = 0; i < 10; ++i) {
        fillers.push_back(id);
        jobs.push_back(make_job(id++, 0, 3, 1, 1.0, 300.0));
    }
    const std::uint32_t slid = id;
    jobs.push_back(make_job(id++, 5, 0, 1, 2.0, 100.0));
    const std::uint32_t late = id;
    jobs.push_back(make_job(id++, 6, 0, 1, 4.0, 100.0));
    const sm::BatchSimulator sim(
        craft_workload(std::move(jobs)),
        {sm::ClusterConfig{mc::find("IC"), 2}});

    sm::SimOptions options;
    options.budget = 1e12;
    options.outage = sm::ClusterOutage{0, 3.0, 1};
    const auto r = run_both(sim, options);
    EXPECT_EQ(r.jobs_skipped, 100u);
    ASSERT_EQ(r.jobs_completed, fillers.size() + 3);

    std::vector<std::pair<std::uint32_t, double>> starts = {
        {0, 0.0}, {slid, 4.0}, {late, 4.0}};
    double t = 0.0 + ic_runtime(sim, 0);
    for (const std::uint32_t j : fillers) {
        starts.emplace_back(j, t);
        t += ic_runtime(sim, j);
    }
    EXPECT_EQ(r.finish_times_s, finishes_of(sim, starts));
}

TEST(BitIdentity, GeneratedTraceScalarsPinnedHexfloat) {
    // A generated 2k-job trace over the default four clusters, one run per
    // arrival process, with makespan and total cost pinned bit-exactly.
    // These literals were produced by this executor pair (which agree to
    // the bit); any future change to event ordering, queue traversal, or
    // the order of floating-point operations in the hot path will move at
    // least one of them.
    for (const auto arrival :
         {wl::ArrivalProcess::Uniform, wl::ArrivalProcess::Diurnal}) {
        wl::TraceOptions o;
        o.base_jobs = 1'000;
        o.users = 40;
        o.span_days = 2.0;
        o.seed = 4242;
        o.arrival = arrival;
        const sm::BatchSimulator sim(wl::build_workload(o));
        const auto r = run_both(sim, sm::SimOptions{});
        EXPECT_EQ(r.jobs_completed, 2'000u);
        if (arrival == wl::ArrivalProcess::Uniform) {
            EXPECT_EQ(r.makespan_s, 0x1.f46661795f4cep+18);
            EXPECT_EQ(r.total_cost, 0x1.4f59256ca2259p+28);
        } else {
            EXPECT_EQ(r.makespan_s, 0x1.0a5a4df0ce40fp+19);
            EXPECT_EQ(r.total_cost, 0x1.66a6191fcc3d7p+28);
        }
    }
}

}  // namespace
