#include "sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <unordered_map>

#include "carbon/grids.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ga::sim {

namespace {

/// `accountant` rebound to the scenario's grid traces when it reads the
/// grid (`Accountant::with_grid`); unchanged otherwise.
std::unique_ptr<const ga::acct::Accountant> bind_grid(
    std::unique_ptr<const ga::acct::Accountant> accountant,
    const std::map<std::string, ga::carbon::IntensityTrace>& grid_traces) {
    if (!grid_traces.empty()) {
        if (auto bound = accountant->with_grid(grid_traces)) return bound;
    }
    return accountant;
}

}  // namespace

std::vector<ClusterConfig> default_clusters() {
    using ga::machine::CatalogId;
    return {
        ClusterConfig{ga::machine::find(CatalogId::Faster), 32},
        // Desktop is each user's *personal* computer (paper: "a personal
        // computer referred to here as Desktop"): nodes = 0 means "one node
        // per distinct trace user", resolved at simulator construction.
        ClusterConfig{ga::machine::find(CatalogId::Desktop), 0},
        ClusterConfig{ga::machine::find(CatalogId::InstitutionalCluster), 40},
        ClusterConfig{ga::machine::find(CatalogId::Theta), 64},
    };
}

std::vector<ga::machine::CatalogEntry> cluster_entries(
    std::span<const ClusterConfig> clusters) {
    std::vector<ga::machine::CatalogEntry> entries;
    entries.reserve(clusters.size());
    for (const auto& c : clusters) entries.push_back(c.entry);
    return entries;
}

RunSetup resolve_run(const SimOptions& options,
                     std::span<const ClusterConfig> clusters) {
    RunSetup setup;
    if (options.regional_grids) {
        for (const auto& c : clusters) {
            if (c.entry.grid_region.empty()) continue;
            setup.grid_traces.emplace(
                c.entry.node.name,
                ga::carbon::synthesize(ga::carbon::region(c.entry.grid_region),
                                       /*days=*/30, options.grid_seed));
        }
    }
    setup.pricer = bind_grid(
        ga::acct::AccountantRegistry::global().make(options.pricing),
        setup.grid_traces);
    const auto entries = cluster_entries(clusters);
    setup.cluster_pricer = setup.pricer->bind(entries);
    setup.carbon = ga::acct::CarbonBasedAccounting(setup.grid_traces)
                       .bind_carbon(entries);

    PolicySpec policy = options.policy;
    if (policy.params.find("index") == policy.params.end()) {
        for (std::size_t c = 0; c < clusters.size(); ++c) {
            if (clusters[c].entry.node.name == policy.name) {
                policy.params.emplace("index", static_cast<double>(c));
            }
        }
    }
    setup.routing = PolicyRegistry::global().make(policy);
    return setup;
}

BatchSimulator::BatchSimulator(ga::workload::Workload workload,
                               std::vector<ClusterConfig> clusters)
    : workload_(std::move(workload)), clusters_(std::move(clusters)) {
    GA_REQUIRE(!clusters_.empty(), "simulator: need at least one cluster");
    GA_REQUIRE(workload_.predictor != nullptr, "simulator: workload lacks predictor");
    // The event loop indexes per-job state by job id, so ids must be dense
    // and positional, and it reads submits as a stream in id order, so
    // submit times must be non-decreasing in that order (generate_trace
    // guarantees both; hand-crafted workloads must too).
    for (std::size_t i = 0; i < workload_.jobs.size(); ++i) {
        GA_REQUIRE(workload_.jobs[i].id == i,
                   "simulator: job ids must equal their position");
        GA_REQUIRE(i == 0 || workload_.jobs[i].submit_s >=
                                 workload_.jobs[i - 1].submit_s,
                   "simulator: job " + std::to_string(i) +
                       " submits before job " + std::to_string(i - 1) +
                       "; submit times must not decrease in id order");
    }

    // Resolve "one node per user" clusters (personal desktops). Note the
    // one-running-job-per-(user, cluster) rule makes per-user capacity
    // equivalent to everyone owning one such machine.
    std::uint32_t max_user = 0;
    max_job_cores_ = 1;
    for (const auto& j : workload_.jobs) {
        max_user = std::max(max_user, j.user);
        max_job_cores_ = std::max(max_job_cores_, j.cores);
    }
    n_users_ = static_cast<std::size_t>(max_user) + 1;
    for (auto& c : clusters_) {
        if (c.nodes == 0) c.nodes = static_cast<int>(max_user) + 1;
    }

    // Precompute per-job, per-cluster predictions. Predictions depend only on
    // the job's counters; repetitions share counters, so memoize per (user,
    // app).
    const std::size_t n_jobs = workload_.jobs.size();
    const std::size_t n_clusters = clusters_.size();
    pred_runtime_.resize(n_jobs * n_clusters);
    pred_power_.resize(n_jobs * n_clusters);
    work_.resize(n_jobs);

    // Map cluster -> predictor machine index (the predictor was trained on
    // the simulation machine set).
    std::vector<std::size_t> pred_index(n_clusters);
    for (std::size_t c = 0; c < n_clusters; ++c) {
        pred_index[c] =
            workload_.predictor->machine_index(clusters_[c].entry.node.name);
    }

    std::unordered_map<std::uint64_t, std::vector<ga::workload::MachineScaling>>
        scaling_cache;
    scaling_cache.reserve(n_users_);  // at least one app per user
    for (std::size_t j = 0; j < n_jobs; ++j) {
        const auto& job = workload_.jobs[j];
        const auto [it, first_sight] =
            scaling_cache.try_emplace(ga::workload::app_key(job));
        if (first_sight) it->second = workload_.predictor->predict(job.counters);
        const auto& scaling = it->second;
        double work_sum = 0.0;
        std::size_t feasible = 0;
        for (std::size_t c = 0; c < n_clusters; ++c) {
            const auto& s = scaling[pred_index[c]];
            const double runtime = job.runtime_ic_s * s.runtime_factor;
            const double power = job.power_ic_w * s.power_factor;
            pred_runtime_[j * n_clusters + c] = runtime;
            pred_power_[j * n_clusters + c] = power;
            if (job.cores <= clusters_[c].total_cores()) {
                work_sum += ga::util::core_hours(job.cores, runtime);
                ++feasible;
            }
        }
        work_[j] = feasible > 0 ? work_sum / static_cast<double>(feasible) : 0.0;
    }
}

double BatchSimulator::job_work_core_hours(std::size_t job_index) const {
    GA_REQUIRE(job_index < work_.size(), "simulator: job index out of range");
    return work_[job_index];
}

namespace {

/// Discrete-event types, in tie-break order at equal times: finishes free
/// resources first, outages shrink capacity next, submits route last.
enum class EventType { Finish, Outage, Submit };

/// One event, totally ordered by (time, type, job). Finishes and the
/// outage wait in the run's heap; submits are never stored there: the loop
/// reads them as a stream over the trace in id order, which is already
/// their (time, job) order, and builds each one only to compare it with
/// the heap's top.
struct Event {
    double time = 0.0;
    EventType type = EventType::Submit;
    std::uint32_t job = 0;
    std::uint32_t cluster = 0;

    bool operator>(const Event& other) const noexcept {
        if (time != other.time) return time > other.time;
        if (type != other.type) {
            return static_cast<int>(type) > static_cast<int>(other.type);
        }
        return job > other.job;
    }
};

/// Skip-ahead window: a real scheduler's backfill depth, bounding the
/// per-event scan cost on deep queues. Both queue policies honor it.
constexpr std::size_t kBackfillDepth = 256;

constexpr std::uint32_t kNoJob = 0xFFFFFFFFu;

/// Runtime state of one cluster. Queue storage lives in the run's queue
/// policy (LinearQueues / IndexedQueues); this carries the counters both
/// share.
struct ClusterState {
    int free_cores = 0;
    int capacity = 0;  // effective total cores (shrinks on an outage)
    // O(1) backlog estimate bookkeeping: sum(cores_i * end_i) and
    // sum(cores_i) over running jobs.
    double sum_cores_end = 0.0;
    double running_cores = 0.0;
    double queued_core_seconds = 0.0;

    [[nodiscard]] double wait_estimate(double now) const noexcept {
        // A fully-outaged cluster (capacity 0) has an unbounded wait; the
        // guard keeps 0/0 NaN out of the context views policies read.
        if (capacity <= 0) return std::numeric_limits<double>::infinity();
        const double running_remaining =
            std::max(0.0, sum_cores_end - now * running_cores);
        return (running_remaining + queued_core_seconds) /
               static_cast<double>(capacity);
    }
};

/// The original FIFO-with-skip-ahead queue: a deque of job ids, every scan
/// re-reading the trace job for its core demand and user, every event
/// paying the full kBackfillDepth walk on a blocked queue, and the outage
/// walk erasing one element at a time. Kept as the linear reference —
/// `run_reference` uses it as the bit-identity oracle for the indexed path
/// and the bench's speedup baseline.
class LinearQueues {
public:
    /// No immediate-start bypass: submits always enqueue + drain, exactly
    /// like the pre-index executor.
    static constexpr bool kImmediateStart = false;

    void reset(std::size_t n_clusters, std::size_t /*n_jobs*/,
               const ga::workload::TraceJob* jobs, int /*max_cores*/) {
        jobs_ = jobs;
        queues_.assign(n_clusters, {});
    }

    void push(std::size_t c, std::uint32_t j, int /*cores*/,
              std::uint32_t /*user*/) {
        queues_[c].push_back(j);
    }

    [[nodiscard]] std::size_t depth(std::size_t c) const noexcept {
        return queues_[c].size();
    }

    /// Scans the first kBackfillDepth entries in FIFO order;
    /// `try_start(job, cores, user)` returning true removes the entry.
    template <typename TryStart>
    void drain(std::size_t c, const ClusterState& /*cs*/,
               TryStart&& try_start) {
        auto& q = queues_[c];
        std::size_t scanned = 0;
        for (auto it = q.begin(); it != q.end() && scanned < kBackfillDepth;
             ++scanned) {
            const std::uint32_t j = *it;
            if (try_start(j, jobs_[j].cores, jobs_[j].user)) {
                it = q.erase(it);
            } else {
                ++it;
            }
        }
    }

    /// Full-queue walk in FIFO order; `remove(job, cores)` returning true
    /// drops the entry.
    template <typename Remove>
    void remove_if(std::size_t c, Remove&& remove) {
        auto& q = queues_[c];
        for (auto it = q.begin(); it != q.end();) {
            if (remove(*it, jobs_[*it].cores)) {
                it = q.erase(it);
            } else {
                ++it;
            }
        }
    }

private:
    const ga::workload::TraceJob* jobs_ = nullptr;
    std::vector<std::deque<std::uint32_t>> queues_;
};

/// The indexed queue behind `run`. It starts exactly the entries the linear
/// walk starts, in the same FIFO order and from the same window (the first
/// min(kBackfillDepth, depth) entries at drain start), so scheduling stays
/// bit-identical; it just examines far fewer of them:
///
///   * the window is indexed by user. Each window entry owns a node in a
///     kBackfillDepth-node pool holding its user and core demand, and each
///     user's nodes form a FIFO list. A min-tree over the pool holds the
///     push sequence of every not-running user's first window entry. Every
///     window entry before the tree's minimum belongs to a running user,
///     which the one-job-per-user rule rejects, so a drain starts there (a
///     binary search by sequence) and returns at once when the tree is
///     empty. `note_start` / `note_finish` keep the tree in step with the
///     rule. From the first candidate on, the walk is linear: a window
///     blocked on cores rather than users costs one plain step per entry
///     (a queue record and its pool node), not a tree update;
///   * a per-cluster bucket count of queued core demands with a cached
///     minimum lets a drain exit in O(1) whenever the smallest queued demand
///     exceeds the free cores (the common state of a saturated cluster);
///   * the window lives in a fixed kBackfillDepth-entry array and the rest
///     of the queue in a deque that only grows at the back and shrinks at
///     the front. A start closes its gap with one contiguous move of at
///     most kBackfillDepth - 1 entries; the window refills from the tail
///     at drain end;
///   * the outage walk compacts in one O(queue) pass (window, then tail),
///     then rebuilds the window index.
///
/// Both early exits are unobservable: within one drain, free cores only
/// shrink and users only start running, so an entry that cannot start now
/// cannot start later in the same drain. Entries that slide into the window
/// as others start are indexed at drain end, as the linear walk would first
/// see them in the next drain. The index is sized by the window and the user
/// count, never by trace length.
///
/// It also opts into the submit fast path (`kImmediateStart`): a job
/// arriving at an empty queue that can start now skips the queue entirely.
class IndexedQueues {
public:
    static constexpr bool kImmediateStart = true;

    void reset(std::size_t n_clusters, std::size_t /*n_jobs*/,
               const ga::workload::TraceJob* jobs, int max_cores) {
        jobs_ = jobs;
        max_cores_ = max_cores;
        if (clusters_.size() != n_clusters) clusters_.resize(n_clusters);
        for (auto& pc : clusters_) {
            pc.size = 0;
            pc.tail.clear();
            pc.next_seq = 0;
            pc.by_cores.assign(static_cast<std::size_t>(max_cores) + 1, 0);
            pc.min_cores = max_cores + 1;
            clear_index(pc);
        }
    }

    /// Sizes the per-user index (user ids below `n_users`, none running);
    /// call after `reset`.
    void reset_users(std::size_t n_users) {
        for (auto& pc : clusters_) pc.users.assign(n_users, User{});
    }

    void push(std::size_t c, std::uint32_t j, int cores, std::uint32_t user) {
        PerCluster& pc = clusters_[c];
        const Entry e{j, pc.next_seq++, kNil};
        const int b = bucket(cores);
        ++pc.by_cores[b];
        pc.min_cores = std::min(pc.min_cores, b);
        if (pc.size < kBackfillDepth) {
            pc.window[pc.size] = e;
            index_entry(pc, pc.window[pc.size], user, cores);
            ++pc.size;
        } else {
            pc.tail.push_back(e);
        }
    }

    [[nodiscard]] std::size_t depth(std::size_t c) const noexcept {
        return clusters_[c].size + clusters_[c].tail.size();
    }

    /// `user` started a job on cluster c: their window entries leave the
    /// tree until they finish.
    void note_start(std::size_t c, std::uint32_t user) {
        PerCluster& pc = clusters_[c];
        User& u = pc.users[user];
        u.running = true;
        if (u.head != kNil) set_leaf(pc, u.head, kNone);
    }

    /// `user` finished their job on cluster c: their first window entry, if
    /// any, is a candidate again.
    void note_finish(std::size_t c, std::uint32_t user) {
        PerCluster& pc = clusters_[c];
        User& u = pc.users[user];
        u.running = false;
        if (u.head != kNil) set_leaf(pc, u.head, pc.nodes[u.head].seq);
    }

    template <typename TryStart>
    void drain(std::size_t c, const ClusterState& cs, TryStart&& try_start) {
        PerCluster& pc = clusters_[c];
        if (pc.tree[1] == kNone || cs.free_cores < min_queued_cores(pc)) {
            return;
        }
        Entry* const w = pc.window.data();
        Entry* it = std::lower_bound(
            w, w + pc.size, pc.tree[1],
            [](const Entry& e, std::uint32_t seq) { return e.seq < seq; });
        // Window entries left to walk; the skipped prefix counts toward the
        // window exactly as the linear walk's rejections do.
        for (std::size_t left = pc.size - static_cast<std::size_t>(it - w);
             left > 0; --left) {
            const std::uint16_t slot = it->slot;
            const int cores = pc.nodes[slot].cores;
            if (!try_start(it->job, cores, pc.nodes[slot].user)) {
                ++it;
                continue;
            }
            --pc.by_cores[bucket(cores)];
            unindex_started(pc, slot);
            std::copy(it + 1, w + pc.size, it);
            --pc.size;
            if (pc.tree[1] == kNone || cs.free_cores < min_queued_cores(pc)) {
                break;
            }
        }
        fill_window(pc);
    }

    template <typename Remove>
    void remove_if(std::size_t c, Remove&& remove) {
        PerCluster& pc = clusters_[c];
        for (std::size_t i = 0; i < pc.size; ++i) {
            User& u = pc.users[pc.nodes[pc.window[i].slot].user];
            u.head = kNil;
            u.tail = kNil;
        }
        // Single-pass compaction (std::remove_if applies the predicate
        // exactly once per entry, first to last, and the window precedes
        // the tail, preserving the FIFO side-effect order of the linear
        // walk).
        const auto drop = [&](const Entry& e) {
            const int cores = jobs_[e.job].cores;
            if (!remove(e.job, cores)) return false;
            --pc.by_cores[bucket(cores)];
            return true;
        };
        Entry* const w = pc.window.data();
        pc.size = static_cast<std::size_t>(
            std::remove_if(w, w + pc.size, drop) - w);
        pc.tail.erase(std::remove_if(pc.tail.begin(), pc.tail.end(), drop),
                      pc.tail.end());
        clear_index(pc);
        for (std::size_t i = 0; i < pc.size; ++i) index_window_entry(pc, w[i]);
        fill_window(pc);
    }

private:
    static_assert((kBackfillDepth & (kBackfillDepth - 1)) == 0,
                  "the min-tree over window slots needs a power-of-two size");
    static constexpr std::uint16_t kNil = 0xFFFFu;  ///< no pool node
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;  ///< empty tree leaf

    struct Entry {
        std::uint32_t job;
        std::uint32_t seq;  ///< push order; increasing along the queue
        std::uint16_t slot;  ///< pool node while indexed, else kNil
    };

    /// One window entry: what the walk reads, and its place in its user's
    /// list.
    struct Node {
        std::uint32_t seq;
        std::uint32_t user;
        int cores;
        std::uint16_t prev;
        std::uint16_t next;
    };

    /// A user's window entries (a list of pool nodes, FIFO) and whether the
    /// user is running here, as `note_start` / `note_finish` report it.
    struct User {
        std::uint16_t head = kNil;
        std::uint16_t tail = kNil;
        bool running = false;
    };

    struct PerCluster {
        /// The queue in FIFO order: window[0, size), then tail. Between
        /// calls every window entry is indexed and the tail is empty unless
        /// the window is full.
        std::array<Entry, kBackfillDepth> window{};
        std::size_t size = 0;
        std::deque<Entry> tail;
        std::uint32_t next_seq = 0;
        std::vector<User> users;
        std::array<Node, kBackfillDepth> nodes{};
        std::uint16_t free_node = kNil;  ///< free list through Node::next
        /// Min-tree over pool slots: leaf s (tree[kBackfillDepth + s]) is
        /// node s's seq when it heads a not-running user's list, else kNone;
        /// tree[1] is the earliest candidate.
        std::array<std::uint32_t, 2 * kBackfillDepth> tree{};
        std::vector<std::uint32_t> by_cores;  ///< queued count per core demand
        int min_cores = 0;  ///< lazily-advanced lower bound of the smallest
    };

    /// Empties the window index; user lists must already be empty.
    static void clear_index(PerCluster& pc) {
        pc.tree.fill(kNone);
        for (std::size_t s = 0; s < kBackfillDepth; ++s) {
            pc.nodes[s].next = static_cast<std::uint16_t>(s + 1);
        }
        pc.nodes[kBackfillDepth - 1].next = kNil;
        pc.free_node = 0;
    }

    static void set_leaf(PerCluster& pc, std::uint16_t slot,
                         std::uint32_t seq) {
        std::size_t i = kBackfillDepth + slot;
        pc.tree[i] = seq;
        for (i /= 2; i > 0; i /= 2) {
            pc.tree[i] = std::min(pc.tree[2 * i], pc.tree[2 * i + 1]);
        }
    }

    static void index_entry(PerCluster& pc, Entry& e, std::uint32_t user,
                            int cores) {
        const std::uint16_t s = pc.free_node;
        pc.free_node = pc.nodes[s].next;
        User& u = pc.users[user];
        pc.nodes[s] = Node{e.seq, user, cores, u.tail, kNil};
        e.slot = s;
        if (u.head == kNil) {
            u.head = s;
            if (!u.running) set_leaf(pc, s, e.seq);
        } else {
            pc.nodes[u.tail].next = s;
        }
        u.tail = s;
    }

    /// Unlinks a just-started entry's node from its user's list and frees
    /// it. The user is running (`note_start` already cleared their leaf),
    /// so no new head becomes a candidate.
    static void unindex_started(PerCluster& pc, std::uint16_t s) {
        const Node& n = pc.nodes[s];
        User& u = pc.users[n.user];
        if (n.prev == kNil) {
            u.head = n.next;
        } else {
            pc.nodes[n.prev].next = n.next;
        }
        if (n.next == kNil) {
            u.tail = n.prev;
        } else {
            pc.nodes[n.next].prev = n.prev;
        }
        pc.nodes[s].next = pc.free_node;
        pc.free_node = s;
    }

    void index_window_entry(PerCluster& pc, Entry& e) const {
        index_entry(pc, e, jobs_[e.job].user, jobs_[e.job].cores);
    }

    /// Slides tail entries into the window's free slots, indexing each.
    void fill_window(PerCluster& pc) const {
        for (; pc.size < kBackfillDepth && !pc.tail.empty(); ++pc.size) {
            pc.window[pc.size] = pc.tail.front();
            pc.tail.pop_front();
            index_window_entry(pc, pc.window[pc.size]);
        }
    }

    [[nodiscard]] int bucket(int cores) const noexcept {
        return std::clamp(cores, 0, max_cores_);
    }

    [[nodiscard]] int min_queued_cores(PerCluster& pc) const noexcept {
        while (pc.min_cores <= max_cores_ &&
               pc.by_cores[pc.min_cores] == 0) {
            ++pc.min_cores;
        }
        return pc.min_cores;
    }

    const ga::workload::TraceJob* jobs_ = nullptr;
    int max_cores_ = 1;
    std::vector<PerCluster> clusters_;
};

/// Whether a queue policy indexes users, and so must hear of every start
/// and finish (`IndexedQueues`; the linear reference reads nothing back).
template <typename Queues>
concept UserIndexed = requires(Queues& q, std::size_t c, std::uint32_t u) {
    q.note_start(c, u);
    q.note_finish(c, u);
    q.reset_users(c);
};

/// All mutable state of one simulation run, pooled per thread: `run` is
/// const and each invocation borrows its thread's RunState (resetting every
/// field but keeping vector capacity), so concurrent runs over the same
/// simulator never share mutable data — the sweep engine (`sim/sweep.hpp`)
/// stays sound — while repeated runs (sweeps, benches) stop churning the
/// allocator on million-job traces.
template <typename Queues>
struct RunState {
    std::vector<ClusterState> cluster;
    std::vector<std::size_t> jobs_per_cluster;  // index-counted, named later
    std::vector<double> start_time;  // actual start, for CBA's Eq. 2 term
    std::vector<double> charged;     // submit-time charge, for outage refunds
    // Multi-currency state, empty unless currency_budgets was set:
    // remaining/spent per currency, and per-(job, currency) submit-time
    // quotes (indexed [job * n_currencies + k]) for outage refunds.
    std::vector<double> currency_remaining;
    std::vector<double> currency_spent;
    std::vector<double> currency_charged;
    // One flag per (cluster, user): the paper's one-running-job-per-user
    // rule, flat array instead of hash sets.
    std::vector<std::uint8_t> user_running;
    // Pending finishes and the outage: a binary min-heap via
    // std::push_heap/pop_heap (the Event order is total, so pop order
    // matches std::priority_queue) over a reusable vector. Submits stream
    // past it in id order, so it holds at most one entry per running job
    // plus the outage.
    std::vector<Event> events;
    Queues queues;
    double budget_remaining = std::numeric_limits<double>::infinity();
    SimResult result;
};

template <typename Queues>
RunState<Queues>& pooled_run_state() {
    static thread_local RunState<Queues> state;
    return state;
}

/// Event-loop tallies, accumulated as plain locals on the hot path and
/// flushed to the obs registry once per run. Shared by both queue policies
/// (the instrumentation lives in run_impl's policy-independent code), and
/// write-only: nothing in the run ever reads these back, so results stay
/// byte-identical with metrics on or off.
struct SimRunTally {
    std::uint64_t finish_events = 0;
    std::uint64_t submit_events = 0;
    std::uint64_t outage_events = 0;
    std::uint64_t jobs_started = 0;
    std::uint64_t queue_scans = 0;
    std::uint64_t queue_drains = 0;
};

struct SimMetrics {
    ga::obs::Counter& finish_events;
    ga::obs::Counter& submit_events;
    ga::obs::Counter& outage_events;
    ga::obs::Counter& jobs_started;
    ga::obs::Counter& queue_scans;
    ga::obs::Counter& queue_drains;
    ga::obs::Counter& runs;
};

/// Handles resolved once per process, outside any lock (the registry
/// mutex is a hierarchy leaf; see obs/metrics.hpp).
SimMetrics& sim_metrics() {
    auto& registry = ga::obs::Registry::global();
    static SimMetrics metrics{
        registry.counter_handle("sim.events.finish"),
        registry.counter_handle("sim.events.submit"),
        registry.counter_handle("sim.events.outage"),
        registry.counter_handle("sim.jobs.started"),
        registry.counter_handle("sim.queue.scans"),
        registry.counter_handle("sim.queue.drains"),
        registry.counter_handle("sim.runs"),
    };
    return metrics;
}

}  // namespace

template <typename Queues>
SimResult BatchSimulator::run_impl(const SimOptions& options) const {
    const std::size_t n_clusters = clusters_.size();
    const auto& jobs = workload_.jobs;

    // ---- accounting setup ----
    const RunSetup setup = resolve_run(options, clusters_);
    // CBA with the scenario's grids, bound to the clusters; also used to
    // decompose carbon totals for Table 6 regardless of the pricing method.
    const ga::acct::BoundCarbonAccounting& cba = setup.carbon;
    const ga::acct::BoundAccountant& pricer = *setup.cluster_pricer;

    // Multi-currency admission accountants, index-aligned with
    // options.currency_budgets, and their bound forms (which may refer to
    // them, so both live to the end of the run).
    const std::size_t n_currencies = options.currency_budgets.size();
    std::vector<std::unique_ptr<const ga::acct::Accountant>> currency_accountants;
    std::vector<std::unique_ptr<const ga::acct::BoundAccountant>> currency_pricers;
    currency_accountants.reserve(n_currencies);
    currency_pricers.reserve(n_currencies);
    const auto entries = cluster_entries(clusters_);
    for (const auto& cb : options.currency_budgets) {
        GA_REQUIRE(!cb.currency.empty(),
                   "simulator: currency name must not be empty");
        GA_REQUIRE(cb.budget >= 0.0,
                   "simulator: currency budget must be non-negative");
        currency_accountants.push_back(bind_grid(
            ga::acct::AccountantRegistry::global().make(cb.accountant),
            setup.grid_traces));
        currency_pricers.push_back(currency_accountants.back()->bind(entries));
    }
    for (std::size_t a = 0; a < n_currencies; ++a) {
        for (std::size_t b = a + 1; b < n_currencies; ++b) {
            GA_REQUIRE(options.currency_budgets[a].currency !=
                           options.currency_budgets[b].currency,
                       "simulator: duplicate currency name");
        }
    }

    const RoutingPolicy& routing = *setup.routing;
    // Grid-blind policies (all eight paper builtins among them) let the
    // submit path skip the per-decision intensity lookups entirely;
    // current-intensity-only policies skip just the forecast lookup.
    const bool fill_grid_intensity = routing.uses_grid_intensity();
    const bool fill_grid_forecast =
        fill_grid_intensity && routing.uses_grid_forecast();

    // ---- state ----
    GA_REQUIRE(options.arrival_compression > 0.0,
               "simulator: arrival compression must be positive");
    RunState<Queues>& rs = pooled_run_state<Queues>();
    rs.cluster.assign(n_clusters, ClusterState{});
    for (std::size_t c = 0; c < n_clusters; ++c) {
        rs.cluster[c].free_cores = clusters_[c].total_cores();
        rs.cluster[c].capacity = clusters_[c].total_cores();
    }
    rs.jobs_per_cluster.assign(n_clusters, 0);
    rs.start_time.assign(jobs.size(), 0.0);
    rs.charged.assign(jobs.size(), 0.0);
    rs.user_running.assign(n_clusters * n_users_, 0);
    rs.queues.reset(n_clusters, jobs.size(), jobs.data(), max_job_cores_);
    if constexpr (UserIndexed<Queues>) rs.queues.reset_users(n_users_);
    rs.events.clear();
    rs.budget_remaining = options.budget > 0.0
                              ? options.budget
                              : std::numeric_limits<double>::infinity();
    if (n_currencies > 0) {
        rs.currency_remaining.resize(n_currencies);
        for (std::size_t k = 0; k < n_currencies; ++k) {
            rs.currency_remaining[k] =
                options.currency_budgets[k].budget > 0.0
                    ? options.currency_budgets[k].budget
                    : std::numeric_limits<double>::infinity();
        }
        rs.currency_spent.assign(n_currencies, 0.0);
        rs.currency_charged.assign(jobs.size() * n_currencies, 0.0);
    } else {
        rs.currency_remaining.clear();
        rs.currency_spent.clear();
        rs.currency_charged.clear();
    }
    rs.result = SimResult{};

    SimResult& result = rs.result;
    result.finish_times_s.reserve(jobs.size());

    const auto push_event = [&rs](Event e) {
        rs.events.push_back(e);
        std::push_heap(rs.events.begin(), rs.events.end(), std::greater<>{});
    };

    // ---- observability (write-only; never feeds back into the run) ----
    // The tracing flag is sampled once so every event pays one branch; the
    // tally flush at the end of the run is the only registry touch.
    SimRunTally tally;
    auto& tracer = ga::obs::Tracer::global();
    const bool tracing = ga::obs::tracing_enabled();

    // Scheduling context shared by every routing decision: the per-cluster
    // views are refreshed before each submit; the span stays valid because
    // `views` never reallocates.
    constexpr double kGridForecastHorizonS = 3600.0;
    std::vector<ClusterStatus> views(n_clusters);
    std::vector<MachineChoice> choices(n_clusters);
    SchedulingContext ctx;
    ctx.budget_total = options.budget;
    ctx.jobs_total = jobs.size();
    ctx.clusters = views;

    // Submit times are scaled per job as they stream in. Division by a
    // positive factor is monotone, so the stream stays in (time, job) order.
    const auto submit_time = [&](std::size_t j) {
        return jobs[j].submit_s / options.arrival_compression;
    };
    if (!jobs.empty()) {
        ctx.trace_span_s =
            std::max(ctx.trace_span_s, submit_time(jobs.size() - 1));
    }
    if (options.outage.has_value()) {
        GA_REQUIRE(options.outage->cluster < n_clusters,
                   "simulator: outage cluster index out of range");
        GA_REQUIRE(options.outage->nodes_lost >= 0,
                   "simulator: outage cannot add nodes");
        push_event(Event{options.outage->at_s, EventType::Outage, 0,
                         static_cast<std::uint32_t>(options.outage->cluster)});
    }

    auto job_usage = [&](std::uint32_t j, std::size_t c,
                         double start_time) {
        ga::acct::JobUsage usage;
        usage.duration_s = pred_runtime_[j * n_clusters + c];
        usage.energy_j = usage.duration_s * pred_power_[j * n_clusters + c];
        usage.cores = jobs[j].cores;
        usage.priced_at_s = start_time;
        return usage;
    };

    // Starts a job on cluster c at time `now` (resources already checked).
    auto start_job = [&](std::uint32_t j, std::size_t c, double now) {
        ++tally.jobs_started;
        const double runtime = pred_runtime_[j * n_clusters + c];
        ClusterState& cs = rs.cluster[c];
        cs.free_cores -= jobs[j].cores;
        rs.user_running[c * n_users_ + jobs[j].user] = 1;
        if constexpr (UserIndexed<Queues>) {
            rs.queues.note_start(c, jobs[j].user);
        }
        cs.sum_cores_end += static_cast<double>(jobs[j].cores) * (now + runtime);
        cs.running_cores += static_cast<double>(jobs[j].cores);
        rs.start_time[j] = now;
        push_event(Event{now + runtime, EventType::Finish, j,
                         static_cast<std::uint32_t>(c)});
    };

    // Tries to start queued jobs on cluster c (FIFO with skip-ahead past
    // jobs blocked by the one-job-per-user rule or core shortage, bounded
    // by kBackfillDepth like a real scheduler's backfill depth).
    auto drain_queue = [&](std::size_t c, double now) {
        ++tally.queue_drains;
        if (tracing) tracer.span_begin("sim.drain", now);
        ClusterState& cs = rs.cluster[c];
        rs.queues.drain(
            c, cs, [&](std::uint32_t j, int cores, std::uint32_t user) {
                ++tally.queue_scans;
                if (cores <= cs.free_cores &&
                    rs.user_running[c * n_users_ + user] == 0) {
                    cs.queued_core_seconds -=
                        static_cast<double>(cores) *
                        pred_runtime_[j * n_clusters + c];
                    start_job(j, c, now);
                    return true;
                }
                return false;
            });
        if (tracing) tracer.span_end("sim.drain", now);
    };

    // Each step takes the earlier of the next submit and the heap's top
    // under the Event order, so events run exactly as if every submit had
    // been pushed onto the heap up front.
    std::size_t next_submit = 0;
    for (;;) {
        const bool submits_left = next_submit < jobs.size();
        Event ev;
        if (submits_left) {
            ev = Event{submit_time(next_submit), EventType::Submit,
                       static_cast<std::uint32_t>(next_submit), 0};
        }
        if (submits_left && (rs.events.empty() || rs.events.front() > ev)) {
            ++next_submit;
        } else if (!rs.events.empty()) {
            std::pop_heap(rs.events.begin(), rs.events.end(),
                          std::greater<>{});
            ev = rs.events.back();
            rs.events.pop_back();
        } else {
            break;
        }
        const double now = ev.time;

        if (ev.type == EventType::Finish) {
            ++tally.finish_events;
            const std::size_t c = ev.cluster;
            const std::uint32_t j = ev.job;
            ClusterState& cs = rs.cluster[c];
            cs.free_cores += jobs[j].cores;
            rs.user_running[c * n_users_ + jobs[j].user] = 0;
            if constexpr (UserIndexed<Queues>) {
                rs.queues.note_finish(c, jobs[j].user);
            }
            cs.sum_cores_end -= static_cast<double>(jobs[j].cores) * now;
            // `now` equals start + runtime, so subtracting cores*now removes
            // exactly the cores*end contribution.
            cs.running_cores -= static_cast<double>(jobs[j].cores);

            // ---- metrics at completion ----
            // Carbon is metered at the job's actual start time: Eq. 2's
            // operational term reads grid intensity when the job runs, which
            // differs from the submit time for queued jobs. The attributed
            // total is CBA's charge, operational + embodied, added here from
            // the operational term already in hand.
            const auto usage = job_usage(j, c, rs.start_time[j]);
            ++result.jobs_completed;
            result.work_core_hours += work_[j];
            result.energy_mwh += usage.energy_j / ga::util::kJoulesPerKwh / 1000.0;
            const double operational_g = cba.operational_g(usage, c);
            result.operational_carbon_kg += operational_g / 1000.0;
            result.attributed_carbon_kg +=
                (operational_g + cba.embodied_g(usage, c)) / 1000.0;
            result.finish_times_s.push_back(now);
            result.makespan_s = std::max(result.makespan_s, now);
            ++rs.jobs_per_cluster[c];

            drain_queue(c, now);
            continue;
        }

        if (ev.type == EventType::Outage) {
            ++tally.outage_events;
            if (tracing) tracer.span_begin("sim.outage.compact", now);
            const std::size_t c = ev.cluster;
            ClusterState& cs = rs.cluster[c];
            const int per_node = clusters_[c].entry.node.total_cores();
            const int lost =
                std::min(options.outage->nodes_lost, clusters_[c].nodes) *
                per_node;
            cs.capacity -= lost;
            // Running jobs keep their cores until they finish; the pool just
            // never gets them back (free_cores may go negative meanwhile).
            cs.free_cores -= lost;
            // Queued jobs that no longer fit the shrunken cluster are
            // refunded and counted as skipped.
            rs.queues.remove_if(c, [&](std::uint32_t j, int cores) {
                if (cores <= cs.capacity) return false;
                cs.queued_core_seconds -=
                    static_cast<double>(jobs[j].cores) *
                    pred_runtime_[j * n_clusters + c];
                rs.budget_remaining += rs.charged[j];
                result.total_cost -= rs.charged[j];
                for (std::size_t k = 0; k < n_currencies; ++k) {
                    rs.currency_remaining[k] +=
                        rs.currency_charged[j * n_currencies + k];
                    rs.currency_spent[k] -=
                        rs.currency_charged[j * n_currencies + k];
                }
                ++result.jobs_skipped;
                return true;
            });
            if (tracing) tracer.span_end("sim.outage.compact", now);
            continue;
        }

        // ---- submit: route through the policy ----
        // An instant rather than a span: the branch has several early
        // exits and logical time does not advance inside it anyway.
        ++tally.submit_events;
        if (tracing) tracer.span_instant("sim.submit", now);
        const std::uint32_t j = ev.job;
        for (std::size_t c = 0; c < n_clusters; ++c) {
            const ClusterState& state = rs.cluster[c];
            const double wait = state.wait_estimate(now);

            ClusterStatus& view = views[c];
            view.name = clusters_[c].entry.node.name;
            view.capacity_cores = state.capacity;
            view.free_cores = state.free_cores;
            view.queue_depth = rs.queues.depth(c);
            view.queue_wait_s = wait;
            if (fill_grid_intensity) {
                view.grid_intensity_g_per_kwh = cba.intensity_at(c, now);
                if (fill_grid_forecast) {
                    view.grid_forecast_g_per_kwh =
                        cba.intensity_at(c, now + kGridForecastHorizonS);
                }
            }

            MachineChoice& ch = choices[c];
            ch = MachineChoice{};
            ch.machine_index = c;
            ch.feasible = jobs[j].cores <= state.capacity;
            if (!ch.feasible) continue;
            ch.runtime_s = pred_runtime_[j * n_clusters + c];
            ch.energy_j = ch.runtime_s * pred_power_[j * n_clusters + c];
            ch.queue_wait_s = wait;
            ch.cost = pricer.charge(job_usage(j, c, now), c);
        }
        ctx.now_s = now;
        ctx.budget_remaining = rs.budget_remaining;
        ++ctx.jobs_submitted;
        const auto chosen = routing.choose(ctx, choices);
        if (!chosen) {
            ++result.jobs_skipped;
            continue;
        }
        const std::size_t c = *chosen;
        if (choices[c].cost > rs.budget_remaining) {
            ++result.jobs_skipped;
            continue;
        }
        // Dual-budget admission: quote the job under every currency at the
        // submit time and admit only if all can pay (all-or-nothing, the
        // paper's dual-budget incentive); then debit every currency.
        if (n_currencies > 0) {
            const auto usage = job_usage(j, c, now);
            bool affordable = true;
            for (std::size_t k = 0; k < n_currencies; ++k) {
                rs.currency_charged[j * n_currencies + k] =
                    currency_pricers[k]->charge(usage, c);
                if (rs.currency_charged[j * n_currencies + k] >
                    rs.currency_remaining[k]) {
                    affordable = false;
                }
            }
            if (!affordable) {
                for (std::size_t k = 0; k < n_currencies; ++k) {
                    rs.currency_charged[j * n_currencies + k] = 0.0;
                }
                ++result.jobs_skipped;
                continue;
            }
            for (std::size_t k = 0; k < n_currencies; ++k) {
                rs.currency_remaining[k] -=
                    rs.currency_charged[j * n_currencies + k];
                rs.currency_spent[k] += rs.currency_charged[j * n_currencies + k];
            }
        }
        rs.budget_remaining -= choices[c].cost;
        result.total_cost += choices[c].cost;
        rs.charged[j] = choices[c].cost;

        // Enqueue, then drain: a submitted job starts immediately whenever
        // it (or any skip-ahead-eligible queued job) can run, instead of
        // idling cores until the cluster's next finish event.
        ClusterState& cs = rs.cluster[c];
        const double queued_cs = static_cast<double>(jobs[j].cores) *
                                 pred_runtime_[j * n_clusters + c];
        if (Queues::kImmediateStart && rs.queues.depth(c) == 0 &&
            jobs[j].cores <= cs.free_cores &&
            rs.user_running[c * n_users_ + jobs[j].user] == 0) {
            // Fast path: the job would be the sole queue entry and the
            // drain would start it at once, so skip the queue bookkeeping.
            // The add/subtract pair replays the enqueue+drain arithmetic on
            // queued_core_seconds, keeping its value (and thus every later
            // wait estimate) bit-identical to the slow path.
            cs.queued_core_seconds += queued_cs;
            cs.queued_core_seconds -= queued_cs;
            start_job(j, c, now);
            continue;
        }
        rs.queues.push(c, j, jobs[j].cores, jobs[j].user);
        cs.queued_core_seconds += queued_cs;
        drain_queue(c, now);
    }

    for (std::size_t c = 0; c < n_clusters; ++c) {
        result.jobs_per_machine[clusters_[c].entry.node.name] +=
            rs.jobs_per_cluster[c];
    }
    for (std::size_t k = 0; k < n_currencies; ++k) {
        result.currency_spent[options.currency_budgets[k].currency] =
            rs.currency_spent[k];
    }
    std::sort(result.finish_times_s.begin(), result.finish_times_s.end());

    if (ga::obs::metrics_enabled()) {
        SimMetrics& metrics = sim_metrics();
        metrics.runs.inc();
        metrics.finish_events.inc(tally.finish_events);
        metrics.submit_events.inc(tally.submit_events);
        metrics.outage_events.inc(tally.outage_events);
        metrics.jobs_started.inc(tally.jobs_started);
        metrics.queue_scans.inc(tally.queue_scans);
        metrics.queue_drains.inc(tally.queue_drains);
    }
    return std::move(rs.result);
}

SimResult BatchSimulator::run(const SimOptions& options) const {
    return run_impl<IndexedQueues>(options);
}

SimResult BatchSimulator::run_reference(const SimOptions& options) const {
    return run_impl<LinearQueues>(options);
}

}  // namespace ga::sim
