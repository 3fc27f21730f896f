// Event-driven multi-machine batch simulator (paper §5).
//
// Models four clusters (Table 5), each a pool of cores with a FIFO queue and
// the paper's per-user constraint: a user may have at most one running job
// per cluster. Jobs arrive from the synthetic trace; a policy routes each
// job to a machine using its per-machine predictions and current queue
// estimates; execution is deterministic (runtime/power from the
// cross-platform predictor); accounting charges the configured method.
//
// A fixed allocation budget can be imposed: jobs whose estimated cost
// exceeds the remaining budget are skipped, reproducing the paper's
// "work completed with a fixed allocation" experiments (Figs 5a, 6, 7a).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "carbon/intensity.hpp"
#include "core/accounting.hpp"
#include "sim/policy.hpp"
#include "workload/workload.hpp"

namespace ga::sim {

/// One simulated cluster: a catalog machine replicated over `nodes` nodes.
struct ClusterConfig {
    ga::machine::CatalogEntry entry;
    int nodes = 1;

    [[nodiscard]] int total_cores() const noexcept {
        return entry.node.total_cores() * nodes;
    }
};

/// The default Table-5 deployment (FASTER, Desktop, IC, Theta), scaled to
/// keep the 142k-job simulation responsive while preserving the paper's
/// contention patterns (Desktop is a single node; Theta is the largest).
[[nodiscard]] std::vector<ClusterConfig> default_clusters();

/// Mid-run capacity loss (scenario dimension beyond the paper): at `at_s`
/// the cluster irrevocably loses `nodes_lost` nodes (clamped to the deployed
/// count). Running jobs finish, but the lost cores are never returned to the
/// pool; queued jobs that no longer fit the shrunken cluster are refunded
/// and counted as skipped.
struct ClusterOutage {
    std::size_t cluster = 0;  ///< index into the deployment
    double at_s = 0.0;        ///< outage time, seconds from simulation start
    int nodes_lost = 0;

    friend bool operator==(const ClusterOutage&, const ClusterOutage&) = default;
};

/// One currency of a multi-currency allocation: a display name, the
/// registry accountant that prices jobs in it, and the granted budget.
/// The titular dual-budget scenario is two of these — e.g.
/// {"core-hours", {"Runtime", {}}, 5e4} and {"gCO2e", {"CBA", {}}, 1e4}.
struct CurrencyBudget {
    std::string currency;
    ga::acct::AccountantSpec accountant;
    double budget = 0.0;  ///< 0 = unlimited in this currency

    friend bool operator==(const CurrencyBudget&, const CurrencyBudget&) = default;
};

/// Scenario and accounting configuration for one run.
struct SimOptions {
    /// Routing policy: any builtin or user-registered `RoutingPolicy`,
    /// selected by name with parameters (e.g. {"Mixed", {{"threshold",
    /// 1.5}}} or {"CarbonAware", {{"forecast", 1}}}).
    PolicySpec policy{"Greedy", {}};
    /// Pricing method for routing costs and the primary `budget`: any
    /// builtin or user-registered accountant (e.g. {"CarbonTax",
    /// {{"rate", 0.02}}}). The paper's experiments use EBA or CBA.
    ga::acct::AccountantSpec pricing{"EBA", {}};
    /// Multi-currency admission: when non-empty, every submitted job is
    /// additionally priced under each listed currency's accountant and
    /// admitted only if *all* of them can pay (each is then debited) — the
    /// paper's dual-budget incentive. Independent of the primary `budget`,
    /// which still gates the routing-cost currency.
    std::vector<CurrencyBudget> currency_budgets;
    double budget = 0.0;            ///< 0 = unlimited (full-workload runs)
    bool regional_grids = false;    ///< Fig-7 low-carbon scenario
    std::uint64_t grid_seed = 77;   ///< synthetic grid seed
    /// Arrival-burst scaling (scenario dimension beyond the paper): submit
    /// times are divided by this factor, so > 1 compresses the trace into a
    /// burstier window while keeping job order and characteristics.
    double arrival_compression = 1.0;
    std::optional<ClusterOutage> outage;  ///< optional mid-run capacity loss

    friend bool operator==(const SimOptions&, const SimOptions&) = default;
};

/// What one run (or one ga-serve session) resolves from its options once,
/// before the first routing decision.
struct RunSetup {
    /// Facility grid traces by machine name; empty unless `regional_grids`.
    std::map<std::string, ga::carbon::IntensityTrace> grid_traces;
    std::unique_ptr<const RoutingPolicy> routing;
    /// The `options.pricing` accountant, bound to `grid_traces`.
    std::unique_ptr<const ga::acct::Accountant> pricer;
    /// `pricer` bound to the deployment: quotes by cluster index. Declared
    /// after `pricer`, which a forwarding bound form refers to.
    std::unique_ptr<const ga::acct::BoundAccountant> cluster_pricer;
    /// CBA at `grid_traces`, bound to the deployment: the carbon meter and
    /// the grid-intensity reader, whatever the pricing method. It shares
    /// its own copy of the traces, so it survives moves of this struct and
    /// of `grid_traces`.
    ga::acct::BoundCarbonAccounting carbon;
};

/// The catalog entries of a deployment, in cluster order: what
/// `Accountant::bind` takes.
[[nodiscard]] std::vector<ga::machine::CatalogEntry> cluster_entries(
    std::span<const ClusterConfig> clusters);

/// Builds the grid traces, the routing policy, the pricing accountant and
/// the bound pricer and carbon meter for `options` over a deployment.
/// Fixed-machine policies (named after a deployed cluster) get that
/// cluster's "index" param unless the spec pins one, so they never scan
/// names per decision. Throws what the registries throw for unknown names
/// or bad parameters.
[[nodiscard]] RunSetup resolve_run(const SimOptions& options,
                                   std::span<const ClusterConfig> clusters);

/// Aggregated outcome of one simulation run.
struct SimResult {
    double work_core_hours = 0.0;  ///< machine-averaged core-hours completed
    std::size_t jobs_completed = 0;
    std::size_t jobs_skipped = 0;  ///< infeasible or unaffordable
    double total_cost = 0.0;       ///< in the pricing method's unit
    double energy_mwh = 0.0;
    double operational_carbon_kg = 0.0;
    double attributed_carbon_kg = 0.0;  ///< operational + embodied share
    double makespan_s = 0.0;
    std::vector<double> finish_times_s;            ///< sorted, one per job
    std::map<std::string, std::size_t> jobs_per_machine;
    /// Per-currency totals charged at admission (net of outage refunds);
    /// empty unless `SimOptions::currency_budgets` was set.
    std::map<std::string, double> currency_spent;
};

/// The simulator. Construct once per workload; `run` is const, keeps every
/// piece of per-run mutable state in a `RunState` pooled per thread (reset
/// at the start of each run, its allocations reused), and can be called
/// concurrently from many threads over the same instance — the
/// scenario-sweep engine (`sim/sweep.hpp`) relies on this.
class BatchSimulator {
public:
    BatchSimulator(ga::workload::Workload workload,
                   std::vector<ClusterConfig> clusters);

    /// Convenience: workload over the default clusters.
    explicit BatchSimulator(ga::workload::Workload workload)
        : BatchSimulator(std::move(workload), default_clusters()) {}

    [[nodiscard]] SimResult run(const SimOptions& options) const;

    /// The linear-scan executor (the pre-index deque-of-ids queue, every
    /// scan re-reading the trace array), kept as the bit-identity oracle
    /// for `run` and as the baseline the bench harness measures the indexed
    /// queue against. Same contract and thread-safety as `run`;
    /// byte-identical results on every input.
    [[nodiscard]] SimResult run_reference(const SimOptions& options) const;

    [[nodiscard]] const std::vector<ClusterConfig>& clusters() const noexcept {
        return clusters_;
    }
    [[nodiscard]] const ga::workload::Workload& workload() const noexcept {
        return workload_;
    }

    /// The machine-averaged core-hours of one job (the paper's work unit).
    [[nodiscard]] double job_work_core_hours(std::size_t job_index) const;

private:
    /// The event loop, parameterized on the ready-queue structure (the
    /// indexed fast path or the linear reference; both live in the .cpp).
    template <typename Queues>
    [[nodiscard]] SimResult run_impl(const SimOptions& options) const;

    ga::workload::Workload workload_;
    std::vector<ClusterConfig> clusters_;
    // Per-job, per-cluster predictions, precomputed once (KNN results are
    // shared across policies): runtime_s and power_w, indexed
    // [job * n_clusters + cluster].
    std::vector<double> pred_runtime_;
    std::vector<double> pred_power_;
    std::vector<double> work_;  ///< per-job machine-averaged core-hours
    std::size_t n_users_ = 0;   ///< max trace user id + 1 (flat-array sizing)
    int max_job_cores_ = 1;     ///< largest core demand (queue bucket sizing)
};

}  // namespace ga::sim
