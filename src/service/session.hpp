// The live ga-serve session: a scenario's configuration held in memory with
// a running Ledger and an incremental job-stream scheduler behind the line
// protocol (service/protocol.hpp).
//
// One `ServeSession` serves exactly one expanded grid point of a scenario
// file (the first, when the grid has several): the resolved routing policy,
// pricing accountant, primary budget, regional grids, and the default
// Table-5 deployment. Unlike the batch simulator — which replays a complete
// trace — the session ingests jobs incrementally, so its scheduler is the
// streaming counterpart with two documented divergences: queues are strict
// FIFO (no skip-ahead when a later small job would fit), and there is no
// one-running-job-per-user rule (a front-end, not a fairness study).
// Charging happens at submit time: admitted jobs are priced and debited
// when routed (priced_at = submit), completion only frees cores.
//
// Determinism contract: a session is a pure function of (scenario file,
// request sequence). The logical clock only moves through requests
// (submit_s / advance), never the wall clock; the only randomness is the
// snapshot-carried generate-path RNG. Replaying the same request lines
// against the same scenario therefore produces byte-identical response
// lines and snapshots — including across a checkpoint/restart split at any
// request boundary. The session is deliberately single-threaded (one
// request at a time; the daemon serializes transports onto it), so it adds
// no locks to the declared hierarchy; the Ledger still locks internally.
//
// Request types: create_account, submit_jobs, quote, charge, refund,
// balance, stats, metrics, advance, checkpoint, shutdown — schemas in the
// handler comments (session.cpp) and docs/ARCHITECTURE.md "Service layer".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/accounting.hpp"
#include "core/allocation.hpp"
#include "io/scenario.hpp"
#include "service/protocol.hpp"
#include "service/snapshot.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace ga::service {

class ServeSession {
public:
    /// Fresh session over the scenario's first expanded grid point.
    explicit ServeSession(ga::io::ScenarioFile scenario);

    /// Restored session: same scenario, state from a snapshot. Throws
    /// RuntimeError when the snapshot's configuration fingerprint or
    /// cluster layout does not match the scenario — replaying requests
    /// against a different configuration would silently diverge.
    ServeSession(ga::io::ScenarioFile scenario, const SessionState& state);

    ServeSession(const ServeSession&) = delete;
    ServeSession& operator=(const ServeSession&) = delete;

    /// Handles one request line and returns the response line (without the
    /// trailing newline). Never throws: every failure becomes a structured
    /// error response. Deterministic in (construction state, lines so far).
    [[nodiscard]] std::string handle_line(std::string_view line);

    /// True once a shutdown request was acknowledged; the transport loop
    /// should stop reading.
    [[nodiscard]] bool shutdown_requested() const noexcept {
        return shutdown_;
    }

    /// The complete durable state (ledger exported under its own lock).
    [[nodiscard]] SessionState export_state() const;

    /// Canonical rendering of the effective configuration; embedded in
    /// snapshots and checked on restore.
    [[nodiscard]] const std::string& config_fingerprint() const noexcept {
        return fingerprint_;
    }

    /// How many grid points the scenario expands to (the CLI warns when a
    /// session silently serves only the first of several).
    [[nodiscard]] std::size_t grid_points() const noexcept {
        return grid_points_;
    }

private:
    struct JobSpec {
        std::string user;
        int cores = 1;
        double runtime_ic_s = 0.0;
        double power_ic_w = 0.0;
        ga::workload::JobCounters counters;
        double submit_s = 0.0;
    };

    /// Routing result: the per-cluster predictions/prices and the policy's
    /// pick.
    struct Routed {
        std::optional<std::size_t> chosen;
        std::vector<ga::sim::MachineChoice> choices;
        std::vector<double> runtime_s;  ///< per cluster
        std::vector<double> power_w;    ///< per cluster
    };

    void init_config(ga::io::ScenarioFile scenario);

    [[nodiscard]] ga::io::JsonValue dispatch(const Request& request);

    // one handler per request type
    [[nodiscard]] ga::io::JsonValue handle_create_account(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_submit_jobs(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_quote(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_charge(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_refund(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_balance(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_stats(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_metrics(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_advance(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_checkpoint(const Request& r);
    [[nodiscard]] ga::io::JsonValue handle_shutdown(const Request& r);

    [[nodiscard]] Routed route(const JobSpec& job, double priced_at) const;
    [[nodiscard]] ga::io::JsonValue submit_one(const JobSpec& job);
    [[nodiscard]] JobSpec generate_job(double submit_s);

    /// Advances the logical clock to `t`, completing running jobs whose
    /// finish time has passed and starting queued jobs (strict FIFO) as
    /// cores free up. Returns the number of completions.
    std::uint64_t advance_to(double t);

    // ---- configuration (immutable after construction) -------------------
    std::string fingerprint_;
    ga::sim::SimOptions options_;
    std::vector<ga::sim::ClusterConfig> cluster_cfgs_;
    std::shared_ptr<ga::workload::CrossPlatformPredictor> predictor_;
    std::vector<std::size_t> predictor_index_;  ///< cluster -> predictor slot
    std::unique_ptr<const ga::acct::Accountant> pricer_;
    /// `pricer_` bound to the clusters (declared after it: a forwarding
    /// bound form refers to it).
    std::unique_ptr<const ga::acct::BoundAccountant> cluster_pricer_;
    /// A defined currency's accountant and its form bound to the clusters.
    struct CurrencyPricer {
        std::string currency;
        std::unique_ptr<const ga::acct::Accountant> accountant;
        std::unique_ptr<const ga::acct::BoundAccountant> bound;
    };
    /// Session copies of the defined currencies' accountants (sorted by
    /// currency) for quote-time pricing; the Ledger holds its own instances
    /// for the authoritative charge path.
    std::vector<CurrencyPricer> currency_pricers_;
    std::unique_ptr<const ga::sim::RoutingPolicy> routing_;
    /// Intensity lookups for the policy context (grid-bound under
    /// regional_grids, catalog averages otherwise).
    ga::acct::BoundCarbonAccounting carbon_;
    bool fill_grid_intensity_ = false;
    bool fill_grid_forecast_ = false;
    std::size_t generate_users_ = 1;  ///< user-pool size for the generate path
    std::size_t grid_points_ = 1;

    // ---- live state (snapshot surface) -----------------------------------
    double clock_ = 0.0;
    std::uint64_t next_seq_ = 1;
    ga::util::Rng rng_;
    std::uint64_t jobs_submitted_ = 0;
    std::uint64_t jobs_rejected_ = 0;
    double primary_spent_ = 0.0;
    std::vector<ClusterSessionState> clusters_;
    ga::acct::Ledger ledger_;
    bool shutdown_ = false;

    // ---- observability (not part of the snapshot surface) ----------------
    // Logical request tallies for the `metrics` verb. Deliberately outside
    // export_state(): a restored session starts counting afresh, and the
    // golden-transcript contract (same scenario + lines -> same bytes)
    // still holds because the tallies are a pure function of the lines
    // handled since construction.
    std::uint64_t requests_served_ = 0;
    std::uint64_t request_errors_ = 0;
};

}  // namespace ga::service
