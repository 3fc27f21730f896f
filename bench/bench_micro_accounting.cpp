// Micro-benchmarks (google-benchmark): the accounting hot paths — cost
// evaluation per method by catalog entry and through the form bound to a
// deployment (called once per job per candidate machine by the simulator's
// policy loop), registry construction from an AccountantSpec, and
// multi-currency ledger charges.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>

#include "core/accounting.hpp"
#include "core/allocation.hpp"
#include "machine/catalog.hpp"
#include "sim/simulator.hpp"

namespace {

ga::acct::JobUsage bench_usage() {
    ga::acct::JobUsage usage;
    usage.duration_s = 1234.0;
    usage.energy_j = 5.6e6;
    usage.cores = 16;
    usage.priced_at_s = 7200.0;
    return usage;
}

// The registry-built accountant, on the default deployment's Fig-7
// regional grids when `regional` (as the simulator builds it).
std::unique_ptr<const ga::acct::Accountant> make_accountant(const char* name,
                                                            bool regional) {
    auto accountant = ga::acct::AccountantRegistry::global().make(
        ga::acct::AccountantSpec{name, {}});
    if (!regional) return accountant;
    ga::sim::SimOptions options;
    options.regional_grids = true;
    const auto setup = ga::sim::resolve_run(options, ga::sim::default_clusters());
    if (auto gridded = accountant->with_grid(setup.grid_traces)) return gridded;
    return accountant;
}

// The default deployment's IC cluster (index 2), the machine both forms price.
constexpr std::size_t kIcCluster = 2;

// One registry-built accountant's charge on the hot path.
void BM_Charge(benchmark::State& state, const char* name, bool regional = false) {
    const auto accountant = make_accountant(name, regional);
    const auto& machine =
        ga::machine::find(ga::machine::CatalogId::InstitutionalCluster);
    const auto usage = bench_usage();
    for (auto _ : state) {
        benchmark::DoNotOptimize(accountant->charge(usage, machine));
    }
}

// The same charge through the accountant bound to the default deployment
// (what the simulator and ga-serve quote with).
void BM_BoundCharge(benchmark::State& state, const char* name, bool regional) {
    const auto accountant = make_accountant(name, regional);
    const auto bound = accountant->bind(
        ga::sim::cluster_entries(ga::sim::default_clusters()));
    const auto usage = bench_usage();
    for (auto _ : state) {
        benchmark::DoNotOptimize(bound->charge(usage, kIcCluster));
    }
}

// Spec -> accountant construction (the once-per-run registry cost).
void BM_RegistryMake(benchmark::State& state) {
    const ga::acct::AccountantSpec spec{"CarbonTax", {{"rate", 0.02}}};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ga::acct::AccountantRegistry::global().make(spec));
    }
}

// Multi-currency charge: dual-budget admission + debit + two transactions,
// under the ledger's internal lock (the green-ACCESS settlement path).
void BM_LedgerDualCharge(benchmark::State& state) {
    ga::acct::Ledger ledger;
    ledger.define_currency("core-hours",
                           ga::acct::AccountantSpec{"Runtime", {}});
    ledger.define_currency("gCO2e", ga::acct::AccountantSpec{"CBA", {}});
    ledger.create_account("user", {{"core-hours", 1e18}, {"gCO2e", 1e18}});
    const auto& machine =
        ga::machine::find(ga::machine::CatalogId::InstitutionalCluster);
    const auto usage = bench_usage();
    for (auto _ : state) {
        benchmark::DoNotOptimize(ledger.charge("user", usage, machine));
    }
}

}  // namespace

BENCHMARK_CAPTURE(BM_Charge, runtime, "Runtime");
BENCHMARK_CAPTURE(BM_Charge, energy, "Energy");
BENCHMARK_CAPTURE(BM_Charge, peak, "Peak");
BENCHMARK_CAPTURE(BM_Charge, eba, "EBA");
BENCHMARK_CAPTURE(BM_Charge, cba, "CBA");
BENCHMARK_CAPTURE(BM_Charge, blended, "Blended");
BENCHMARK_CAPTURE(BM_Charge, carbon_tax, "CarbonTax");
BENCHMARK_CAPTURE(BM_Charge, cba_regional, "CBA", true);
BENCHMARK_CAPTURE(BM_BoundCharge, cba, "CBA", false);
BENCHMARK_CAPTURE(BM_BoundCharge, cba_regional, "CBA", true);
BENCHMARK_CAPTURE(BM_BoundCharge, eba, "EBA", false);
BENCHMARK_CAPTURE(BM_BoundCharge, blended, "Blended", false);
BENCHMARK(BM_RegistryMake);
// Fixed iteration count: every charge appends two history rows, so an
// auto-scaled run would grow the audit trail (and its memory) unboundedly.
BENCHMARK(BM_LedgerDualCharge)->Iterations(100000);
