// Tests for the open accounting API (core/accounting.hpp): AccountantSpec,
// AccountantRegistry, the builtin methods (paper + composites, including
// the hexfloat charge baseline captured from the pre-registry
// implementation), the bound per-deployment forms (`Accountant::bind`)
// against the entry forms, and end-to-end registry-driven simulator runs
// (spec pricing, the accountant sweep axis, and the dual-budget core-hours +
// gCO2e scenario).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <thread>

#include "carbon/grids.hpp"
#include "core/accounting.hpp"
#include "machine/catalog.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim_result_matchers.hpp"
#include "util/error.hpp"
#include "workload/workload.hpp"

namespace {

namespace ac = ga::acct;
namespace mc = ga::machine;
namespace sm = ga::sim;
namespace wl = ga::workload;
using ga::testutil::expect_identical;

// ------------------------------------------------------------ AccountantSpec
TEST(AccountantSpec, ParamLookupWithFallback) {
    const ac::AccountantSpec spec{"EBA", {{"beta", 0.5}}};
    EXPECT_DOUBLE_EQ(spec.param("beta", 1.0), 0.5);
    EXPECT_DOUBLE_EQ(spec.param("absent", 7.0), 7.0);
}

TEST(AccountantSpec, LabelIsNameAloneOrNameWithSortedParams) {
    EXPECT_EQ((ac::AccountantSpec{"CBA", {}}.label()), "CBA");
    EXPECT_EQ((ac::AccountantSpec{"EBA", {{"beta", 0.5}}}.label()),
              "EBA(beta=0.5)");
    // std::map keeps params in key order -> deterministic labels.
    EXPECT_EQ(
        (ac::AccountantSpec{"Blended",
                            {{"core_weight", 2.0}, {"carbon_weight", 1.0}}}
             .label()),
        "Blended(carbon_weight=1,core_weight=2)");
}

// -------------------------------------------------------- AccountantRegistry
TEST(AccountantRegistry, GlobalContainsPaperAndBeyondPaperBuiltins) {
    auto& registry = ac::AccountantRegistry::global();
    for (const auto& spec : ac::paper_accountants()) {
        EXPECT_TRUE(registry.contains(spec.name)) << spec.name;
    }
    for (const auto& spec : ac::beyond_paper_accountants()) {
        EXPECT_TRUE(registry.contains(spec.name)) << spec.name;
    }
    const auto names = registry.names();
    EXPECT_GE(names.size(), 7u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(AccountantRegistry, UnknownNameThrowsRuntimeError) {
    EXPECT_THROW((void)ac::AccountantRegistry::global().make(
                     ac::AccountantSpec{"NoSuchMethod", {}}),
                 ga::util::RuntimeError);
}

TEST(AccountantRegistry, DuplicateRegistrationThrows) {
    // A private registry starts empty; global() is untouched by this test.
    ac::AccountantRegistry registry;
    EXPECT_FALSE(registry.contains("Runtime"));
    const auto factory = [](const ac::AccountantSpec&) {
        return std::make_unique<ac::RuntimeAccounting>();
    };
    registry.register_accountant("Custom", factory);
    EXPECT_TRUE(registry.contains("Custom"));
    EXPECT_THROW(registry.register_accountant("Custom", factory),
                 ga::util::PreconditionError);
}

TEST(AccountantRegistry, MadeAccountantReportsItsRegistryName) {
    for (const char* name :
         {"Runtime", "Energy", "Peak", "EBA", "CBA", "Blended", "CarbonTax"}) {
        const auto a =
            ac::AccountantRegistry::global().make(ac::AccountantSpec{name, {}});
        EXPECT_EQ(a->name(), name);
        EXPECT_FALSE(std::string(a->unit()).empty()) << name;
    }
}

TEST(AccountantRegistry, SpecParamsReachTheBuiltinConstructors) {
    const auto& m = mc::find(mc::CatalogId::InstitutionalCluster);
    ac::JobUsage u;
    u.duration_s = 100.0;
    u.energy_j = 1000.0;
    u.cores = 4;

    // EBA beta and pue params match direct construction.
    const auto eba_half = ac::AccountantRegistry::global().make(
        ac::AccountantSpec{"EBA", {{"beta", 0.5}, {"pue", 1.0}}});
    const ac::EnergyBasedAccounting direct(0.5, true);
    EXPECT_EQ(eba_half->charge(u, m), direct.charge(u, m));

    // CBA depreciation param selects the linear schedule.
    const auto cba_linear = ac::AccountantRegistry::global().make(
        ac::AccountantSpec{"CBA", {{"depreciation", 1.0}}});
    const ac::CarbonBasedAccounting linear(
        {}, ga::carbon::DepreciationMethod::Linear);
    EXPECT_EQ(cba_linear->charge(u, m), linear.charge(u, m));
    // Out-of-range depreciation values are rejected at build time, and so
    // is a "pue" that is not the 0/1 switch (e.g. an actual PUE value).
    EXPECT_THROW((void)ac::AccountantRegistry::global().make(
                     ac::AccountantSpec{"CBA", {{"depreciation", 2.0}}}),
                 ga::util::PreconditionError);
    EXPECT_THROW((void)ac::AccountantRegistry::global().make(
                     ac::AccountantSpec{"EBA", {{"pue", 1.58}}}),
                 ga::util::PreconditionError);
}

// ------------------------------------------------- beyond-paper composites
TEST(Blended, IsTheWeightedSumOfCoreHoursAndCarbon) {
    const auto& m = mc::find(mc::CatalogId::Theta);
    ac::JobUsage u;
    u.duration_s = 3600.0;
    u.energy_j = 5.0e6;
    u.cores = 64;
    const ac::RuntimeAccounting runtime;
    const ac::CarbonBasedAccounting cba;
    const ac::BlendedAccounting blended(2.0, 0.5);
    EXPECT_DOUBLE_EQ(blended.charge(u, m),
                     2.0 * runtime.charge(u, m) + 0.5 * cba.charge(u, m));
    EXPECT_THROW(ac::BlendedAccounting(-1.0, 1.0), ga::util::PreconditionError);
    EXPECT_THROW(ac::BlendedAccounting(0.0, 0.0), ga::util::PreconditionError);
}

TEST(CarbonTax, AddsAPerGramSurchargeToCoreHours) {
    const auto& clean = mc::find(mc::CatalogId::Desktop);
    const auto& dirty = mc::find(mc::CatalogId::Theta);
    ac::JobUsage u;
    u.duration_s = 3600.0;
    u.energy_j = 2.0e6;
    u.cores = 8;
    const ac::RuntimeAccounting runtime;
    const ac::CarbonBasedAccounting cba;
    const ac::CarbonTaxAccounting taxed(0.02);
    EXPECT_DOUBLE_EQ(taxed.charge(u, clean),
                     runtime.charge(u, clean) + 0.02 * cba.charge(u, clean));
    // Runtime alone cannot tell the machines apart at equal core counts;
    // the tax makes the carbon-heavy machine strictly more expensive.
    EXPECT_EQ(runtime.charge(u, clean), runtime.charge(u, dirty));
    EXPECT_LT(taxed.charge(u, clean), taxed.charge(u, dirty));
    // Zero rate degrades to plain Runtime.
    const ac::CarbonTaxAccounting untaxed(0.0);
    EXPECT_DOUBLE_EQ(untaxed.charge(u, dirty), runtime.charge(u, dirty));
    EXPECT_THROW(ac::CarbonTaxAccounting(-0.1), ga::util::PreconditionError);
}

TEST(WithGrid, CarbonAwareMethodsRebindAndGridBlindOnesReturnNull) {
    const auto& ic = mc::find(mc::CatalogId::InstitutionalCluster);
    std::map<std::string, ga::carbon::IntensityTrace> traces;
    traces.emplace("IC",
                   ga::carbon::IntensityTrace::hourly({10.0, 10.0}, 0.0, "t"));
    ac::JobUsage u;
    u.duration_s = 60.0;
    u.energy_j = 3.6e6;  // 1 kWh
    u.cores = 1;

    for (const char* blind : {"Runtime", "Energy", "Peak", "EBA"}) {
        const auto a = ac::AccountantRegistry::global().make(
            ac::AccountantSpec{blind, {}});
        EXPECT_EQ(a->with_grid(traces), nullptr) << blind;
    }
    for (const char* aware : {"CBA", "Blended", "CarbonTax"}) {
        const auto a = ac::AccountantRegistry::global().make(
            ac::AccountantSpec{aware, {}});
        const auto bound = a->with_grid(traces);
        ASSERT_NE(bound, nullptr) << aware;
        // The 10 g/kWh trace undercuts IC's 454 g/kWh catalog average, so
        // the bound copy must charge strictly less.
        EXPECT_LT(bound->charge(u, ic), a->charge(u, ic)) << aware;
    }
}

// ------------------------------------------ hexfloat charge baseline
// Captured from the pre-registry implementation across all five paper
// methods, the full ten-machine catalog, and five usage shapes. Accountants
// built by name through the registry must reproduce every charge
// bit-for-bit.
struct BaselineRow {
    const char* method;  // registry name of a paper method
    const char* machine; // catalog display name
    int usage;           // index into baseline_usages()
    double expected;     // hexfloat, exact
};

const ac::JobUsage* baseline_usages() {
    static const ac::JobUsage usages[5] = {
        // duration_s, energy_j, cores, gpus, priced_at_s
        {3600.0, 1.8e6, 4, 0, 0.0},
        {913.5, 4.27e5, 48, 0, 7200.0},
        {86400.0, 6.4e8, 128, 0, 54321.0},
        {42.25, 1.25e4, 1, 0, 999.75},
        {7200.0, 9.6e6, 0, 2, 3600.0},  // GPU job (GPU nodes only)
    };
    return usages;
}

const std::vector<BaselineRow>& baseline_rows();

TEST(AccountantRegistry, PaperChargesBitIdenticalToPreRedesignBaseline) {
    ASSERT_EQ(baseline_rows().size(), 215u);
    std::size_t checked = 0;
    for (const auto& spec : ac::paper_accountants()) {
        const auto accountant = ac::AccountantRegistry::global().make(spec);
        for (const auto& row : baseline_rows()) {
            if (spec.name != row.method) continue;
            const auto& entry = mc::find(row.machine);
            const auto& usage = baseline_usages()[row.usage];
            SCOPED_TRACE(spec.name + "/" + row.machine + "/usage" +
                         std::to_string(row.usage));
            EXPECT_EQ(accountant->charge(usage, entry), row.expected);
            ++checked;
        }
    }
    EXPECT_EQ(checked, baseline_rows().size());  // every row names a method
}

// ----------------------------------- registry accountants end-to-end in runs
const sm::BatchSimulator& shared_simulator() {
    static const sm::BatchSimulator simulator = [] {
        wl::TraceOptions o;
        o.base_jobs = 2000;
        o.users = 50;
        o.span_days = 6.0;
        o.seed = 33;
        return sm::BatchSimulator(wl::build_workload(o));
    }();
    return simulator;
}

TEST(SpecPricing, CompositeAccountantsRunEndToEnd) {
    for (const auto& spec : ac::beyond_paper_accountants()) {
        sm::SimOptions o;
        o.pricing = spec;
        const auto r = shared_simulator().run(o);
        EXPECT_EQ(r.jobs_completed + r.jobs_skipped,
                  shared_simulator().workload().jobs.size())
            << spec.name;
        EXPECT_GT(r.jobs_completed, 0u) << spec.name;
        EXPECT_GT(r.total_cost, 0.0) << spec.name;
    }
}

TEST(SpecPricing, SweepAxisMatchesDirectRunsAndLabels) {
    sm::SweepGrid grid;
    grid.pricings = {ac::AccountantSpec{"EBA", {}},
                     ac::AccountantSpec{"CarbonTax", {{"rate", 0.02}}}};
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].label, "Greedy/EBA");
    EXPECT_EQ(specs[1].label, "Greedy/CarbonTax(rate=0.02)");
    EXPECT_EQ(specs[0].options.pricing, (ac::AccountantSpec{"EBA", {}}));
    EXPECT_DOUBLE_EQ(specs[1].options.pricing.param("rate", 0.0), 0.02);

    sm::SweepRunner runner(shared_simulator(), 2);
    const auto outcomes = runner.run(specs);
    ASSERT_EQ(outcomes.size(), 2u);
    sm::SimOptions direct;
    direct.pricing = ac::AccountantSpec{"CarbonTax", {{"rate", 0.02}}};
    expect_identical(outcomes[1].result, shared_simulator().run(direct));
}

// ------------------------------------------------------- custom accountants
/// A user-defined method: a flat money bill — euros per core-hour plus
/// euros per kWh.
class FlatBillAccounting final : public ac::Accountant {
public:
    FlatBillAccounting(double eur_per_core_hour, double eur_per_kwh)
        : eur_per_core_hour_(eur_per_core_hour), eur_per_kwh_(eur_per_kwh) {}

    double charge(const ac::JobUsage& usage,
                  const mc::CatalogEntry& m) const override {
        return eur_per_core_hour_ * runtime_.charge(usage, m) +
               eur_per_kwh_ * usage.energy_j / 3.6e6;
    }
    std::string_view name() const noexcept override { return "FlatBill"; }
    std::string_view unit() const noexcept override { return "EUR"; }

private:
    double eur_per_core_hour_;
    double eur_per_kwh_;
    ac::RuntimeAccounting runtime_;
};

TEST(CustomAccountant, RegisteredMethodRunsThroughSimulatorAndSweep) {
    auto& registry = ac::AccountantRegistry::global();
    if (!registry.contains("FlatBill")) {
        registry.register_accountant(
            "FlatBill", [](const ac::AccountantSpec& s) {
                return std::make_unique<FlatBillAccounting>(
                    s.param("core_hour", 0.05), s.param("kwh", 0.30));
            });
    }

    sm::SimOptions o;
    o.pricing = ac::AccountantSpec{"FlatBill", {{"kwh", 0.45}}};
    const auto direct = shared_simulator().run(o);
    EXPECT_EQ(direct.jobs_completed + direct.jobs_skipped,
              shared_simulator().workload().jobs.size());

    // And by name through the sweep engine, bit-identical to the direct run.
    sm::SweepGrid grid;
    grid.pricings = {ac::AccountantSpec{"FlatBill", {{"kwh", 0.45}}}};
    sm::SweepRunner runner(shared_simulator(), 2);
    const auto outcomes = runner.run(grid);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].spec.label, "Greedy/FlatBill(kwh=0.45)");
    expect_identical(outcomes[0].result, direct);
}

// ------------------------------------------ bound forms (Accountant::bind)
// Every bound charge must be the entry form's double, bit for bit, and
// every bad usage the entry form's PreconditionError.

/// Every builtin, with each parameter that changes the arithmetic.
std::vector<ac::AccountantSpec> bound_specs() {
    return {
        {"Runtime", {}},
        {"Energy", {}},
        {"Peak", {}},
        {"EBA", {}},
        {"EBA", {{"beta", 0.5}}},
        {"EBA", {{"pue", 1.0}}},
        {"CBA", {}},
        {"CBA", {{"depreciation", 1.0}}},
        {"Blended", {}},
        {"Blended", {{"core_weight", 2.0}, {"carbon_weight", 0.25}}},
        {"Blended", {{"depreciation", 1.0}}},
        {"CarbonTax", {}},
        {"CarbonTax", {{"rate", 0.02}, {"depreciation", 1.0}}},
    };
}

/// The Fig-7 regional traces the simulator builds for its default
/// deployment.
std::map<std::string, ga::carbon::IntensityTrace> regional_traces() {
    sm::SimOptions o;
    o.regional_grids = true;
    auto traces = sm::resolve_run(o, sm::default_clusters()).grid_traces;
    EXPECT_FALSE(traces.empty());
    return traces;
}

/// Seeded usages: CPU jobs, and GPU jobs of 1..8 devices (a machine prices
/// only those within its GPU count). Half are priced inside the 30-day
/// grid traces, half past their end.
std::vector<ac::JobUsage> random_usages(std::size_t n) {
    std::mt19937_64 rng(0xB0D4D);
    std::uniform_real_distribution<double> duration(0.0, 2.0 * 86400.0);
    std::uniform_real_distribution<double> watts(0.0, 4000.0);
    std::uniform_real_distribution<double> inside(0.0, 30.0 * 86400.0);
    std::uniform_real_distribution<double> past(30.0 * 86400.0, 90.0 * 86400.0);
    std::uniform_int_distribution<int> cores(1, 512);
    std::uniform_int_distribution<int> gpus(1, 8);
    std::vector<ac::JobUsage> usages(n);
    for (std::size_t i = 0; i < n; ++i) {
        ac::JobUsage& u = usages[i];
        u.duration_s = duration(rng);
        u.energy_j = u.duration_s * watts(rng);
        if (i % 4 == 3) {
            u.cores = 0;
            u.gpus = gpus(rng);
        } else {
            u.cores = cores(rng);
        }
        u.priced_at_s = i % 2 == 0 ? inside(rng) : past(rng);
    }
    return usages;
}

/// Charges every usage a machine can price through both forms; returns the
/// number of pairs compared.
std::size_t expect_bound_matches_entry_form(
    const ac::Accountant& accountant, const ac::BoundAccountant& bound,
    std::span<const mc::CatalogEntry> entries,
    std::span<const ac::JobUsage> usages) {
    std::size_t compared = 0;
    for (std::size_t c = 0; c < entries.size(); ++c) {
        for (std::size_t i = 0; i < usages.size(); ++i) {
            if (usages[i].gpus > entries[c].node.gpu_count) continue;
            const double want = accountant.charge(usages[i], entries[c]);
            const double got = bound.charge(usages[i], c);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(want))
                << accountant.name() << " on " << entries[c].node.name
                << ", usage " << i << ": " << got << " vs " << want;
            ++compared;
        }
    }
    return compared;
}

TEST(BoundPricer, EveryBuiltinMatchesItsEntryFormBitForBit) {
    const auto& entries = mc::catalog();
    ASSERT_EQ(entries.size(), 10u);
    const auto usages = random_usages(1200);
    const auto traces = regional_traces();
    for (const auto& spec : bound_specs()) {
        SCOPED_TRACE(spec.label());
        const auto plain = ac::AccountantRegistry::global().make(spec);
        const std::unique_ptr<const ac::Accountant> gridded =
            plain->with_grid(traces);
        for (const ac::Accountant* a : {plain.get(), gridded.get()}) {
            if (a == nullptr) continue;  // grid-blind: no gridded copy
            const auto bound = a->bind(entries);
            EXPECT_GT(expect_bound_matches_entry_form(*a, *bound, entries, usages),
                      9000u);
        }
    }
}

TEST(BoundPricer, CarbonMeterTermsMatchTheEntryForm) {
    // The simulator meters carbon through the bound CBA's separate terms.
    const auto& entries = mc::catalog();
    const auto usages = random_usages(1000);
    const ac::CarbonBasedAccounting cba(regional_traces());
    const ac::BoundCarbonAccounting bound = cba.bind_carbon(entries);
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    for (std::size_t c = 0; c < entries.size(); ++c) {
        for (const auto& u : usages) {
            if (u.gpus > entries[c].node.gpu_count) continue;
            EXPECT_EQ(bits(bound.operational_g(u, c)),
                      bits(cba.operational_g(u, entries[c])));
            EXPECT_EQ(bits(bound.embodied_g(u, c)),
                      bits(cba.embodied_g(u, entries[c])));
            EXPECT_EQ(bits(bound.operational_g(u, c) + bound.embodied_g(u, c)),
                      bits(cba.charge(u, entries[c])));
            EXPECT_EQ(bits(bound.intensity_at(c, u.priced_at_s)),
                      bits(cba.intensity_at(entries[c], u.priced_at_s)));
        }
    }
}

TEST(BoundPricer, HexfloatBaselineThroughBind) {
    const auto& entries = mc::catalog();
    std::size_t checked = 0;
    for (const auto& spec : ac::paper_accountants()) {
        // Energy and Peak forward to the accountant, which must outlive them.
        const auto accountant = ac::AccountantRegistry::global().make(spec);
        const auto bound = accountant->bind(entries);
        for (const auto& row : baseline_rows()) {
            if (spec.name != row.method) continue;
            const auto it = std::find_if(
                entries.begin(), entries.end(),
                [&](const mc::CatalogEntry& e) { return e.node.name == row.machine; });
            ASSERT_NE(it, entries.end()) << row.machine;
            const auto c = static_cast<std::size_t>(it - entries.begin());
            SCOPED_TRACE(spec.name + "/" + row.machine + "/usage" +
                         std::to_string(row.usage));
            EXPECT_EQ(bound->charge(baseline_usages()[row.usage], c),
                      row.expected);
            ++checked;
        }
    }
    EXPECT_EQ(checked, baseline_rows().size());
}

TEST(BoundPricer, BadUsagesThrowTheSamePreconditionErrorThroughBothForms) {
    const auto& entries = mc::catalog();
    const auto desktop = static_cast<std::size_t>(
        &mc::find(mc::CatalogId::Desktop) - entries.data());
    const auto a100 = static_cast<std::size_t>(
        &mc::find(mc::CatalogId::A100Node) - entries.data());
    ac::JobUsage ok{100.0, 1.0e5, 4, 0, 0.0};
    std::vector<std::pair<ac::JobUsage, std::size_t>> bad;
    ac::JobUsage u = ok;
    u.duration_s = -1.0;
    bad.emplace_back(u, desktop);
    u = ok;
    u.energy_j = -1.0;
    bad.emplace_back(u, desktop);
    u = ok;
    u.cores = -2;
    bad.emplace_back(u, desktop);
    u = ok;
    u.cores = 0;
    bad.emplace_back(u, desktop);
    u = ok;
    u.gpus = 1;  // Desktop has no GPUs
    bad.emplace_back(u, desktop);
    u = ok;
    u.gpus = entries[a100].node.gpu_count + 1;
    bad.emplace_back(u, a100);
    u = ok;
    u.gpus = -1;
    bad.emplace_back(u, a100);

    const auto message = [](const auto& charge) {
        try {
            (void)charge();
        } catch (const ga::util::PreconditionError& e) {
            return std::string(e.what());
        }
        return std::string("(no throw)");
    };
    for (const auto& spec : bound_specs()) {
        SCOPED_TRACE(spec.label());
        const auto a = ac::AccountantRegistry::global().make(spec);
        const auto bound = a->bind(entries);
        for (std::size_t i = 0; i < bad.size(); ++i) {
            const auto& [usage, c] = bad[i];
            const std::string want =
                message([&] { return a->charge(usage, entries[c]); });
            EXPECT_NE(want, "(no throw)") << "bad usage " << i;
            EXPECT_EQ(message([&] { return bound->charge(usage, c); }), want)
                << "bad usage " << i;
        }
    }
}

TEST(BoundPricer, AccountantWithoutBindOverrideForwardsToItsCharge) {
    auto& registry = ac::AccountantRegistry::global();
    if (!registry.contains("FlatBill")) {
        registry.register_accountant(
            "FlatBill", [](const ac::AccountantSpec& s) {
                return std::make_unique<FlatBillAccounting>(
                    s.param("core_hour", 0.05), s.param("kwh", 0.30));
            });
    }
    const auto a =
        registry.make(ac::AccountantSpec{"FlatBill", {{"kwh", 0.45}}});
    std::unique_ptr<const ac::BoundAccountant> bound;
    {
        // The default form copies the entries: the span may go away.
        const std::vector<mc::CatalogEntry> entries = mc::catalog();
        bound = a->bind(entries);
    }
    const auto usages = random_usages(1000);
    EXPECT_GT(expect_bound_matches_entry_form(*a, *bound, mc::catalog(), usages),
              8000u);
}

TEST(BoundPricer, BoundCarbonOutlivesItsAccountantAndSurvivesMoves) {
    const auto& entries = mc::catalog();
    const auto usages = random_usages(200);
    const ac::CarbonBasedAccounting reference(regional_traces());
    std::unique_ptr<const ac::BoundAccountant> bound;
    {
        const auto gridded = ac::AccountantRegistry::global()
                                 .make(ac::AccountantSpec{"CBA", {}})
                                 ->with_grid(regional_traces());
        bound = gridded->bind(entries);
    }
    EXPECT_GT(expect_bound_matches_entry_form(reference, *bound, entries, usages),
              1500u);

    // A RunSetup's meter shares its own traces: moving the setup, or moving
    // its grid_traces out as ga-serve does, leaves it valid.
    sm::SimOptions o;
    o.regional_grids = true;
    sm::RunSetup setup = sm::resolve_run(o, sm::default_clusters());
    const auto deployed = sm::cluster_entries(sm::default_clusters());
    sm::RunSetup moved = std::move(setup);
    const auto traces = std::move(moved.grid_traces);
    const ac::CarbonBasedAccounting deployed_reference(traces);
    EXPECT_GT(expect_bound_matches_entry_form(deployed_reference, moved.carbon,
                                              deployed, usages),
              500u);
}

TEST(BoundPricer, FourThreadsChargeOneSharedBoundPricer) {
    const auto& entries = mc::catalog();
    const auto usages = random_usages(1000);
    const auto accountant =
        ac::AccountantRegistry::global()
            .make(ac::AccountantSpec{"Blended", {}})
            ->with_grid(regional_traces());
    const auto bound = accountant->bind(entries);
    std::vector<double> expected;
    for (std::size_t c = 0; c < entries.size(); ++c) {
        for (const auto& u : usages) {
            expected.push_back(u.gpus > entries[c].node.gpu_count
                                   ? 0.0
                                   : accountant->charge(u, entries[c]));
        }
    }
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 5; ++round) {
                for (std::size_t c = 0; c < entries.size(); ++c) {
                    // Each thread walks the clusters from a different start.
                    const std::size_t k =
                        (c + static_cast<std::size_t>(t)) % entries.size();
                    for (std::size_t i = 0; i < usages.size(); ++i) {
                        if (usages[i].gpus > entries[k].node.gpu_count) continue;
                        const double got = bound->charge(usages[i], k);
                        if (std::bit_cast<std::uint64_t>(got) !=
                            std::bit_cast<std::uint64_t>(
                                expected[k * usages.size() + i])) {
                            mismatches.fetch_add(1, std::memory_order_relaxed);
                        }
                    }
                }
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0u);
}

// ------------------------------------- dual-budget (core-hours AND gCO2e)
sm::CurrencyBudget core_hours(double budget) {
    return sm::CurrencyBudget{"core-hours", ac::AccountantSpec{"Runtime", {}},
                              budget};
}
sm::CurrencyBudget carbon_credits(double budget) {
    return sm::CurrencyBudget{"gCO2e", ac::AccountantSpec{"CBA", {}}, budget};
}

TEST(DualBudget, UnlimitedCurrenciesMatchTheSingleBudgetRunExactly) {
    // Metering two unlimited currencies must not perturb scheduling: every
    // SimResult field outside currency_spent is bit-identical.
    sm::SimOptions plain;
    sm::SimOptions metered;
    metered.currency_budgets = {core_hours(0.0), carbon_credits(0.0)};
    const auto a = shared_simulator().run(plain);
    auto b = shared_simulator().run(metered);
    ASSERT_EQ(b.currency_spent.size(), 2u);
    EXPECT_GT(b.currency_spent.at("core-hours"), 0.0);
    EXPECT_GT(b.currency_spent.at("gCO2e"), 0.0);
    b.currency_spent.clear();
    expect_identical(a, b);
}

TEST(DualBudget, TheBindingCurrencyGatesAdmission) {
    // Full-run spends in each currency, from an unconstrained metered run.
    sm::SimOptions metered;
    metered.currency_budgets = {core_hours(0.0), carbon_credits(0.0)};
    const auto full = shared_simulator().run(metered);
    const double full_ch = full.currency_spent.at("core-hours");
    const double full_g = full.currency_spent.at("gCO2e");

    // Carbon-poor: generous core-hours, tight carbon. The carbon budget must
    // bind (spent ≈ its cap while core-hours stay under their generous cap),
    // and work completed must drop versus the unconstrained run.
    sm::SimOptions poor;
    poor.currency_budgets = {core_hours(full_ch * 2.0),
                             carbon_credits(full_g * 0.3)};
    const auto r = shared_simulator().run(poor);
    EXPECT_LT(r.jobs_completed, full.jobs_completed);
    EXPECT_GT(r.jobs_skipped, full.jobs_skipped);
    EXPECT_LE(r.currency_spent.at("gCO2e"), full_g * 0.3 + 1e-9);
    EXPECT_LT(r.currency_spent.at("core-hours"), full_ch * 2.0);

    // Both generous -> nothing binds, identical to the unconstrained run.
    sm::SimOptions rich;
    rich.currency_budgets = {core_hours(full_ch * 2.0),
                             carbon_credits(full_g * 2.0)};
    const auto rr = shared_simulator().run(rich);
    EXPECT_EQ(rr.jobs_completed, full.jobs_completed);
    EXPECT_EQ(rr.currency_spent, full.currency_spent);
}

TEST(DualBudget, SweepParallelBitIdenticalToSerial) {
    // The acceptance bar: dual-budget scenarios through BatchSimulator +
    // SweepRunner, parallel results bit-identical to serial.
    sm::SimOptions metered;
    metered.currency_budgets = {core_hours(0.0), carbon_credits(0.0)};
    const auto full = shared_simulator().run(metered);
    const double full_ch = full.currency_spent.at("core-hours");
    const double full_g = full.currency_spent.at("gCO2e");

    std::vector<sm::ScenarioSpec> specs;
    for (const char* policy : {"Greedy", "EFT"}) {
        for (const double carbon_frac : {0.25, 0.5, 1.0}) {
            sm::ScenarioSpec spec;
            spec.label = std::string(policy) + "/carbon=" +
                         std::to_string(carbon_frac);
            spec.options.policy = sm::PolicySpec{policy, {}};
            spec.options.currency_budgets = {
                core_hours(full_ch), carbon_credits(full_g * carbon_frac)};
            specs.push_back(std::move(spec));
        }
    }
    sm::SweepRunner runner(shared_simulator(), 4);
    const auto parallel = runner.run(specs);
    const auto serial = runner.run_serial(specs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].label);
        expect_identical(parallel[i].result, serial[i].result);
        EXPECT_EQ(parallel[i].result.currency_spent.size(), 2u);
    }
}

TEST(DualBudget, InvalidCurrencyConfigsAreRejected) {
    sm::SimOptions o;
    o.currency_budgets = {core_hours(10.0), core_hours(20.0)};  // duplicate
    EXPECT_THROW((void)shared_simulator().run(o), ga::util::PreconditionError);
    o.currency_budgets = {
        sm::CurrencyBudget{"", ac::AccountantSpec{"CBA", {}}, 1.0}};
    EXPECT_THROW((void)shared_simulator().run(o), ga::util::PreconditionError);
    o.currency_budgets = {core_hours(-1.0)};
    EXPECT_THROW((void)shared_simulator().run(o), ga::util::PreconditionError);
    o.currency_budgets = {
        sm::CurrencyBudget{"x", ac::AccountantSpec{"NoSuchMethod", {}}, 1.0}};
    EXPECT_THROW((void)shared_simulator().run(o), ga::util::RuntimeError);
}

const std::vector<BaselineRow>& baseline_rows() {
    static const std::vector<BaselineRow> rows = {
{"Runtime", "Desktop", 0, 0x1p+2},
{"Runtime", "Desktop", 1, 0x1.85c28f5c28f5cp+3},
{"Runtime", "Desktop", 2, 0x1.8p+11},
{"Runtime", "Desktop", 3, 0x1.8091a2b3c4d5ep-7},
{"Runtime", "Cascade Lake", 0, 0x1p+2},
{"Runtime", "Cascade Lake", 1, 0x1.85c28f5c28f5cp+3},
{"Runtime", "Cascade Lake", 2, 0x1.8p+11},
{"Runtime", "Cascade Lake", 3, 0x1.8091a2b3c4d5ep-7},
{"Runtime", "Ice Lake", 0, 0x1p+2},
{"Runtime", "Ice Lake", 1, 0x1.85c28f5c28f5cp+3},
{"Runtime", "Ice Lake", 2, 0x1.8p+11},
{"Runtime", "Ice Lake", 3, 0x1.8091a2b3c4d5ep-7},
{"Runtime", "Zen3", 0, 0x1p+2},
{"Runtime", "Zen3", 1, 0x1.85c28f5c28f5cp+3},
{"Runtime", "Zen3", 2, 0x1.8p+11},
{"Runtime", "Zen3", 3, 0x1.8091a2b3c4d5ep-7},
{"Runtime", "FASTER", 0, 0x1p+2},
{"Runtime", "FASTER", 1, 0x1.85c28f5c28f5cp+3},
{"Runtime", "FASTER", 2, 0x1.8p+11},
{"Runtime", "FASTER", 3, 0x1.8091a2b3c4d5ep-7},
{"Runtime", "IC", 0, 0x1p+2},
{"Runtime", "IC", 1, 0x1.85c28f5c28f5cp+3},
{"Runtime", "IC", 2, 0x1.8p+11},
{"Runtime", "IC", 3, 0x1.8091a2b3c4d5ep-7},
{"Runtime", "Theta", 0, 0x1p+2},
{"Runtime", "Theta", 1, 0x1.85c28f5c28f5cp+3},
{"Runtime", "Theta", 2, 0x1.8p+11},
{"Runtime", "Theta", 3, 0x1.8091a2b3c4d5ep-7},
{"Runtime", "P100", 0, 0x1p+2},
{"Runtime", "P100", 1, 0x1.85c28f5c28f5cp+3},
{"Runtime", "P100", 2, 0x1.8p+11},
{"Runtime", "P100", 3, 0x1.8091a2b3c4d5ep-7},
{"Runtime", "P100", 4, 0x1p+2},
{"Runtime", "V100", 0, 0x1p+2},
{"Runtime", "V100", 1, 0x1.85c28f5c28f5cp+3},
{"Runtime", "V100", 2, 0x1.8p+11},
{"Runtime", "V100", 3, 0x1.8091a2b3c4d5ep-7},
{"Runtime", "V100", 4, 0x1p+2},
{"Runtime", "A100", 0, 0x1p+2},
{"Runtime", "A100", 1, 0x1.85c28f5c28f5cp+3},
{"Runtime", "A100", 2, 0x1.8p+11},
{"Runtime", "A100", 3, 0x1.8091a2b3c4d5ep-7},
{"Runtime", "A100", 4, 0x1p+2},
{"Energy", "Desktop", 0, 0x1.b774p+20},
{"Energy", "Desktop", 1, 0x1.a0fep+18},
{"Energy", "Desktop", 2, 0x1.312dp+29},
{"Energy", "Desktop", 3, 0x1.86ap+13},
{"Energy", "Cascade Lake", 0, 0x1.b774p+20},
{"Energy", "Cascade Lake", 1, 0x1.a0fep+18},
{"Energy", "Cascade Lake", 2, 0x1.312dp+29},
{"Energy", "Cascade Lake", 3, 0x1.86ap+13},
{"Energy", "Ice Lake", 0, 0x1.b774p+20},
{"Energy", "Ice Lake", 1, 0x1.a0fep+18},
{"Energy", "Ice Lake", 2, 0x1.312dp+29},
{"Energy", "Ice Lake", 3, 0x1.86ap+13},
{"Energy", "Zen3", 0, 0x1.b774p+20},
{"Energy", "Zen3", 1, 0x1.a0fep+18},
{"Energy", "Zen3", 2, 0x1.312dp+29},
{"Energy", "Zen3", 3, 0x1.86ap+13},
{"Energy", "FASTER", 0, 0x1.b774p+20},
{"Energy", "FASTER", 1, 0x1.a0fep+18},
{"Energy", "FASTER", 2, 0x1.312dp+29},
{"Energy", "FASTER", 3, 0x1.86ap+13},
{"Energy", "IC", 0, 0x1.b774p+20},
{"Energy", "IC", 1, 0x1.a0fep+18},
{"Energy", "IC", 2, 0x1.312dp+29},
{"Energy", "IC", 3, 0x1.86ap+13},
{"Energy", "Theta", 0, 0x1.b774p+20},
{"Energy", "Theta", 1, 0x1.a0fep+18},
{"Energy", "Theta", 2, 0x1.312dp+29},
{"Energy", "Theta", 3, 0x1.86ap+13},
{"Energy", "P100", 0, 0x1.b774p+20},
{"Energy", "P100", 1, 0x1.a0fep+18},
{"Energy", "P100", 2, 0x1.312dp+29},
{"Energy", "P100", 3, 0x1.86ap+13},
{"Energy", "P100", 4, 0x1.24f8p+23},
{"Energy", "V100", 0, 0x1.b774p+20},
{"Energy", "V100", 1, 0x1.a0fep+18},
{"Energy", "V100", 2, 0x1.312dp+29},
{"Energy", "V100", 3, 0x1.86ap+13},
{"Energy", "V100", 4, 0x1.24f8p+23},
{"Energy", "A100", 0, 0x1.b774p+20},
{"Energy", "A100", 1, 0x1.a0fep+18},
{"Energy", "A100", 2, 0x1.312dp+29},
{"Energy", "A100", 3, 0x1.86ap+13},
{"Energy", "A100", 4, 0x1.24f8p+23},
{"Peak", "Desktop", 0, 0x1.7333333333333p+3},
{"Peak", "Desktop", 1, 0x1.1a9374bc6a7fp+5},
{"Peak", "Desktop", 2, 0x1.1666666666666p+13},
{"Peak", "Desktop", 3, 0x1.16cffc5beeb4bp-5},
{"Peak", "Cascade Lake", 0, 0x1.2p+3},
{"Peak", "Cascade Lake", 1, 0x1.b67ae147ae148p+4},
{"Peak", "Cascade Lake", 2, 0x1.bp+12},
{"Peak", "Cascade Lake", 3, 0x1.b0a3d70a3d70ap-6},
{"Peak", "Ice Lake", 0, 0x1.399999999999ap+3},
{"Peak", "Ice Lake", 1, 0x1.dd74bc6a7ef9ep+4},
{"Peak", "Ice Lake", 2, 0x1.d666666666666p+12},
{"Peak", "Ice Lake", 3, 0x1.d718cdb5d11fap-6},
{"Peak", "Zen3", 0, 0x1.4666666666666p+3},
{"Peak", "Zen3", 1, 0x1.f0f1a9fbe76c9p+4},
{"Peak", "Zen3", 2, 0x1.e99999999999ap+12},
{"Peak", "Zen3", 3, 0x1.ea53490b9af72p-6},
{"Peak", "FASTER", 0, 0x1.3333333333333p+3},
{"Peak", "FASTER", 1, 0x1.d3b645a1cac08p+4},
{"Peak", "FASTER", 2, 0x1.ccccccccccccdp+12},
{"Peak", "FASTER", 3, 0x1.cd7b900aec33dp-6},
{"Peak", "IC", 0, 0x1.2p+3},
{"Peak", "IC", 1, 0x1.b67ae147ae148p+4},
{"Peak", "IC", 2, 0x1.bp+12},
{"Peak", "IC", 3, 0x1.b0a3d70a3d70ap-6},
{"Peak", "Theta", 0, 0x1.199999999999ap+2},
{"Peak", "Theta", 1, 0x1.acbc6a7ef9db2p+3},
{"Peak", "Theta", 2, 0x1.a666666666666p+11},
{"Peak", "Theta", 3, 0x1.a706995f5884ep-7},
{"Peak", "P100", 0, 0x1p+3},
{"Peak", "P100", 1, 0x1.85c28f5c28f5cp+4},
{"Peak", "P100", 2, 0x1.8p+12},
{"Peak", "P100", 3, 0x1.8091a2b3c4d5ep-6},
{"Peak", "P100", 4, 0x1.acccccccccccdp+4},
{"Peak", "V100", 0, 0x1p+3},
{"Peak", "V100", 1, 0x1.85c28f5c28f5cp+4},
{"Peak", "V100", 2, 0x1.8p+12},
{"Peak", "V100", 3, 0x1.8091a2b3c4d5ep-6},
{"Peak", "V100", 4, 0x1.cp+5},
{"Peak", "A100", 0, 0x1p+3},
{"Peak", "A100", 1, 0x1.85c28f5c28f5cp+4},
{"Peak", "A100", 2, 0x1.8p+12},
{"Peak", "A100", 3, 0x1.8091a2b3c4d5ep-6},
{"Peak", "A100", 4, 0x1.2p+6},
{"EBA", "Desktop", 0, 0x1.c5bc4p+19},
{"EBA", "Desktop", 1, 0x1.27799p+18},
{"EBA", "Desktop", 2, 0x1.46996p+28},
{"EBA", "Desktop", 3, 0x1.8bfd2p+12},
{"EBA", "Cascade Lake", 0, 0x1.d57b8p+19},
{"EBA", "Cascade Lake", 1, 0x1.875fep+18},
{"EBA", "Cascade Lake", 2, 0x1.5e384p+28},
{"EBA", "Cascade Lake", 3, 0x1.91e7155555555p+12},
{"EBA", "Ice Lake", 0, 0x1.cf2fp+19},
{"EBA", "Ice Lake", 1, 0x1.6103cp+18},
{"EBA", "Ice Lake", 2, 0x1.54c58p+28},
{"EBA", "Ice Lake", 3, 0x1.8f898p+12},
{"EBA", "Zen3", 0, 0x1.c6d58p+19},
{"EBA", "Zen3", 1, 0x1.2e2a6p+18},
{"EBA", "Zen3", 2, 0x1.483f4p+28},
{"EBA", "Zen3", 3, 0x1.8c66cp+12},
{"EBA", "FASTER", 0, 0x1.cdf9ap+19},
{"EBA", "FASTER", 1, 0x1.59a7a8p+18},
{"EBA", "FASTER", 2, 0x1.52f57p+28},
{"EBA", "FASTER", 3, 0x1.8f155p+12},
{"EBA", "IC", 0, 0x1.d57b8p+19},
{"EBA", "IC", 1, 0x1.875fep+18},
{"EBA", "IC", 2, 0x1.5e384p+28},
{"EBA", "IC", 3, 0x1.91e7155555555p+12},
{"EBA", "Theta", 0, 0x1.c3437p+19},
{"EBA", "Theta", 1, 0x1.186bbcp+18},
{"EBA", "Theta", 2, 0x1.42e428p+28},
{"EBA", "Theta", 3, 0x1.8b0f78p+12},
{"EBA", "P100", 0, 0x1.d8698p+19},
{"EBA", "P100", 1, 0x1.99376p+18},
{"EBA", "P100", 2, 0x1.629d4p+28},
{"EBA", "P100", 3, 0x1.9300cp+12},
{"EBA", "P100", 4, 0x1.92d5p+22},
{"EBA", "V100", 0, 0x1.d8698p+19},
{"EBA", "V100", 1, 0x1.99376p+18},
{"EBA", "V100", 2, 0x1.629d4p+28},
{"EBA", "V100", 3, 0x1.9300cp+12},
{"EBA", "V100", 4, 0x1.92d5p+22},
{"EBA", "A100", 0, 0x1.d8698p+19},
{"EBA", "A100", 1, 0x1.99376p+18},
{"EBA", "A100", 2, 0x1.629d4p+28},
{"EBA", "A100", 3, 0x1.9300cp+12},
{"EBA", "A100", 4, 0x1.d4cp+22},
{"CBA", "Desktop", 0, 0x1.c830c98baf508p+7},
{"CBA", "Desktop", 1, 0x1.c97a0d27a2fdep+5},
{"CBA", "Desktop", 2, 0x1.3e904ac34e153p+16},
{"CBA", "Desktop", 3, 0x1.9460d43994544p+0},
{"CBA", "Cascade Lake", 0, 0x1.c71a15d95ce97p+7},
{"CBA", "Cascade Lake", 1, 0x1.bc377635ea876p+5},
{"CBA", "Cascade Lake", 2, 0x1.3cee3d37d27aap+16},
{"CBA", "Cascade Lake", 3, 0x1.93f829337b124p+0},
{"CBA", "Ice Lake", 0, 0x1.c9f27a4346807p+7},
{"CBA", "Ice Lake", 1, 0x1.dedf477d5eb16p+5},
{"CBA", "Ice Lake", 2, 0x1.4132d3d6b0dd1p+16},
{"CBA", "Ice Lake", 3, 0x1.9509b673266c8p+0},
{"CBA", "Zen3", 0, 0x1.cc29bb44086aap+7},
{"CBA", "Zen3", 1, 0x1.f9dc6e95f4bcp+5},
{"CBA", "Zen3", 2, 0x1.4485b557d3bc6p+16},
{"CBA", "Zen3", 3, 0x1.95debf8084de1p+0},
{"CBA", "FASTER", 0, 0x1.924e51d39474ep+7},
{"CBA", "FASTER", 1, 0x1.09978fe7cf7f1p+6},
{"CBA", "FASTER", 2, 0x1.221908f6423d8p+16},
{"CBA", "FASTER", 3, 0x1.5ec65f956eef9p+0},
{"CBA", "IC", 0, 0x1.c89f59ea65d6cp+7},
{"CBA", "IC", 1, 0x1.cebcb8618f948p+5},
{"CBA", "IC", 2, 0x1.3f3623515fde9p+16},
{"CBA", "IC", 3, 0x1.948a5a169b6ffp+0},
{"CBA", "Theta", 0, 0x1.f6401317bb4b5p+7},
{"CBA", "Theta", 1, 0x1.df64098b6eeebp+5},
{"CBA", "Theta", 2, 0x1.5cfc8e6ab562cp+16},
{"CBA", "Theta", 3, 0x1.be50f3d40180fp+0},
{"CBA", "P100", 0, 0x1.baa8d8e36457dp+4},
{"CBA", "P100", 1, 0x1.3acd18eba958cp+3},
{"CBA", "P100", 2, 0x1.426f0c71884adp+13},
{"CBA", "P100", 3, 0x1.7fe586eddc4c3p-3},
{"CBA", "P100", 4, 0x1.3ffc5c71735a4p+7},
{"CBA", "V100", 0, 0x1.df5cbe589e969p+4},
{"CBA", "V100", 1, 0x1.0d290d8f44bffp+4},
{"CBA", "V100", 2, 0x1.797ce4a15fa9p+13},
{"CBA", "V100", 3, 0x1.8dae3547f74abp-3},
{"CBA", "V100", 4, 0x1.6a252bb51eb0ap+7},
{"CBA", "A100", 0, 0x1.59340aa92ba01p+5},
{"CBA", "A100", 1, 0x1.c7e526b850a4bp+5},
{"CBA", "A100", 2, 0x1.5b06f38bfa53ap+14},
{"CBA", "A100", 3, 0x1.dcf079c90575ep-3},
{"CBA", "A100", 4, 0x1.48d5f6edcfa7p+8},
    };
    return rows;
}

}  // namespace
