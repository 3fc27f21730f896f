// Declarative scenario files (JSON) covering the full simulation surface.
//
// A scenario file is the committed, diffable form of one `SweepGrid` plus
// the workload it runs over — every experiment in the repo (and beyond-paper
// combinations: outages, dual budgets, carbon-aware policies) expressed as
// data instead of recompiled C++. The `ga-sim` CLI (tools/) loads one,
// expands the grid, and runs it through the sweep engine.
//
// Schema (all keys optional unless noted; see README for the reference):
//
//   {
//     "name": "fig5-eba",                       // required
//     "description": "...",
//     "workload": {                              // trace generator knobs
//       "base_jobs": 71190, "repetitions": 2, "users": 400,
//       "span_days": 12.0, "seed": 2023,
//       "arrival": "uniform" | "diurnal",        // datacenter-scale arrivals
//       "diurnal_peak_hour": 14.0, "diurnal_amplitude": 0.75,
//       "weekend_factor": 0.35, "burst_fraction": 0.15,
//       "burst_width_s": 120.0, "burst_mean_jobs": 50.0
//     },
//     "options": { ... },   // SimOptions every scenario starts from
//     "grid":    { ... }    // sweep axes overriding options per point
//   }
//
// "options" carries every `SimOptions` field: "policy", "pricing",
// "budget", "regional_grids", "grid_seed", "arrival_compression", "outage"
// ({"cluster", "at_s", "nodes_lost"} or null), and "currency_budgets"
// ([{"currency", "accountant", "budget"}, ...]). "grid" carries every
// `SweepGrid` axis: "policies", "pricings", "budgets", "regional_grids",
// "grid_seeds", "arrival_compressions", "outages"; "policy_specs" and
// "accountant_specs" are accepted as synonyms that append to the
// "policies"/"pricings" axis (that key's entries after the first key's).
//
// Every policy and accountant — in options, grid axes, and currency
// budgets — is a registry spec, written as a bare name ("Greedy"), a label
// string ("Mixed(threshold=1.5)", parsed by ga::util::parse_spec), or
// {"name": ..., "params": {...}}. Each spec is built once through its live
// registry at load time, so unknown names and bad parameters fail here
// with the spec's path; register custom strategies before loading.
//
// Loading is strict: unknown keys, wrong types, unknown names, and
// malformed or unbuildable specs all throw ga::util::RuntimeError naming
// the offending path ("grid.budgets[2]", "options.outage.cluster", ...).
#pragma once

#include <filesystem>
#include <string>

#include "io/json.hpp"
#include "sim/sweep.hpp"
#include "workload/workload.hpp"

namespace ga::io {

/// One loaded scenario file: the grid (axes + base options) and the
/// workload configuration it runs over.
struct ScenarioFile {
    std::string name;
    std::string description;
    ga::workload::TraceOptions workload;
    ga::sim::SweepGrid grid;

    /// Shrinks the workload in place: `base_jobs` is scaled by `factor`
    /// (floored, minimum 1 job). The `ga-sim --scale` override.
    void scale_workload(double factor);
};

/// Maps a parsed document onto the simulation surface. Throws RuntimeError
/// with the offending path on any schema violation.
[[nodiscard]] ScenarioFile scenario_from_json(const JsonValue& root);

/// One policy / accountant spec in any scenario-file form (name, label
/// string, or object), checked against the registry and built once as the
/// loader does. Errors are RuntimeErrors naming `path`.
[[nodiscard]] ga::sim::PolicySpec policy_spec_from_json(
    const JsonValue& v, const std::string& path);
[[nodiscard]] ga::acct::AccountantSpec accountant_spec_from_json(
    const JsonValue& v, const std::string& path);

/// Reads, parses, and maps a scenario file; errors are prefixed with the
/// path.
[[nodiscard]] ScenarioFile load_scenario_file(
    const std::filesystem::path& path);

/// The canonical document for a scenario: every workload and options field
/// explicit, grid axes only when non-empty, specs in object form.
/// `scenario_from_json(scenario_to_json(s))` reproduces `s` exactly, and
/// the canonical form of a loaded file is byte-stable across load cycles.
[[nodiscard]] JsonValue scenario_to_json(const ScenarioFile& scenario);

}  // namespace ga::io
