"""Seeded scenario files of the three benchmark workloads.

Every workload is a pure function of its seed: the seed becomes the scenario
file's workload seed (trace, counters and the session RNG). The sim
workloads are the committed scenarios under examples/scenarios with only the
seed (and for cba_dual the scale) changed. serve_mix's request stream is
drawn from the program's own job model by `perfbench-driver requests`. The
program only ever sees the files written here and by the driver. Why each
workload exists is in README.md.
"""

import json
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent.parent / "examples" / "scenarios"

# The committed scenario seed (the trace generator's default): at this seed
# fig5_eba runs exactly the trace of fig5_eba_policies.json.
COMMITTED_SEED = 2023

# cba_dual: outage_dual_budget.json with jobs and both budgets scaled by the
# same factor, so the sweep outweighs set-up while the admitted share stays
# near the committed scenario's (~43%).
CBA_SCALE = 10

# serve_mix: one closed-loop client replaying SERVE_REQUESTS lines on behalf
# of SERVE_USERS accounts.
SERVE_REQUESTS = 20000
SERVE_USERS = 48

WORKLOADS = ("fig5_eba", "cba_dual", "serve_mix")


def committed(name):
    return json.loads((SCENARIOS / name).read_text())


def fig5_scenario(seed):
    scenario = committed("fig5_eba_policies.json")
    scenario.setdefault("workload", {})["seed"] = seed
    return scenario


def cba_scenario(seed):
    scenario = committed("outage_dual_budget.json")
    scenario["workload"]["base_jobs"] *= CBA_SCALE
    scenario["workload"]["seed"] = seed
    for budget in scenario["options"]["currency_budgets"]:
        budget["budget"] *= CBA_SCALE
    return scenario


def serve_scenario(seed):
    return {
        "name": "serve-mix",
        "workload": {"users": SERVE_USERS, "seed": seed},
        "grid": {"policies": ["Greedy"], "accountant_specs": [{"name": "EBA"}]},
    }


def write_scenario(workload, seed, directory):
    """Writes the workload's scenario file; returns its path."""
    directory.mkdir(parents=True, exist_ok=True)
    scenario = {"fig5_eba": fig5_scenario, "cba_dual": cba_scenario,
                "serve_mix": serve_scenario}[workload](seed)
    path = directory / f"{workload}.scenario.json"
    path.write_text(json.dumps(scenario, indent=1) + "\n")
    return path
