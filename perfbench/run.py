#!/usr/bin/env python3
"""The repo benchmark: one workload, measured in cold processes.

    python3 perfbench/run.py --workload fig5_eba --seed 2023 --seconds 30 --trace 0

Builds perfbench-driver (and the ga library) from this checkout under
.bench_build/, writes the workload's seeded inputs, then starts fresh driver
processes one after another until --seconds have passed (at least
MIN_SAMPLES of them). Each process is one cold invocation; every metric is
taken per process and reported as the median over processes.

--trace 0 reports the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced processes and reports the per-layer metrics
from the traced ones' spans (written to .bench_build/perfbench-runs/).
Both modes check the outputs: per-point invariants and, once per run, the
LinearQueues oracle for the sim workloads; the response envelope,
transcript identity, job accounting and backlog drain for serve_mix.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it give the host fingerprint and each
metric's median, quartiles and sample count.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = ROOT / ".bench_build" / "perfbench-runs"
TMP = ROOT / ".bench_build" / "tmp"
DRIVER = BUILD / "perfbench-driver"

MIN_SAMPLES = 3
# Stop starting processes after this long even below MIN_SAMPLES, so that
# a run ends well inside its 180-second limit on a slow commit.
HARD_STOP_S = 120.0
DRIVER_TIMEOUT_S = 150.0
# Sweep threads: fixed, and never more than the host offers.
MAX_SWEEP_THREADS = 4
# serve_mix's backlog counts as drained when the final stats show at most
# this share of its peak still queued.
DRAINED_SHARE = 0.01

# name -> unit. BENCHMARK.json lists the same names (test_perfbench checks).
END_TO_END = {
    "setup_s": "s",
    "e2e_s": "s",
    "jobs_per_s": "1/s",
    "req_per_s": "1/s",
    "p50_us": "us",
    "p99_us": "us",
    "peak_rss_mb": "MB",
}
VERBS = ("submit_jobs", "quote", "balance", "charge", "stats")
PER_LAYER = {
    "kernels.benchmark_points_s": "s",
    "stats.gmm_fit_s": "s",
    "workload.generate_trace_s": "s",
    "workload.synthesize_counters_s": "s",
    "workload.predictor_s": "s",
    "sim.precompute_s": "s",
    "sim.point_s.p50": "s",
    "sim.point_s.max": "s",
    "sim.scans_per_submit": "count",
    "sim.drains_per_submit": "count",
    "sim.admitted_frac": "ratio",
    "sweep.wall_s": "s",
    "sweep.busy_frac": "ratio",
    "sweep.straggler_s": "s",
    "io.load_scenario_s": "s",
    "io.results_json_s": "s",
    "io.results_bytes": "bytes",
    "service.session_init_s": "s",
    **{f"service.{verb}.{q}_us": "us" for verb in VERBS for q in ("p50", "p99")},
    "service.queue_depth_max": "count",
    "service.ledger_history_end": "count",
    "obs.trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (build or driver failure)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the checkout too.
    TMP.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(TMP)}
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          env=env, timeout=600).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr, env=env,
                      timeout=900).returncode != 0:
        raise BenchError("build failed")


def driver(*args):
    """Runs one driver process; returns its JSON report."""
    proc = subprocess.run([str(DRIVER), *map(str, args)], capture_output=True,
                          text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"driver {' '.join(map(str, args))} exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_fingerprint(threads, seed):
    info = driver("host")
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "compiler": info["compiler"], "build_type": info["build_type"],
            "sweep_threads": threads, "seed": seed}


# ---------------------------------------------------------------- metrics

def sim_end_to_end(d):
    # A ga-sim user sends one request, the invocation, and waits e2e_s for
    # its answer: req_per_s and the latency percentiles are per invocation.
    return {
        "setup_s": d["setup_s"],
        "e2e_s": d["e2e_s"],
        "jobs_per_s": d["jobs"] * d["points"] / d["sweep_s"],
        "req_per_s": 1.0 / d["e2e_s"],
        "p50_us": d["e2e_s"] * 1e6,
        "p99_us": d["e2e_s"] * 1e6,
        "peak_rss_mb": d["peak_rss_kb"] / 1024.0,
    }


def serve_end_to_end(d, jobs):
    latency = d["latency_us"]
    if (stats.tail_percentile(len(latency)) or 0.0) < 99.0:
        raise BenchError("serve session too short for a p99")
    return {
        "setup_s": d["setup_s"],
        "e2e_s": d["e2e_s"],
        "jobs_per_s": jobs / d["replay_s"],
        "req_per_s": d["requests"] / d["replay_s"],
        "p50_us": stats.percentile(latency, 50),
        "p99_us": stats.percentile(latency, 99),
        "peak_rss_mb": d["peak_rss_kb"] / 1024.0,
    }


def drained(d):
    """Whether the serve_mix backlog has drained by the final stats."""
    return d["queue_depth_end"] <= DRAINED_SHARE * d["queue_depth_max"]


def read_spans(path):
    """Span durations in seconds, by name, in recording order."""
    spans = {}
    for event in json.loads(Path(path).read_text())["traceEvents"]:
        spans.setdefault(event["name"], []).append(event["dur"] * 1e-6)
    return spans


def layers(d, spans, threads):
    out = dict.fromkeys(PER_LAYER, 0.0)
    one = {name: durations[0] for name, durations in spans.items()}
    out["kernels.benchmark_points_s"] = one["kernels.benchmark_points"]
    out["io.load_scenario_s"] = one["io.load_scenario"]
    if "sweep.run" in one:
        points = spans["sim.point"]
        wall = one["sweep.run"]
        out.update({
            "stats.gmm_fit_s": one["stats.gmm_fit"],
            "workload.generate_trace_s": one["workload.generate_trace"],
            "workload.synthesize_counters_s":
                one["workload.synthesize_counters"],
            "workload.predictor_s": one["workload.predictor"],
            "sim.precompute_s": one["sim.precompute"],
            "sim.point_s.p50": stats.median(points),
            "sim.point_s.max": max(points),
            "sim.scans_per_submit": d["scans"] / d["submits"],
            "sim.drains_per_submit": d["drains"] / d["submits"],
            "sim.admitted_frac": d["started"] / d["submits"],
            "sweep.wall_s": wall,
            "sweep.busy_frac": sum(points) / (threads * wall),
            "sweep.straggler_s": wall - sum(points) / threads,
            "io.results_json_s": one["io.results_json"],
            "io.results_bytes": d["results_bytes"],
        })
    else:
        out["service.session_init_s"] = one["service.session_init"]
        for verb in VERBS:
            latency = [s * 1e6 for s in spans[f"service.{verb}"]]
            out[f"service.{verb}.p50_us"] = stats.percentile(latency, 50)
            out[f"service.{verb}.p99_us"] = stats.percentile(latency, 99)
        out["service.queue_depth_max"] = d["queue_depth_max"]
        out["service.ledger_history_end"] = d["ledger_history_end"]
    return out


# ---------------------------------------------------------------- the run

def measure(workload, seed, seconds, trace):
    """Runs one workload; returns (result, summary) where result holds the
    contract's keys plus per-metric sample lists."""
    threads = min(MAX_SWEEP_THREADS, len(os.sched_getaffinity(0)))
    scenario = workloads.write_scenario(workload, seed, RUNS)
    serve = workload == "serve_mix"
    if serve:
        requests = RUNS / f"{workload}.requests.jsonl"
        jobs = driver("requests", scenario, seed, workloads.SERVE_REQUESTS,
                      requests)["jobs"]
    trace_path = RUNS / f"{workload}.trace.json"

    def one(traced):
        extra = ["--trace", trace_path] if traced else []
        if serve:
            return driver("serve", scenario, requests, *extra)
        return driver("sim", scenario, "--threads", threads, *extra)

    plain, traced = [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(plain) >= MIN_SAMPLES and elapsed >= seconds:
            break
        if plain and elapsed >= HARD_STOP_S:
            break
        plain.append(one(False))
        if trace:
            d = one(True)
            d["layers"] = layers(d, read_spans(trace_path), threads)
            traced.append(d)

    # ---- output checks ----
    reports = plain + traced
    size = "requests" if serve else "points"
    digest = "transcript_hash" if serve else "results_hash"
    attempted = sum(d[size] for d in reports)
    failed = 0
    expected = reports[0][digest]
    if not serve:
        reference = driver("sim-reference", scenario, "--threads", threads)
        attempted += reference["points"]
        failed += reference["failed"]
        expected = reference["results_hash"]
    for d in reports:
        # A process whose bytes differ from the others' (or the oracle's),
        # or whose session lost jobs or never drained its backlog, failed
        # on every operation it ran.
        mismatch = d[digest] != expected or serve and (
            d["jobs_accounted"] != jobs or not drained(d))
        failed += d[size] if mismatch else d["failed"]

    if trace:
        samples = {name: [d["layers"][name] for d in traced]
                   for name in PER_LAYER}
        samples["obs.trace_overhead_frac"] = [
            stats.median([d["e2e_s"] for d in traced]) /
            stats.median([d["e2e_s"] for d in plain]) - 1.0]
        units = PER_LAYER
    else:
        per_process = [serve_end_to_end(d, jobs) if serve else sim_end_to_end(d)
                       for d in plain]
        samples = {name: [m[name] for m in per_process] for name in END_TO_END}
        units = END_TO_END
    return {
        "host": host_fingerprint(threads, seed),
        "workload": workload,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "units": units,
    }


def summary_lines(run):
    lines = [f"host {json.dumps(run['host'], sort_keys=True)}",
             f"workload {run['workload']} trace={run['trace']} "
             f"failed_frac={stats.failed_frac(run['failed'], run['attempted'])}"
             f" ({run['failed']} of {run['attempted']})"]
    for name, values in run["samples"].items():
        q1, q2, q3 = stats.quartiles(values)
        lines.append(f"  {name:34s} {run['units'][name]:6s} median={q2:.6g} "
                     f"q1={q1:.6g} q3={q3:.6g} n={len(values)}")
    return lines


def result_json(run):
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": stats.median(values),
                           "unit": run["units"][name]}
                    for name, values in run["samples"].items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.COMMITTED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        build()
        run = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError) as error:
        log(f"perfbench: {error}")
        return 1
    for line in summary_lines(run):
        print(line)
    print(result_json(run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
