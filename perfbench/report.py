#!/usr/bin/env python3
"""Every end-to-end metric of every workload, in one table.

    python3 perfbench/report.py [--seed 2023] [--seconds 30] [--trace 1]

Runs each workload as perfbench/run.py does and prints, per workload, the
host fingerprint, failed_frac with its base, and each metric's unit,
median, quartiles and sample count. --trace 1 adds the per-layer table of
a traced run. Exits non-zero when any output check fails.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.COMMITTED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    modes = (0, 1) if args.trace else (0,)
    all_correct = True
    try:
        run.build()
        for workload in workloads.WORKLOADS:
            for trace in modes:
                result = run.measure(workload, args.seed, args.seconds, trace)
                all_correct &= result["failed"] == 0
                print("\n".join(run.summary_lines(result)), flush=True)
    except (run.BenchError, OSError) as error:
        run.log(f"perfbench: {error}")
        return 1
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
