"""Run every workload over ten seeds and summarise, optionally as a baseline.

    python3 perfbench/collect.py --out perfbench/baseline.json

Run from the repository root.  For each workload this runs ``run.py``
once per seed 1..10 with tracing off, and right after each of the first
three seeds once more with tracing on, one process at a time, with
``run_seconds`` from BENCHMARK.json.  It prints the passes per run, each
end-to-end metric's median, quartiles and spread (quartile distance over
the median) next to the metric's bound, ``fail_ratio``, the per-layer
medians and the tracing overhead (median over those seeds of traced
``trace.wall_s`` minus untraced ``wall_s``).  ``--out`` also writes all
of that, with the NumPy, SciPy and BLAS versions, the pinned thread
variables and the CPU count, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

from run import SRC, THREAD_VARS, WORKLOAD_NAMES, passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
SEEDS = range(1, 11)
TRACED_SEEDS = 3


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def _environment(workloads: dict) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            key: blas.get(key) for key in ("name", "version", "openblas configuration")
        },
        "thread_env": {var: "1" for var in THREAD_VARS},
        "compute_threads": {
            name: getattr(workload, "workers", 1) for name, workload in workloads.items()
        },
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    seconds = config["run_seconds"]
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    report = {"run_seconds": seconds, "environment": _environment(WORKLOADS),
              "workloads": {}}

    for workload in WORKLOAD_NAMES:
        runs, traced = [], []
        for index, seed in enumerate(SEEDS):
            runs.append(_run(workload, seed, seconds, 0))
            if index < TRACED_SEEDS:
                traced.append(_run(workload, seed, seconds, 1))
        end_to_end = {
            name: _summary([run["metrics"][name]["value"] for run in runs])
            for name in runs[0]["metrics"]
        }
        attempted = sum(run["attempted"] for run in runs + traced)
        failed = sum(run["failed"] for run in runs + traced)
        entry = {
            "runs": len(runs),
            "passes_per_run": passes(WORKLOADS[workload], seconds),
            "end_to_end": end_to_end,
            "fail_ratio": failed / attempted,
            "attempted": attempted,
        }
        print(f"{workload}: {len(runs)} runs of {entry['passes_per_run']} passes, "
              f"fail_ratio {failed}/{attempted}")
        for name, stats in end_to_end.items():
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:14s} median {stats['median']:10.4f} {unit:3s} "
                  f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} "
                  f"spread {stats['spread']:.4f} (bound {bounds.get(name)})")
        per_layer = {
            name: statistics.median(run["metrics"][name]["value"] for run in traced)
            for name in traced[0]["metrics"]
        }
        overhead = statistics.median(
            trace["metrics"]["trace.wall_s"]["value"] - run["metrics"]["wall_s"]["value"]
            for trace, run in zip(traced, runs)
        )
        entry.update(traced_runs=len(traced), per_layer=per_layer,
                     trace_overhead_s=overhead)
        for name, value in per_layer.items():
            if value:
                print(f"  {name:28s} {value:14.6g}")
        print(f"  tracing overhead {overhead:+.4f} s")
        report["workloads"][workload] = entry
        sys.stdout.flush()

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
