"""sepeval benchmark: one workload, closed loop, in this process.

    python3 perfbench/run.py --workload eval-v4 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``
next to this directory; without it the benchmark exits with an error
before printing a result.  BLAS and OpenMP pools are pinned to one
thread before NumPy loads; ``eval-v4`` adds its two campaign workers.

Set-up generates the workload's inputs from ``--seed`` under
``.bench_work/`` (three times, keeping the median), then warms up on a
tiny input of the same shape so lazy imports and first-call costs stay
out of the passes.  A run then makes a fixed, odd number of passes, set
by ``--seconds`` and the workload's nominal pass time (see
:func:`passes`), so every run's median is a true median over the same
count; each pass's outputs are checked outside its timing.

The host speed probe (``probe.py``) runs before and after set-up and
after every pass; every time reported is the measured time scaled to the
probe's reference speed with the probes on either side of it.

With ``--trace 0`` the result holds the end-to-end metrics: median
``wall_s`` and ``cpu_s`` per pass, the process's ``peak_rss_mb`` and
``setup_s``.  With ``--trace 1`` the same passes run with spans around
each layer's calls and the result holds the per-layer metrics (medians
over passes); ``trace.wall_s`` against the untraced ``wall_s`` is the
tracing overhead.  The last stdout line is the JSON result; the lines
before it print every metric with its unit, and ``fail_ratio``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("eval-v4", "eval-v3", "oracle-sep", "report-compare")
SETUP_REPEATS = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import sepeval from ``src/`` of this checkout, or exit with an error."""
    if not (SRC / "sepeval" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sepeval sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import sepeval

    if SRC not in Path(sepeval.__file__).resolve().parents:
        sys.exit(f"perfbench: sepeval imported from {sepeval.__file__}, not {SRC}")
    import layers
    import workloads

    return layers, workloads


def passes(workload, seconds: float) -> int:
    """The largest odd number of nominal passes within ``seconds``, at least 3."""
    count = int(seconds / workload.pass_s)
    return max(3, count if count % 2 else count - 1)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _setup(workload, work: Path, seed: int, imports_s: float, probe):
    """Import time + median of the input generations + one warm-up pass.

    Returns that time at the probe's reference speed, using the probes
    before and after it, and the probe after it.
    """
    before = probe.seconds()
    times = []
    for _ in range(SETUP_REPEATS):
        inputs = _fresh(work / "in")
        start = time.perf_counter()
        workload.setup(inputs, seed)
        times.append(time.perf_counter() - start)
    start = time.perf_counter()
    tiny = workload.tiny()
    tiny.setup(_fresh(work / "warm-in"), seed)
    tiny.run(_fresh(work / "warm-out"))
    problems = tiny.check(work / "warm-out")
    if problems:
        raise RuntimeError(f"warm-up output check failed: {problems[:3]}")
    warm_s = time.perf_counter() - start
    after = probe.seconds()
    print(f"setup: imports {imports_s:.3f} s, generate "
          f"{' '.join(f'{t:.3f}' for t in times)} s, warm-up {warm_s:.3f} s; "
          f"probe {before:.3f} {after:.3f} s")
    setup_s = imports_s + statistics.median(times) + warm_s
    return setup_s * probe.REFERENCE_S * 2.0 / (before + after), after


def _run_pass(workload, out: Path, layers, tracer):
    """One timed pass, then its check.

    Returns (wall_s, cpu_s, failed operations, per-layer metrics or None);
    the layer metrics are taken before the check so its calls stay out.
    """
    gc.collect()
    if tracer is not None:
        tracer.reset()
    cpu = _cpu_s()
    start = time.perf_counter()
    try:
        workload.run(out)
        error = None
    except Exception as exc:  # noqa: BLE001 - a failing pass is a result
        error = exc
        traceback.print_exc()
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu
    per_layer = None if tracer is None else layers.metrics(tracer, wall)
    if error is None:
        try:
            problems = workload.check(out)
        except Exception as exc:  # noqa: BLE001 - an unreadable output fails the pass
            traceback.print_exc()
            problems = [(None, f"check raised {exc!r}")]
    else:
        problems = [(None, f"pass raised {error!r}")]
    for key, problem in problems[:10]:
        print(f"perfbench: {workload.name}: {key or 'pass'}: {problem}", file=sys.stderr)
    keys = {key for key, _ in problems}
    failed = workload.operations if None in keys else len(keys)
    return wall, cpu, failed, per_layer


def main(argv=None) -> int:
    args = _parse(argv)
    layers, workloads = _import_program()
    imports_s = time.perf_counter() - T0
    import probe  # after the thread pins, and outside the program's import time
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = None
    try:
        setup_s, probe_s = _setup(workload, work, args.seed, imports_s, probe)
        tracer = layers.install() if args.trace else None
        walls, cpus, per_layer, probes = [], [], [], [probe_s]
        attempted = failed = 0
        for _ in range(passes(workload, args.seconds)):
            wall, cpu, pass_failed, pass_layers = _run_pass(
                workload, _fresh(work / "out"), layers, tracer
            )
            walls.append(wall)
            cpus.append(cpu)
            per_layer.append(pass_layers)
            probes.append(probe.seconds())
            attempted += workload.operations
            failed += pass_failed
    finally:
        if tracer is not None:
            tracer.close()
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each pass's times at the probe's reference speed (see probe.py).
    scales = [
        probe.REFERENCE_S * 2.0 / (before + after)
        for before, after in zip(probes, probes[1:])
    ]
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(w * k for w, k in zip(walls, scales)),
            "cpu_s": statistics.median(c * k for c, k in zip(cpus, scales)),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS
    else:
        units = layers.UNITS
        metrics = {
            name: statistics.median(
                sample[name] * (k if units[name] == "s" else 1.0)
                for sample, k in zip(per_layer, scales)
            )
            for name in units
        }

    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} passes, "
          f"trace {'on' if tracer else 'off'}")
    print(f"  measured pass wall_s {' '.join(f'{w:.3f}' for w in walls)}; "
          f"cpu_s {' '.join(f'{c:.3f}' for c in cpus)}")
    print(f"  probe_s {' '.join(f'{p:.3f}' for p in probes)} "
          f"(reference {probe.REFERENCE_S} s)")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':28s} {failed / attempted:14.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
