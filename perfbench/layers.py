"""Per-layer metrics: which sepeval callables are traced and how they reduce.

The layers are sepeval's modules.  A span wraps each public callable a
layer is entered through, plus the SciPy Cholesky factor and solve that
``bsseval`` calls.  Each metric should move an end-to-end metric on a
named workload:

- audio.* -> wall_s on eval-v4 and oracle-sep (save_wav: oracle-sep)
- dataset.* -> wall_s on eval-v4
- spectral.*, masks.* -> wall_s, cpu_s, peak_rss_mb on oracle-sep
- bsseval.bss_eval_s, project_s, self_s -> wall_s, cpu_s on eval-v4
- bsseval.cholesky_*, solve_s -> wall_s on eval-v3
- campaign.evaluate_track_s, run_campaign_s, parallel_eff -> wall_s,
  peak_rss_mb on eval-v4
- reports.*, campaign.aggregate_s, stats.significance_s -> wall_s on
  report-compare

``bsseval.self_s`` is bss_eval minus the Cholesky, solve and project
spans inside it (FFT correlations, Gram assembly, frame energies);
``masks.oracle_self_s`` is oracle_separate minus its STFT, ISTFT, model
and mask spans (the MWF filtering).  ``bsseval.cholesky_gflop`` is
computed as n^3/3 over the factorized sizes, not measured.

The program is not edited: :meth:`Tracer.wrap` swaps a wrapper in for
every binding of a callable inside the ``sepeval`` package (``from x
import y`` makes one binding per importing module), and
:meth:`Tracer.close` puts the originals back.  Each call adds its busy
and self seconds, one call and its counters to the totals of its name.
Busy time is summed over threads, so with parallel workers it can
exceed wall time.
"""

import functools
import os
import sys
import threading
import time
from collections import defaultdict

import scipy.linalg

import sepeval.audio
import sepeval.bsseval
import sepeval.campaign
import sepeval.cli
import sepeval.dataset
import sepeval.masks
import sepeval.reports
import sepeval.spectral
import sepeval.stats

# (metric, unit, span name, span total): busy_s, self_s, calls or a counter.
_FROM_SPANS = (
    ("audio.load_wav_s", "s", "audio.load_wav", "busy_s"),
    ("audio.load_wav_calls", "count", "audio.load_wav", "calls"),
    ("audio.bytes_read", "B", "audio.load_wav", "bytes"),
    ("audio.save_wav_s", "s", "audio.save_wav", "busy_s"),
    ("audio.bytes_written", "B", "audio.save_wav", "bytes"),
    ("dataset.scan_corpus_s", "s", "dataset.scan_corpus", "busy_s"),
    ("dataset.load_track_s", "s", "dataset.load_track", "busy_s"),
    ("spectral.stft_s", "s", "spectral.stft", "busy_s"),
    ("spectral.istft_s", "s", "spectral.istft", "busy_s"),
    ("spectral.stft_frames", "count", "spectral.stft", "frames"),
    ("masks.oracle_separate_s", "s", "masks.oracle_separate", "busy_s"),
    ("masks.mwf_model_s", "s", "masks.mwf_model", "busy_s"),
    ("masks.mask_s", "s", "masks.mask", "busy_s"),
    ("masks.oracle_self_s", "s", "masks.oracle_separate", "self_s"),
    ("bsseval.bss_eval_s", "s", "bsseval.bss_eval", "busy_s"),
    ("bsseval.bss_eval_calls", "count", "bsseval.bss_eval", "calls"),
    ("bsseval.project_s", "s", "bsseval.project", "busy_s"),
    ("bsseval.self_s", "s", "bsseval.bss_eval", "self_s"),
    ("bsseval.cholesky_s", "s", "bsseval.cholesky", "busy_s"),
    ("bsseval.cholesky_calls", "count", "bsseval.cholesky", "calls"),
    ("bsseval.cholesky_gflop", "GFLOP", "bsseval.cholesky", "gflop"),
    ("bsseval.solve_s", "s", "bsseval.solve", "busy_s"),
    ("campaign.evaluate_track_s", "s", "campaign.evaluate_track", "busy_s"),
    ("campaign.run_campaign_s", "s", "campaign.run_campaign", "busy_s"),
    ("campaign.aggregate_s", "s", "campaign.aggregate", "busy_s"),
    ("reports.write_s", "s", "reports.write", "busy_s"),
    ("reports.read_s", "s", "reports.read", "busy_s"),
    ("reports.bytes_written", "B", "reports.write", "bytes"),
    ("stats.significance_s", "s", "stats.significance", "busy_s"),
    ("cli.main_s", "s", "cli.main", "busy_s"),
)
UNITS = {
    **{metric: unit for metric, unit, _, _ in _FROM_SPANS},
    "campaign.parallel_eff": "ratio",
    "trace.spans": "count",
    "trace.wall_s": "s",
}


def _file_bytes(index):
    def count(args, kwargs, result, seconds):
        return {"bytes": os.path.getsize(args[index])}
    return count


def _frames(args, kwargs, result, seconds):
    return {"frames": result.num_frames}


def _gflop(args, kwargs, result, seconds):
    n = len(args[0])
    return {"gflop": n ** 3 / 3.0 / 1e9}


def _worker_s(args, kwargs, result, seconds):
    workers = kwargs.get("workers") or os.cpu_count() or 1
    return {"worker_s": workers * seconds}


class Tracer:
    """Totals of the wrapped calls, per span name, since the last reset."""

    def __init__(self):
        self.totals = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Trace every call of ``module.attr`` made through any sepeval binding.

        ``count(args, kwargs, result, seconds)`` may return a dict of
        counters for the call; it runs after the call's clock has stopped.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            # Per-thread stack of the child seconds of each open call.
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                child_s = stack.pop()
                if stack:
                    stack[-1] += seconds
            counters = count(args, kwargs, result, seconds) if count else {}
            with self._lock:
                entry = self.totals.setdefault(name, defaultdict(float))
                entry["busy_s"] += seconds
                entry["self_s"] += seconds - child_s
                entry["calls"] += 1
                for key, value in counters.items():
                    entry[key] += value
            return result

        for mod in _sepeval_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, original))

    def close(self) -> None:
        """Restore every binding replaced by :meth:`wrap`."""
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def reset(self) -> None:
        with self._lock:
            self.totals = {}


def _sepeval_modules():
    return [
        module for key, module in list(sys.modules.items())
        if module is not None and (key == "sepeval" or key.startswith("sepeval."))
    ]


def install() -> Tracer:
    """Wrap every traced callable; the caller closes the tracer."""
    tracer = Tracer()
    for module, attr, name, count in (
        (sepeval.audio, "load_wav", "audio.load_wav", _file_bytes(0)),
        (sepeval.audio, "save_wav", "audio.save_wav", _file_bytes(0)),
        (sepeval.dataset, "scan_corpus", "dataset.scan_corpus", None),
        (sepeval.dataset, "load_track", "dataset.load_track", None),
        (sepeval.spectral, "stft", "spectral.stft", _frames),
        (sepeval.spectral, "istft", "spectral.istft", None),
        (sepeval.masks, "oracle_separate", "masks.oracle_separate", None),
        (sepeval.masks, "estimate_mwf_model", "masks.mwf_model", None),
        (sepeval.masks, "ibm_mask", "masks.mask", None),
        (sepeval.masks, "irm_mask", "masks.mask", None),
        (sepeval.masks, "apply_mask", "masks.mask", None),
        (sepeval.bsseval, "bss_eval", "bsseval.bss_eval", None),
        (sepeval.bsseval, "project", "bsseval.project", None),
        (scipy.linalg, "cho_factor", "bsseval.cholesky", _gflop),
        (scipy.linalg, "cho_solve", "bsseval.solve", None),
        (sepeval.campaign, "evaluate_track", "campaign.evaluate_track", None),
        (sepeval.campaign, "run_campaign", "campaign.run_campaign", _worker_s),
        (sepeval.campaign, "aggregate", "campaign.aggregate", None),
        (sepeval.reports, "write_report", "reports.write", _file_bytes(1)),
        (sepeval.reports, "read_report", "reports.read", None),
        (sepeval.stats, "pairwise_significance", "stats.significance", None),
        (sepeval.cli, "main", "cli.main", None),
    ):
        tracer.wrap(module, attr, name, count)
    return tracer


def metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of the calls traced since the last reset."""
    totals = tracer.totals
    out = {
        metric: totals.get(span, {}).get(key, 0.0)
        for metric, _, span, key in _FROM_SPANS
    }
    # Summed evaluate_track busy time over workers x run_campaign wall time.
    worker_s = totals.get("campaign.run_campaign", {}).get("worker_s", 0.0)
    out["campaign.parallel_eff"] = (
        out["campaign.evaluate_track_s"] / worker_s if worker_s else 0.0
    )
    out["trace.spans"] = sum(entry["calls"] for entry in totals.values())
    out["trace.wall_s"] = wall_s
    return out
