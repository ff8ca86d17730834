"""Campaign runner: evaluate estimate sets over a corpus and aggregate.

For each track the four stems are scored jointly (the full stem set spans
the interference subspace) and ``accompaniment`` is scored against the
``[vocals, accompaniment]`` reference pair, with the accompaniment
reference and, when no file is provided, its estimate formed by one rule,
:func:`~sepeval.dataset.derive_accompaniment`, the sum of the non-vocal
parts.  Scores aggregate as medians over finite frames per
track, then medians over tracks; pairwise method comparisons use the
rank-based test from :mod:`sepeval.stats`.
"""

import csv
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .audio import load_wav
from .bsseval import DEFAULT_FILTER_LEN, DEFAULT_MODE, DEFAULT_WINDOW, MODES, bss_eval
from .dataset import STEM_NAMES, TrackRef, derive_accompaniment, load_stems
from .reports import METRIC_NAMES, TrackScore, write_report
from .stats import SignificanceMatrix, pairwise_significance

__all__ = [
    "TARGET_NAMES",
    "METRIC_NAMES",
    "EvalConfig",
    "AggregateTable",
    "evaluate_track",
    "run_campaign",
    "aggregate",
    "significance_from_table",
    "write_significance_csv",
    "write_significance_json",
]

TARGET_NAMES = STEM_NAMES + ("accompaniment",)


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation parameters shared by every track of a campaign run."""

    window: int = DEFAULT_WINDOW
    hop: int | None = None
    filter_len: int = DEFAULT_FILTER_LEN
    mode: str = DEFAULT_MODE
    targets: tuple = TARGET_NAMES

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1 sample, got {self.window}")
        if self.hop is not None and self.hop < 1:
            raise ValueError(f"hop must be >= 1 sample, got {self.hop}")
        if self.filter_len < 1:
            raise ValueError(f"filter_len must be >= 1 tap, got {self.filter_len}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {list(MODES)}, got {self.mode!r}")
        unknown = set(self.targets) - set(TARGET_NAMES)
        if unknown:
            raise ValueError(f"unknown targets: {sorted(unknown)}")

    @property
    def effective_hop(self) -> int:
        return self.window if self.hop is None else self.hop


def evaluate_track(
    track: TrackRef,
    estimates_dir,
    method_name: str,
    config: EvalConfig = EvalConfig(),
) -> TrackScore:
    """Score the estimates for one track against its true stems.

    Estimates are WAVs named after targets inside ``estimates_dir``; only
    those of ``config.targets`` are decoded, with the non-vocal ones when
    the accompaniment is derived.  Missing files drop that target from the
    result (with a warning); an estimate whose length, channels or rate
    differ from the track's, or no estimate for any target, are fatal for
    the track, and are raised before any stem is decoded.
    """
    estimates_dir = Path(estimates_dir)

    def load(name):
        path = estimates_dir / f"{name}.wav"
        if not path.is_file():
            return None
        estimate = load_wav(path)
        track.check(f"estimate {path}", estimate.layout)
        return estimate

    estimates = {name: load(name) for name in config.targets}
    if "accompaniment" in estimates and estimates["accompaniment"] is None:
        # No file of its own: the sum of the non-vocal parts, if all exist.
        parts = {name: estimates[name] if name in estimates else load(name)
                 for name in STEM_NAMES if name != "vocals"}
        if all(part is not None for part in parts.values()):
            estimates["accompaniment"] = derive_accompaniment(parts)
    if all(estimate is None for estimate in estimates.values()):
        raise FileNotFoundError(
            f"{track.name}: no estimate for any of {list(config.targets)} "
            f"in {estimates_dir}"
        )
    stems = load_stems(track)

    # One parameter set for both bss_eval calls and the report header.
    params = dict(window=config.window, hop=config.effective_hop,
                  filter_len=config.filter_len, mode=config.mode)
    target_frames = {}
    stem_targets = [name for name in STEM_NAMES if estimates.get(name) is not None]
    if stem_targets:
        frames = bss_eval(
            [stems[name] for name in STEM_NAMES],
            [estimates[name] for name in stem_targets],
            targets=[STEM_NAMES.index(name) for name in stem_targets],
            **params,
        )
        target_frames.update(zip(stem_targets, frames))
    if estimates.get("accompaniment") is not None:
        (target_frames["accompaniment"],) = bss_eval(
            [stems["vocals"], derive_accompaniment(stems)],
            [estimates["accompaniment"]],
            targets=[1],
            **params,
        )

    for name in config.targets:
        if name not in target_frames:
            warnings.warn(
                f"{track.name}: no estimate for target {name!r}",
                RuntimeWarning,
                stacklevel=2,
            )
    return TrackScore(track=track.name, method=method_name, targets=target_frames,
                      sample_rate=track.sample_rate, **params)


def run_campaign(
    tracks,
    estimates_root,
    method_name: str,
    config: EvalConfig = EvalConfig(),
    workers: int | None = None,
    output_dir=None,
) -> list:
    """Evaluate many tracks, in parallel, deterministically ordered.

    ``workers`` tracks are scored at a time, one of them on the calling
    thread (see :func:`_map_threads`).
    ``estimates_root/<track name>/<target>.wav`` supplies the estimates.
    Per-track failures are reported and skipped; the run fails only when
    every track fails.  Results are sorted by track name; with
    ``output_dir`` set, one JSON report per track is written there.
    """
    estimates_root = Path(estimates_root)
    workers = workers or os.cpu_count() or 1

    def one(track: TrackRef):
        return evaluate_track(
            track, estimates_root / track.name, method_name, config
        )

    scores = _run_guarded(one, tracks, lambda fn, ts: _map_threads(fn, ts, workers))
    scores.sort(key=lambda s: s.track)
    if output_dir is not None:
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        for score in scores:
            write_report(score, output_dir / f"{score.track}.json")
    return scores


def _map_threads(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, ``workers`` items at a time.

    The calling thread works rather than waits: alone with one worker,
    else beside ``workers - 1`` helper threads, which take items from the
    front while it takes from the back those no helper has started.  So
    two workers start one thread, not two.  With glibc each thread
    allocates from a malloc arena of its own, which keeps the signal
    buffers freed in it resident: with a second scoring arena the peak
    memory of ``sepeval eval --workers 2`` varied by up to 8% from one run
    to the next.
    """
    if workers == 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        futures = [pool.submit(fn, item) for item in items]
        mine = {i: fn(items[i]) for i in reversed(range(len(items)))
                if futures[i].cancel()}
    return [mine[i] if i in mine else future.result()
            for i, future in enumerate(futures)]


def _run_guarded(fn, tracks, map_fn=map) -> list:
    """Whatever ``fn`` returns for each track it does not raise an ``Exception``
    on; warn per failing track, raise if all fail."""

    def guarded(track):
        try:
            return fn(track)
        except Exception as exc:  # noqa: BLE001 - per-track isolation
            return exc

    results = []
    failures = []
    for track, outcome in zip(tracks, map_fn(guarded, tracks)):
        if isinstance(outcome, Exception):
            failures.append((track.name, outcome))
        else:
            results.append(outcome)
    for name, error in failures:
        warnings.warn(f"track {name} failed: {error}", RuntimeWarning, stacklevel=3)
    if not results:
        raise RuntimeError(
            f"all {len(failures)} tracks failed; first error: {failures[0][1]}"
        )
    return results


def _finite_median(values) -> float | None:
    """Median of the finite values, equal to ``np.median``'s; None if none.

    ``np.median`` takes the mean of the two middle values of an even count,
    which for two float64 values is ``(a + b) / 2``.
    """
    finite = sorted(v for v in values if math.isfinite(v))
    count = len(finite)
    if not count:
        return None
    middle = count // 2
    if count % 2:
        return float(finite[middle])
    return (float(finite[middle - 1]) + float(finite[middle])) / 2


@dataclass
class AggregateTable:
    """Track-wise and campaign-wide medians per (method, target, metric).

    ``track_medians[(method, target, metric)]`` maps track name to the
    median of that metric over the track's finite frames (None when no
    frame is finite); ``campaign_medians`` is the median of those
    track medians.
    """

    track_medians: dict = field(default_factory=dict)
    campaign_medians: dict = field(default_factory=dict)

    @property
    def methods(self) -> tuple:
        return tuple(sorted({key[0] for key in self.track_medians}))

    def scores_by_method(self, target: str, metric: str) -> dict:
        """Per-method {track: median} maps, for significance testing."""
        out = {}
        for method in self.methods:
            medians = self.track_medians.get((method, target, metric), {})
            defined = {t: v for t, v in medians.items() if v is not None}
            if defined:
                out[method] = defined
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["method", "target", "metric", "track",
                 "track_median", "campaign_median"]
            )
            for key in sorted(self.track_medians):
                method, target, metric = key
                campaign = self.campaign_medians[key]
                for track in sorted(self.track_medians[key]):
                    median = self.track_medians[key][track]
                    writer.writerow([
                        method, target, metric, track,
                        "" if median is None else repr(median),
                        "" if campaign is None else repr(campaign),
                    ])


def aggregate(scores) -> AggregateTable:
    """Median over finite frames per track, then median over tracks."""
    if not scores:
        raise ValueError("nothing to aggregate")
    table = AggregateTable()
    for score in scores:
        for target, frames in score.targets.items():
            for metric in METRIC_NAMES:
                key = (score.method, target, metric)
                per_track = table.track_medians.setdefault(key, {})
                attribute = metric.lower()
                per_track[score.track] = _finite_median(
                    [getattr(frame, attribute) for frame in frames]
                )
    for key, per_track in table.track_medians.items():
        table.campaign_medians[key] = _finite_median(
            v for v in per_track.values() if v is not None
        )
    return table


def significance_from_table(
    table: AggregateTable, target: str, metric: str
) -> SignificanceMatrix:
    """Pairwise significance of method differences on one target/metric."""
    scores = table.scores_by_method(target, metric)
    if len(scores) < 2:
        raise ValueError(
            f"need scores from at least two methods for {target}/{metric}"
        )
    return pairwise_significance(scores, metric=metric, target=target)


def write_significance_csv(matrix: SignificanceMatrix, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method"] + list(matrix.methods))
        for i, method in enumerate(matrix.methods):
            row = [method]
            for value in matrix.p_values[i]:
                row.append("" if math.isnan(value) else repr(float(value)))
            writer.writerow(row)


def write_significance_json(matrix: SignificanceMatrix, path) -> None:
    cells = [
        [None if math.isnan(v) else float(v) for v in row]
        for row in matrix.p_values
    ]
    payload = {
        "methods": list(matrix.methods),
        "metric": matrix.metric,
        "target": matrix.target,
        "num_tracks": matrix.num_tracks,
        "p_values": cells,
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
