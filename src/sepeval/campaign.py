"""Campaign runner: evaluate estimate sets over a corpus and aggregate.

For each track one ``bss_eval`` call scores every target: the four stems
jointly (the full stem set spans the interference subspace), and
``accompaniment`` as the group of the non-vocal stems, against the sum
of their references with vocals the one interferer (see
:func:`~sepeval.bsseval.bss_eval`).  When no accompaniment file is
provided, its estimate is the sum of the non-vocal estimates,
:func:`~sepeval.dataset.derive_accompaniment`, the rule the group's
reference follows.  Scores aggregate as medians over finite frames per
track, then medians over tracks; pairwise method comparisons use the
rank-based test from :mod:`sepeval.stats`.
"""

import csv
import json
import math
import os
import statistics
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .audio import load_wav
from .bsseval import (DEFAULT_FILTER_LEN, DEFAULT_MODE, DEFAULT_WINDOW, bss_eval,
                      check_scoring)
from .dataset import (ACCOMPANIMENT_STEMS, STEM_NAMES, TrackRef,
                      derive_accompaniment, load_stems)
from .reports import METRIC_NAMES, TrackScore, _write_json, write_report
from .stats import SignificanceMatrix, pairwise_significance

__all__ = [
    "TARGET_NAMES",
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
# Each target's bss_eval target over the stems in STEM_NAMES order: a stem
# index, or the accompaniment's group.
_TARGET_INDEX = {name: STEM_NAMES.index(name) for name in STEM_NAMES}
_TARGET_INDEX["accompaniment"] = tuple(map(STEM_NAMES.index, ACCOMPANIMENT_STEMS))


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation parameters shared by every track of a campaign run, checked
    on construction as ``bss_eval`` checks its own (``check_scoring``)."""

    window: int = DEFAULT_WINDOW
    hop: int | None = None
    filter_len: int = DEFAULT_FILTER_LEN
    mode: str = DEFAULT_MODE

    def __post_init__(self):
        check_scoring(self.window, self.hop, self.filter_len, self.mode)


def evaluate_track(
    track: TrackRef,
    estimates_dir,
    method_name: str,
    config: EvalConfig = EvalConfig(),
) -> TrackScore:
    """Score the estimates for one track against its true stems.

    Estimates are WAVs named after targets inside ``estimates_dir``, and
    every target whose file is there is scored; an accompaniment without
    a file of its own is derived from the non-vocal estimates when all
    three are there.  Missing files drop that target from the result (with
    a warning); an estimate whose length, channels or rate differ from the
    track's, or no estimate for any target, are fatal for the track, and
    are raised before any stem is decoded.
    """
    estimates_dir = Path(estimates_dir)

    def load(name):
        path = estimates_dir / f"{name}.wav"
        if not path.is_file():
            return None
        estimate = load_wav(path)
        track.check(f"estimate {path}", estimate.layout)
        return estimate

    estimates = {name: load(name) for name in TARGET_NAMES}
    if estimates["accompaniment"] is None and all(
            estimates[name] is not None for name in ACCOMPANIMENT_STEMS):
        estimates["accompaniment"] = derive_accompaniment(estimates)
    if all(estimate is None for estimate in estimates.values()):
        raise FileNotFoundError(
            f"{track.name}: no estimate for any of {list(TARGET_NAMES)} "
            f"in {estimates_dir}"
        )
    stems = load_stems(track)

    # One parameter set for the bss_eval call and the report header.
    params = asdict(config)
    params["hop"] = check_scoring(**params)
    scored = [name for name in TARGET_NAMES if estimates[name] is not None]
    frames = bss_eval(
        [stems[name] for name in STEM_NAMES],
        [estimates[name] for name in scored],
        targets=[_TARGET_INDEX[name] for name in scored],
        **params,
    )
    target_frames = dict(zip(scored, frames))

    for name in TARGET_NAMES:
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
    ``output_dir`` set, one JSON report per track is written there.  Two
    tracks of one name raise ValueError before any track is read (see
    :func:`_check_names`).
    """
    _check_names(tracks)
    estimates_root = Path(estimates_root)
    workers = workers or os.cpu_count() or 1

    def one(track: TrackRef):
        return evaluate_track(
            track, estimates_root / track.name, method_name, config
        )

    scores = _run_guarded(one, tracks, workers)
    scores.sort(key=lambda s: s.track)
    if output_dir is not None:
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        for score in scores:
            write_report(score, output_dir / f"{score.track}.json")
    return scores


def _check_names(tracks) -> None:
    """Raise ValueError naming every name that more than one of ``tracks``
    holds: estimate folders and reports are keyed by track name."""
    twice = sorted(name for name, count in Counter(t.name for t in tracks).items()
                   if count > 1)
    if twice:
        raise ValueError(f"tracks {twice} are named more than once, and estimate "
                         "folders and reports are keyed by track name")


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


def _run_guarded(fn, tracks, workers: int = 1) -> list:
    """Whatever ``fn`` returns for each track it does not raise an ``Exception``
    on, ``workers`` tracks at a time (see :func:`_map_threads`); warn per
    failing track, raise if all fail."""

    def guarded(track):
        try:
            return fn(track)
        except Exception as exc:  # noqa: BLE001 - per-track isolation
            return exc

    results = []
    failures = []
    for track, outcome in zip(tracks, _map_threads(guarded, tracks, workers)):
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
    """Median of the finite values as floats, None if none: for an even
    count the mean of the two middle values, ``(a + b) / 2``, as in
    ``np.median``."""
    finite = [float(v) for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else None


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
        with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as handle:
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
    """Median over finite frames per track, then median over tracks.

    Raises ValueError when two scores hold one (method, target, track);
    scores of one method and track with disjoint targets merge.
    """
    if not scores:
        raise ValueError("nothing to aggregate")
    table = AggregateTable()
    for score in scores:
        for target, frames in score.targets.items():
            for metric in METRIC_NAMES:
                key = (score.method, target, metric)
                per_track = table.track_medians.setdefault(key, {})
                if score.track in per_track:
                    raise ValueError(
                        f"two reports score method {score.method!r} on target "
                        f"{target!r} of track {score.track!r}"
                    )
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
    with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as handle:
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
    _write_json(json.dumps(payload, indent=2, ensure_ascii=False), path)
