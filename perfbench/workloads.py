"""The four benchmark workloads: generate inputs, run one pass, check it.

Each workload is a closed loop in one process: a pass starts only when
the previous one (and its output check) has finished.  The program sees
only the generated WAV/JSON files.  Calls into sepeval go through module
attributes looked up at call time, so the tracer's wrappers apply.
``check`` returns ``(operation, problem)`` pairs; an operation of None
means the whole pass is wrong, which fails every operation in it.

``pass_s`` is the nominal seconds of one pass, from the baseline; it
fixes how many passes a run makes (see ``run.passes``).  Why each
workload exists, and the layer it isolates or bypasses, is in the
README beside this file.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import sepeval
import sepeval.cli

import corpus

IRM2_TOLERANCE = 1e-9
MWF_TOLERANCE = 1e-6
# Twice the relative rounding error of float64 -> float32 (2^-24), for margin.
FLOAT32_ROUNDING = 2.0 ** -23


class EvalWorkload:
    """``sepeval eval`` over a generated corpus and estimates tree."""

    def __init__(self, name, pass_s, mode, num_tracks, seconds, workers,
                 filter_len=512):
        self.name, self.pass_s, self.mode = name, pass_s, mode
        self.num_tracks, self.seconds = num_tracks, seconds
        self.workers, self.filter_len = workers, filter_len
        self.digests = None

    def tiny(self):
        return EvalWorkload(self.name, self.pass_s, self.mode, 1, 3.0, 1, 32)

    def setup(self, work: Path, seed: int) -> None:
        self.work = work
        self.tracks = corpus.make_eval_corpus(
            work, np.random.default_rng(seed), self.num_tracks, self.seconds
        )
        self.num_frames = math.ceil(self.seconds)

    @property
    def operations(self) -> int:
        return self.num_tracks

    def run(self, out: Path) -> None:
        code = sepeval.cli.main([
            "eval", "--corpus", str(self.work / "corpus"), "--split", "test",
            "--estimates", str(self.work / "estimates"), "--method", "bench",
            "--output", str(out), "--mode", self.mode,
            "--workers", str(self.workers), "--window", "1.0",
            "--filter-len", str(self.filter_len),
        ])
        if code != 0:
            raise RuntimeError(f"sepeval eval exited with {code}")

    def check(self, out: Path) -> list:
        """(track, problem) pairs: all five targets, frame counts, round trip.

        Reports must also be byte-identical on every pass of a run.
        """
        problems = []
        digests = {}
        if not (out / "summary.csv").is_file():
            problems.append((None, "summary.csv missing"))
        for track in self.tracks:
            path = out / f"{track}.json"
            try:
                problem = self._check_report(path, out / f"{track}.rewrite.json")
            except (OSError, ValueError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
            if problem is None:
                digests[track] = hashlib.sha256(path.read_bytes()).hexdigest()
                if self.digests is not None and self.digests.get(track) != digests[track]:
                    problem = "report differs from the first pass"
            if problem is not None:
                problems.append((track, problem))
        if self.digests is None:
            self.digests = digests
        return problems

    def _check_report(self, path: Path, scratch: Path):
        scores = sepeval.read_report(path)
        if len(scores) != 1:
            return f"{len(scores)} reports in one file"
        score = scores[0]
        if set(score.targets) != set(corpus.TARGETS):
            return f"targets {sorted(score.targets)}"
        for target, frames in score.targets.items():
            if len(frames) != self.num_frames:
                return f"{target}: {len(frames)} frames, expected {self.num_frames}"
        intro = score.targets["vocals"][: int(corpus.VOCAL_INTRO_S)]
        if any(frame.sdr != -math.inf for frame in intro):
            return "vocals SDR is not -inf over the silent intro"
        sepeval.write_report(score, scratch)
        if scratch.read_bytes() != path.read_bytes():
            return "report does not round-trip through read_report"
        return None


class OracleWorkload:
    """load_track, oracle_separate with IRM2 and MWF, save_wav of each estimate."""

    METHODS = ("IRM2", "MWF")

    def __init__(self, name, pass_s, num_tracks, seconds):
        self.name, self.pass_s = name, pass_s
        self.num_tracks, self.seconds = num_tracks, seconds

    def tiny(self):
        return OracleWorkload(self.name, self.pass_s, 1, 3.0)

    def setup(self, work: Path, seed: int) -> None:
        self.work = work
        self.tracks = corpus.make_oracle_corpus(
            work, np.random.default_rng(seed), self.num_tracks, self.seconds
        )

    @property
    def operations(self) -> int:
        return self.num_tracks * len(self.METHODS)

    def run(self, out: Path) -> None:
        config = sepeval.StftConfig(4096, 1024)
        for track in sepeval.scan_corpus(self.work / "corpus").tracks:
            mixture, stems = sepeval.load_track(track)
            for method in self.METHODS:
                estimates = sepeval.oracle_separate(
                    mixture, list(stems.values()), method, config=config
                )
                folder = out / method / track.name
                folder.mkdir(parents=True)
                for stem, estimate in zip(stems, estimates):
                    sepeval.save_wav(folder / f"{stem}.wav", estimate, bit_depth=32)

    def check(self, out: Path) -> list:
        """The saved estimates of every (method, track) sum to the mixture.

        The files hold float32, so each sample may also be off by the
        rounding of the estimates, bounded by FLOAT32_ROUNDING times the
        sum of their magnitudes; the deviation beyond that must stay
        within the method's tolerance.
        """
        problems = []
        for track in self.tracks:
            mixture = corpus.read_wav(self.work / "corpus" / "test" / track / "mixture.wav")
            for method in self.METHODS:
                tolerance = IRM2_TOLERANCE if method == "IRM2" else MWF_TOLERANCE
                try:
                    estimates = [
                        corpus.read_wav(out / method / track / f"{stem}.wav")
                        for stem in corpus.STEMS
                    ]
                except (OSError, ValueError) as exc:
                    problems.append(((method, track), f"{type(exc).__name__}: {exc}"))
                    continue
                if any(estimate.shape != mixture.shape for estimate in estimates):
                    problems.append(((method, track), "estimate shape differs from mixture"))
                    continue
                rounding = FLOAT32_ROUNDING * sum(np.abs(estimate) for estimate in estimates)
                excess = float(np.max(np.abs(sum(estimates) - mixture) - rounding))
                if not excess <= tolerance:
                    problems.append((
                        (method, track),
                        f"|sum - mixture| beyond float32 rounding = {excess:.3e} "
                        f"> {tolerance:g}",
                    ))
        return problems


class ReportWorkload:
    """write_report for every (method, track), then ``sepeval compare``."""

    def __init__(self, name, pass_s, num_tracks, methods, num_frames, non_finite):
        self.name, self.pass_s = name, pass_s
        self.num_tracks, self.methods = num_tracks, methods
        self.num_frames, self.non_finite = num_frames, non_finite
        self.digests = None

    def tiny(self):
        return ReportWorkload(self.name, self.pass_s, 3, self.methods[:2], 8,
                              self.non_finite)

    def setup(self, work: Path, seed: int) -> None:
        self.values = corpus.make_scores(
            np.random.default_rng(seed), self.num_tracks, self.methods,
            self.num_frames, self.non_finite,
        )
        window = corpus.SAMPLE_RATE
        self.scores = [
            sepeval.TrackScore(
                track=track, method=method,
                targets={
                    target: [
                        sepeval.FrameScores(*(body[target][m][f] for m in corpus.METRICS),
                                            window_start=f * window, window_len=window)
                        for f in range(self.num_frames)
                    ]
                    for target in corpus.TARGETS
                },
            )
            for (method, track), body in self.values.items()
        ]

    @property
    def operations(self) -> int:
        return len(self.scores)

    def run(self, out: Path) -> None:
        reports = out / "reports"
        reports.mkdir()
        for score in self.scores:
            sepeval.write_report(score, reports / f"{score.method}_{score.track}.json")
        code = sepeval.cli.main([
            "compare", "--reports", str(reports), "--target", "vocals",
            "--metric", "SDR", "--output", str(out / "p_values.csv"),
            "--json", str(out / "p_values.json"),
        ])
        if code != 0:
            raise RuntimeError(f"sepeval compare exited with {code}")

    def check(self, out: Path) -> list:
        """P-values are sane; the reports give NumPy's medians on the generated values.

        The first pass's reports are read back and aggregated in full;
        every later pass must write byte-identical reports.
        """
        problems = []
        matrix = json.loads((out / "p_values.json").read_text(encoding="utf-8"))
        p = np.array(matrix["p_values"], dtype=np.float64)
        if matrix["methods"] != sorted(self.methods):
            problems.append((None, f"compare methods {matrix['methods']}"))
        elif not (np.array_equal(p, p.T) and np.all(np.diag(p) == 1.0)
                  and np.all((p >= 0.0) & (p <= 1.0))):
            problems.append(
                (None, "p-value matrix not symmetric in [0, 1] with unit diagonal")
            )
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (out / "reports").glob("*.json")
        }
        if self.digests is not None:
            for score in self.scores:
                name = f"{score.method}_{score.track}.json"
                if digests.get(name) != self.digests.get(name):
                    problems.append(((score.method, score.track),
                                     "report differs from the first pass"))
            return problems
        self.digests = digests

        scores = []
        for path in sorted((out / "reports").glob("*.json")):
            scores.extend(sepeval.read_report(path))
        table = sepeval.aggregate(scores)
        for (method, track), body in self.values.items():
            for target in corpus.TARGETS:
                for metric in corpus.METRICS:
                    got = table.track_medians.get((method, target, metric), {}).get(track)
                    if got != _finite_median(body[target][metric]):
                        problems.append(
                            ((method, track), f"{target}/{metric} median {got}")
                        )
        for (method, target, metric), per_track in table.track_medians.items():
            want = _finite_median(v for v in per_track.values() if v is not None)
            if table.campaign_medians[(method, target, metric)] != want:
                problems.append((None, f"{method}/{target}/{metric} campaign median"))
        return problems


def _finite_median(values):
    finite = np.array([v for v in values if math.isfinite(v)], dtype=np.float64)
    return float(np.median(finite)) if finite.size else None


WORKLOADS = {
    workload.name: workload
    for workload in (
        EvalWorkload("eval-v4", 5.8, mode="v4", num_tracks=2, seconds=8.0, workers=2),
        EvalWorkload("eval-v3", 7.2, mode="v3", num_tracks=1, seconds=3.0, workers=1),
        OracleWorkload("oracle-sep", 3.3, num_tracks=2, seconds=4.0),
        ReportWorkload(
            "report-compare", 2.8, num_tracks=50, methods=("A", "B", "C", "D"),
            num_frames=48, non_finite=0.02,
        ),
    )
}
