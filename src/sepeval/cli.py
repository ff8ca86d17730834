"""Command-line entry points.

Commands: ``oracle`` (write oracle separations, then score them as
``eval`` does), ``eval`` (score an estimates tree), ``aggregate``
(medians to CSV), ``compare`` (pairwise significance) and ``validate``
(corpus checks).  Selected tracks must share one sample rate, and no
name may be selected twice (once per split).  A track
that fails in ``oracle``, ``eval`` or ``validate`` is warned about and
skipped.  A track with no estimate for any target has failed.  Flags
beat ``SEPEVAL_*`` environment variables, which beat built-in defaults; a
malformed variable is a usage error of the subcommands that read it.
Progress and warnings go to stderr; machine-readable output goes to
files.  Exit codes: 0 success, 1 fatal error, 2 usage error.
"""

import argparse
import math
import os
import sys
import warnings
from pathlib import Path

from .audio import save_wav
from .bsseval import DEFAULT_FILTER_LEN, MODES
from .campaign import (
    EvalConfig,
    _check_names,
    _run_guarded,
    aggregate,
    run_campaign,
    significance_from_table,
    write_significance_csv,
    write_significance_json,
)
from .dataset import (
    STEM_NAMES,
    open_stem,
    scan_corpus,
    validate_mixture,
    write_manifest,
)
from .masks import _resolve_method, oracle_separate
from .reports import METRIC_NAMES, read_report
from .spectral import StftConfig, _overlap_profile

# bsseval's modes by their version prefix: v4 and v3.
_MODES = {mode.split("_")[0]: mode for mode in MODES}


def _env(name: str, fallback=None):
    """Raw ``SEPEVAL_<name>``, else ``fallback``.  Argparse converts a string
    default only for the subcommand parsed; a bad value is a usage error."""
    return os.environ.get(f"SEPEVAL_{name}", fallback)


def _positive(kind, zero: bool = False, below: float = math.inf):
    """An argparse type: ``kind(text)``, which must be above 0, or with
    ``zero`` at least 0, and below ``below`` (by default: finite)."""
    bound = "" if below == math.inf else f" and below {below:g}"

    def convert(text):
        value = kind(text)
        bounded = value >= 0 if zero else value > 0  # False for NaN
        if not (bounded and value < below):
            raise argparse.ArgumentTypeError(
                f"must be {'non-negative' if zero else 'positive'}{bound}, got {text!r}"
            )
        return value

    # argparse names the type in its "invalid <type> value" message.
    convert.__name__ = kind.__name__
    return convert


def _mode(name: str) -> str:
    """An argparse type: bsseval's mode named by its version."""
    if name not in _MODES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(sorted(_MODES))})"
        )
    return _MODES[name]


def _method(name: str) -> str:
    """An argparse type: an oracle method's name, which is its run label,
    as ``masks._resolve_method`` accepts it."""
    try:
        _resolve_method(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _require(args, attr: str, flag: str, parser: argparse.ArgumentParser):
    value = getattr(args, attr)
    if value is None:
        parser.error(f"{flag} is required (or set SEPEVAL_{attr.upper()})")
    return value


def _select_tracks(corpus, split: str, names):
    """The selected tracks, which must share one sample rate and hold each
    name once: reports and estimate folders are keyed by track name."""
    tracks = corpus.tracks if split == "both" else corpus.split(split)
    if names:
        wanted = set(names)
        tracks = [t for t in tracks if t.name in wanted]
        missing = wanted - {t.name for t in tracks}
        if missing:
            raise FileNotFoundError(f"tracks not found: {sorted(missing)}")
    if not tracks:
        raise FileNotFoundError(f"no tracks selected (split={split})")
    try:
        _check_names(tracks)
    except ValueError as error:
        raise ValueError(f"{error}; select one split with --split") from None
    rates = sorted({t.sample_rate for t in tracks})
    if len(rates) > 1:
        raise ValueError(
            f"selected tracks mix sample rates {rates} Hz; evaluation windows "
            "are sized in seconds, so select tracks of one rate"
        )
    return tracks


def _eval_config(args, parser, tracks) -> EvalConfig:
    """The scoring parameters of ``args``, checked before any track is read.

    Seconds become samples at the tracks' rate (``_select_tracks`` admits
    one), at least one; a count that is not finite is a usage error naming
    its flag.
    """
    rate = tracks[0].sample_rate

    def samples(flag: str, seconds):
        if seconds is None:
            return None
        count = seconds * rate
        if not math.isfinite(count):
            parser.error(f"argument {flag}: {seconds!r} s at {rate} Hz is not "
                         "a finite number of samples")
        return max(1, int(round(count)))

    return EvalConfig(window=samples("--window", args.window),
                      hop=samples("--hop", args.hop),
                      filter_len=args.filter_len, mode=args.mode)


def _score(config: EvalConfig, tracks, estimates: Path, method: str, output: Path,
           workers) -> int:
    """Score ``estimates/<track>/`` for each track: reports, then summary.csv."""
    _progress(f"evaluating {method} on {len(tracks)} tracks ({config.mode} mode)")
    scores = run_campaign(
        tracks, estimates, method, config, workers=workers, output_dir=output,
    )
    aggregate(scores).write_csv(output / "summary.csv")
    _progress(f"wrote {len(scores)} reports and summary.csv under {output}")
    return 0


def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--window", type=_positive(float), default=_env("WINDOW", 1.0),
        help="evaluation window in seconds (default 1.0)",
    )
    parser.add_argument(
        "--hop", type=_positive(float), default=None,
        help="evaluation hop in seconds (default: window)",
    )
    parser.add_argument(
        "--filter-len", type=_positive(int),
        default=_env("FILTER_LEN", DEFAULT_FILTER_LEN),
        help=f"distortion filter length in taps (default {DEFAULT_FILTER_LEN})",
    )
    parser.add_argument(
        "--mode", type=_mode, default=_env("MODE", "v4"),
        help="v4: track-global filters; v3: filters refit per window",
    )


def cmd_oracle(args, parser) -> int:
    corpus_root = _require(args, "corpus", "--corpus", parser)
    output = Path(_require(args, "output", "--output", parser))
    try:
        stft_config = StftConfig(args.stft_window, args.stft_hop)
        _overlap_profile(stft_config)  # istft's check, before any track is read
    except ValueError as exc:  # the hop exceeds the window or does not overlap-add
        parser.error(f"argument --stft-hop: {exc}")
    corpus = scan_corpus(corpus_root)
    tracks = _select_tracks(corpus, args.split, args.tracks)
    config = _eval_config(args, parser, tracks)
    method = args.method  # the run label
    method_dir = output / method

    def separate(track):
        _progress(f"oracle {method}: {track.split}/{track.name}")
        mixture, *stems = (open_stem(track, name) for name in ("mixture",) + STEM_NAMES)
        estimates = oracle_separate(mixture, stems, method, config=stft_config)
        track_dir = method_dir / track.name
        track_dir.mkdir(parents=True, exist_ok=True)
        for name, estimate in zip(STEM_NAMES, estimates):
            save_wav(track_dir / f"{name}.wav", estimate, bit_depth=args.bit_depth)
        return track

    separated = _run_guarded(separate, tracks)
    return _score(config, separated, method_dir, method, method_dir, workers=1)


def cmd_eval(args, parser) -> int:
    corpus_root = _require(args, "corpus", "--corpus", parser)
    estimates = Path(_require(args, "estimates", "--estimates", parser))
    output = Path(_require(args, "output", "--output", parser))
    # The directory's own name, also for "." and "..".
    method = args.method or os.path.basename(os.path.abspath(estimates))
    if not method:
        parser.error(f"--method is required: estimates directory {estimates} "
                     "has no name to label the reports with")
    if not estimates.is_dir():
        raise FileNotFoundError(f"estimates directory {estimates} does not exist")
    corpus = scan_corpus(corpus_root)
    tracks = _select_tracks(corpus, args.split, args.tracks)
    return _score(_eval_config(args, parser, tracks), tracks, estimates,
                  method, output, workers=args.workers)


def _read_report_paths(paths) -> list:
    files = []
    for item in paths:
        path = Path(item)
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        else:
            files.append(path)
    scores = []
    for path in files:
        scores.extend(read_report(path))
    if not scores:
        raise FileNotFoundError(f"no reports found in {list(map(str, paths))}")
    return scores


def cmd_aggregate(args, parser) -> int:
    scores = _read_report_paths(args.reports)
    table = aggregate(scores)
    table.write_csv(args.output)
    _progress(
        f"aggregated {len(scores)} track reports "
        f"({len(table.methods)} methods) into {args.output}"
    )
    return 0


def cmd_compare(args, parser) -> int:
    scores = _read_report_paths(args.reports)
    table = aggregate(scores)
    if len(table.methods) < 2:
        parser.error("compare needs reports from at least two methods")
    matrix = significance_from_table(table, args.target, args.metric)
    write_significance_csv(matrix, args.output)
    if args.json:
        write_significance_json(matrix, args.json)
    for i, a in enumerate(matrix.methods):
        for j in range(i + 1, len(matrix.methods)):
            p = matrix.p_values[i, j]
            if math.isnan(p):
                outcome = "not tested (fewer than two common tracks)"
            else:
                verdict = "differ" if p < args.threshold else "indistinguishable"
                outcome = f"p={p:.4g} ({verdict} at {args.threshold})"
            _progress(f"{a} vs {matrix.methods[j]} on {args.target}/{args.metric}: "
                      f"{outcome}")
    return 0


def cmd_validate(args, parser) -> int:
    corpus_root = _require(args, "corpus", "--corpus", parser)
    corpus = scan_corpus(corpus_root)
    _progress(
        f"{len(corpus.tracks)} tracks: "
        f"{len(corpus.train)} train, {len(corpus.test)} test"
    )
    if args.manifest:
        write_manifest(corpus, args.manifest)
        _progress(f"manifest written to {args.manifest}")
    failures = 0
    if args.check_mixture:

        def check(track):
            report = validate_mixture(track, args.tolerance)
            status = "ok" if report.passed else "FAIL"
            _progress(
                f"{track.split}/{track.name}: max |mixture - sum(stems)| "
                f"= {report.max_deviation:.3e} [{status}]"
            )
            return report.passed

        passed = _run_guarded(check, corpus.tracks)
        failures = len(corpus.tracks) - sum(passed)
    if failures:
        _progress(f"{failures} tracks are unreadable or exceed the mixture tolerance")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepeval",
        description="Oracle source separation and BSS Eval scoring toolkit.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument(
            "--corpus", default=_env("CORPUS"),
            help="corpus root containing train/ and test/",
        )
        sub.add_argument(
            "--split", choices=("train", "test", "both"), default="both",
            help="which split to process (default both)",
        )
        sub.add_argument(
            "--tracks", nargs="+", default=None, metavar="NAME",
            help="restrict to specific track names",
        )

    oracle = subparsers.add_parser(
        "oracle", help="run an oracle method and score its estimates"
    )
    common(oracle)
    oracle.add_argument(
        "--method", required=True, type=_method,
        help="oracle method, also the run label: IBM1, IBM2, MWF or IRM<alpha> "
             "(IRM1, IRM2, IRM1.5)",
    )
    stft = StftConfig()
    oracle.add_argument("--stft-window", type=_positive(int),
                        default=stft.window_size,
                        help=f"STFT window size in samples "
                             f"(default {stft.window_size})")
    oracle.add_argument("--stft-hop", type=_positive(int), default=stft.hop_size,
                        help=f"STFT hop size in samples (default {stft.hop_size})")
    oracle.add_argument("--bit-depth", type=int, choices=(16, 24, 32), default=32,
                        help="bit depth of written estimates (default 32)")
    oracle.add_argument("--output", default=_env("OUTPUT"),
                        help="directory for estimates and reports")
    _add_eval_flags(oracle)
    oracle.set_defaults(func=cmd_oracle, parser=oracle)

    evaluate = subparsers.add_parser(
        "eval", help="score an estimates tree against the corpus"
    )
    common(evaluate)
    evaluate.add_argument(
        "--estimates", default=_env("ESTIMATES"),
        help="root holding <track>/<target>.wav estimate files",
    )
    evaluate.add_argument("--method", default=None,
                          help="method label for reports (default: the "
                               "estimates directory's name)")
    evaluate.add_argument(
        "--workers", type=_positive(int), default=_env("WORKERS"),
        help="parallel track workers (default: cpu count)",
    )
    evaluate.add_argument("--output", default=_env("OUTPUT"),
                          help="directory for reports and summary.csv")
    _add_eval_flags(evaluate)
    evaluate.set_defaults(func=cmd_eval, parser=evaluate)

    agg = subparsers.add_parser(
        "aggregate", help="aggregate report files into a medians CSV"
    )
    agg.add_argument("--reports", nargs="+", required=True,
                     help="report files or directories of *.json")
    agg.add_argument("--output", required=True, help="CSV output path")
    agg.set_defaults(func=cmd_aggregate, parser=agg)

    compare = subparsers.add_parser(
        "compare", help="pairwise significance between methods"
    )
    compare.add_argument("--reports", nargs="+", required=True,
                         help="report files or directories of *.json")
    compare.add_argument("--target", default="vocals",
                         help="target to compare on (default vocals)")
    compare.add_argument("--metric", default="SDR", choices=METRIC_NAMES,
                         help="metric to compare on (default SDR)")
    compare.add_argument("--threshold", type=_positive(float, below=1.0), default=0.05,
                         help="significance level for stderr verdicts, in (0, 1) "
                              "(default 0.05)")
    compare.add_argument("--output", required=True,
                         help="CSV output path for the p-value matrix")
    compare.add_argument("--json", default=None,
                         help="optional JSON output path")
    compare.set_defaults(func=cmd_compare, parser=compare)

    validate = subparsers.add_parser("validate", help="check a corpus tree")
    validate.add_argument("--corpus", default=_env("CORPUS"),
                          help="corpus root containing train/ and test/")
    validate.add_argument("--manifest", default=None,
                          help="write a JSON corpus manifest here")
    validate.add_argument("--check-mixture", action="store_true",
                          help="also verify mixture = sum of stems per track")
    validate.add_argument("--tolerance", type=_positive(float, zero=True),
                          default=1e-2,
                          help="mixture consistency tolerance (default 1e-2)")
    validate.set_defaults(func=cmd_validate, parser=validate)

    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        # The subcommand's parser, so the usage line is that command's.
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        try:
            return args.func(args, args.parser)
        except BrokenPipeError:
            return 1
        except (OSError, ValueError, RuntimeError, KeyError) as exc:
            print(f"sepeval: error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
