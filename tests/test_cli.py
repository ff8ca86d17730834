"""End-to-end command-line tests driving main() in process."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sepeval
from sepeval import (
    AudioSignal,
    FrameScores,
    TrackScore,
    load_wav,
    read_report,
    save_wav,
    write_report,
)
from sepeval.cli import build_parser, main

from conftest import FIXTURE_RATE, write_track
from test_reports import MALFORMED, malformed_payload

SCORING = ["--filter-len", "32", "--window", "0.5"]
FAST = ["--stft-window", "256", "--stft-hop", "64"] + SCORING


def _run(argv):
    return main([str(a) for a in argv])


class TestOracleCommand:
    def test_end_to_end_writes_estimates_reports_summary(self, corpus_root,
                                                         tmp_path, capsys):
        out = tmp_path / "out"
        rc = _run(["oracle", "--corpus", corpus_root, "--method", "IRM2",
                   "--output", out] + FAST)
        assert rc == 0
        method_dir = out / "IRM2"
        for track in ("Alpha - One", "Beta - Two"):
            for stem in ("drums", "bass", "other", "vocals"):
                assert (method_dir / track / f"{stem}.wav").is_file()
            (score,) = read_report(method_dir / f"{track}.json")
            assert score.method == "IRM2"
            assert set(score.targets) == {"drums", "bass", "other", "vocals",
                                          "accompaniment"}
        assert (method_dir / "summary.csv").is_file()
        assert "Alpha - One" in capsys.readouterr().err

    def test_split_and_track_selection(self, corpus_root, tmp_path):
        out = tmp_path / "out"
        rc = _run(["oracle", "--corpus", corpus_root, "--method", "IBM1",
                   "--split", "train", "--output", out] + FAST)
        assert rc == 0
        assert (out / "IBM1" / "Alpha - One.json").is_file()
        assert not (out / "IBM1" / "Beta - Two.json").exists()

    def test_bare_method_with_fractional_alpha(self, corpus_root, tmp_path):
        out = tmp_path / "out"
        rc = _run(["oracle", "--corpus", corpus_root, "--method", "IRM",
                   "--alpha", "1.5", "--tracks", "Alpha - One",
                   "--output", out] + FAST)
        assert rc == 0
        (score,) = read_report(out / "IRM1.5" / "Alpha - One.json")
        assert score.method == "IRM1.5"

    @pytest.mark.parametrize("argv, conflict", [
        (["--method", "IRM1", "--alpha", "2"], "alpha 2.0 conflicts with method IRM1"),
        (["--method", "IBM2", "--order", "1"], "order 1 conflicts with method IBM2"),
        (["--method", "MWF", "--alpha", "3"], "alpha 3.0 does not apply to method MWF"),
        (["--method", "MWF", "--order", "2"], "order 2 does not apply to method MWF"),
        (["--method", "IBM1", "--alpha", "2"], "alpha 2.0 does not apply to method IBM1"),
        (["--method", "IBM", "--alpha", "2"], "alpha 2.0 does not apply to method IBM"),
        (["--method", "IRM", "--order", "2"], "order 2 does not apply to method IRM"),
        (["--method", "IRM2", "--order", "1"], "order 1 does not apply to method IRM2"),
    ])
    def test_explicit_parameter_conflicting_with_method_fails(
            self, corpus_root, tmp_path, capsys, argv, conflict):
        out = tmp_path / "out"
        rc = _run(["oracle", "--corpus", corpus_root, "--output", out]
                  + argv + FAST)
        assert rc == 1
        assert conflict in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_is_usage_error(self, corpus_root, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            _run(["oracle", "--corpus", corpus_root, "--method", "IWM",
                  "--output", tmp_path / "out"] + FAST)
        assert excinfo.value.code == 2

    def test_missing_output_is_usage_error(self, corpus_root):
        with pytest.raises(SystemExit) as excinfo:
            _run(["oracle", "--corpus", corpus_root, "--method", "IBM1"] + FAST)
        assert excinfo.value.code == 2

    def test_unknown_track_fails(self, corpus_root, tmp_path, capsys):
        rc = _run(["oracle", "--corpus", corpus_root, "--method", "IBM1",
                   "--tracks", "No Such Song", "--output",
                   tmp_path / "out"] + FAST)
        assert rc == 1
        assert "No Such Song" in capsys.readouterr().err


class TestOracleFailures:
    """One bad track is reported and skipped; only all bad fails the run."""

    NAMES = ("Alpha - One", "Beta - Two", "Gamma - Three")

    def _corpus(self, tmp_path, bad):
        rng = np.random.default_rng(2025)
        root = tmp_path / "corpus"
        for name in self.NAMES:
            write_track(root / "train" / name, rng, num_samples=FIXTURE_RATE)
        for name in bad:
            stem = root / "train" / name / "bass.wav"
            stem.write_bytes(stem.read_bytes()[:-400])
        return root

    def test_one_bad_track_scores_the_rest(self, tmp_path):
        corpus = self._corpus(tmp_path, bad=["Beta - Two"])
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="Beta - Two"):
            rc = _run(["oracle", "--corpus", corpus, "--method", "IRM2",
                       "--output", out] + FAST)
        assert rc == 0
        method_dir = out / "IRM2"
        assert not (method_dir / "Beta - Two.json").exists()
        for track in ("Alpha - One", "Gamma - Three"):
            (score,) = read_report(method_dir / f"{track}.json")
            assert score.track == track
        with open(method_dir / "summary.csv", newline="") as handle:
            tracks = {row["track"] for row in csv.DictReader(handle)}
        assert tracks == {"Alpha - One", "Gamma - Three"}

    def test_all_bad_tracks_fail(self, tmp_path, capsys):
        corpus = self._corpus(tmp_path, bad=self.NAMES)
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning):
            rc = _run(["oracle", "--corpus", corpus, "--method", "IRM2",
                       "--output", out] + FAST)
        assert rc == 1
        assert "all 3 tracks failed" in capsys.readouterr().err
        assert not (out / "IRM2" / "summary.csv").exists()


class TestOracleScoresLikeEval:
    """``oracle`` scores its estimates tree exactly as ``eval`` would."""

    @pytest.mark.parametrize("mode", ["v4", "v3"])
    @pytest.mark.parametrize("method", ["IRM2", "MWF"])
    def test_reports_match_eval_of_oracle_estimates(self, corpus_root,
                                                    tmp_path, method, mode):
        out = tmp_path / "oracle"
        assert _run(["oracle", "--corpus", corpus_root, "--method", method,
                     "--output", out, "--mode", mode] + FAST) == 0
        rescored = tmp_path / "eval"
        assert _run(["eval", "--corpus", corpus_root, "--estimates",
                     out / method, "--method", method, "--output", rescored,
                     "--mode", mode] + SCORING) == 0
        names = ["Alpha - One.json", "Beta - Two.json", "summary.csv"]
        assert sorted(p.name for p in rescored.iterdir()) == names
        for name in names:
            assert (out / method / name).read_bytes() == (rescored / name).read_bytes()


class TestMixedSampleRates:
    """Windows are sized in seconds, so a selection must share one rate."""

    @pytest.fixture
    def mixed_corpus(self, tmp_path):
        rng = np.random.default_rng(11)
        root = tmp_path / "corpus"
        write_track(root / "test" / "Low - Rate", rng, rate=8000)
        write_track(root / "test" / "High - Rate", rng, rate=16000)
        return root

    def _check_rejected(self, rc, out, capsys):
        assert rc == 1
        err = capsys.readouterr().err
        assert "8000" in err and "16000" in err
        assert not out.exists()

    def test_eval_rejects_mixed_rates(self, mixed_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        rc = _run(["eval", "--corpus", mixed_corpus, "--estimates",
                   mixed_corpus / "test", "--output", out] + SCORING)
        self._check_rejected(rc, out, capsys)

    def test_oracle_rejects_mixed_rates(self, mixed_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        rc = _run(["oracle", "--corpus", mixed_corpus, "--method", "IRM2",
                   "--output", out] + FAST)
        self._check_rejected(rc, out, capsys)


class TestEvalCommand:
    def _estimates_tree(self, tmp_path, corpus_root):
        root = tmp_path / "copies"
        for split, track in (("train", "Alpha - One"), ("test", "Beta - Two")):
            src = corpus_root / split / track
            dest = root / track
            dest.mkdir(parents=True)
            for stem in ("drums", "bass", "other", "vocals"):
                dest.joinpath(f"{stem}.wav").write_bytes(
                    src.joinpath(f"{stem}.wav").read_bytes()
                )
        return root

    @pytest.mark.parametrize("mode", ["v4", "v3"])
    def test_scores_estimate_tree(self, corpus_root, tmp_path, mode):
        estimates = self._estimates_tree(tmp_path, corpus_root)
        out = tmp_path / f"out_{mode}"
        rc = _run(["eval", "--corpus", corpus_root, "--estimates", estimates,
                   "--output", out, "--mode", mode, "--method", "copies",
                   "--filter-len", "32", "--window", "0.5"])
        assert rc == 0
        assert (out / "summary.csv").is_file()
        (score,) = read_report(out / "Alpha - One.json")
        assert score.mode == ("v4_global" if mode == "v4" else "v3_windowed")
        assert score.window == FIXTURE_RATE // 2

    def test_environment_supplies_paths(self, corpus_root, tmp_path,
                                        monkeypatch):
        estimates = self._estimates_tree(tmp_path, corpus_root)
        out = tmp_path / "envout"
        monkeypatch.setenv("SEPEVAL_CORPUS", str(corpus_root))
        monkeypatch.setenv("SEPEVAL_ESTIMATES", str(estimates))
        monkeypatch.setenv("SEPEVAL_OUTPUT", str(out))
        monkeypatch.setenv("SEPEVAL_FILTER_LEN", "32")
        monkeypatch.setenv("SEPEVAL_WINDOW", "0.5")
        assert _run(["eval"]) == 0
        assert (out / "summary.csv").is_file()

    def test_flags_beat_environment(self, corpus_root, tmp_path, monkeypatch):
        estimates = self._estimates_tree(tmp_path, corpus_root)
        out = tmp_path / "flagout"
        monkeypatch.setenv("SEPEVAL_CORPUS", str(tmp_path / "bogus"))
        monkeypatch.setenv("SEPEVAL_FILTER_LEN", "32")
        monkeypatch.setenv("SEPEVAL_WINDOW", "0.5")
        rc = _run(["eval", "--corpus", corpus_root, "--estimates", estimates,
                   "--output", out])
        assert rc == 0

    def test_missing_estimates_dir_fails_cleanly(self, corpus_root, tmp_path,
                                                 capsys):
        rc = _run(["eval", "--corpus", corpus_root,
                   "--estimates", tmp_path / "nowhere",
                   "--output", tmp_path / "out",
                   "--filter-len", "32", "--window", "0.5"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_track_without_estimates_is_skipped(self, corpus_root, tmp_path):
        estimates = self._estimates_tree(tmp_path, corpus_root)
        shutil.rmtree(estimates / "Beta - Two")
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="track Beta - Two failed"):
            rc = _run(["eval", "--corpus", corpus_root, "--estimates",
                       estimates, "--output", out] + SCORING)
        assert rc == 0
        assert (out / "Alpha - One.json").is_file()
        assert not (out / "Beta - Two.json").exists()
        with open(out / "summary.csv", newline="") as handle:
            tracks = {row["track"] for row in csv.DictReader(handle)}
        assert tracks == {"Alpha - One"}

    def test_track_with_estimate_at_another_rate_is_skipped(self, corpus_root,
                                                            tmp_path):
        estimates = self._estimates_tree(tmp_path, corpus_root)
        vocals = estimates / "Beta - Two" / "vocals.wav"
        save_wav(vocals, AudioSignal(load_wav(vocals).samples, 2 * FIXTURE_RATE))
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning,
                          match="track Beta - Two failed: estimate .*vocals.wav"):
            rc = _run(["eval", "--corpus", corpus_root, "--estimates",
                       estimates, "--output", out] + SCORING)
        assert rc == 0
        assert (out / "Alpha - One.json").is_file()
        assert not (out / "Beta - Two.json").exists()

    def test_root_without_track_folders_fails(self, corpus_root, tmp_path,
                                              capsys):
        estimates = tmp_path / "empty"
        estimates.mkdir()
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning):
            rc = _run(["eval", "--corpus", corpus_root, "--estimates",
                       estimates, "--output", out] + SCORING)
        assert rc == 1
        assert "all 2 tracks failed" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()


class TestNumericFlags:
    """A count or length that is not a positive finite number is a usage error."""

    @pytest.mark.parametrize("command, flag, value", [
        ("eval", "--window", "-1"),
        ("eval", "--window", "0"),
        ("eval", "--window", "nan"),
        ("eval", "--window", "inf"),
        ("eval", "--hop", "0"),
        ("eval", "--hop", "-0.5"),
        ("eval", "--workers", "0"),
        ("eval", "--workers", "-3"),
        ("eval", "--filter-len", "0"),
        ("oracle", "--iterations", "0"),
        ("oracle", "--filter-len", "-1"),
        ("oracle", "--stft-window", "0"),
        ("oracle", "--stft-window", "-256"),
        ("oracle", "--stft-hop", "0"),
        ("oracle", "--stft-hop", "-64"),
    ])
    def test_non_positive_value_is_usage_error(self, corpus_root, tmp_path,
                                               capsys, command, flag, value):
        argv = [command, "--corpus", corpus_root, "--output", tmp_path / "out",
                f"{flag}={value}"]
        if command == "eval":
            argv += ["--estimates", corpus_root]
        else:
            argv += ["--method", "IRM2"]
        with pytest.raises(SystemExit) as excinfo:
            _run(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be positive, got '{value}'" in err
        assert not (tmp_path / "out").exists()

    def test_stft_hop_above_window_is_usage_error(self, corpus_root, tmp_path,
                                                  capsys):
        with pytest.raises(SystemExit) as excinfo:
            _run(["oracle", "--corpus", corpus_root, "--output", tmp_path / "out",
                  "--method", "IRM2", "--stft-window", "256", "--stft-hop", "512"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --stft-hop:" in err
        assert "hop=512 window=256" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["-1", "-1e-9", "nan", "inf", "-inf"])
    def test_negative_or_non_finite_tolerance_is_usage_error(self, corpus_root,
                                                             capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            _run(["validate", "--corpus", corpus_root, "--check-mixture",
                  f"--tolerance={value}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --tolerance: must be non-negative, got '{value}'" in err
        assert "FAIL" not in err

    def test_zero_tolerance_is_accepted(self):
        args = build_parser().parse_args(["validate", "--tolerance", "0"])
        assert args.tolerance == 0.0


class TestMalformedEnvironment:
    """A bad ``SEPEVAL_*`` value is a usage error only where it is read."""

    @pytest.mark.parametrize("command, name, value", [
        ("aggregate", "WINDOW", "abc"),
        ("compare", "WORKERS", "two"),
    ])
    def test_unread_variable_is_ignored(self, tmp_path, monkeypatch, command,
                                        name, value):
        _synthetic_reports(tmp_path / "a", "A")
        _synthetic_reports(tmp_path / "b", "B", lift=10.0)
        monkeypatch.setenv(f"SEPEVAL_{name}", value)
        assert _run([command, "--reports", tmp_path / "a", tmp_path / "b",
                     "--output", tmp_path / "out.csv"]) == 0

    @pytest.mark.parametrize("name, value, expected", [
        ("MODE", "v5", ["--mode", "'v5'", "v3", "v4"]),
        ("WINDOW", "abc", ["--window", "'abc'"]),
        ("WINDOW", "-1", ["--window", "positive", "'-1'"]),
        ("WORKERS", "0", ["--workers", "positive", "'0'"]),
        ("WORKERS", "two", ["--workers", "'two'"]),
        ("FILTER_LEN", "0", ["--filter-len", "positive", "'0'"]),
    ])
    def test_read_variable_is_usage_error(self, corpus_root, tmp_path,
                                          monkeypatch, capsys, name, value,
                                          expected):
        monkeypatch.setenv(f"SEPEVAL_{name}", value)
        with pytest.raises(SystemExit) as excinfo:
            _run(["eval", "--corpus", corpus_root, "--estimates", corpus_root,
                  "--output", tmp_path / "out"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert all(part in err for part in expected)
        assert not (tmp_path / "out").exists()


def _synthetic_reports(folder, method, lift=0.0, tracks=6):
    """Write single-method report files with a controllable score level."""
    folder.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(7)
    for i in range(tracks):
        name = f"track{i:02d}"
        frames = [
            FrameScores(sdr=float(rng.standard_normal() + lift), isr=1.0,
                        sir=1.0, sar=1.0, window_start=0, window_len=100)
        ]
        score = TrackScore(track=name, method=method,
                           targets={"vocals": frames},
                           sample_rate=8000, window=100, hop=100)
        write_report(score, folder / f"{name}.json")


class TestAggregateCommand:
    def test_aggregates_directory_of_reports(self, tmp_path, capsys):
        _synthetic_reports(tmp_path / "reports", "A")
        out = tmp_path / "agg.csv"
        rc = _run(["aggregate", "--reports", tmp_path / "reports",
                   "--output", out])
        assert rc == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "method"
        assert any(row[0] == "A" and row[2] == "SDR" for row in rows[1:])

    def test_empty_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        rc = _run(["aggregate", "--reports", empty,
                   "--output", tmp_path / "agg.csv"])
        assert rc == 1
        assert "no reports" in capsys.readouterr().err


class TestCompareCommand:
    def test_two_methods_compared(self, tmp_path, capsys):
        _synthetic_reports(tmp_path / "a", "A")
        _synthetic_reports(tmp_path / "b", "B", lift=10.0)
        out = tmp_path / "sig.csv"
        out_json = tmp_path / "sig.json"
        rc = _run(["compare", "--reports", tmp_path / "a", tmp_path / "b",
                   "--output", out, "--json", out_json])
        assert rc == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["method", "A", "B"]
        assert float(rows[1][2]) < 0.01
        payload = json.loads(out_json.read_text())
        assert payload["methods"] == ["A", "B"]
        assert "differ" in capsys.readouterr().err

    @pytest.mark.parametrize("keys,value", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_malformed_report_is_an_error_naming_the_file(
            self, tmp_path, capsys, keys, value):
        _synthetic_reports(tmp_path / "a", "A")
        _synthetic_reports(tmp_path / "b", "B")
        bad = tmp_path / "b" / "broken.json"
        bad.write_text(json.dumps(malformed_payload(keys, value)))
        rc = _run(["compare", "--reports", tmp_path / "a", tmp_path / "b",
                   "--output", tmp_path / "sig.csv"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"sepeval: error: {bad}")

    def test_single_method_is_usage_error(self, tmp_path):
        _synthetic_reports(tmp_path / "a", "A")
        with pytest.raises(SystemExit) as excinfo:
            _run(["compare", "--reports", tmp_path / "a",
                  "--output", tmp_path / "sig.csv"])
        assert excinfo.value.code == 2


class TestValidateCommand:
    def test_clean_corpus_passes(self, corpus_root, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        rc = _run(["validate", "--corpus", corpus_root, "--check-mixture",
                   "--manifest", manifest])
        assert rc == 0
        err = capsys.readouterr().err
        assert "2 tracks" in err
        assert "ok" in err
        payload = json.loads(manifest.read_text())
        assert len(payload["tracks"]) == 2

    def test_inconsistent_mixture_fails(self, corpus_root, capsys):
        folder = corpus_root / "train" / "Alpha - One"
        samples = np.frombuffer(
            (folder / "vocals.wav").read_bytes()[44:], dtype="<f4"
        ).reshape(-1, 2).astype(np.float64)
        save_wav(folder / "vocals.wav", AudioSignal(samples * 2.0, FIXTURE_RATE))
        rc = _run(["validate", "--corpus", corpus_root, "--check-mixture",
                   "--tolerance", "1e-4"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err

    def test_unreadable_track_is_reported_and_the_rest_checked(self, tmp_path):
        rng = np.random.default_rng(2025)
        root = tmp_path / "corpus"
        for name in ("Alpha - One", "Beta - Two", "Gamma - Three"):
            write_track(root / "train" / name, rng, num_samples=FIXTURE_RATE)
        stem = root / "train" / "Beta - Two" / "bass.wav"
        stem.write_bytes(stem.read_bytes()[:-400])
        # A child process, so that warnings reach stderr as they do for users.
        env = dict(os.environ, PYTHONPATH=str(Path(sepeval.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sepeval.cli", "validate", "--corpus",
             str(root), "--check-mixture"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        for name in ("Alpha - One", "Gamma - Three"):
            assert any(f"train/{name}:" in line and "[ok]" in line
                       for line in lines)
        assert any("RuntimeWarning: track Beta - Two failed" in line
                   for line in lines)

    def test_missing_corpus_fails_cleanly(self, tmp_path, capsys):
        rc = _run(["validate", "--corpus", tmp_path / "missing"])
        assert rc == 1
        assert "error" in capsys.readouterr().err
