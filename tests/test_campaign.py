"""Campaign tests: track scoring, parallel runs, aggregation, significance."""

import csv
import json
import math
import os
import re
import shutil
import struct
import threading
import tracemalloc
import warnings
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepeval import (
    AggregateTable,
    AudioSignal,
    EvalConfig,
    FrameScores,
    SignificanceMatrix,
    TrackScore,
    WavFormatError,
    aggregate,
    bss_eval,
    evaluate_track,
    read_report,
    run_campaign,
    save_wav,
    scan_corpus,
    significance_from_table,
    write_report,
    write_significance_csv,
    write_significance_json,
)

from sepeval import audio, bsseval, campaign, dataset
from sepeval.bsseval import MODES

from conftest import FIXTURE_RATE, dyadic, write_track

CONFIG = EvalConfig(window=4000, filter_len=32)


def _corpus_with_arrays(tmp_path, names=("One",), split="train", seed=5):
    rng = np.random.default_rng(seed)
    arrays = {}
    for name in names:
        arrays[name] = write_track(tmp_path / split / name, rng)
    return scan_corpus(tmp_path), arrays


def _write_estimates(dest, stem_arrays, names=None, transform=None):
    dest.mkdir(parents=True, exist_ok=True)
    for name in names or stem_arrays:
        samples = stem_arrays[name]
        if transform is not None:
            samples = transform(samples)
        save_wav(dest / f"{name}.wav", AudioSignal(samples, FIXTURE_RATE))


def _record_reads(monkeypatch):
    """Lists that record, from now on, the path of every WAV file opened as
    a reader and of every range read from one (``load_wav`` reads through
    a reader too)."""
    opened, read = [], []
    init, getitem = audio.WavReader.__init__, audio.WavReader.__getitem__

    def recording_init(self, path):
        opened.append(Path(path))
        init(self, path)

    def recording_getitem(self, frames):
        read.append(Path(self.path))
        return getitem(self, frames)

    monkeypatch.setattr(audio.WavReader, "__init__", recording_init)
    monkeypatch.setattr(audio.WavReader, "__getitem__", recording_getitem)
    return opened, read


class TestEvaluateTrack:
    def test_true_stems_hit_the_ceiling(self, tmp_path):
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, stems)
        score = evaluate_track(corpus.tracks[0], est_dir, "oracle", CONFIG)
        assert set(score.targets) == {"drums", "bass", "other", "vocals",
                                      "accompaniment"}
        for frames in score.targets.values():
            for f in frames:
                for value in (f.sdr, f.isr, f.sir, f.sar):
                    assert value == math.inf or value >= 150.0

    def test_mixture_anchor_scores_are_finite(self, tmp_path):
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, mixture = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, {name: mixture for name in stems})
        score = evaluate_track(corpus.tracks[0], est_dir, "MIX", CONFIG)
        for name in ("drums", "bass", "other", "vocals"):
            for f in score.targets[name]:
                assert math.isfinite(f.sdr)
                assert f.sdr < 20.0

    def test_missing_estimate_drops_target_with_warning(self, tmp_path):
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, stems,
                         names=[n for n in stems if n != "vocals"])
        with pytest.warns(RuntimeWarning, match="vocals"):
            score = evaluate_track(corpus.tracks[0], est_dir, "partial", CONFIG)
        assert "vocals" not in score.targets
        assert "drums" in score.targets
        assert "accompaniment" in score.targets  # derived from non-vocal files

    def test_derived_accompaniment_matches_explicit_file(self, tmp_path):
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        derived_dir = tmp_path / "derived"
        explicit_dir = tmp_path / "explicit"
        _write_estimates(derived_dir, stems)
        _write_estimates(explicit_dir, stems)
        accomp = stems["drums"] + stems["bass"] + stems["other"]
        save_wav(explicit_dir / "accompaniment.wav",
                 AudioSignal(accomp, FIXTURE_RATE))
        a = evaluate_track(corpus.tracks[0], derived_dir, "m", CONFIG)
        b = evaluate_track(corpus.tracks[0], explicit_dir, "m", CONFIG)
        assert a.targets["accompaniment"] == b.targets["accompaniment"]

    def test_shape_mismatch_is_fatal(self, tmp_path):
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, stems)
        save_wav(est_dir / "vocals.wav",
                 AudioSignal(np.zeros((100, 2)), FIXTURE_RATE))
        with pytest.raises(ValueError, match="vocals"):
            evaluate_track(corpus.tracks[0], est_dir, "bad", CONFIG)

    def test_estimate_at_another_rate_is_fatal(self, tmp_path):
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, stems)
        save_wav(est_dir / "vocals.wav",
                 AudioSignal(stems["vocals"], 2 * FIXTURE_RATE))
        with pytest.raises(WavFormatError,
                           match=re.escape(str(est_dir / "vocals.wav"))):
            evaluate_track(corpus.tracks[0], est_dir, "bad", CONFIG)

    def test_mixture_header_only_checks_stems(self, tmp_path, monkeypatch):
        """mixture.wav is never read, yet a stem that disagrees with its
        header is fatal and named, before any file is read; each stem and
        estimate is opened once."""
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, stems)
        opened, read = _record_reads(monkeypatch)
        track = corpus.tracks[0]
        evaluate_track(track, est_dir, "m", CONFIG)
        files = [folder / f"{name}.wav" for folder in (track.path, est_dir)
                 for name in dataset.STEM_NAMES]
        assert sorted(opened) == sorted(files)
        assert set(read) == set(files)
        save_wav(track.path / "bass.wav",
                 AudioSignal(np.zeros((100, 2)), FIXTURE_RATE))
        read.clear()
        with pytest.raises(WavFormatError, match="bass"):
            evaluate_track(track, est_dir, "m", CONFIG)
        assert read == []

    def test_each_estimate_file_is_decoded_once(self, tmp_path, monkeypatch):
        """Every target file that is there is opened once, as one reader,
        and read only through it: a derived accompaniment sums the
        non-vocal estimates' readers and opens nothing of its own."""
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        stems["accompaniment"] = stems["drums"] + stems["bass"] + stems["other"]
        est_dir = tmp_path / "est"
        opened, read = _record_reads(monkeypatch)

        def decode(*targets):
            shutil.rmtree(est_dir, ignore_errors=True)
            _write_estimates(est_dir, stems, names=targets)
            opened.clear()
            read.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # missing targets
                evaluate_track(corpus.tracks[0], est_dir, "m", CONFIG)
            files = sorted(path.name for path in opened if path.parent == est_dir)
            assert sorted({path.name for path in read if path.parent == est_dir}) == files
            return files

        assert decode("vocals") == ["vocals.wav"]
        assert decode("bass", "vocals") == ["bass.wav", "vocals.wav"]
        assert decode("accompaniment") == ["accompaniment.wav"]
        files = ["bass.wav", "drums.wav", "other.wav", "vocals.wav"]
        assert decode(*dataset.STEM_NAMES) == files
        assert decode(*dataset.STEM_NAMES, "accompaniment") == ["accompaniment.wav"] + files

    def test_targets_are_the_files_present(self, tmp_path):
        """No target list: each target without a file, and the accompaniment
        without all its parts, is warned about and left out."""
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, stems, names=("vocals",))
        with pytest.warns(RuntimeWarning) as caught:
            score = evaluate_track(corpus.tracks[0], est_dir, "m", CONFIG)
        assert set(score.targets) == {"vocals"}
        assert {str(w.message).split()[-1] for w in caught} == {
            "'drums'", "'bass'", "'other'", "'accompaniment'"}
        with pytest.raises(TypeError, match="targets"):
            EvalConfig(targets=("vocals",))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(window=0)
        with pytest.raises(ValueError):
            EvalConfig(hop=0)
        for filter_len in (0, -3):
            with pytest.raises(ValueError, match="filter_len"):
                EvalConfig(filter_len=filter_len)
        # Only bsseval's mode names: not the CLI's, nor bare "global"/"windowed".
        for mode in ("v5", "global", "windowed", "v4"):
            with pytest.raises(ValueError, match="mode"):
                EvalConfig(mode=mode)
        for mode in MODES:
            assert EvalConfig(mode=mode).mode == mode
        # Floats, bools and NumPy integers are refused at construction, not
        # when the first track is scored.
        for field in ("window", "hop", "filter_len"):
            for value in (1000.0, True, np.int64(16)):
                with pytest.raises(TypeError, match=field):
                    EvalConfig(**{field: value})


_PARAMETER = st.one_of(
    st.integers(1, 40),
    st.sampled_from([None, 0, -1, True, False, 16.0, math.nan, np.int64(16), "16"]),
)


def _assert_close_frames(got, want):
    """Frames equal in timing and status, finite values within 1e-9 dB."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.window_start, g.window_len) == (w.window_start, w.window_len)
        for name in ("sdr", "isr", "sir", "sar"):
            a, b = getattr(g, name), getattr(w, name)
            if math.isfinite(b):
                assert abs(a - b) <= 1e-9, (name, g, w)
            else:
                assert a == b or math.isnan(a) and math.isnan(b), (name, g, w)


class TestOneFitPass:
    """One bss_eval call scores all five targets: the accompaniment, as the
    group of the non-vocal stems, through the stems' own projector."""

    WINDOW = 4000

    @pytest.fixture
    def corpus(self, corpus_root):
        """The conftest corpus and a track whose vocals are silent over
        window 0 and whose drums, bass and other are silent over window 1;
        estimates are the stems plus noise, the accompaniment derived."""
        rng = np.random.default_rng(71)
        folder = corpus_root / "test" / "Gamma - Three"
        folder.mkdir(parents=True)
        stems = {name: dyadic(0.05 * rng.standard_normal((4 * self.WINDOW, 2)))
                 for name in dataset.STEM_NAMES}
        stems["vocals"][:self.WINDOW] = 0.0
        for name in dataset.ACCOMPANIMENT_STEMS:
            stems[name][self.WINDOW:2 * self.WINDOW] = 0.0
        for name, samples in stems.items():
            save_wav(folder / f"{name}.wav", AudioSignal(samples, FIXTURE_RATE))
        save_wav(folder / "mixture.wav", AudioSignal(sum(stems.values()), FIXTURE_RATE))
        corpus = scan_corpus(corpus_root)
        for track in corpus.tracks:
            true = dataset.load_track(track)[1]
            _write_estimates(corpus_root / "est" / track.name,
                             {name: true[name].samples for name in true},
                             transform=lambda x: x + dyadic(0.02 * rng.standard_normal(x.shape)))
        return corpus

    @pytest.mark.parametrize("mode", MODES)
    def test_accompaniment_scores_as_against_the_pair(self, corpus, mode):
        """The frames match those of the [vocals, accompaniment] reference
        pair within 1e-9 dB, statuses identical."""
        config = EvalConfig(window=self.WINDOW, filter_len=32, mode=mode)
        for track in corpus.tracks:
            folder = corpus.root / "est" / track.name
            score = evaluate_track(track, folder, "m", config)
            stems = dataset.load_track(track)[1]
            estimates = {name: audio.load_wav(folder / f"{name}.wav")
                         for name in dataset.STEM_NAMES}
            (pair,) = bss_eval(
                [stems["vocals"], dataset.derive_accompaniment(stems)],
                [dataset.derive_accompaniment(estimates)], targets=[1],
                window=self.WINDOW, filter_len=32, mode=mode)
            frames = score.targets["accompaniment"]
            _assert_close_frames(frames, pair)
            if track.name == "Gamma - Three":
                assert frames[1].sdr == -math.inf and math.isnan(frames[1].sir)
                if mode == "v3_windowed":  # vocals silent: no interference
                    assert frames[0].sir == math.inf

    @pytest.mark.parametrize("mode, recursions", [
        ("v4_global", [5, 1, 1]),
        # Vocals silent: the group's joint system is its solo one.  Drums,
        # bass and other silent: the stems' joint system is the vocals'.
        ("v3_windowed", [4, 1] + [1, 1] + [5, 1, 1] * 2),
    ])
    def test_one_call_and_one_projector_per_span(self, corpus, monkeypatch,
                                                 mode, recursions):
        """Per track one bss_eval call and one projector per span; per span
        one block-Levinson stack of the solo systems, then the joint
        systems, stems' and accompaniment's, one each."""
        calls, projectors, stacks = [], [], []
        score, init, levinson = campaign.bss_eval, bsseval._Projector.__init__, bsseval._levinson

        def counting_bss_eval(*args, **kwargs):
            calls.append(1)
            return score(*args, **kwargs)

        def counting_init(self, *args):
            projectors.append(1)
            init(self, *args)

        def counting_levinson(lags):
            stacks.append(len(lags))
            return levinson(lags)

        monkeypatch.setattr(campaign, "bss_eval", counting_bss_eval)
        monkeypatch.setattr(bsseval._Projector, "__init__", counting_init)
        monkeypatch.setattr(bsseval, "_levinson", counting_levinson)
        (track,) = [t for t in corpus.tracks if t.name == "Gamma - Three"]
        config = EvalConfig(window=self.WINDOW, filter_len=32, mode=mode)
        evaluate_track(track, corpus.root / "est" / track.name, "m", config)
        assert len(calls) == 1
        assert len(projectors) == (1 if mode == "v4_global" else 4)
        assert stacks == recursions


class TestStreamedScoring:
    """``evaluate_track`` reads the stems and estimates from their files a
    block at a time; its reports are byte for byte those of ``bss_eval``
    over the decoded files, and its memory does not grow with the track."""

    # Seven blocks and a part of one: two chunks at the module's size (of
    # seven blocks at 32 taps), eight when the chunks are cut to one block.
    NUM_SAMPLES = 7 * bsseval._BLOCK_LEN + 1000

    @pytest.fixture
    def track(self, tmp_path):
        rng = np.random.default_rng(29)
        write_track(tmp_path / "corpus" / "test" / "Long", rng,
                    num_samples=self.NUM_SAMPLES)
        return scan_corpus(tmp_path / "corpus").tracks[0]

    @staticmethod
    def _write(track, folder, depths, rng):
        """Estimates of ``depths`` (target -> bit depth): each stem plus
        noise, or for the accompaniment the sum of its stems."""
        folder.mkdir(parents=True, exist_ok=True)
        stems = {name: stem.samples for name, stem in dataset.load_track(track)[1].items()}
        stems["accompaniment"] = sum(stems[name] for name in dataset.ACCOMPANIMENT_STEMS)
        for name, depth in depths.items():
            samples = stems[name] + 0.01 * rng.standard_normal(stems[name].shape)
            save_wav(folder / f"{name}.wav", AudioSignal(samples, FIXTURE_RATE),
                     bit_depth=depth)

    # v3 windows are shorter than a block: one chunk each, however cut.
    @pytest.mark.parametrize("mode, one_block", [
        ("v4_global", False), ("v4_global", True), ("v3_windowed", False)])
    @pytest.mark.parametrize("depths", [
        # The accompaniment derived from 16-bit, 24-bit and float estimates.
        {"drums": 16, "bass": 24, "other": 32, "vocals": 16},
        {"drums": 32, "bass": 16, "other": 24, "vocals": 24, "accompaniment": 24},
        {"vocals": 32, "accompaniment": 16},
    ])
    def test_reports_equal_in_memory_scoring(self, track, tmp_path, monkeypatch,
                                             mode, one_block, depths):
        folder = tmp_path / "est"
        self._write(track, folder, depths, np.random.default_rng(len(depths)))
        if one_block:
            monkeypatch.setattr(bsseval, "_CHUNK_CELLS", 1)
        blocks = bsseval._Blocks(self.NUM_SAMPLES, 32)
        assert len(blocks.chunks(self.NUM_SAMPLES, 8)) == (8 if one_block else 2)
        config = EvalConfig(window=4000, filter_len=32, mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # missing targets
            streamed = evaluate_track(track, folder, "m", config)

        stems = dataset.load_track(track)[1]
        estimates = {name: audio.load_wav(folder / f"{name}.wav") for name in depths}
        if "accompaniment" not in estimates and "drums" in estimates:
            estimates["accompaniment"] = dataset.derive_accompaniment(estimates)
        names = [name for name in campaign.TARGET_NAMES if name in estimates]
        frames = bss_eval([stems[name] for name in dataset.STEM_NAMES],
                          [estimates[name] for name in names],
                          targets=[campaign._TARGET_INDEX[name] for name in names],
                          filter_len=32, window=4000, hop=4000, mode=mode)
        expected = TrackScore(track=track.name, method="m",
                              targets=dict(zip(names, frames)),
                              sample_rate=FIXTURE_RATE, window=4000, hop=4000,
                              mode=mode, filter_len=32)
        write_report(streamed, tmp_path / "streamed.json")
        write_report(expected, tmp_path / "expected.json")
        assert set(streamed.targets) == set(names)
        assert (tmp_path / "streamed.json").read_bytes() == (
            tmp_path / "expected.json").read_bytes()

    def test_memory_does_not_grow_with_the_track(self, tmp_path):
        """The tracemalloc peak of ``evaluate_track`` on a 32 s track is
        within 10% of its peak on an 8 s one (44.1 kHz, four stereo stems of
        16-bit noise and float estimates, 1 s windows, 64 taps; the
        accompaniment derived).  Measured: 20.6 and 22.4 MiB, the growth
        being the samples held until a window is whole; decoding every stem
        and estimate whole took it from 47 to 130 MiB."""
        rate, peaks = 44100, []
        rng = np.random.default_rng(31)
        for seconds in (8, 32):
            folder = tmp_path / f"corpus{seconds}" / "test" / "T"
            est = tmp_path / f"est{seconds}"
            folder.mkdir(parents=True)
            est.mkdir()
            stems = {name: dyadic(0.05 * rng.standard_normal((seconds * rate, 2)), 2**15)
                     for name in dataset.STEM_NAMES}
            for name, samples in stems.items():
                save_wav(folder / f"{name}.wav", AudioSignal(samples, rate), bit_depth=16)
                noisy = samples + 0.01 * rng.standard_normal(samples.shape)
                save_wav(est / f"{name}.wav", AudioSignal(noisy, rate))
            save_wav(folder / "mixture.wav", AudioSignal(sum(stems.values()), rate),
                     bit_depth=16)
            del stems
            (track,) = scan_corpus(tmp_path / f"corpus{seconds}").tracks
            config = EvalConfig(window=rate, filter_len=64)
            tracemalloc.start()
            try:
                evaluate_track(track, est, "m", config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_non_finite_estimate_fails_its_track_alone(self, tmp_path):
        """A NaN in the last block of a float estimate is met only when that
        block is read, and fails that track alone, the warning naming the
        file."""
        rng = np.random.default_rng(37)
        for name in ("Able", "Baker"):
            write_track(tmp_path / "corpus" / "test" / name, rng,
                        num_samples=self.NUM_SAMPLES)
        corpus = scan_corpus(tmp_path / "corpus")
        for track in corpus.tracks:
            self._write(track, tmp_path / "est" / track.name,
                        dict.fromkeys(dataset.STEM_NAMES, 32), rng)
        path = tmp_path / "est" / "Able" / "vocals.wav"
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<f", math.nan)  # the last sample
        path.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning) as caught:
            scores = run_campaign(corpus.tracks, tmp_path / "est", "m", CONFIG)
        assert [score.track for score in scores] == ["Baker"]
        (failure,) = [str(w.message) for w in caught if "failed" in str(w.message)]
        assert failure.startswith("track Able failed:")
        assert f"{path}: non-finite samples" in failure

    def test_truncated_estimate_fails_before_any_read(self, track, tmp_path,
                                                      monkeypatch):
        folder = tmp_path / "est"
        self._write(track, folder, dict.fromkeys(dataset.STEM_NAMES, 24),
                    np.random.default_rng(41))
        path = folder / "other.wav"
        path.write_bytes(path.read_bytes()[:-3000])
        opened, read = _record_reads(monkeypatch)
        with pytest.raises(WavFormatError, match="payload is shorter"):
            evaluate_track(track, folder, "m", CONFIG)
        assert path in opened
        assert read == []


class TestConfigAgreesWithBssEval:
    """``EvalConfig`` accepts exactly the scoring parameters that ``bss_eval``
    accepts on a track long enough for them, and every config it accepts
    yields a report header that ``write_report`` writes and reads back."""

    @pytest.fixture(scope="class")
    def track(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("config")
        corpus, arrays = _corpus_with_arrays(root)
        _write_estimates(root / "est", arrays["One"][0])
        return corpus.tracks[0], root / "est"

    # Derandomized: the same examples on every run, so the suite cannot flake.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(window=_PARAMETER, hop=_PARAMETER, filter_len=_PARAMETER,
           mode=st.one_of(st.sampled_from(MODES),
                          st.sampled_from(("global", "windowed", "v4", None))))
    def test_same_refusals_and_a_writable_header(self, track, tmp_path_factory,
                                                 window, hop, filter_len, mode):
        params = dict(window=window, hop=hop, filter_len=filter_len, mode=mode)
        refs = [AudioSignal(np.random.default_rng(k).standard_normal((48, 1)),
                            FIXTURE_RATE) for k in range(2)]
        try:
            config = EvalConfig(**params)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                bss_eval(refs, refs[:1], **params)
            return
        bss_eval(refs, refs[:1], **params)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(campaign, "bss_eval",
                          lambda references, estimates, **_: [[] for _ in estimates])
            score = evaluate_track(*track, "m", config)
        path = tmp_path_factory.mktemp("header") / "report.json"
        write_report(score, path)
        (back,) = read_report(path)
        assert (back.window, back.hop, back.filter_len, back.mode) == (
            window, window if hop is None else hop, filter_len, mode)


class TestRunCampaign:
    def _setup(self, tmp_path, names=("Able", "Baker")):
        corpus, arrays = _corpus_with_arrays(tmp_path, names=names)
        root = tmp_path / "estimates"
        for name in names:
            stems, _ = arrays[name]
            _write_estimates(root / name, stems)
        return corpus, root

    def test_scores_sorted_and_reports_written(self, tmp_path):
        corpus, root = self._setup(tmp_path)
        out = tmp_path / "reports"
        scores = run_campaign(corpus.tracks, root, "oracle", CONFIG,
                              output_dir=out)
        assert [s.track for s in scores] == ["Able", "Baker"]
        for score in scores:
            (back,) = read_report(out / f"{score.track}.json")
            assert back == score

    def test_worker_count_does_not_change_output(self, tmp_path):
        corpus, root = self._setup(tmp_path)
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_campaign(corpus.tracks, root, "m", CONFIG,
                     workers=1, output_dir=serial_dir)
        run_campaign(corpus.tracks, root, "m", CONFIG,
                     workers=4, output_dir=parallel_dir)
        for name in ("Able", "Baker"):
            assert (serial_dir / f"{name}.json").read_bytes() == (
                parallel_dir / f"{name}.json"
            ).read_bytes()

    def test_partial_failure_skips_track(self, tmp_path):
        corpus, root = self._setup(tmp_path)
        save_wav(root / "Able" / "drums.wav",
                 AudioSignal(np.zeros((9, 2)), FIXTURE_RATE))
        with pytest.warns(RuntimeWarning, match="Able"):
            scores = run_campaign(corpus.tracks, root, "m", CONFIG)
        assert [s.track for s in scores] == ["Baker"]

    def test_all_failures_raise(self, tmp_path):
        corpus, root = self._setup(tmp_path)
        for name in ("Able", "Baker"):
            save_wav(root / name / "drums.wav",
                     AudioSignal(np.zeros((9, 2)), FIXTURE_RATE))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(RuntimeError):
                run_campaign(corpus.tracks, root, "m", CONFIG)

    def test_duplicate_names_are_refused_before_reading(self, tmp_path, monkeypatch):
        """``train/X`` and ``test/X`` would share ``estimates/X`` and one
        report: the run raises, naming X, before any track is read."""
        rng = np.random.default_rng(13)
        for split in ("train", "test"):
            write_track(tmp_path / split / "X", rng)
        corpus = scan_corpus(tmp_path)
        root = tmp_path / "estimates"
        monkeypatch.setattr(campaign, "evaluate_track",
                            lambda *args: pytest.fail("a track was read"))
        with pytest.raises(ValueError, match=r"\['X'\]"):
            run_campaign(corpus.tracks, root, "m", CONFIG, output_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("step,track_name,error", [
        ("evaluate_track", attrgetter("name"), MemoryError("cannot allocate the Gram")),
        ("write_report", attrgetter("track"), OSError(28, "No space left on device")),
    ], ids=["memory", "report-write"])
    def test_a_failing_step_is_a_per_track_failure(self, tmp_path, monkeypatch, step,
                                                   track_name, error):
        """Running out of memory on one track, or failing to write its
        report, leaves the others scored and reported."""
        corpus, root = self._setup(tmp_path, names=("Able", "Baker", "Charlie"))
        real = getattr(campaign, step)

        def failing(first, *args, **kwargs):
            if track_name(first) == "Baker":  # first: the TrackRef, or its TrackScore
                raise error
            return real(first, *args, **kwargs)

        monkeypatch.setattr(campaign, step, failing)
        out = tmp_path / "reports"
        with pytest.warns(RuntimeWarning, match="Baker") as caught:
            scores = run_campaign(corpus.tracks, root, "m", CONFIG,
                                  workers=2, output_dir=out)
        assert [s.track for s in scores] == ["Able", "Charlie"]
        assert sorted(p.name for p in out.iterdir()) == ["Able.json", "Charlie.json"]
        failures = [str(w.message) for w in caught if "failed" in str(w.message)]
        assert len(failures) == 1 and "Baker" in failures[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_interrupt_keeps_the_finished_reports(self, tmp_path, monkeypatch,
                                                    workers):
        """Each report is written as its track is scored: an interrupt on
        the third of four tracks leaves reports of tracks scored before it,
        each the bytes an uninterrupted run writes, and no partial file.
        One worker scores in order; two take tracks from both ends."""
        names = ("Able", "Baker", "Charlie", "Delta")
        corpus, root = self._setup(tmp_path, names=names)
        whole = tmp_path / "whole"
        run_campaign(corpus.tracks, root, "m", CONFIG, workers=1, output_dir=whole)
        real = campaign.evaluate_track

        def interrupted(track, *args, **kwargs):
            if track.name == "Charlie":
                raise KeyboardInterrupt
            return real(track, *args, **kwargs)

        monkeypatch.setattr(campaign, "evaluate_track", interrupted)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(corpus.tracks, root, "m", CONFIG, workers=workers,
                         output_dir=out)
        kept = sorted(os.listdir(out))
        if workers == 1:
            assert kept == ["Able.json", "Baker.json"]
        else:
            assert kept and set(kept) <= {"Able.json", "Baker.json", "Delta.json"}
        for name in kept:
            assert (out / name).read_bytes() == (whole / name).read_bytes()


class TestMapThreads:
    def test_results_in_item_order(self):
        for workers in (1, 2, 5):
            assert campaign._map_threads(lambda x: x * x, range(7), workers) == [
                x * x for x in range(7)
            ]

    def test_caller_takes_part(self):
        """One worker is the caller; two workers start one thread."""
        threads = campaign._map_threads(
            lambda _: threading.get_ident(), range(4), workers=1
        )
        assert set(threads) == {threading.get_ident()}
        barrier = threading.Barrier(2, timeout=10)

        def meet(_):
            barrier.wait()  # both items run at once, or this times out
            return threading.get_ident()

        threads = campaign._map_threads(meet, range(2), workers=2)
        assert threading.get_ident() in threads and len(set(threads)) == 2

    def test_helper_exception_reaches_caller(self):
        caller = threading.get_ident()
        helper_ran = threading.Event()

        def fail_off_caller(_):
            if threading.get_ident() == caller:
                helper_ran.wait(timeout=10)  # leave the other item to the helper
                return
            helper_ran.set()
            raise KeyError("helper")

        with pytest.raises(KeyError, match="helper"):
            campaign._map_threads(fail_off_caller, range(2), workers=2)

    def test_an_interrupt_stops_helpers_after_their_item(self, monkeypatch):
        """An interrupt on the calling thread cancels the items no helper
        has started: the helper finishes the one it holds, and no other
        item starts."""
        shut = threading.Event()

        class Pool(campaign.ThreadPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                shut.set()  # what is left queued now would run
                super().shutdown(wait=wait)

        monkeypatch.setattr(campaign, "ThreadPoolExecutor", Pool)
        caller = threading.get_ident()
        started, held = [], threading.Event()

        def work(item):
            started.append(item)
            if threading.get_ident() != caller:
                held.set()
                shut.wait(timeout=10)  # hold this item until the pool shuts down
                return item
            held.wait(timeout=10)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            campaign._map_threads(work, list(range(20)), workers=2)
        assert sorted(started) == [0, 19]


def _frame(sdr, start=0, length=100):
    return FrameScores(sdr=sdr, isr=sdr, sir=sdr, sar=sdr,
                       window_start=start, window_len=length)


def _track_score(track, method, sdrs):
    frames = [_frame(v, start=100 * i) for i, v in enumerate(sdrs)]
    return TrackScore(track=track, method=method, targets={"vocals": frames},
                      sample_rate=8000, window=100, hop=100)


class TestAggregate:
    def test_median_over_finite_frames(self):
        scores = [_track_score("T", "m", [1.0, 3.0, 5.0])]
        table = aggregate(scores)
        assert table.track_medians[("m", "vocals", "SDR")]["T"] == 3.0

    def test_non_finite_frames_excluded(self):
        scores = [_track_score("T", "m", [1.0, math.inf, 3.0])]
        table = aggregate(scores)
        assert table.track_medians[("m", "vocals", "SDR")]["T"] == 2.0

    def test_all_non_finite_gives_none(self):
        scores = [_track_score("T", "m", [math.inf, -math.inf, math.nan])]
        table = aggregate(scores)
        assert table.track_medians[("m", "vocals", "SDR")]["T"] is None
        assert table.campaign_medians[("m", "vocals", "SDR")] is None

    def test_campaign_median_over_tracks(self):
        scores = [
            _track_score("A", "m", [2.0]),
            _track_score("B", "m", [4.0]),
            _track_score("C", "m", [9.0]),
        ]
        table = aggregate(scores)
        assert table.campaign_medians[("m", "vocals", "SDR")] == 4.0

    def test_score_order_does_not_matter(self):
        scores = [
            _track_score("A", "m", [2.0]),
            _track_score("B", "m", [4.0]),
            _track_score("C", "n", [1.0]),
        ]
        forward = aggregate(scores)
        backward = aggregate(scores[::-1])
        assert forward.track_medians == backward.track_medians
        assert forward.campaign_medians == backward.campaign_medians

    def test_methods_listed_sorted(self):
        scores = [_track_score("A", "zeta", [1.0]),
                  _track_score("A", "alpha", [1.0])]
        assert aggregate(scores).methods == ("alpha", "zeta")

    def test_csv_round_trip(self, tmp_path):
        scores = [_track_score("A", "m", [2.0]), _track_score("B", "m", [4.0])]
        path = tmp_path / "agg.csv"
        aggregate(scores).write_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["method", "target", "metric", "track",
                           "track_median", "campaign_median"]
        sdr_rows = [r for r in rows[1:] if r[2] == "SDR"]
        assert [(r[3], float(r[4]), float(r[5])) for r in sdr_rows] == [
            ("A", 2.0, 3.0),
            ("B", 4.0, 3.0),
        ]

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_duplicate_track_report_rejected(self):
        scores = [_track_score("t1", "m", [1.0]), _track_score("t1", "m", [9.0])]
        with pytest.raises(ValueError, match="method 'm' on target 'vocals' "
                                             "of track 't1'"):
            aggregate(scores)

    def test_disjoint_targets_of_one_track_merge(self):
        drums = TrackScore(track="t1", method="m", targets={"drums": [_frame(5.0)]},
                           sample_rate=8000, window=100, hop=100)
        table = aggregate([_track_score("t1", "m", [1.0]), drums])
        assert table.track_medians[("m", "vocals", "SDR")] == {"t1": 1.0}
        assert table.track_medians[("m", "drums", "SDR")] == {"t1": 5.0}

    def test_even_count_takes_mean_of_middle_pair(self):
        scores = [_track_score("T", "m", [4.0, 1.0, math.nan, 2.0, 8.0])]
        assert aggregate(scores).track_medians[("m", "vocals", "SDR")]["T"] == 3.0

    def test_scores_by_method_skips_undefined(self):
        table = AggregateTable(
            track_medians={
                ("m", "vocals", "SDR"): {"A": 1.0, "B": None},
                ("n", "vocals", "SDR"): {"A": 2.0, "B": 3.0},
            },
            campaign_medians={},
        )
        scores = table.scores_by_method("vocals", "SDR")
        assert scores["m"] == {"A": 1.0}
        assert scores["n"] == {"A": 2.0, "B": 3.0}


class TestSignificance:
    def _table(self, gap=10.0, tracks=8):
        scores = []
        rng = np.random.default_rng(17)
        for i in range(tracks):
            base = float(rng.standard_normal())
            scores.append(_track_score(f"t{i:02d}", "A", [base]))
            scores.append(_track_score(f"t{i:02d}", "B", [base + gap]))
        return aggregate(scores)

    def test_consistent_gap_is_significant(self):
        matrix = significance_from_table(self._table(), "vocals", "SDR")
        assert matrix.pair("A", "B") < 0.01
        assert matrix.num_tracks == 8
        assert matrix.metric == "SDR"
        assert matrix.target == "vocals"

    def test_single_method_rejected(self):
        table = aggregate([_track_score("T", "only", [1.0])])
        with pytest.raises(ValueError):
            significance_from_table(table, "vocals", "SDR")

    def test_csv_blank_for_untestable_pairs(self, tmp_path):
        matrix = SignificanceMatrix(
            ("a", "b"), np.array([[1.0, math.nan], [math.nan, 1.0]])
        )
        path = tmp_path / "sig.csv"
        write_significance_csv(matrix, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["method", "a", "b"]
        assert rows[1] == ["a", "1.0", ""]
        assert rows[2] == ["b", "", "1.0"]

    def test_json_null_for_untestable_pairs(self, tmp_path):
        matrix = SignificanceMatrix(
            ("a", "b"), np.array([[1.0, math.nan], [math.nan, 1.0]]),
            metric="SDR", target="vocals", num_tracks=1,
        )
        path = tmp_path / "sig.json"
        write_significance_json(matrix, path)
        payload = json.loads(path.read_text())
        assert payload["methods"] == ["a", "b"]
        assert payload["p_values"] == [[1.0, None], [None, 1.0]]
        assert payload["num_tracks"] == 1

    def test_json_is_utf8_whatever_bytes_a_name_holds(self, tmp_path):
        """A method named after a folder whose name the file-system encoding
        could not decode reads back from the file's bytes as that name."""
        name = b"Mot\xf6rhead - Ace".decode("utf-8", "surrogateescape")
        matrix = SignificanceMatrix((name, "b"), np.array([[1.0, 0.5], [0.5, 1.0]]))
        path = tmp_path / "sig.json"
        write_significance_json(matrix, path)
        assert json.loads(path.read_bytes())["methods"] == [name, "b"]


def _np_finite_median(values):
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return None
    with np.errstate(over="ignore"):  # two middle values near the float max
        return float(np.median(finite))


# Frame lists of odd and even length, empty ones and all-non-finite ones.
_FRAME_VALUES = st.lists(
    st.one_of(
        st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324,
                         1.7976931348623157e308, -1.7976931348623157e308]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-100.0, 100.0),
    ),
    max_size=9,
)


class TestMedianProperty:
    # Derandomized: the same examples on every run, so the suite cannot flake.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rows=st.lists(
        st.tuples(st.sampled_from(["A", "B", "C", "D"]),
                  st.sampled_from(["m", "n"]), _FRAME_VALUES),
        min_size=1, max_size=8, unique_by=lambda row: row[:2],
    ), data=st.data())
    def test_medians_equal_numpy_and_ignore_order(self, rows, data):
        scores = [_track_score(track, method, values)
                  for track, method, values in rows]
        table = aggregate(scores)
        for track, method, values in rows:
            got = table.track_medians[(method, "vocals", "SDR")][track]
            want = _np_finite_median(values)
            assert got == want and type(got) is type(want)
        for key, per_track in table.track_medians.items():
            want = _np_finite_median(v for v in per_track.values() if v is not None)
            assert table.campaign_medians[key] == want
        shuffled = aggregate(data.draw(st.permutations(scores)))
        assert shuffled.track_medians == table.track_medians
        assert shuffled.campaign_medians == table.campaign_medians


# dB values as scores hold them: floats of every kind, ints and NumPy floats.
_DB_VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
_SCORED_FRAMES = st.lists(
    st.tuples(_DB_VALUES, _DB_VALUES, _DB_VALUES, _DB_VALUES),
    max_size=7,
).map(lambda rows: [FrameScores(*row, window_start=100 * i, window_len=100)
                    for i, row in enumerate(rows)])


def _bits(table: AggregateTable) -> tuple:
    """The table's medians as the bytes of each float64, None kept."""
    def packed(value):
        return None if value is None else struct.pack("<d", value)

    return (
        {key: {track: packed(v) for track, v in per_track.items()}
         for key, per_track in table.track_medians.items()},
        {key: packed(v) for key, v in table.campaign_medians.items()},
    )


class TestAggregateOfReadReports:
    # Derandomized: the same examples on every run, so the suite cannot flake.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(scores=st.lists(
        st.builds(TrackScore, track=st.sampled_from(["A", "B", "C"]),
                  method=st.sampled_from(["m", "n"]),
                  targets=st.dictionaries(st.sampled_from(["vocals", "bass"]),
                                          _SCORED_FRAMES, max_size=2)),
        min_size=1, max_size=6, unique_by=lambda score: (score.track, score.method),
    ))
    def test_equals_in_memory_aggregate_bitwise(self, scores, tmp_path_factory):
        folder = tmp_path_factory.mktemp("aggregate")
        for i, score in enumerate(scores):
            write_report(score, folder / f"{i}.json")
        back = [score for i in range(len(scores))
                for score in read_report(folder / f"{i}.json")]
        assert _bits(aggregate(back)) == _bits(aggregate(scores))
