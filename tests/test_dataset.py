"""Corpus scanning, loading and mixture-consistency tests."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sepeval
import sepeval.dataset as dataset_module
from sepeval import (
    STEM_NAMES,
    AudioSignal,
    WavFormatError,
    derive_accompaniment,
    load_track,
    save_wav,
    scan_corpus,
    validate_mixture,
    write_manifest,
)

from conftest import FIXTURE_RATE, write_track


class TestScan:
    def test_finds_tracks_in_both_splits(self, corpus_root):
        corpus = scan_corpus(corpus_root)
        assert [t.name for t in corpus.train] == ["Alpha - One"]
        assert [t.name for t in corpus.test] == ["Beta - Two"]
        assert corpus.skipped == []
        track = corpus.tracks[0]
        assert track.sample_rate == FIXTURE_RATE
        assert track.channels == 2
        assert track.duration == pytest.approx(2.0)

    def test_names_sorted_within_split(self, tmp_path):
        rng = np.random.default_rng(1)
        for name in ("Zeta", "Alpha", "Middle"):
            write_track(tmp_path / "train" / name, rng, num_samples=400)
        corpus = scan_corpus(tmp_path)
        assert [t.name for t in corpus.tracks] == ["Alpha", "Middle", "Zeta"]

    def test_missing_stem_skips_with_warning(self, corpus_root):
        (corpus_root / "train" / "Alpha - One" / "bass.wav").unlink()
        with pytest.warns(RuntimeWarning, match="bass"):
            corpus = scan_corpus(corpus_root)
        assert [t.name for t in corpus.tracks] == ["Beta - Two"]
        assert corpus.skipped == [("train", "Alpha - One")]

    def test_unreadable_stem_skips_with_warning(self, corpus_root, monkeypatch):
        """An OSError from one stem's header read skips that track.  The
        reader is patched to raise it, as permissions do not bind root."""
        read = dataset_module.wav_info

        def guarded(path):
            if Path(path).parent.name == "Alpha - One" and Path(path).stem == "vocals":
                raise PermissionError(13, "Permission denied", str(path))
            return read(path)

        monkeypatch.setattr(dataset_module, "wav_info", guarded)
        with pytest.warns(RuntimeWarning,
                          match="skipping train/Alpha - One: .*Permission denied"):
            corpus = scan_corpus(corpus_root)
        assert [t.name for t in corpus.tracks] == ["Beta - Two"]
        assert corpus.skipped == [("train", "Alpha - One")]

    def test_inconsistent_stem_skips_with_warning(self, corpus_root):
        folder = corpus_root / "test" / "Beta - Two"
        short = AudioSignal(np.zeros((100, 2)), FIXTURE_RATE)
        save_wav(folder / "drums.wav", short)
        with pytest.warns(RuntimeWarning, match="drums"):
            corpus = scan_corpus(corpus_root)
        assert [t.name for t in corpus.tracks] == ["Alpha - One"]
        assert corpus.skipped == [("test", "Beta - Two")]

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            scan_corpus(tmp_path / "nowhere")

    def test_corpus_without_tracks_raises(self, tmp_path):
        """The error holds the scan's corpus: no track, the folders skipped."""
        (tmp_path / "train").mkdir()
        with pytest.raises(ValueError, match="no usable tracks"):
            scan_corpus(tmp_path)
        (tmp_path / "test" / "junk").mkdir(parents=True)
        with pytest.warns(RuntimeWarning, match="skipping test/junk"):
            with pytest.raises(ValueError, match="no usable tracks") as excinfo:
                scan_corpus(tmp_path)
        assert excinfo.value.corpus.tracks == []
        assert excinfo.value.corpus.skipped == [("test", "junk")]

    def test_find_by_name_and_split(self, corpus_root):
        corpus = scan_corpus(corpus_root)
        assert corpus.find("Alpha - One").split == "train"
        assert corpus.find("Beta - Two", split="test").name == "Beta - Two"
        with pytest.raises(KeyError):
            corpus.find("Alpha - One", split="test")
        with pytest.raises(KeyError):
            corpus.find("Gamma")


class TestLoad:
    def test_stems_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(3)
        written, mixture = write_track(tmp_path / "train" / "T", rng,
                                       num_samples=500)
        corpus = scan_corpus(tmp_path)
        loaded_mix, stems = load_track(corpus.tracks[0])
        assert list(stems) == ["drums", "bass", "other", "vocals"]
        np.testing.assert_array_equal(loaded_mix.samples, mixture)
        for name, samples in written.items():
            np.testing.assert_array_equal(stems[name].samples, samples)

    def test_error_names_offending_stem(self, corpus_root):
        corpus = scan_corpus(corpus_root)
        track = corpus.find("Alpha - One")
        save_wav(track.path / "other.wav",
                 AudioSignal(np.zeros((7, 2)), FIXTURE_RATE))
        with pytest.raises(WavFormatError, match="other"):
            load_track(track)

    def test_accompaniment_is_non_vocal_sum(self, corpus_root):
        corpus = scan_corpus(corpus_root)
        _, stems = load_track(corpus.tracks[0])
        accomp = derive_accompaniment(stems)
        expected = (stems["drums"].samples + stems["bass"].samples
                    + stems["other"].samples)
        np.testing.assert_array_equal(accomp.samples, expected)
        assert accomp.sample_rate == FIXTURE_RATE


# Stems whose float32 sum rounds away the two small parts: 1 + 2^-24 ties
# to 1 in float32, while the float64 sum 1 + 2^-23 is exact (and is a
# float32 value, so a float32 mixture file holds it).
_ROUNDING_STEMS = {"drums": 1.0, "bass": 2.0 ** -24, "other": 2.0 ** -24,
                   "vocals": 0.0}


def _rounding_stems(num_samples=8):
    return {name: AudioSignal(np.full((num_samples, 2), value, dtype=np.float32),
                              FIXTURE_RATE)
            for name, value in _ROUNDING_STEMS.items()}


class TestFloat64Sums:
    def test_accompaniment_sums_in_float64(self):
        accomp = derive_accompaniment(_rounding_stems())
        assert accomp.samples.dtype == np.float64
        np.testing.assert_array_equal(accomp.samples, 1.0 + 2.0 ** -23)

    def test_mixture_check_sums_in_float64(self, tmp_path):
        folder = tmp_path / "test" / "Gamma - Three"
        folder.mkdir(parents=True)
        for name, signal in _rounding_stems().items():
            save_wav(folder / f"{name}.wav", signal)
        save_wav(folder / "mixture.wav",
                 AudioSignal(np.full((8, 2), 1.0 + 2.0 ** -23), FIXTURE_RATE))
        (track,) = scan_corpus(tmp_path).tracks
        _, stems = load_track(track)
        assert all(stem.samples.dtype == np.float32 for stem in stems.values())
        report = validate_mixture(track, tolerance=0.0)
        assert report.max_deviation == 0.0
        assert report.passed


class TestMixtureValidation:
    def test_exact_sum_has_zero_deviation(self, corpus_root):
        corpus = scan_corpus(corpus_root)
        for track in corpus.tracks:
            report = validate_mixture(track)
            assert report.max_deviation == 0.0
            assert report.passed

    def test_rescaled_stem_detected(self, corpus_root):
        corpus = scan_corpus(corpus_root)
        track = corpus.find("Beta - Two")
        vocals = (track.path / "vocals.wav")
        signal = AudioSignal(
            np.frombuffer(vocals.read_bytes()[44:], dtype="<f4")
            .reshape(-1, 2).astype(np.float64) * 1.5,
            FIXTURE_RATE,
        )
        save_wav(vocals, signal)
        report = validate_mixture(track, tolerance=1e-3)
        assert report.max_deviation > 1e-3
        assert not report.passed
        loose = validate_mixture(track, tolerance=10.0)
        assert loose.passed

    def test_deviation_is_that_of_a_float64_stem_sum(self, tmp_path):
        """Stems and a mixture off their sum by a non-dyadic amount, all
        float32: the deviation is exactly that of a float64 loop over the
        stems, which a float32 sum would miss."""
        rng = np.random.default_rng(77)
        folder = tmp_path / "train" / "Off - Sum"
        folder.mkdir(parents=True)
        stems = [rng.standard_normal((FIXTURE_RATE, 2)) * 0.05 for _ in STEM_NAMES]
        for name, samples in zip(STEM_NAMES, stems):
            save_wav(folder / f"{name}.wav", AudioSignal(samples, FIXTURE_RATE))
        mixture = sum(stems) + rng.standard_normal(stems[0].shape) * 1e-3 / 3.0
        save_wav(folder / "mixture.wav", AudioSignal(mixture, FIXTURE_RATE))
        (track,) = scan_corpus(tmp_path).tracks

        def decoded(name):
            raw = (folder / f"{name}.wav").read_bytes()[44:]
            return np.frombuffer(raw, dtype="<f4").reshape(-1, 2)

        total = np.zeros((FIXTURE_RATE, 2))
        for name in STEM_NAMES:
            total += decoded(name)
        expected = float(np.max(np.abs(decoded("mixture") - total)))
        single = sum(decoded(name) for name in STEM_NAMES)
        assert single.dtype == np.float32
        assert float(np.max(np.abs(decoded("mixture") - single))) != expected
        report = validate_mixture(track, tolerance=1e-3)
        assert report.max_deviation == expected
        assert report.passed == (expected <= 1e-3)


class TestMixtureValidationByBlocks:
    """validate_mixture reads the mixture and the stems a block at a time:
    the deviation is bitwise the whole track's, and its memory is flat."""

    @staticmethod
    def _track(root, num_samples, seed):
        """A float32 track whose mixture is off the stem sum by a
        non-dyadic amount, most in its last but one sample."""
        rng = np.random.default_rng(seed)
        folder = root / "train" / "Off - Sum"
        folder.mkdir(parents=True)
        stems = [rng.standard_normal((num_samples, 2)) * 0.05 for _ in STEM_NAMES]
        for name, samples in zip(STEM_NAMES, stems):
            save_wav(folder / f"{name}.wav", AudioSignal(samples, FIXTURE_RATE))
        mixture = sum(stems) + rng.standard_normal(stems[0].shape) * 1e-3 / 3.0
        mixture[-2] += 0.01
        save_wav(folder / "mixture.wav", AudioSignal(mixture, FIXTURE_RATE))
        (track,) = scan_corpus(root).tracks
        return track

    @pytest.mark.parametrize("block", [999, 1000, 8000, 65536])
    def test_deviation_is_the_whole_tracks(self, tmp_path, monkeypatch, block):
        track = self._track(tmp_path, 8000, 78)
        mixture, stems = load_track(track)
        total = derive_accompaniment(stems).samples + stems["vocals"].samples
        expected = float(np.max(np.abs(mixture.samples - total)))
        reads = []
        read = sepeval.WavReader.__getitem__

        def recording_read(reader, frames):
            samples = read(reader, frames)
            reads.append(len(samples))
            return samples

        monkeypatch.setattr(dataset_module, "_CHECK_BLOCK", block)
        monkeypatch.setattr(sepeval.WavReader, "__getitem__", recording_read)
        report = validate_mixture(track, tolerance=1e-3)
        assert report.max_deviation == expected
        assert not report.passed
        assert len(reads) == 5 * -(-8000 // block) and max(reads) == min(block, 8000)

    def test_memory_does_not_grow_with_the_track(self, tmp_path, monkeypatch):
        """Four times the blocks, the same tracemalloc peak within one
        block of float64 samples; decoding the whole track made it grow
        with it."""
        block = 4096
        monkeypatch.setattr(dataset_module, "_CHECK_BLOCK", block)
        peaks = []
        for blocks in (4, 16):
            track = self._track(tmp_path / str(blocks), blocks * block, blocks)
            tracemalloc.start()
            try:
                validate_mixture(track)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= block * 2 * 8, peaks


class TestManifest:
    def test_manifest_contents(self, corpus_root, tmp_path):
        corpus = scan_corpus(corpus_root)
        path = tmp_path / "manifest.json"
        write_manifest(corpus, path)
        payload = json.loads(path.read_text())
        assert payload["root"] == str(corpus_root)
        names = [(t["split"], t["name"]) for t in payload["tracks"]]
        assert names == [("train", "Alpha - One"), ("test", "Beta - Two")]
        entry = payload["tracks"][0]
        assert entry["sample_rate"] == FIXTURE_RATE
        assert entry["channels"] == 2
        assert entry["duration"] == pytest.approx(2.0)

    def test_duration_follows_scanned_length(self, corpus_root, tmp_path):
        """Tracks keep their length in samples, the duration follows from
        it, and the manifest's text is fixed byte for byte."""
        corpus = scan_corpus(corpus_root)
        for track in corpus.tracks:
            assert track.num_samples == 2 * FIXTURE_RATE
            assert track.duration == track.num_samples / track.sample_rate
        path = tmp_path / "manifest.json"
        write_manifest(corpus, path)
        entries = ",\n".join(
            f'    {{\n      "name": "{name}",\n      "split": "{split}",\n'
            f'      "duration": 2.0,\n      "sample_rate": 8000,\n'
            f'      "channels": 2\n    }}'
            for split, name in (("train", "Alpha - One"), ("test", "Beta - Two"))
        )
        root = json.dumps(str(corpus_root))
        assert path.read_text() == (
            f'{{\n  "root": {root},\n  "tracks": [\n{entries}\n  ]\n}}\n'
        )

    def test_non_ascii_name_is_written_as_utf8_under_an_ascii_locale(
            self, tmp_path):
        """The manifest's encoding does not follow the locale's."""
        path = tmp_path / "manifest.json"
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from sepeval import Corpus, TrackRef, write_manifest\n"
            "track = TrackRef('Mot\\u00f6rhead - Ace', 'test', Path('t'), 8000, "
            "8000, 2)\n"
            "write_manifest(Corpus(Path('c'), [track]), sys.argv[1])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sepeval.__file__).parents[1]),
                   PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")
        env.pop("PYTHONIOENCODING", None)
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["tracks"][0]["name"] == "Mot\u00f6rhead - Ace"

    def test_undecodable_name_is_written_as_valid_utf8(self, tmp_path):
        """A name holding a byte the file-system encoding could not decode
        (Latin-1 0xf6) is written as a JSON escape, as reports write it, so
        the file loads from its bytes and gives back the same name."""
        name = b"Mot\xf6rhead - Ace".decode("utf-8", "surrogateescape")
        path = tmp_path / "manifest.json"
        track = sepeval.TrackRef(name, "test", Path("t"), 8000, 8000, 2)
        write_manifest(sepeval.Corpus(Path("c"), [track]), path)
        assert b'"name": "Mot\\udcf6rhead - Ace"' in path.read_bytes()
        assert json.loads(path.read_bytes())["tracks"][0]["name"] == name
