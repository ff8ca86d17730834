"""Corpus scanning, loading and mixture-consistency tests."""

import json

import numpy as np
import pytest

from sepeval import (
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

    def test_inconsistent_stem_skips_with_warning(self, corpus_root):
        folder = corpus_root / "test" / "Beta - Two"
        short = AudioSignal(np.zeros((100, 2)), FIXTURE_RATE)
        save_wav(folder / "drums.wav", short)
        with pytest.warns(RuntimeWarning, match="drums"):
            corpus = scan_corpus(corpus_root)
        assert [t.name for t in corpus.tracks] == ["Alpha - One"]

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            scan_corpus(tmp_path / "nowhere")

    def test_corpus_without_tracks_raises(self, tmp_path):
        (tmp_path / "train").mkdir()
        with pytest.raises(ValueError):
            scan_corpus(tmp_path)

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
