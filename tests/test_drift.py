"""Score drift: v4 and v3 frames of a seeded corpus against committed values.

Two tracks at 8 kHz are generated from a fixed seed: one of stereo
coloured noise (vocals silent for the first second, so -inf and
undefined frames occur) and one of harmonic tones over a faint noise
floor, rounded to 16 bits with uniform dither, whose near-singular
systems the block-Levinson factor refuses, so the dense Cholesky
fallback is scored too.  The floor keeps those systems conditioned well
enough that their scores do not move by 1e-9 dB with the BLAS thread
count (2e-12 dB between one and two threads; 2e-9 dB without the floor).
Each estimate is its stem plus 0.3 of the next stem and 0.01 of white
noise; the accompaniment estimate is derived.  ``run_campaign`` scores them in
both modes, and every frame must keep its status and lie within 1e-9 dB
of ``drift_frames.json``.

Run this file as a script to rewrite ``drift_frames.json`` after a change
that is meant to move the scores.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sepeval import STEM_NAMES, AudioSignal, EvalConfig, run_campaign, save_wav
from sepeval import bsseval
from sepeval.dataset import scan_corpus

RATE = 8000
SECONDS = 3
CONFIG = dict(window=RATE, filter_len=64)
EXPECTED = Path(__file__).with_name("drift_frames.json")
TOLERANCE_DB = 1e-9
METRICS = ("sdr", "isr", "sir", "sar")


def _coloured(rng, num_samples: int, tilt: float) -> np.ndarray:
    """Stereo noise with power ~ f^-tilt, channels half correlated."""
    common = rng.standard_normal(num_samples)
    white = np.stack([common + rng.standard_normal(num_samples) for _ in range(2)],
                     axis=1)
    spectrum = np.fft.rfft(white, axis=0)
    freqs = np.arange(1, spectrum.shape[0] + 1, dtype=np.float64)
    spectrum *= (freqs ** (-tilt / 2.0))[:, None]
    out = np.fft.irfft(spectrum, n=num_samples, axis=0)
    return 0.1 * out / np.sqrt(np.mean(out * out))


def _tonal(rng, num_samples: int) -> np.ndarray:
    """Eight harmonics of an 80-400 Hz fundamental per channel over a white
    floor 50 dB down, 16-bit with uniform dither."""
    t = np.arange(num_samples) / RATE
    f0 = rng.uniform(80.0, 400.0)
    out = np.zeros((num_samples, 2))
    for c in range(2):
        for h in range(1, 9):
            out[:, c] += np.sin(2 * np.pi * h * f0 * t + rng.uniform(0, 2 * np.pi)) / h
    out *= 0.1 / np.sqrt(np.mean(out * out))
    out += 3e-4 * rng.standard_normal(out.shape)
    return np.round(out * 32768 + rng.uniform(-0.5, 0.5, out.shape)) / 32768


def write_corpus(root: Path) -> Path:
    """The two tracks under ``root/corpus/test`` and their estimates under
    ``root/estimates``; returns ``root``."""
    rng = np.random.default_rng(2018)
    num_samples = SECONDS * RATE
    for track in ("noise", "tones"):
        if track == "noise":
            stems = [_coloured(rng, num_samples, tilt) for tilt in (0.3, 2.0, 1.0, 1.4)]
            stems[3][:RATE] = 0.0
        else:
            stems = [_tonal(rng, num_samples) for _ in STEM_NAMES]
        folder = root / "corpus" / "test" / track
        estimates = root / "estimates" / track
        folder.mkdir(parents=True)
        estimates.mkdir(parents=True)
        for j, name in enumerate(STEM_NAMES):
            save_wav(folder / f"{name}.wav", AudioSignal(stems[j], RATE))
            estimate = (stems[j] + 0.3 * stems[(j + 1) % len(stems)]
                        + 0.01 * rng.standard_normal(stems[j].shape))
            save_wav(estimates / f"{name}.wav", AudioSignal(estimate, RATE))
        save_wav(folder / "mixture.wav", AudioSignal(sum(stems), RATE))
    return root


def _encode(value: float):
    if math.isnan(value):
        return "undefined"
    if math.isinf(value):
        return "inf" if value > 0 else "neg_inf"
    return value


def score_corpus(root: Path) -> dict:
    """{mode: {track: {target: [[start, length, sdr, isr, sir, sar], ...]}}},
    non-finite values named by their report status."""
    tracks = scan_corpus(root / "corpus").tracks
    frames = {}
    for mode in ("v4_global", "v3_windowed"):
        scores = run_campaign(tracks, root / "estimates", "drift",
                              EvalConfig(mode=mode, **CONFIG), workers=1)
        frames[mode] = {
            score.track: {
                target: [
                    [f.window_start, f.window_len]
                    + [_encode(getattr(f, m)) for m in METRICS]
                    for f in target_frames
                ]
                for target, target_frames in score.targets.items()
            }
            for score in scores
        }
    return frames


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    return score_corpus(write_corpus(tmp_path_factory.mktemp("drift")))


def test_frames_match_committed_values(scored):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert scored.keys() == expected.keys()
    for mode, tracks in expected.items():
        assert scored[mode].keys() == tracks.keys()
        for track, targets in tracks.items():
            assert scored[mode][track].keys() == targets.keys()
            for target, frames in targets.items():
                got = scored[mode][track][target]
                assert len(got) == len(frames), (mode, track, target)
                for g, e in zip(got, frames):
                    assert g[:2] == e[:2], (mode, track, target, e[:2])
                    for metric, a, b in zip(METRICS, g[2:], e[2:]):
                        where = (mode, track, target, e[0], metric)
                        if isinstance(b, str):
                            assert a == b, where
                        else:
                            assert not isinstance(a, str), where
                            assert abs(a - b) <= TOLERANCE_DB, where


def test_corpus_reaches_both_statuses_and_fallback(tmp_path, monkeypatch):
    """The fixture covers what it is for: non-finite statuses in the scores
    and at least one refused block-Levinson factor, in both modes."""
    refused = []
    levinson = bsseval._levinson

    def counting(lags):
        solves = levinson(lags)
        refused.extend(lags.shape[1:] for solve in solves if solve is None)
        return solves

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    statuses = {value for tracks in expected.values() for targets in tracks.values()
                for frames in targets.values() for frame in frames
                for value in frame[2:] if isinstance(value, str)}
    assert {"inf", "neg_inf", "undefined"} <= statuses
    monkeypatch.setattr(bsseval, "_levinson", counting)
    root = write_corpus(tmp_path)
    track = [t for t in scan_corpus(root / "corpus").tracks if t.name == "tones"]
    for mode in ("v4_global", "v3_windowed"):
        refused.clear()
        run_campaign(track, root / "estimates", "drift",
                     EvalConfig(mode=mode, **CONFIG), workers=1)
        assert refused, mode


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as folder:
        frames = score_corpus(write_corpus(Path(folder)))
    EXPECTED.write_text(json.dumps(frames, indent=1) + "\n", encoding="utf-8")
