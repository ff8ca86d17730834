"""Shared fixtures: synthetic signals and a throwaway stem corpus."""

import numpy as np
import pytest

from sepeval import AudioSignal, STEM_NAMES, save_wav

FIXTURE_RATE = 8000


def random_signal(rng, num_samples=FIXTURE_RATE, channels=2, scale=0.1,
                  rate=FIXTURE_RATE):
    return AudioSignal(rng.standard_normal((num_samples, channels)) * scale, rate)


def dyadic(samples, steps=1024):
    """Quantize to multiples of 1/steps so float32 WAV writes are exact."""
    return np.round(np.asarray(samples) * steps) / steps


def write_track(folder, rng, num_samples=2 * FIXTURE_RATE, rate=FIXTURE_RATE,
                scale=0.05):
    """Create one track folder whose mixture is exactly the stem sum."""
    folder.mkdir(parents=True, exist_ok=True)
    stems = {}
    for name in STEM_NAMES:
        samples = dyadic(rng.standard_normal((num_samples, 2)) * scale)
        stems[name] = samples
        save_wav(folder / f"{name}.wav", AudioSignal(samples, rate))
    mixture = sum(stems.values())
    save_wav(folder / "mixture.wav", AudioSignal(mixture, rate))
    return stems, mixture


def relaid(samples, layout):
    """The (N, I) ``samples`` with the same values in another memory layout:
    "C" (row-major), "F" (column-major), or "strided" (every other column of
    a wider row-major buffer)."""
    samples = np.asarray(samples)
    if layout == "C":
        return np.ascontiguousarray(samples)
    if layout == "F":
        return np.asfortranarray(samples)
    wide = np.zeros((samples.shape[0], 2 * samples.shape[1]), dtype=samples.dtype)
    wide[:, ::2] = samples
    return wide[:, ::2]


@pytest.fixture
def corpus_root(tmp_path):
    """Two-track corpus: one train track, one test track."""
    rng = np.random.default_rng(2024)
    write_track(tmp_path / "train" / "Alpha - One", rng)
    write_track(tmp_path / "test" / "Beta - Two", rng)
    return tmp_path
