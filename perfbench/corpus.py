"""Seeded synthetic inputs: stem corpora, estimate trees and score sets.

Everything here is written with the benchmark's own WAV writer and
NumPy, never with the code under test, so a change to the program cannot
change its own inputs.  The same seed always gives the same files.

Stems are stereo coloured noise (a different spectral tilt and
inter-channel correlation per stem).  ``vocals`` is silent for the first
two seconds, so scoring meets ``-inf``/undefined frames and the report
status fields, as it does on real music with a vocal-free intro.
"""

import math
import struct
from pathlib import Path

import numpy as np

STEMS = ("drums", "bass", "other", "vocals")
TARGETS = STEMS + ("accompaniment",)
METRICS = ("SDR", "ISR", "SIR", "SAR")
SAMPLE_RATE = 44100
VOCAL_INTRO_S = 2.0

# Spectral tilt exponent (power ~ f^-tilt) and stereo correlation per stem.
_STEM_COLOUR = {
    "drums": (0.3, 0.4),
    "bass": (2.0, 0.9),
    "other": (1.0, 0.6),
    "vocals": (1.4, 0.8),
}
_STEM_RMS = 0.05


def write_wav(path: Path, samples: np.ndarray, rate: int, bits: int) -> None:
    """Write (N, C) float samples as 16-bit PCM or 32-bit IEEE float."""
    if bits == 16:
        payload = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
        code = 1
    elif bits == 32:
        payload = samples.astype("<f4")
        code = 3
    else:
        raise ValueError(f"bits must be 16 or 32, got {bits}")
    data = payload.tobytes()
    channels = samples.shape[1]
    align = channels * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE", b"fmt ", 16, code, channels,
        rate, rate * align, align, bits, b"data", len(data),
    )
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(data)


def read_wav(path: Path) -> np.ndarray:
    """Read a WAV file with the 44-byte header of :func:`write_wav` as (N, C) float64."""
    raw = Path(path).read_bytes()
    riff, _, wave, fmt, fmt_len, code, channels, _, _, _, bits, data, size = (
        struct.unpack_from("<4sI4s4sIHHIIHH4sI", raw)
    )
    if ((riff, wave, fmt, fmt_len, data) != (b"RIFF", b"WAVE", b"fmt ", 16, b"data")
            or size != len(raw) - 44):
        raise ValueError(f"{path}: not a 44-byte-header WAV file of {len(raw)} bytes")
    if (code, bits) == (1, 16):
        samples = np.frombuffer(raw, "<i2", offset=44) / 32768.0
    elif (code, bits) == (3, 32):
        samples = np.frombuffer(raw, "<f4", offset=44).astype(np.float64)
    else:
        raise ValueError(f"{path}: codec {code} with {bits} bits")
    return samples.reshape(-1, channels)


def _coloured(rng, num_samples: int, tilt: float, corr: float) -> np.ndarray:
    """Stereo noise with power spectrum ~ f^-tilt and channel correlation."""
    common = rng.standard_normal(num_samples)
    white = np.stack(
        [corr * common + math.sqrt(1 - corr * corr) * rng.standard_normal(num_samples)
         for _ in range(2)],
        axis=1,
    )
    spectrum = np.fft.rfft(white, axis=0)
    freqs = np.arange(spectrum.shape[0], dtype=np.float64)
    freqs[0] = 1.0
    spectrum *= (freqs ** (-tilt / 2.0))[:, None]
    spectrum[0] = 0.0
    out = np.fft.irfft(spectrum, n=num_samples, axis=0)
    return out * (_STEM_RMS / np.sqrt(np.mean(out * out)))


def make_stems(rng, seconds: float) -> dict:
    """Four stereo stems on the 16-bit grid, vocals silent for the intro."""
    num_samples = int(round(seconds * SAMPLE_RATE))
    stems = {}
    for name in STEMS:
        tilt, corr = _STEM_COLOUR[name]
        samples = _coloured(rng, num_samples, tilt, corr)
        if name == "vocals":
            samples[: int(VOCAL_INTRO_S * SAMPLE_RATE)] = 0.0
        stems[name] = np.rint(samples * 32768.0) / 32768.0
    return stems


def write_track(folder: Path, stems: dict) -> np.ndarray:
    """Write the stems and their exact sum as 16-bit PCM; return the sum."""
    folder.mkdir(parents=True, exist_ok=True)
    for name, samples in stems.items():
        write_wav(folder / f"{name}.wav", samples, SAMPLE_RATE, 16)
    mixture = sum(stems.values())
    write_wav(folder / "mixture.wav", mixture, SAMPLE_RATE, 16)
    return mixture


def write_estimates(folder: Path, rng, stems: dict) -> None:
    """Float32 estimates: each stem plus seeded leakage and noise.

    No ``accompaniment.wav`` is written, so the scorer derives it.
    """
    folder.mkdir(parents=True, exist_ok=True)
    total = sum(stems.values())
    for name, samples in stems.items():
        leak = rng.uniform(0.05, 0.2) * (total - samples)
        noise = rng.uniform(0.005, 0.02) * rng.standard_normal(samples.shape)
        write_wav(folder / f"{name}.wav", samples + leak + noise, SAMPLE_RATE, 32)


def make_eval_corpus(root: Path, rng, num_tracks: int, seconds: float) -> list:
    """``root/corpus/test/<track>`` and ``root/estimates/<track>``."""
    names = [f"track_{i:03d}" for i in range(num_tracks)]
    for name in names:
        stems = make_stems(rng, seconds)
        write_track(root / "corpus" / "test" / name, stems)
        write_estimates(root / "estimates" / name, rng, stems)
    return names


def make_oracle_corpus(root: Path, rng, num_tracks: int, seconds: float) -> list:
    names = [f"track_{i:03d}" for i in range(num_tracks)]
    for name in names:
        write_track(root / "corpus" / "test" / name, make_stems(rng, seconds))
    return names


_NON_FINITE = (math.inf, -math.inf, math.nan)


def make_scores(rng, num_tracks: int, methods: tuple, num_frames: int,
                non_finite: float) -> dict:
    """Framewise dB values per (method, track, target, metric).

    Each value is a method offset plus a track effect plus frame noise; a
    share ``non_finite`` of the values is replaced by +inf, -inf or NaN.
    Returns ``{(method, track): {target: {metric: [float, ...]}}}``.
    """
    tracks = [f"track_{i:03d}" for i in range(num_tracks)]
    track_effect = rng.normal(0.0, 2.0, size=num_tracks)
    scores = {}
    for m, method in enumerate(methods):
        for t, track in enumerate(tracks):
            values = (
                0.5 * m + track_effect[t]
                + rng.normal(0.0, 3.0, size=(len(TARGETS), len(METRICS), num_frames))
            )
            holes = rng.random(values.shape) < non_finite
            picks = rng.integers(0, len(_NON_FINITE), size=values.shape)
            body = {}
            for k, target in enumerate(TARGETS):
                body[target] = {}
                for q, metric in enumerate(METRICS):
                    row = values[k, q].tolist()
                    for f in np.flatnonzero(holes[k, q]):
                        row[f] = _NON_FINITE[picks[k, q, f]]
                    body[target][metric] = row
            scores[(method, track)] = body
    return scores
