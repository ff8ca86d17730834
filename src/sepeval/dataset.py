"""Stem-corpus reader for the MUSDB18 directory layout.

A corpus lives under ``root/{train,test}/<track>/`` with five WAV files
per track: ``mixture.wav`` plus the stems ``drums``, ``bass``, ``other``
and ``vocals``.  Scanning probes headers only; malformed track folders
are skipped with a warning so one bad rip cannot sink a campaign run.
"""

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import AudioSignal, WavFormatError, load_wav, wav_info

__all__ = [
    "STEM_NAMES",
    "SPLITS",
    "TrackRef",
    "Corpus",
    "MixtureReport",
    "scan_corpus",
    "load_track",
    "load_stems",
    "derive_accompaniment",
    "validate_mixture",
    "write_manifest",
]

STEM_NAMES = ("drums", "bass", "other", "vocals")
SPLITS = ("train", "test")


@dataclass(frozen=True)
class TrackRef:
    """Header-level description of one scanned track folder."""

    name: str
    split: str
    path: Path
    duration: float
    sample_rate: int
    channels: int


@dataclass
class Corpus:
    """All tracks found under a corpus root, ordered by split then name."""

    root: Path
    tracks: list

    def split(self, name: str) -> list:
        return [track for track in self.tracks if track.split == name]

    @property
    def train(self) -> list:
        return self.split("train")

    @property
    def test(self) -> list:
        return self.split("test")

    def find(self, name: str, split: str | None = None) -> TrackRef:
        for track in self.tracks:
            if track.name == name and (split is None or track.split == split):
                return track
        raise KeyError(f"no track named {name!r}" + (f" in {split}" if split else ""))


@dataclass(frozen=True)
class MixtureReport:
    """Outcome of checking mixture = sum of stems for one track."""

    track: str
    max_deviation: float
    tolerance: float
    passed: bool


def _probe_track(folder: Path, split: str) -> TrackRef:
    """Validate one track folder from WAV headers alone."""
    infos = {}
    for stem in ("mixture",) + STEM_NAMES:
        path = folder / f"{stem}.wav"
        if not path.is_file():
            raise WavFormatError(f"missing {stem}.wav")
        infos[stem] = wav_info(path)
    reference = infos["mixture"]
    for stem, info in infos.items():
        if (info.num_samples, info.sample_rate, info.channels) != (
            reference.num_samples,
            reference.sample_rate,
            reference.channels,
        ):
            raise WavFormatError(
                f"{stem}.wav disagrees with mixture.wav "
                f"({info.num_samples} samples @ {info.sample_rate} Hz, "
                f"{info.channels} ch vs {reference.num_samples} @ "
                f"{reference.sample_rate}, {reference.channels})"
            )
    return TrackRef(
        name=folder.name,
        split=split,
        path=folder,
        duration=reference.num_samples / reference.sample_rate,
        sample_rate=reference.sample_rate,
        channels=reference.channels,
    )


def scan_corpus(root) -> Corpus:
    """Enumerate valid tracks under ``root/{train,test}``.

    Tracks are ordered lexicographically by name within each split, so
    repeated scans of the same tree are identical.  Folders that are
    missing stems or whose stems disagree in shape are skipped with a
    warning naming the problem.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root {root} does not exist")
    tracks = []
    for split in SPLITS:
        split_dir = root / split
        if not split_dir.is_dir():
            continue
        for folder in sorted(p for p in split_dir.iterdir() if p.is_dir()):
            try:
                tracks.append(_probe_track(folder, split))
            except WavFormatError as exc:
                warnings.warn(
                    f"skipping {split}/{folder.name}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
    if not tracks:
        raise ValueError(f"no usable tracks found under {root}")
    return Corpus(root, tracks)


def load_track(ref: TrackRef):
    """Load a track's mixture and its four stems as audio signals.

    Returns ``(mixture, stems)`` where ``stems`` maps stem name to
    signal in the canonical order drums, bass, other, vocals.
    """
    mixture = load_wav(ref.path / "mixture.wav")
    return mixture, load_stems(ref, mixture.samples.shape, mixture.sample_rate)


def load_stems(ref: TrackRef, shape: tuple, sample_rate: int) -> dict:
    """Load a track's four stems, checked against the mixture's shape and rate.

    ``shape`` is the mixture's (num_samples, channels); callers that need
    no mixture samples take it and ``sample_rate`` from its header
    (:func:`~sepeval.audio.wav_info`).  Returns a map from stem name to
    signal in the canonical order drums, bass, other, vocals.
    """
    stems = {}
    for stem in STEM_NAMES:
        signal = load_wav(ref.path / f"{stem}.wav")
        if signal.samples.shape != shape:
            raise WavFormatError(
                f"{stem}.wav shape {signal.samples.shape} does not match "
                f"mixture {shape} in {ref.path}"
            )
        if signal.sample_rate != sample_rate:
            raise WavFormatError(
                f"{stem}.wav sample rate {signal.sample_rate} does not "
                f"match mixture {sample_rate} in {ref.path}"
            )
        stems[stem] = signal
    return stems


def derive_accompaniment(stems) -> AudioSignal:
    """Sum of the non-vocal stems (the karaoke complement)."""
    parts = [stems[name] for name in STEM_NAMES if name != "vocals"]
    total = parts[0].samples.copy()
    for part in parts[1:]:
        total += part.samples
    return AudioSignal(total, parts[0].sample_rate)


def validate_mixture(ref: TrackRef, tolerance: float = 1e-2) -> MixtureReport:
    """Check that the mixture equals the stem sum within a tolerance.

    The oracle methods assume x = sum of source images; PCM-quantized
    corpora hold this to within a few quantization steps.
    """
    mixture, stems = load_track(ref)
    total = np.zeros_like(mixture.samples)
    for signal in stems.values():
        total += signal.samples
    deviation = float(np.max(np.abs(mixture.samples - total))) if total.size else 0.0
    return MixtureReport(ref.name, deviation, tolerance, deviation <= tolerance)


def write_manifest(corpus: Corpus, path) -> None:
    """Write a JSON summary of the scanned corpus (names, durations, splits)."""
    payload = {
        "root": str(corpus.root),
        "tracks": [
            {
                "name": track.name,
                "split": track.split,
                "duration": track.duration,
                "sample_rate": track.sample_rate,
                "channels": track.channels,
            }
            for track in corpus.tracks
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
