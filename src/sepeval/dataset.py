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

from .audio import AudioSignal, WavFormatError, check_layout, load_wav, wav_info

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
    """Header-level description of one scanned track folder.

    Every WAV of the track, and every estimate scored against it, must
    have its layout: ``num_samples``, ``channels`` and ``sample_rate``.
    """

    name: str
    split: str
    path: Path
    num_samples: int
    sample_rate: int
    channels: int

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.num_samples / self.sample_rate

    def check(self, what: str, layout: tuple) -> None:
        """Raise WavFormatError naming ``what`` unless ``layout`` is the
        track's (see :func:`~sepeval.audio.check_layout`)."""
        check_layout(what, layout, (self.num_samples, self.channels,
                                    self.sample_rate), WavFormatError)


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
    mixture = infos["mixture"]
    track = TrackRef(folder.name, split, folder, mixture.num_samples,
                     mixture.sample_rate, mixture.channels)
    for stem, info in infos.items():
        track.check(f"{stem}.wav", info.layout)
    return track


def scan_corpus(root) -> Corpus:
    """Enumerate valid tracks under ``root/{train,test}``.

    Tracks are ordered lexicographically by name within each split, so
    repeated scans of the same tree are identical.  Folders that are
    missing stems or whose stems disagree with the mixture in length,
    channels or sample rate are skipped with a warning naming the problem.
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
    return _load(ref, "mixture"), load_stems(ref)


def load_stems(ref: TrackRef) -> dict:
    """Load a track's four stems, each checked against its scanned layout.

    Returns a map from stem name to signal in the canonical order drums,
    bass, other, vocals.
    """
    return {stem: _load(ref, stem) for stem in STEM_NAMES}


def _load(ref: TrackRef, stem: str) -> AudioSignal:
    path = ref.path / f"{stem}.wav"
    signal = load_wav(path)
    ref.check(str(path), signal.layout)
    return signal


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
