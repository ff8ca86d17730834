"""Stem-corpus reader for the MUSDB18 directory layout.

A corpus lives under ``root/{train,test}/<track>/`` with five WAV files
per track: ``mixture.wav`` plus the stems ``drums``, ``bass``, ``other``
and ``vocals``.  Scanning probes headers only; malformed track folders
are skipped with a warning so one bad rip cannot sink a campaign run.
The commands read a track's files a block at a time through
:func:`open_stem`; :func:`load_track` decodes them whole.
"""

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import (AudioSignal, SourceSum, WavFormatError, WavReader, check_layout,
                    load_wav, wav_info)
from .reports import _write_json

__all__ = [
    "STEM_NAMES",
    "ACCOMPANIMENT_STEMS",
    "SPLITS",
    "TrackRef",
    "Corpus",
    "MixtureReport",
    "scan_corpus",
    "load_track",
    "open_stem",
    "derive_accompaniment",
    "validate_mixture",
    "write_manifest",
]

STEM_NAMES = ("drums", "bass", "other", "vocals")
# The stems summed into the accompaniment: all but the vocals.
ACCOMPANIMENT_STEMS = tuple(name for name in STEM_NAMES if name != "vocals")
SPLITS = ("train", "test")
# Samples per read of validate_mixture: 1.5 s at 44.1 kHz.
_CHECK_BLOCK = 65536


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
    missing stems, hold a stem whose header cannot be read or parsed, or
    whose stems disagree with the mixture in length, channels or sample
    rate are skipped with a warning naming the problem.
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
            except (WavFormatError, OSError) as exc:
                warnings.warn(
                    f"skipping {split}/{folder.name}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
    if not tracks:
        raise ValueError(f"no usable tracks found under {root}")
    return Corpus(root, tracks)


def load_track(ref: TrackRef):
    """Decode a track's mixture and its four stems whole, each checked
    against its scanned layout.

    Returns ``(mixture, stems)`` where ``stems`` maps stem name to
    signal in the canonical order drums, bass, other, vocals.
    """
    mixture, *stems = (load_wav(open_stem(ref, stem).path)
                       for stem in ("mixture",) + STEM_NAMES)
    return mixture, dict(zip(STEM_NAMES, stems))


def open_stem(ref: TrackRef, stem: str) -> WavReader:
    """A reader of the track's ``stem``.wav (``mixture`` or a stem name),
    its header checked against the track's layout; no sample is read."""
    path = ref.path / f"{stem}.wav"
    reader = WavReader(path)
    ref.check(str(path), reader.layout)
    return reader


def derive_accompaniment(stems) -> AudioSignal:
    """Sum of the non-vocal stems (the karaoke complement), in float64: a
    :class:`~sepeval.audio.SourceSum` of their samples in
    ``ACCOMPANIMENT_STEMS`` order, read whole."""
    parts = [stems[name] for name in ACCOMPANIMENT_STEMS]
    return AudioSignal(SourceSum(part.samples for part in parts)[:], parts[0].sample_rate)


def validate_mixture(ref: TrackRef, tolerance: float = 1e-2) -> MixtureReport:
    """Check that the mixture equals the stem sum within a tolerance.

    The oracle methods assume x = sum of source images; PCM-quantized
    corpora hold this to within a few quantization steps.  The stems are
    summed in float64, the vocals last, as :func:`derive_accompaniment`
    plus the vocals.  The files are read ``_CHECK_BLOCK`` samples at a
    time, and the deviation is the largest of the blocks' maxima, so it
    is bitwise that of the whole track while no whole stem is held.
    """
    mixture = open_stem(ref, "mixture")
    total = SourceSum(open_stem(ref, stem) for stem in ACCOMPANIMENT_STEMS + ("vocals",))
    deviation = 0.0
    for start in range(0, len(mixture), _CHECK_BLOCK):
        block = slice(start, start + _CHECK_BLOCK)
        deviation = max(deviation,
                        float(np.max(np.abs(mixture[block] - total[block]))))
    return MixtureReport(ref.name, deviation, tolerance, deviation <= tolerance)


def write_manifest(corpus: Corpus, path) -> None:
    """Write a JSON summary of the scanned corpus (names, durations, splits),
    valid UTF-8 whatever bytes the names hold, as reports are."""
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
    _write_json(json.dumps(payload, indent=2, ensure_ascii=False), path)
