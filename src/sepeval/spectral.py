"""Short-time Fourier analysis/synthesis used by the masking oracles.

The transform is one-sided (``F = window_size // 2 + 1`` bins) and framed
without centering: the signal is padded with ``window_size - hop_size``
leading zeros plus enough trailing zeros that every original sample is
covered by a full set of overlapping windows.  Synthesis applies the same
taper again (weighted overlap-add, accumulated one hop phase at a time) and
divides by the periodic overlap profile, the squared taper summed over one
hop's worth of frames; full overlap makes that division exact, so
``istft(stft(x))`` reconstructs ``x`` to near machine precision for any
window/hop combination whose squared taper never sums to zero.
"""

from dataclasses import dataclass

import numpy as np
from scipy.signal import get_window

from .audio import AudioSignal

__all__ = ["StftConfig", "Spectrogram", "stft", "istft"]

_FRAME_CHUNK = 256  # frames transformed per FFT batch, caps transient memory

_WINDOW_ALIASES = {"rect": "boxcar", "rectangular": "boxcar"}


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters: taper size, hop and taper shape.

    The defaults (4096-sample Hann, hop 1024) match the transform used by
    the oracle reference tooling for 44.1 kHz material.
    """

    window_size: int = 4096
    hop_size: int = 1024
    window: str = "hann"

    def __post_init__(self):
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if not 0 < self.hop_size <= self.window_size:
            raise ValueError(
                f"hop_size must satisfy 0 < hop <= window_size, "
                f"got hop={self.hop_size} window={self.window_size}"
            )

    @property
    def num_bins(self) -> int:
        return self.window_size // 2 + 1

    def taper(self) -> np.ndarray:
        """The periodic analysis window as a float64 array."""
        name = _WINDOW_ALIASES.get(self.window, self.window)
        return get_window(name, self.window_size, fftbins=True).astype(np.float64)


@dataclass
class Spectrogram:
    """One-sided complex STFT tensor of shape (bins, frames, channels).

    Carries the source sample rate so synthesis can hand back a playable
    signal without extra bookkeeping at the call site.
    """

    bins: np.ndarray
    config: StftConfig
    original_length: int
    sample_rate: int = 44100

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.ndim != 3:
            raise ValueError(f"bins must be 3-D (F, T, I), got shape {bins.shape}")
        if bins.shape[0] != self.config.num_bins:
            raise ValueError(
                f"expected {self.config.num_bins} frequency bins for "
                f"window_size={self.config.window_size}, got {bins.shape[0]}"
            )
        if bins.size and not np.all(np.isfinite(bins)):
            raise ValueError("spectrogram contains non-finite values")
        self.bins = bins

    @property
    def num_frames(self) -> int:
        return self.bins.shape[1]

    @property
    def num_channels(self) -> int:
        return self.bins.shape[2]


def _frame_layout(num_samples: int, config: StftConfig):
    """Leading pad and frame count covering every sample with full overlap."""
    pad_front = config.window_size - config.hop_size
    num_frames = (pad_front + num_samples - 1) // config.hop_size + 1
    return pad_front, num_frames


def stft(signal: AudioSignal, config: StftConfig = StftConfig()) -> Spectrogram:
    """Short-time Fourier transform of all channels.

    Parameters
    ----------
    signal : AudioSignal
        Non-empty input.
    config : StftConfig
        Framing parameters.

    Returns
    -------
    Spectrogram
        Complex tensor of shape (F, T, I); linear in the input.
    """
    samples = signal.samples
    num_samples, channels = samples.shape
    if num_samples == 0:
        raise ValueError("cannot transform an empty signal")

    win = config.taper()
    size, hop = config.window_size, config.hop_size
    pad_front, num_frames = _frame_layout(num_samples, config)
    total = (num_frames - 1) * hop + size

    padded = np.zeros((total, channels))
    padded[pad_front:pad_front + num_samples] = samples

    bins = np.empty((config.num_bins, num_frames, channels), dtype=np.complex128)
    frames = np.lib.stride_tricks.sliding_window_view(padded, size, axis=0)[::hop]
    for start in range(0, num_frames, _FRAME_CHUNK):
        chunk = frames[start:start + _FRAME_CHUNK]  # (t, I, size)
        spec = np.fft.rfft(chunk * win, axis=-1)
        bins[:, start:start + chunk.shape[0]] = np.moveaxis(spec, -1, 0)
    return Spectrogram(bins, config, num_samples, signal.sample_rate)


def _overlap_profile(config: StftConfig) -> np.ndarray:
    """Squared-taper overlap sum per hop phase, in istft's frame order."""
    win_sq = config.taper() ** 2
    hop = config.hop_size
    profile = np.zeros(hop)
    for offset in reversed(range(0, config.window_size, hop)):
        seg = win_sq[offset:offset + hop]
        profile[:len(seg)] += seg
    return profile


def istft(spec: Spectrogram, original_length: int | None = None) -> AudioSignal:
    """Weighted overlap-add synthesis, trimmed to the original length.

    Parameters
    ----------
    spec : Spectrogram
        Transform to invert.
    original_length : int, optional
        Number of samples to return; defaults to ``spec.original_length``.
        Samples past the transform's span are zero beyond the last frame.

    Returns
    -------
    AudioSignal
        Near-exact reconstruction (max abs error well below 1e-6 for
        round trips) at the spectrogram's sample rate.
    """
    config = spec.config
    if original_length is None:
        original_length = spec.original_length
    profile = _overlap_profile(config)
    if profile.min() <= 1e-6 * max(profile.max(), 1.0):
        raise ValueError(
            f"window '{config.window}' does not overlap-add at "
            f"hop={config.hop_size}: synthesis would divide by ~0"
        )

    win = config.taper()
    size, hop = config.window_size, config.hop_size
    num_frames, channels = spec.num_frames, spec.num_channels
    phases = -(-size // hop)

    # Block b holds samples [b*hop, (b+1)*hop); phase q of frame k (its
    # samples [q*hop, (q+1)*hop)) lands in block k+q.  Phases run last to
    # first, so each sample still sums its frames in frame order.
    out = np.zeros((num_frames + phases - 1, hop, channels))
    for start in range(0, num_frames, _FRAME_CHUNK):
        chunk = spec.bins[:, start:start + _FRAME_CHUNK]  # (F, t, I)
        frames = np.fft.irfft(chunk, n=size, axis=0) * win[:, None, None]
        count = frames.shape[1]
        for q in reversed(range(phases)):
            phase = frames[q * hop:(q + 1) * hop].swapaxes(0, 1)  # (t, <=hop, I)
            out[start + q:start + q + count, :phase.shape[1]] += phase
    out /= profile[:, None]

    pad_front = size - hop
    result = out.reshape(-1, channels)[pad_front:pad_front + original_length]
    if result.shape[0] < original_length:
        result = np.vstack(
            [result, np.zeros((original_length - result.shape[0], channels))]
        )
    return AudioSignal(result, spec.sample_rate)
