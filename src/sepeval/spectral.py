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

Both directions run over chunks of frames (:func:`_chunks`): analysis
frames each chunk straight from the samples (:func:`_analyse`), and
synthesis adds each chunk into one overlap-add buffer
(:class:`_OverlapAdd`).  ``stft`` and ``istft`` drive these over a whole
signal; the oracle separators in ``masks`` drive them over the mixture,
the sources and the estimates at once, so no whole-track spectrogram is
formed there.

Layout: every chunk is held as ``rfft`` writes it and ``irfft`` reads it,
channel-major (I, t, F), so each channel's bins form one contiguous (t, F)
plane, and the overlap-add buffer is channel-major too, (I, blocks, hop).
A chunk is itself the slab the kernels in ``masks`` work on: at most
``_CHUNK_CELLS`` complex cells.  The public (F, T, I) shape of a
:class:`Spectrogram` is the transposed view ``planes.T`` of such an array,
and an (N, I) signal out of synthesis is the transposed view of its
buffer, so neither direction copies to change layout.
"""

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, rfft

from .audio import AudioSignal

__all__ = ["StftConfig", "Spectrogram", "stft", "istft"]

# Cap on the complex cells of one chunk of frames: one channel-major chunk
# of bins here, one slab of the Wiener kernel and matrix masks in ``masks``.
_CHUNK_CELLS = 64_000


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
        """The periodic analysis window as a float64 array.

        ``"hann"`` is computed here in the generalized-cosine form SciPy's
        ``get_window("hann", M, fftbins=True)`` uses, which gives bitwise
        its values; any other name goes to ``get_window``, so
        ``scipy.signal`` loads only for such a taper.
        """
        size = self.window_size
        if self.window == "hann":
            if size == 1:
                return np.ones(1)
            return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, size + 1)))[:size]
        from scipy.signal import get_window

        return get_window(self.window, size, fftbins=True).astype(np.float64)


@dataclass
class Spectrogram:
    """One-sided complex STFT tensor of shape (bins, frames, channels).

    Carries the source sample rate so synthesis can hand back a playable
    signal without extra bookkeeping at the call site.  ``bins`` may be any
    strided view; those made here are ``planes.T`` of channel-major (I, T, F)
    arrays, and ``bins.T`` gives the planes back.
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


def _chunks(num_frames: int, num_bins: int, channels: int):
    """Frame ranges [start, stop) of at most ``_CHUNK_CELLS`` complex cells.

    One chunk of bins is channels x frames x bins cells; at 4096/1024 and
    two channels that is 15 frames, about 1 MB of spectra.
    """
    step = max(1, _CHUNK_CELLS // (num_bins * channels))
    for start in range(0, num_frames, step):
        yield start, min(start + step, num_frames)


def _analyse(samples: np.ndarray, config: StftConfig, win: np.ndarray,
             start: int, stop: int) -> np.ndarray:
    """Bins of frames [start, stop) as a channel-major (I, t, F) array.

    Frame k covers samples [k*hop - pad, k*hop - pad + size) of the
    (N, I) ``samples``, zero outside them, where pad is the leading pad of
    :func:`_frame_layout`.  Only the chunk's own span is copied (widened
    to float64, one row per channel), so no padded copy of the whole
    signal is made, and ``rfft`` returns the chunk already channel-major.
    """
    size, hop = config.window_size, config.hop_size
    first = start * hop - (size - hop)
    span = np.zeros((samples.shape[1], (stop - start - 1) * hop + size))
    lo, hi = max(first, 0), min(first + span.shape[1], samples.shape[0])
    if lo < hi:
        span[:, lo - first:hi - first] = samples[lo:hi].T
    frames = np.lib.stride_tricks.sliding_window_view(span, size, axis=1)[:, ::hop]
    return rfft(frames * win, axis=-1)


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
        Complex tensor of shape (F, T, I), the transposed view of
        channel-major (I, T, F) bins; linear in the input.
    """
    samples = signal.samples
    num_samples, channels = samples.shape
    if num_samples == 0:
        raise ValueError("cannot transform an empty signal")
    _, num_frames = _frame_layout(num_samples, config)
    win = config.taper()
    planes = np.empty((channels, num_frames, config.num_bins), dtype=np.complex128)
    for start, stop in _chunks(num_frames, config.num_bins, channels):
        planes[:, start:stop] = _analyse(samples, config, win, start, stop)
    return Spectrogram(planes.T, config, num_samples, signal.sample_rate)


def _overlap_profile(config: StftConfig) -> np.ndarray:
    """Squared-taper overlap sum per hop phase, in istft's frame order.

    Raises ValueError when the taper does not overlap-add at the hop: some
    phase sums to ~0, so synthesis would divide by it.
    """
    win_sq = config.taper() ** 2
    hop = config.hop_size
    profile = np.zeros(hop)
    for offset in reversed(range(0, config.window_size, hop)):
        seg = win_sq[offset:offset + hop]
        profile[:len(seg)] += seg
    if profile.min() <= 1e-6 * max(profile.max(), 1.0):
        raise ValueError(
            f"window '{config.window}' does not overlap-add at "
            f"hop={config.hop_size}: synthesis would divide by ~0"
        )
    return profile


class _OverlapAdd:
    """Weighted overlap-add synthesis of one signal, chunk by chunk.

    The buffer is channel-major, (I, blocks, hop): block b of channel i
    holds samples [b*hop, (b+1)*hop); phase q of frame k (its samples
    [q*hop, (q+1)*hop)) lands in block k+q.  Chunks are added in frame
    order and, within a chunk, phases run last to first, so each sample
    sums its frames in frame order whatever the chunk size.  The buffer is
    divided by the overlap profile once, in :meth:`signal`.  Raises
    ValueError at construction when the taper does not overlap-add at the
    hop.
    """

    def __init__(self, config: StftConfig, num_frames: int, channels: int):
        self.config = config
        self.profile = _overlap_profile(config)
        self.win = config.taper()
        self.phases = -(-config.window_size // config.hop_size)
        self.out = np.zeros((channels, num_frames + self.phases - 1, config.hop_size))

    def add(self, start: int, planes: np.ndarray) -> None:
        """Add the frames whose (I, t, F) ``planes`` start at frame ``start``."""
        size, hop = self.config.window_size, self.config.hop_size
        frames = irfft(planes, n=size, axis=-1)  # (I, t, size)
        frames *= self.win
        count = frames.shape[1]
        for q in reversed(range(self.phases)):
            phase = frames[..., q * hop:(q + 1) * hop]  # (I, t, <=hop)
            self.out[:, start + q:start + q + count, :phase.shape[-1]] += phase

    def signal(self, length: int, sample_rate: int) -> AudioSignal:
        """The synthesized samples, trimmed or zero-padded to ``length``.

        Within the buffer's span the (N, I) samples are a transposed view
        of the buffer, not a copy.
        """
        self.out /= self.profile
        channels = self.out.shape[0]
        pad_front, _ = _frame_layout(length, self.config)
        result = self.out.reshape(channels, -1)[:, pad_front:pad_front + length].T
        if result.shape[0] < length:
            result = np.vstack([result, np.zeros((length - result.shape[0], channels))])
        return AudioSignal(result, sample_rate)


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
    if original_length is None:
        original_length = spec.original_length
    synthesis = _OverlapAdd(spec.config, spec.num_frames, spec.num_channels)
    planes = spec.bins.T  # (I, T, F)
    for start, stop in _chunks(spec.num_frames, spec.config.num_bins, spec.num_channels):
        synthesis.add(start, planes[:, start:stop])
    return synthesis.signal(original_length, spec.sample_rate)
