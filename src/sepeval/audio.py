"""Multichannel audio containers and RIFF/WAVE I/O.

Audio is held as float32 or float64 arrays of shape ``(num_samples,
channels)`` with a nominal amplitude range of [-1, 1].  Decoded files are
float32, which holds every codec below exactly; code that computes on
samples widens them to float64 first.  The WAV codec supports little-endian
RIFF/WAVE files with 16-bit PCM, 24-bit PCM and 32-bit IEEE float payloads,
any channel count and any sample rate.

One decoder reads them: :class:`WavReader` decodes any range of frames on
demand, after checking the headers and that the declared payload is all
there.  :func:`load_wav` is its read of every frame; every ``sepeval``
command reads its files a block at a time through one.

A *source* is anything read like an (N, I) sample array: ``source[a:b]``
gives samples [a, b) as an array, and it has a ``shape`` and a ``len``.
An array is one, and so are a :class:`WavReader` and a
:class:`SourceSum`, the float64 sum of sources by which the stems and
estimates are summed everywhere.  :func:`_inputs` is the one step by
which ``bss_eval``, ``oracle_separate`` and ``stft`` check their signal
arguments (kind, count and layout) and take their sources,
:func:`_frames` the one framing of a source, for the STFT frames of
``spectral`` and the overlap-save segments and blocks of ``bsseval``,
and :func:`_ranges` the one rule that cuts a span into stepped ranges:
chunks of blocks and of frames, scoring windows, hop phases and read
blocks.

:func:`_replace` is the one way an output file reaches disk: WAVs,
reports, CSVs and the manifest are each written whole or not at all.
:func:`_remove`, by the same rules, removes a stale one.

Scaling convention
------------------
Integer PCM samples are mapped to float by dividing by 2**(bits-1):
16-bit sample ``s`` becomes ``s / 32768`` and 24-bit ``s / 8388608``, so the
most negative code maps to exactly -1.0 and the most positive to just below
+1.0.  On write, floats are scaled by the same factor, rounded to nearest and
clipped to the valid code range.  Float32 payloads are passed through
unchanged both ways.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "AudioSignal",
    "WavInfo",
    "WavReader",
    "SourceSum",
    "WavFormatError",
    "UnsupportedWavError",
    "TruncatedWavError",
    "load_wav",
    "save_wav",
    "wav_info",
    "check_layout",
]

_PCM = 0x0001
_IEEE_FLOAT = 0x0003
_EXTENSIBLE = 0xFFFE


class WavFormatError(ValueError):
    """File is not a well-formed RIFF/WAVE container."""


class UnsupportedWavError(WavFormatError):
    """File is valid WAVE but uses a codec this reader does not handle."""


class TruncatedWavError(WavFormatError):
    """File ends before the payload declared in its headers."""


@dataclass
class AudioSignal:
    """Time-domain multichannel audio.

    Parameters
    ----------
    samples : np.ndarray, shape=(num_samples, channels)
        Amplitude values; a 1-D array is treated as a single channel.
        Float32 and float64 arrays are kept as given, uncopied; any other
        dtype is widened to float64.
    sample_rate : int
        Sampling rate in Hz, must be positive.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.dtype not in (np.float32, np.float64):
            samples = samples.astype(np.float64)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.ndim != 2:
            raise ValueError(
                f"samples must be 1-D or 2-D, got shape {samples.shape}"
            )
        if samples.shape[1] < 1:
            raise ValueError("signal must have at least one channel")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples contain non-finite values")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        self.samples = samples
        self.sample_rate = int(self.sample_rate)

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def num_channels(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.num_samples / self.sample_rate

    @property
    def layout(self) -> tuple:
        """(num_samples, channels, sample_rate), see :func:`check_layout`."""
        return self.samples.shape + (self.sample_rate,)


@dataclass(frozen=True)
class WavInfo:
    """Header-level description of a WAV file (no payload decoded)."""

    num_samples: int
    channels: int
    sample_rate: int
    bit_depth: int
    codec: str  # "pcm" or "float"

    @property
    def layout(self) -> tuple:
        """(num_samples, channels, sample_rate), see :func:`check_layout`."""
        return (self.num_samples, self.channels, self.sample_rate)


def check_layout(what: str, layout: tuple, expected: tuple,
                 error: type = ValueError) -> None:
    """Raise ``error`` naming ``what`` unless ``layout`` is ``expected``.

    A layout is (num_samples, channels, sample_rate), from a WAV header or
    a decoded signal (``WavInfo.layout``, ``AudioSignal.layout``).  A rate
    of None on either side, for samples held in a bare array, matches any.
    """
    if any(got != want and None not in (got, want)
           for got, want in zip(layout, expected)):
        num_samples, channels, rate = expected
        raise error(
            f"{what} has {layout[0]} samples x {layout[1]} ch @ {layout[2]} Hz, "
            f"expected {num_samples} x {channels} @ {rate or 'any'} Hz"
        )


def _read_exact(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        raise TruncatedWavError(f"file ends inside {what}")
    return data


def _parse_header(fh):
    """Walk the chunk list up to the data chunk.

    Returns (info, data_size, data_offset): the file's :class:`WavInfo`,
    the declared payload bytes and where the payload starts.
    """
    riff = fh.read(12)
    if len(riff) < 12:
        raise WavFormatError("file too short to be RIFF/WAVE")
    tag, _size, wave = struct.unpack("<4sI4s", riff)
    if tag != b"RIFF" or wave != b"WAVE":
        raise WavFormatError("not a RIFF/WAVE file")

    fmt = None
    while True:
        head = fh.read(8)
        if len(head) == 0:
            raise WavFormatError("no data chunk found")
        if len(head) < 8:
            raise TruncatedWavError("file ends inside a chunk header")
        chunk_id, chunk_size = struct.unpack("<4sI", head)
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise WavFormatError("fmt chunk too small")
            body = _read_exact(fh, chunk_size, "fmt chunk")
            fh.seek(chunk_size & 1, 1)  # the pad byte after an odd size
            (code, channels, rate, _byte_rate, _block_align,
             bits) = struct.unpack("<HHIIHH", body[:16])
            if code == _EXTENSIBLE:
                if chunk_size < 40:
                    raise WavFormatError("extensible fmt chunk too small")
                # sub-format GUID starts with the actual format code
                code = struct.unpack("<H", body[24:26])[0]
            fmt = (code, channels, rate, bits)
        elif chunk_id == b"data":
            if fmt is None:
                raise WavFormatError("data chunk precedes fmt chunk")
            code, channels, rate, bits = fmt
            if channels < 1 or rate < 1:
                raise WavFormatError("fmt chunk declares no channels or zero rate")
            if code == _PCM and bits in (16, 24):
                codec = "pcm"
            elif code == _IEEE_FLOAT and bits == 32:
                codec = "float"
            else:
                raise UnsupportedWavError(
                    f"unsupported codec: format tag {code:#06x} at {bits} bits"
                )
            info = WavInfo(chunk_size // (channels * bits // 8), channels, rate,
                           bits, codec)
            return info, chunk_size, fh.tell()
        else:
            # irrelevant chunk (LIST, fact, ...): skip, honoring pad byte
            fh.seek(chunk_size + (chunk_size & 1), 1)


class WavReader:
    """Frames of one WAV file, decoded a range at a time.

    Opening reads the headers (``info``) and checks that the file holds
    the whole payload they declare.  ``reader[start:stop]`` decodes frames
    [start, stop), clipped to the file as a list slice is, to a float32
    (frames, channels) array by the scaling convention (see the module
    docstring), from one read of their bytes.  ``shape``, ``len`` and that
    slice are those of the decoded samples, so a reader stands wherever a
    source is taken.  Each read opens the file anew, so a reader holds no
    file handle and threads may share it.

    Raises
    ------
    FileNotFoundError
        If the file does not exist.
    WavFormatError
        If the file is not RIFF/WAVE.
    UnsupportedWavError
        If the codec is not PCM 16/24-bit or IEEE float32.
    TruncatedWavError
        If the payload is shorter than the headers declare, on opening.
    ValueError
        If a read range of a float file holds a non-finite sample; the
        message names the file.
    TypeError
        If a reader is indexed by anything but a slice.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self.info, data_size, self._offset = _parse_header(fh)
            size = fh.seek(0, 2)
        self._frame_bytes = self.info.channels * self.info.bit_depth // 8
        if size - self._offset < len(self) * self._frame_bytes:
            raise TruncatedWavError(
                f"data chunk declares {data_size} bytes but payload is shorter"
            )

    @property
    def shape(self) -> tuple:
        return (self.info.num_samples, self.info.channels)

    @property
    def layout(self) -> tuple:
        """(num_samples, channels, sample_rate), see :func:`check_layout`."""
        return self.info.layout

    def __len__(self) -> int:
        return self.info.num_samples

    def __getitem__(self, frames: slice) -> np.ndarray:
        if not isinstance(frames, slice):
            raise TypeError("a WAV reader reads contiguous frame slices only")
        start, stop, step = frames.indices(len(self))
        if step != 1:
            raise ValueError("a WAV reader reads contiguous frames only")
        count = max(stop - start, 0)
        with open(self.path, "rb") as fh:
            fh.seek(self._offset + start * self._frame_bytes)
            payload = fh.read(count * self._frame_bytes)
        if len(payload) < count * self._frame_bytes:
            raise TruncatedWavError(f"{self.path} ends inside frames [{start}, {stop})")
        if self.info.codec == "float":
            samples = np.frombuffer(payload, dtype="<f4").astype(np.float32)
            if not np.all(np.isfinite(samples)):
                raise ValueError(
                    f"{self.path}: non-finite samples in frames [{start}, {stop})"
                )
        elif self.info.bit_depth == 16:
            samples = np.frombuffer(payload, dtype="<i2").astype(np.float32)
            samples *= 2.0 ** -15
        else:  # 24-bit PCM: each code in the top three bytes of an int32
            quads = np.zeros((len(payload) // 3, 4), dtype=np.uint8)
            quads[:, 1:] = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
            samples = (quads.view("<i4")[:, 0] >> 8).astype(np.float32)
            samples *= 2.0 ** -23
        return samples.reshape(count, self.info.channels)


def _inputs(kind: str, signals, expected: tuple | None = None) -> tuple:
    """The (N, I) sources of ``signals``, the signal arguments of one
    ``kind``, uncopied and unread, and the first one's layout.

    ``signals`` are AudioSignals or sources with a ``layout`` (such as
    :class:`WavReader` or :class:`SourceSum`), or one (J, N, I) array,
    whose rows have no rate; anything else raises TypeError.  Each must
    have the layout ``expected``, by default the first one's, else
    :func:`check_layout` raises ValueError naming ``{kind} {j}``; and
    there must be at least one (else ValueError).  An AudioSignal's
    source is its samples, any other signal is its own."""
    if not len(signals):
        raise ValueError(f"at least one {kind} is required")
    if isinstance(signals, np.ndarray):
        if signals.ndim != 3:
            raise ValueError(f"{kind} array must be (J, N, I), got {signals.shape}")
        layouts = [signals.shape[1:] + (None,)] * len(signals)
    else:
        for j, signal in enumerate(signals):
            if not hasattr(signal, "layout"):
                raise TypeError(
                    f"{kind} {j} is a {type(signal).__name__}: {kind}s must be "
                    "AudioSignals or sources with a layout (such as WavReaders), "
                    "or one (J, N, I) array"
                )
        layouts = [signal.layout for signal in signals]
    expected = layouts[0] if expected is None else expected
    for j, layout in enumerate(layouts):
        check_layout(f"{kind} {j}", layout, expected)
    return [s.samples if isinstance(s, AudioSignal) else s for s in signals], layouts[0]


def _frames(source, offset: int, count: int, width: int, hop: int):
    """Per channel of the (N, I) ``source``, in order, its (count, width)
    frames: frame k holds samples [offset + k hop, offset + k hop + width)
    of the channel, zero outside the source, and ``offset`` may be
    negative.  The samples the frames cover are read once, in one slice,
    and each channel is copied in turn into one zero-extended float64 span
    that every frame views, so each view holds until the next is yielded.
    """
    span = np.zeros((count - 1) * hop + width)
    lo = max(offset, 0)
    samples = source[lo:max(offset + len(span), lo)]  # clipped to the source
    for channel in samples.T:
        span[lo - offset:lo - offset + len(channel)] = channel
        yield sliding_window_view(span, width)[::hop]


def _ranges(length: int, step: int, width: int | None = None) -> list:
    """The [start, stop) ranges of ``width`` items (default ``step``), one
    starting every ``step`` from 0 up to ``length``, each clipped at
    ``length``."""
    return [(a, min(a + (width or step), length)) for a in range(0, length, step)]


class SourceSum:
    """The sum of sources of one shape, in float64 and in the order given,
    itself a source: ``total[a:b]`` reads samples [a, b) of each part and
    adds them in turn.  ``layout`` is the first part's, for parts that
    have one."""

    def __init__(self, parts):
        self.parts = list(parts)
        self.shape = self.parts[0].shape

    @property
    def layout(self) -> tuple:
        return self.parts[0].layout

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, samples: slice) -> np.ndarray:
        total = self.parts[0][samples].astype(np.float64)
        for part in self.parts[1:]:
            total += part[samples]
        return total


def load_wav(path) -> AudioSignal:
    """Read a WAV file into an :class:`AudioSignal`: every frame of its
    :class:`WavReader`, which raises what that reader raises.

    Returns
    -------
    AudioSignal
        Float32 samples scaled to [-1, 1] (see module docstring), channel
        count and sample rate preserved.  Every codec is exact in float32:
        16-bit values are i / 2**15, 24-bit values i / 2**23.
    """
    reader = WavReader(path)
    return AudioSignal(reader[:], reader.info.sample_rate)


def wav_info(path) -> WavInfo:
    """Read only the headers of a WAV file (cheap; payload untouched)."""
    with open(path, "rb") as fh:
        return _parse_header(fh)[0]


def _replace(path, *parts: bytes) -> None:
    """Make ``parts``, in order, the whole content of the file at ``path``.

    The parts go to a hidden sibling, ``.<name>.tmp`` in the target's
    directory, which ``os.replace`` then renames over the target, so a
    reader sees the old file or the new one, never part of one.  Any
    exception, an interrupt too, unlinks the sibling and is re-raised; a
    process killed mid-write can leave one behind, which no command reads
    and the next write replaces.  A symlink is written through, as
    ``open`` does: the file it points to is replaced.  A target that
    exists but is not a regular file (``/dev/null``, a FIFO) is written
    in place, never renamed over.
    """
    target = os.path.realpath(path)
    regular = os.path.isfile(target) or not os.path.exists(target)
    head, name = os.path.split(target)
    written = os.path.join(head, f".{name}.tmp") if regular else target
    try:
        with open(written, "wb") as handle:
            handle.writelines(parts)
        if regular:
            os.replace(written, target)
    except BaseException:
        if regular and os.path.lexists(written):
            os.unlink(written)
        raise


def _remove(path) -> None:
    """Remove the output file at ``path``, if there is one, by
    :func:`_replace`'s rules: a symlink is followed, and the file it
    points to is removed while the link stays for the next write; a target
    that is not a regular file (``/dev/null``, a FIFO) is left as it is."""
    target = os.path.realpath(path)
    if os.path.isfile(target):
        os.unlink(target)


def save_wav(path, signal: AudioSignal, bit_depth: int = 32) -> None:
    """Write an :class:`AudioSignal` as a WAV file, whole or not at all
    (see :func:`_replace`).

    Parameters
    ----------
    path : str or Path
        Destination; parent directory must exist and be writable.
    signal : AudioSignal
        Audio to write; samples must be finite.
    bit_depth : {16, 24, 32}
        32 writes IEEE float32 (lossless up to float32 precision), from
        float32 samples as they are; 16 and 24 write integer PCM with
        round-to-nearest quantization, computed in float64.

    Raises
    ------
    ValueError
        If ``bit_depth`` is not one of these, or a sample is not finite or,
        at 32 bits, outside the float32 range; the message names the path.
        Nothing is written then, so an existing file keeps its bytes.
    """
    samples = signal.samples
    limit = np.finfo(np.float32 if bit_depth == 32 else np.float64).max
    # A NaN fails every comparison, an infinity the float64 range.
    if samples.size and not -limit <= samples.min() <= samples.max() <= limit:
        raise ValueError(f"{path}: samples must be finite, within float32 at 32 bits")
    if bit_depth == 32:
        payload = samples.astype("<f4", copy=False).tobytes()
        code, bits = _IEEE_FLOAT, 32
    elif bit_depth in (16, 24):
        # Each code is the low bytes of a little-endian int32.
        scale = 2.0 ** (bit_depth - 1)
        wide = samples.astype(np.float64, copy=False)
        ints = np.clip(np.rint(wide * scale), -scale, scale - 1).astype("<i4")
        quads = ints.reshape(-1).view(np.uint8).reshape(-1, 4)
        payload = quads[:, :bit_depth // 8].tobytes()
        code, bits = _PCM, bit_depth
    else:
        raise ValueError(f"bit_depth must be 16, 24 or 32, got {bit_depth}")

    channels = signal.num_channels
    block_align = channels * bits // 8
    pad = b"\0" * (len(payload) % 2)  # RIFF chunks are word-aligned
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload) + len(pad), b"WAVE",
        b"fmt ", 16, code, channels, signal.sample_rate,
        signal.sample_rate * block_align, block_align, bits,
        b"data", len(payload),
    )
    _replace(path, header, payload, pad)
