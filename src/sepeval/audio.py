"""Multichannel audio containers and RIFF/WAVE I/O.

Audio is held as float64 arrays of shape ``(num_samples, channels)`` with a
nominal amplitude range of [-1, 1].  The WAV codec supports little-endian
RIFF/WAVE files with 16-bit PCM, 24-bit PCM and 32-bit IEEE float payloads,
any channel count and any sample rate.

Scaling convention
------------------
Integer PCM samples are mapped to float by dividing by 2**(bits-1):
16-bit sample ``s`` becomes ``s / 32768`` and 24-bit ``s / 8388608``, so the
most negative code maps to exactly -1.0 and the most positive to just below
+1.0.  On write, floats are scaled by the same factor, rounded to nearest and
clipped to the valid code range.  Float32 payloads are passed through
unchanged both ways.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AudioSignal",
    "WavInfo",
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
    sample_rate : int
        Sampling rate in Hz, must be positive.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
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
    a decoded signal (``WavInfo.layout``, ``AudioSignal.layout``).  An
    expected rate of None, for samples held in a bare array, matches any.
    """
    if any(want not in (None, got) for got, want in zip(layout, expected)):
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

    Returns (codec, bit_depth, channels, sample_rate, data_size, data_offset).
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
            return codec, bits, channels, rate, chunk_size, fh.tell()
        else:
            # irrelevant chunk (LIST, fact, ...): skip, honoring pad byte
            fh.seek(chunk_size + (chunk_size & 1), 1)


def load_wav(path) -> AudioSignal:
    """Read a WAV file into an :class:`AudioSignal`.

    Parameters
    ----------
    path : str or Path
        File to read.

    Returns
    -------
    AudioSignal
        Samples scaled to [-1, 1] (see module docstring), channel count and
        sample rate preserved.

    Raises
    ------
    FileNotFoundError
        If the file does not exist.
    WavFormatError
        If the file is not RIFF/WAVE.
    UnsupportedWavError
        If the codec is not PCM 16/24-bit or IEEE float32.
    TruncatedWavError
        If the payload is shorter than the headers declare.
    """
    with open(path, "rb") as fh:
        codec, bits, channels, rate, data_size, _ = _parse_header(fh)
        bytes_per_frame = channels * bits // 8
        num_frames = data_size // bytes_per_frame
        payload = fh.read(num_frames * bytes_per_frame)
    if len(payload) < num_frames * bytes_per_frame:
        raise TruncatedWavError(
            f"data chunk declares {data_size} bytes but payload is shorter"
        )

    if codec == "float":
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    elif bits == 16:
        samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
    else:  # 24-bit PCM
        raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        ints = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        ints -= (ints & 0x800000) << 1
        samples = ints.astype(np.float64) / 8388608.0
    return AudioSignal(samples.reshape(num_frames, channels), rate)


def wav_info(path) -> WavInfo:
    """Read only the headers of a WAV file (cheap; payload untouched)."""
    with open(path, "rb") as fh:
        codec, bits, channels, rate, data_size, _ = _parse_header(fh)
    return WavInfo(
        num_samples=data_size // (channels * bits // 8),
        channels=channels,
        sample_rate=rate,
        bit_depth=bits,
        codec=codec,
    )


def save_wav(path, signal: AudioSignal, bit_depth: int = 32) -> None:
    """Write an :class:`AudioSignal` as a WAV file.

    Parameters
    ----------
    path : str or Path
        Destination; parent directory must exist and be writable.
    signal : AudioSignal
        Audio to write; samples must be finite.
    bit_depth : {16, 24, 32}
        32 writes IEEE float32 (lossless up to float32 precision);
        16 and 24 write integer PCM with round-to-nearest quantization.
    """
    samples = signal.samples
    if bit_depth == 32:
        payload = samples.astype("<f4").tobytes()
        code, bits = _IEEE_FLOAT, 32
    elif bit_depth == 16:
        ints = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
        payload = ints.tobytes()
        code, bits = _PCM, 16
    elif bit_depth == 24:
        ints = np.clip(np.rint(samples * 8388608.0), -8388608, 8388607)
        quads = ints.astype("<i4").reshape(-1)
        payload = quads.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        code, bits = _PCM, 24
    else:
        raise ValueError(f"bit_depth must be 16, 24 or 32, got {bit_depth}")

    channels = signal.num_channels
    block_align = channels * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, code, channels, signal.sample_rate,
        signal.sample_rate * block_align, block_align, bits,
        b"data", len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
