"""WAV codec tests against hand-assembled byte fixtures, and tests of the
one file writer, ``audio._replace``, under every writer of an output file."""

import os
import re
import stat
import struct
import threading
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relaid
from sepeval import (
    AudioSignal,
    Corpus,
    FrameScores,
    SignificanceMatrix,
    TrackScore,
    TruncatedWavError,
    UnsupportedWavError,
    WavFormatError,
    WavInfo,
    WavReader,
    aggregate,
    load_wav,
    save_wav,
    wav_info,
    write_manifest,
    write_report,
    write_significance_csv,
    write_significance_json,
)
from sepeval import audio
from sepeval.audio import SourceSum, _frames


def _wav_bytes(audio_format, channels, rate, bits, payload):
    """Assemble a minimal RIFF/WAVE file around a raw data payload."""
    block_align = channels * bits // 8
    fmt = struct.pack(
        "<HHIIHH", audio_format, channels, rate, rate * block_align,
        block_align, bits,
    )
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestLoadHandBuilt:
    def test_pcm16_exact_scaling(self, tmp_path):
        """Known 16-bit codes map to code/32768 exactly."""
        codes = [0, 1, -1, 32767, -32768, 16384]
        payload = struct.pack("<6h", *codes)
        path = tmp_path / "pcm16.wav"
        path.write_bytes(_wav_bytes(1, 1, 8000, 16, payload))
        signal = load_wav(path)
        expected = np.array(codes, dtype=np.float64)[:, None] / 32768.0
        np.testing.assert_array_equal(signal.samples, expected)
        assert signal.sample_rate == 8000

    def test_pcm24_exact_scaling(self, tmp_path):
        """3-byte codes sign-extend and map to code/2^23 exactly."""
        codes = [0, 1, -1, 8388607, -8388608]
        payload = b"".join(
            (code & 0xFFFFFF).to_bytes(3, "little") for code in codes
        )
        path = tmp_path / "pcm24.wav"
        path.write_bytes(_wav_bytes(1, 1, 44100, 24, payload))
        signal = load_wav(path)
        expected = np.array(codes, dtype=np.float64)[:, None] / 8388608.0
        np.testing.assert_array_equal(signal.samples, expected)

    def test_float32_passthrough(self, tmp_path):
        values = np.array([0.0, 0.25, -1.0, 1.0], dtype=np.float32)
        path = tmp_path / "f32.wav"
        path.write_bytes(_wav_bytes(3, 2, 22050, 32, values.tobytes()))
        signal = load_wav(path)
        assert signal.samples.shape == (2, 2)
        np.testing.assert_array_equal(
            signal.samples, values.astype(np.float64).reshape(2, 2)
        )

    def test_stereo_interleaving(self, tmp_path):
        payload = struct.pack("<4h", 100, -100, 200, -200)
        path = tmp_path / "stereo.wav"
        path.write_bytes(_wav_bytes(1, 2, 8000, 16, payload))
        signal = load_wav(path)
        np.testing.assert_array_equal(
            signal.samples * 32768.0, [[100, -100], [200, -200]]
        )

    def test_extensible_header(self, tmp_path):
        """WAVE_FORMAT_EXTENSIBLE wraps the real codec in a GUID."""
        payload = struct.pack("<2h", 16384, -16384)
        fmt_ext = struct.pack("<HHIIHH", 0xFFFE, 1, 8000, 16000, 2, 16)
        fmt_ext += struct.pack("<HHIH", 22, 16, 1, 1)  # cbSize, bits, mask, code
        fmt_ext += b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        body = b"fmt " + struct.pack("<I", len(fmt_ext)) + fmt_ext
        body += b"data" + struct.pack("<I", len(payload)) + payload
        raw = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        path = tmp_path / "ext.wav"
        path.write_bytes(raw)
        signal = load_wav(path)
        np.testing.assert_array_equal(signal.samples[:, 0], [0.5, -0.5])


class TestFilePrecision:
    """Decoded samples are float32, which holds every codec exactly."""

    def test_pcm16_decodes_to_float32_codes_over_2_15(self, tmp_path):
        codes = np.arange(-32768, 32768, dtype=np.int16)
        path = tmp_path / "pcm16.wav"
        path.write_bytes(_wav_bytes(1, 2, 8000, 16, codes.astype("<i2").tobytes()))
        samples = load_wav(path).samples
        assert samples.dtype == np.float32
        np.testing.assert_array_equal(
            samples.astype(np.float64), codes.reshape(-1, 2) / 2.0 ** 15
        )

    def test_pcm24_decodes_to_float32_codes_over_2_23(self, tmp_path):
        rng = np.random.default_rng(45)
        codes = np.concatenate((
            [0, 1, -1, 2 ** 23 - 1, -2 ** 23, 2 ** 22, -2 ** 22 - 1],
            rng.integers(-2 ** 23, 2 ** 23, 993),
        ))
        payload = b"".join(int(code & 0xFFFFFF).to_bytes(3, "little")
                           for code in codes)
        path = tmp_path / "pcm24.wav"
        path.write_bytes(_wav_bytes(1, 1, 44100, 24, payload))
        samples = load_wav(path).samples
        assert samples.dtype == np.float32
        np.testing.assert_array_equal(
            samples.astype(np.float64), codes[:, None] / 2.0 ** 23
        )

    def test_float32_decodes_unchanged(self, tmp_path):
        values = np.random.default_rng(46).standard_normal(64).astype(np.float32)
        path = tmp_path / "f32.wav"
        path.write_bytes(_wav_bytes(3, 2, 22050, 32, values.astype("<f4").tobytes()))
        samples = load_wav(path).samples
        assert samples.dtype == np.float32
        np.testing.assert_array_equal(samples, values.reshape(-1, 2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signal_keeps_float_samples_uncopied(self, dtype):
        samples = np.zeros((16, 2), dtype=dtype)
        assert AudioSignal(samples, 8000).samples is samples

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.float16])
    def test_signal_widens_other_dtypes(self, dtype):
        samples = np.array([[-3, 0], [1, 2]], dtype=dtype)
        widened = AudioSignal(samples, 8000).samples
        assert widened.dtype == np.float64
        np.testing.assert_array_equal(widened, samples.astype(np.float64))

    @pytest.mark.parametrize("bit_depth", [16, 24, 32])
    def test_float32_and_its_widening_write_the_same_bytes(self, tmp_path,
                                                           bit_depth):
        """Float32 samples write the bytes of their float64 widening; at 32
        bits they are encoded as they are, so the write holds no more than
        the payload beside them (the float64 route held four times it)."""
        rng = np.random.default_rng(47)
        narrow = rng.uniform(-1.2, 1.2, (100_000, 2)).astype(np.float32)
        # Codes halfway between two steps, where rounding must be exact.
        narrow[:4, 0] = np.array([0.5, 1.5, -2.5, 3.5]) / 2.0 ** (bit_depth - 1)
        paths = tmp_path / "narrow.wav", tmp_path / "wide.wav"
        tracemalloc.start()
        try:
            save_wav(paths[0], AudioSignal(narrow, 8000), bit_depth=bit_depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        save_wav(paths[1], AudioSignal(narrow.astype(np.float64), 8000),
                 bit_depth=bit_depth)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        if bit_depth == 32:
            assert peak < 2 * narrow.nbytes


class TestReader:
    """WavReader decodes any range of frames exactly as load_wav decodes
    the whole file, which is its read of every frame."""

    @pytest.mark.parametrize("bit_depth", [16, 24, 32])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_ranges_are_slices_of_the_whole(self, tmp_path, bit_depth, channels):
        rng = np.random.default_rng(bit_depth + channels)
        path = tmp_path / "x.wav"
        save_wav(path, AudioSignal(rng.uniform(-1, 1, (1001, channels)), 8000),
                 bit_depth=bit_depth)
        whole = load_wav(path).samples
        reader = WavReader(path)
        assert reader.shape == whole.shape and len(reader) == 1001
        assert reader.layout == (1001, channels, 8000) == wav_info(path).layout
        for start, stop in [(0, 1001), (0, 1), (500, 777), (1000, 1001), (990, 5000),
                            (-11, None), (None, -1000), (600, 600), (700, 10),
                            (2000, 3000)]:
            part = reader[start:stop]
            assert part.dtype == np.float32
            np.testing.assert_array_equal(part, whole[start:stop])
            assert part.shape == whole[start:stop].shape
        with pytest.raises(ValueError, match="contiguous"):
            reader[::2]
        with pytest.raises(TypeError, match="contiguous frame slices"):
            reader[3]

    def test_truncation_is_raised_on_opening(self, tmp_path):
        path = tmp_path / "short.wav"
        save_wav(path, AudioSignal(np.zeros((100, 2)), 8000), bit_depth=16)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(TruncatedWavError, match="payload is shorter"):
            WavReader(path)
        assert wav_info(path).num_samples == 100  # headers alone do not tell

    def test_non_finite_float_is_raised_by_the_range_holding_it(self, tmp_path):
        """Only a range that holds the NaN raises, naming the file."""
        path = tmp_path / "nan.wav"
        save_wav(path, AudioSignal(np.zeros((100, 2)), 8000))
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<f", np.nan)  # the last sample
        path.write_bytes(bytes(raw))
        reader = WavReader(path)
        np.testing.assert_array_equal(reader[:99], np.zeros((99, 2)))
        for read in (lambda: reader[99:], lambda: load_wav(path)):
            with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite")):
                read()


class TestErrors:
    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(WavFormatError):
            load_wav(path)

    def test_truncated_data(self, tmp_path):
        payload = struct.pack("<4h", 1, 2, 3, 4)
        raw = _wav_bytes(1, 1, 8000, 16, payload)
        path = tmp_path / "short.wav"
        path.write_bytes(raw[:-4])
        with pytest.raises(TruncatedWavError):
            load_wav(path)

    def test_unsupported_codec(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        path.write_bytes(_wav_bytes(1, 1, 8000, 8, b"\x80\x80"))
        with pytest.raises(UnsupportedWavError):
            load_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        raw = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        path = tmp_path / "nodata.wav"
        path.write_bytes(raw)
        with pytest.raises(WavFormatError):
            load_wav(path)


def _chunk(chunk_id, body):
    """One RIFF chunk, with the pad byte that follows an odd-sized body."""
    return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


def _riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


_FMT = struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)
_PAYLOAD = struct.pack("<4h", 100, -100, 200, -200)


class TestHeaderWalk:
    @pytest.mark.parametrize("position", [0, 1, 2],
                             ids=["before-fmt", "before-data", "after-data"])
    def test_odd_foreign_chunk_is_skipped(self, tmp_path, position):
        """An odd-sized LIST chunk and its pad byte change nothing read."""
        chunks = [_chunk(b"fmt ", _FMT), _chunk(b"data", _PAYLOAD)]
        plain = tmp_path / "plain.wav"
        plain.write_bytes(_riff(*chunks))
        chunks.insert(position, _chunk(b"LIST", b"INFOISFT\x03\x00\x00\x00ab\x00"))
        tagged = tmp_path / "tagged.wav"
        tagged.write_bytes(_riff(*chunks))
        assert wav_info(tagged) == wav_info(plain) == WavInfo(2, 2, 8000, 16, "pcm")
        np.testing.assert_array_equal(load_wav(tagged).samples,
                                      load_wav(plain).samples)

    def test_odd_fmt_chunk_is_followed_by_its_pad_byte(self, tmp_path):
        """A 17-byte fmt chunk, its pad byte skipped, reads as the 16-byte one."""
        plain = tmp_path / "plain.wav"
        plain.write_bytes(_riff(_chunk(b"fmt ", _FMT), _chunk(b"data", _PAYLOAD)))
        odd = tmp_path / "odd.wav"
        odd.write_bytes(_riff(_chunk(b"fmt ", _FMT + b"\x00"),
                              _chunk(b"data", _PAYLOAD)))
        assert wav_info(odd) == wav_info(plain) == WavInfo(2, 2, 8000, 16, "pcm")
        np.testing.assert_array_equal(load_wav(odd).samples, load_wav(plain).samples)

    @pytest.mark.parametrize("raw, error, message", [
        (b"RIFF\x04\x00\x00\x00WAV", WavFormatError, "too short"),
        (_riff(b"fmt \x10\x00"), TruncatedWavError, "chunk header"),
        (_riff(_chunk(b"fmt ", _FMT[:14]), _chunk(b"data", _PAYLOAD)),
         WavFormatError, "^fmt chunk too small"),
        (_riff(b"fmt " + struct.pack("<I", len(_FMT)) + _FMT[:10]),
         TruncatedWavError, "inside fmt chunk"),
        (_riff(_chunk(b"fmt ", struct.pack("<HHIIHHH", 0xFFFE, 2, 8000, 32000,
                                           4, 16, 0)),
               _chunk(b"data", _PAYLOAD)),
         WavFormatError, "extensible fmt chunk too small"),
        (_riff(_chunk(b"data", _PAYLOAD), _chunk(b"fmt ", _FMT)),
         WavFormatError, "precedes fmt"),
        (_riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 0, 8000, 0, 0, 16)),
               _chunk(b"data", _PAYLOAD)),
         WavFormatError, "no channels"),
        (_riff(_chunk(b"fmt ", struct.pack("<HHIIHH", 1, 2, 0, 0, 4, 16)),
               _chunk(b"data", _PAYLOAD)),
         WavFormatError, "zero rate"),
    ], ids=["under-12-bytes", "truncated-chunk-header", "short-fmt",
            "truncated-fmt", "short-extensible-fmt", "data-before-fmt", "zero-channels",
            "zero-rate"])
    def test_malformed_header_raises(self, tmp_path, raw, error, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(raw)
        for read in (load_wav, wav_info):
            with pytest.raises(error, match=message) as caught:
                read(path)
            assert type(caught.value) is error


class TestRoundTrip:
    def test_pcm16_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(42)
        samples = rng.uniform(-0.9, 0.9, size=(500, 2))
        path = tmp_path / "rt16.wav"
        save_wav(path, AudioSignal(samples, 8000), bit_depth=16)
        back = load_wav(path)
        assert np.max(np.abs(back.samples - samples)) <= 0.5 / 32768.0

    def test_pcm24_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(43)
        samples = rng.uniform(-0.9, 0.9, size=(500, 3))
        path = tmp_path / "rt24.wav"
        save_wav(path, AudioSignal(samples, 48000), bit_depth=24)
        back = load_wav(path)
        assert back.samples.shape == (500, 3)
        assert np.max(np.abs(back.samples - samples)) <= 0.5 / 8388608.0

    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(44)
        samples = rng.standard_normal((256, 2)).astype(np.float32).astype(np.float64)
        path = tmp_path / "rt32.wav"
        save_wav(path, AudioSignal(samples, 44100))
        back = load_wav(path)
        np.testing.assert_array_equal(back.samples, samples)
        info = wav_info(path)
        assert (info.num_samples, info.channels, info.bit_depth) == (256, 2, 32)
        assert info.codec == "float"

    @pytest.mark.parametrize("bit_depth", [16, 24])
    def test_write_clips_out_of_range(self, tmp_path, bit_depth):
        samples = np.array([[1.5], [-2.0], [0.0]])
        path = tmp_path / "clip.wav"
        save_wav(path, AudioSignal(samples, 8000), bit_depth=bit_depth)
        back = load_wav(path)
        full_scale = 2.0 ** (bit_depth - 1)
        np.testing.assert_array_equal(
            back.samples[:, 0], [(full_scale - 1) / full_scale, -1.0, 0.0]
        )

    def test_odd_data_chunk_is_followed_by_a_pad_byte(self, tmp_path):
        """Five 24-bit mono samples are 15 data bytes: a zero pad byte keeps
        the RIFF chunk word-aligned and counts in the RIFF size only."""
        path = tmp_path / "odd.wav"
        save_wav(path, AudioSignal(np.linspace(-0.5, 0.5, 5), 8000), bit_depth=24)
        raw = path.read_bytes()
        assert len(raw) % 2 == 0
        assert raw[-1] == 0
        assert struct.unpack("<I", raw[4:8])[0] == len(raw) - 8
        assert struct.unpack("<I", raw[40:44])[0] == 15
        assert load_wav(path).num_samples == 5
        with wave.open(str(path), "rb") as reader:
            assert reader.getnframes() == 5

    @pytest.mark.parametrize("bit_depth", [16, 24, 32])
    @pytest.mark.parametrize("layout", ["F", "strided"])
    def test_layout_does_not_change_the_bytes(self, tmp_path, bit_depth, layout):
        """Oracle estimates are transposed views of channel-major buffers:
        such a signal writes the bytes of its row-major copy."""
        rng = np.random.default_rng(45)
        samples = rng.uniform(-0.9, 0.9, size=(301, 3))
        paths = tmp_path / "c.wav", tmp_path / f"{layout}.wav"
        for path, values in zip(paths, (samples, relaid(samples, layout))):
            save_wav(path, AudioSignal(values, 8000), bit_depth=bit_depth)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("bit_depth", [16, 24, 32])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])
    def test_write_refuses_what_the_reader_refuses(self, tmp_path, bit_depth, value):
        """A non-finite sample, set after construction, or at 32 bits a
        finite one beyond float32, raises naming the path and writes
        nothing; at 16 and 24 bits a finite 1e39 clips to full scale."""
        path = tmp_path / "x.wav"
        path.write_bytes(b"kept")
        signal = AudioSignal(np.zeros((4, 2)), 8000)
        signal.samples[2, 1] = value
        if np.isfinite(value) and bit_depth != 32:
            save_wav(path, signal, bit_depth=bit_depth)
            assert load_wav(path).samples[2, 1] == 1 - 2.0 ** (1 - bit_depth)
            return
        with pytest.raises(ValueError, match=re.escape(str(path))):
            save_wav(path, signal, bit_depth=bit_depth)
        assert path.read_bytes() == b"kept"

    def test_info_matches_written_header(self, tmp_path):
        signal = AudioSignal(np.zeros((100, 2)), 22050)
        path = tmp_path / "info.wav"
        save_wav(path, signal, bit_depth=24)
        info = wav_info(path)
        assert info.sample_rate == 22050
        assert info.num_samples == 100
        assert info.channels == 2
        assert info.bit_depth == 24
        assert info.codec == "pcm"


class TestAudioSignal:
    def test_mono_promoted_to_matrix(self):
        signal = AudioSignal(np.zeros(16), 8000)
        assert signal.samples.shape == (16, 1)
        assert signal.num_channels == 1
        assert signal.duration == 16 / 8000

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AudioSignal(np.array([[np.nan]]), 8000)

    @pytest.mark.parametrize("shape, message", [
        ((4, 2, 1), "1-D or 2-D"),
        ((4, 0), "at least one channel"),
    ])
    def test_rejects_malformed_layout(self, shape, message):
        with pytest.raises(ValueError, match=message):
            AudioSignal(np.zeros(shape), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioSignal(np.zeros((4, 1)), 0)

    def test_rejects_bad_depth(self, tmp_path):
        with pytest.raises(ValueError):
            save_wav(tmp_path / "x.wav", AudioSignal(np.zeros((4, 1)), 8000),
                     bit_depth=12)


class _Recording:
    """A source that records the length of every range read from it."""

    def __init__(self, source):
        self.source, self.shape, self.reads = source, source.shape, []

    def __len__(self):
        return len(self.source)

    def __getitem__(self, samples):
        part = self.source[samples]
        self.reads.append(len(part))
        return part


class TestFrames:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["array", 16, 24, 32, "sum"]),
           num_samples=st.integers(1, 40), channels=st.integers(1, 3),
           count=st.integers(1, 6), width=st.integers(1, 12), data=st.data())
    def test_frames_are_zero_padded_slices(self, kind, num_samples, channels, count,
                                           width, data, tmp_path_factory):
        """Frame k of each channel is samples [offset + k hop, offset + k hop
        + width) of the source, zero outside it, in float64, for offsets
        before the start (the STFT's leading pad, a segment's history) and
        frames past the end, from one range read per call."""
        hop = data.draw(st.integers(1, width), label="hop")
        front = (count + 1) * width + 3  # past the farthest reach of a span before the source
        offset = data.draw(st.integers(-front, num_samples + 3), label="offset")
        rng = np.random.default_rng(num_samples * channels)
        samples = rng.uniform(-1, 1, (num_samples, channels))
        if kind == "array":
            source = samples
        else:
            path = tmp_path_factory.mktemp("frames") / "x.wav"
            save_wav(path, AudioSignal(samples, 8000), bit_depth=16 if kind == "sum" else kind)
            source = WavReader(path)
            if kind == "sum":
                source = SourceSum([source, samples])
        recording = _Recording(source)
        whole = np.asarray(source[0:num_samples], dtype=np.float64)
        padded = np.zeros((front + num_samples + front, channels))
        padded[front:front + num_samples] = whole
        got = [frames.copy() for frames in _frames(recording, offset, count, width, hop)]
        assert len(got) == channels and len(recording.reads) == 1
        for channel, frames in enumerate(got):
            assert frames.dtype == np.float64 and frames.shape == (count, width)
            for k in range(count):
                start = front + offset + k * hop
                np.testing.assert_array_equal(frames[k], padded[start:start + width, channel])


_SCORE = TrackScore("Able", "m", {"vocals": [FrameScores(1.0, 2.0, 3.0, 4.0, 0, 100)]},
                    sample_rate=8000, window=100, hop=100)
_MATRIX = SignificanceMatrix(("a", "b"), np.array([[1.0, 0.25], [0.25, 1.0]]),
                             metric="SDR", target="vocals", num_tracks=2)
# Every writer of an output file, by name: each puts its file on disk
# through audio._replace.
WRITERS = {
    "save_wav": lambda path: save_wav(path, AudioSignal(np.full((9, 2), 0.5), 8000),
                                      bit_depth=24),
    "write_report": lambda path: write_report(_SCORE, path),
    "write_manifest": lambda path: write_manifest(Corpus(Path("corpus"), []), path),
    "AggregateTable.write_csv": lambda path: aggregate([_SCORE]).write_csv(path),
    "write_significance_csv": lambda path: write_significance_csv(_MATRIX, path),
    "write_significance_json": lambda path: write_significance_json(_MATRIX, path),
}


class _FailingFile:
    """A file opened for writing that takes half of the first bytes it is
    given, then raises ``error``: a full disk, or an interrupt, midway."""

    def __init__(self, error, path, mode):
        self.file, self.error = open(path, mode), error

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def write(self, data):
        self.file.write(bytes(data)[:len(data) // 2])
        self.file.flush()
        raise self.error

    def writelines(self, parts):
        for part in parts:
            self.write(part)


def _written(writer, folder):
    """The bytes ``writer`` writes to a fresh file in ``folder``."""
    folder.mkdir()
    writer(folder / "out")
    return (folder / "out").read_bytes()


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS)
class TestOneWriter:
    """Every output file is written whole or not at all, through one helper."""

    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"),
                                       KeyboardInterrupt()], ids=["full", "interrupt"])
    @pytest.mark.parametrize("old", [b"old bytes", None], ids=["over", "new"])
    def test_a_write_that_raises_midway_leaves_the_old_file(self, writer, error, old,
                                                           tmp_path, monkeypatch):
        target = tmp_path / "out"
        if old is not None:
            target.write_bytes(old)
        monkeypatch.setattr(audio, "open", lambda *args: _FailingFile(error, *args),
                            raising=False)
        with pytest.raises(type(error)):
            writer(target)
        if old is None:
            assert os.listdir(tmp_path) == []
        else:
            assert os.listdir(tmp_path) == ["out"] and target.read_bytes() == old

    def test_a_symlink_is_written_through(self, writer, tmp_path):
        real = tmp_path / "real" / "file"
        real.parent.mkdir()
        real.write_bytes(b"old bytes")
        link = tmp_path / "link"
        link.symlink_to(real)
        writer(link)
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == _written(writer, tmp_path / "fresh")
        assert sorted(os.listdir(real.parent)) == ["file"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_a_fifo_is_written_in_place(self, writer, tmp_path):
        """A target that is not a regular file is never renamed over: a
        FIFO stays a FIFO, and its reader gets the file's bytes."""
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        writer(fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["pipe"]
        assert got == [_written(writer, tmp_path / "fresh")]

    def test_an_undecodable_name_is_written_as_its_bytes(self, writer, tmp_path):
        """A target named by bytes that the file-system encoding cannot
        decode (a Latin-1 name under the C locale, or under UTF-8) is
        written under those bytes."""
        name = b"Mot\xf6rhead - Ace"
        writer(tmp_path / os.fsdecode(name))
        assert os.listdir(os.fsencode(tmp_path)) == [name]
        assert (tmp_path / os.fsdecode(name)).read_bytes() == _written(
            writer, tmp_path / "fresh")
