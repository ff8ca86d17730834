"""WAV codec tests against hand-assembled byte fixtures."""

import struct

import numpy as np
import pytest

from conftest import relaid
from sepeval import (
    AudioSignal,
    TruncatedWavError,
    UnsupportedWavError,
    WavFormatError,
    WavInfo,
    load_wav,
    save_wav,
    wav_info,
)


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
        rng = np.random.default_rng(47)
        narrow = rng.uniform(-1.2, 1.2, (500, 2)).astype(np.float32)
        # Codes halfway between two steps, where rounding must be exact.
        narrow[:4, 0] = np.array([0.5, 1.5, -2.5, 3.5]) / 2.0 ** (bit_depth - 1)
        paths = tmp_path / "narrow.wav", tmp_path / "wide.wav"
        save_wav(paths[0], AudioSignal(narrow, 8000), bit_depth=bit_depth)
        save_wav(paths[1], AudioSignal(narrow.astype(np.float64), 8000),
                 bit_depth=bit_depth)
        assert paths[0].read_bytes() == paths[1].read_bytes()


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

    def test_write_clips_out_of_range(self, tmp_path):
        samples = np.array([[1.5], [-2.0], [0.0]])
        path = tmp_path / "clip.wav"
        save_wav(path, AudioSignal(samples, 8000), bit_depth=16)
        back = load_wav(path)
        np.testing.assert_array_equal(
            back.samples[:, 0], [32767 / 32768.0, -1.0, 0.0]
        )

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
