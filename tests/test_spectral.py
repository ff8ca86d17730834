"""Transform tests against a direct DFT oracle and round-trip properties."""

import numpy as np
import pytest
import scipy.fft
import scipy.signal

from conftest import relaid
from sepeval import AudioSignal, Spectrogram, StftConfig, istft, stft
from sepeval.spectral import _overlap_profile


def _direct_dft(frame):
    """O(N^2) DFT by explicit phasor sum, independent of any FFT library."""
    n = len(frame)
    k = np.arange(n)[:, None]
    t = np.arange(n)[None, :]
    phasors = np.exp(-2j * np.pi * k * t / n)
    return (phasors @ frame)[: n // 2 + 1]


class TestAnalysis:
    def test_first_frame_matches_direct_dft(self):
        """With a rectangular taper the first frame is a plain windowed DFT."""
        rng = np.random.default_rng(42)
        config = StftConfig(64, 64, "rect")  # no front pad, no taper shaping
        samples = rng.standard_normal((64, 1))
        spec = stft(AudioSignal(samples, 8000), config)
        oracle = _direct_dft(samples[:, 0])
        np.testing.assert_allclose(spec.bins[:, 0, 0], oracle, atol=1e-10)

    def test_rectangular_window_names_give_bitwise_equal_stfts(self):
        """"rect" and "rectangular" are SciPy's names for the boxcar taper."""
        rng = np.random.default_rng(44)
        signal = AudioSignal(rng.standard_normal((1000, 2)), 8000)
        rect, rectangular, boxcar = (
            stft(signal, StftConfig(128, 32, name)).bins
            for name in ("rect", "rectangular", "boxcar")
        )
        assert np.array_equal(rect, boxcar)
        assert np.array_equal(rectangular, boxcar)
        np.testing.assert_array_equal(StftConfig(128, 32, "rect").taper(), np.ones(128))

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 255, 256, 1024, 4096, 4097])
    def test_hann_taper_is_bitwise_scipys(self, size):
        """The Hann taper, computed without ``scipy.signal``, equals its
        periodic ``get_window`` bitwise; other names still go through it."""
        want = scipy.signal.get_window("hann", size, fftbins=True)
        np.testing.assert_array_equal(StftConfig(size, 1).taper(), want)
        np.testing.assert_array_equal(
            StftConfig(size, 1, "hamming").taper(),
            scipy.signal.get_window("hamming", size, fftbins=True),
        )

    def test_interior_frame_matches_direct_dft(self):
        """A Hann-tapered interior frame equals the DFT of taper*segment."""
        rng = np.random.default_rng(43)
        config = StftConfig(32, 8)
        samples = rng.standard_normal((200, 2))
        spec = stft(AudioSignal(samples, 8000), config)
        taper = config.taper()
        # frame t covers padded[t*hop : t*hop+32]; padded has 24 front zeros
        t = 10
        segment = samples[t * 8 - 24:t * 8 - 24 + 32, 1]
        oracle = _direct_dft(taper * segment)
        np.testing.assert_allclose(spec.bins[:, t, 1], oracle, atol=1e-10)

    def test_bin_center_cosine_concentrates(self):
        """A cosine at an exact bin frequency puts >=99% energy in that bin."""
        n, k = 128, 12
        t = np.arange(n)
        wave = np.cos(2 * np.pi * k * t / n)
        config = StftConfig(n, n, "rect")
        spec = stft(AudioSignal(wave, 8000), config)
        energy = np.abs(spec.bins[:, 0, 0]) ** 2
        assert energy[k] / energy.sum() >= 0.99

    def test_zero_signal_zero_spectrogram(self):
        spec = stft(AudioSignal(np.zeros((500, 2)), 8000), StftConfig(128, 32))
        assert not np.any(spec.bins)

    def test_linearity_is_exact(self):
        rng = np.random.default_rng(44)
        signal = AudioSignal(rng.standard_normal((1000, 2)), 8000)
        doubled = AudioSignal(2 * signal.samples, 8000)
        config = StftConfig(128, 32)
        np.testing.assert_array_equal(
            stft(doubled, config).bins, 2 * stft(signal, config).bins
        )

    def test_frame_count_covers_signal(self):
        """Last sample falls inside the final frame; no frame is wasted."""
        config = StftConfig(64, 16)
        for n in (1, 15, 16, 17, 63, 64, 65, 1000):
            spec = stft(AudioSignal(np.ones(n), 8000), config)
            frames = spec.num_frames
            pad = config.window_size - config.hop_size
            assert (frames - 1) * config.hop_size < pad + n
            assert frames * config.hop_size >= pad + n - config.window_size + 1

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            stft(AudioSignal(np.zeros((0, 1)), 8000))

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            StftConfig(64, 0)
        with pytest.raises(ValueError):
            StftConfig(64, 65)
        with pytest.raises(ValueError):
            StftConfig(0, 0)

    def test_float32_signal_transforms_as_its_widening(self):
        """Decoded samples are float32; the frames are widened before the
        taper, so the bins are bitwise those of a float64 copy."""
        narrow = np.random.default_rng(8).standard_normal((3000, 2)).astype(np.float32)
        config = StftConfig(256, 64)
        np.testing.assert_array_equal(
            stft(AudioSignal(narrow, 8000), config).bins,
            stft(AudioSignal(narrow.astype(np.float64), 8000), config).bins,
        )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "window,hop,taper",
        [
            (256, 64, "hann"),
            (256, 128, "hann"),
            (256, 85, "hann"),  # hop not dividing window
            (128, 128, "rect"),
            (128, 32, "rect"),
            (64, 16, "hamming"),
        ],
    )
    def test_reconstruction(self, window, hop, taper):
        rng = np.random.default_rng(window + hop)
        samples = rng.standard_normal((3 * 8000, 2))
        signal = AudioSignal(samples, 8000)
        config = StftConfig(window, hop, taper)
        back = istft(stft(signal, config))
        assert back.samples.shape == samples.shape
        assert back.sample_rate == 8000
        assert np.max(np.abs(back.samples - samples)) <= 1e-6

    def test_short_signal_padded_and_trimmed(self):
        """Signals shorter than one window round-trip at original length."""
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((5, 2))
        config = StftConfig(64, 16)
        back = istft(stft(AudioSignal(samples, 8000), config))
        assert back.samples.shape == (5, 2)
        np.testing.assert_allclose(back.samples, samples, atol=1e-10)

    def test_explicit_length_trims(self):
        rng = np.random.default_rng(8)
        samples = rng.standard_normal((300, 1))
        spec = stft(AudioSignal(samples, 8000), StftConfig(64, 16))
        short = istft(spec, 120)
        np.testing.assert_allclose(short.samples, samples[:120], atol=1e-10)

    def test_non_cola_config_rejected_at_synthesis(self):
        """A Hann taper at hop == window has zero-energy gaps."""
        config = StftConfig(64, 64, "hann")
        spec = stft(AudioSignal(np.ones(200), 8000), config)
        with pytest.raises(ValueError):
            istft(spec)

    def test_masking_then_synthesis_is_linear(self):
        """Scaling the spectrogram scales the reconstruction."""
        rng = np.random.default_rng(9)
        signal = AudioSignal(rng.standard_normal((1000, 2)), 8000)
        spec = stft(signal, StftConfig(128, 32))
        half = Spectrogram(0.5 * spec.bins, spec.config,
                           spec.original_length, spec.sample_rate)
        back = istft(half)
        np.testing.assert_allclose(back.samples, 0.5 * signal.samples, atol=1e-10)


class TestSpectrogramType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Spectrogram(np.zeros((10, 4, 2)), StftConfig(64, 16), 100)
        with pytest.raises(ValueError, match="3-D"):
            Spectrogram(np.zeros((33, 4)), StftConfig(64, 16), 100)

    def test_finite_validation(self):
        bins = np.zeros((33, 2, 1), dtype=complex)
        bins[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Spectrogram(bins, StftConfig(64, 16), 100)

    def test_properties(self):
        spec = Spectrogram(np.zeros((33, 5, 2), dtype=complex),
                           StftConfig(64, 16), 80, 8000)
        assert spec.num_frames == 5
        assert spec.num_channels == 2
        assert spec.config.num_bins == 33


def _per_frame_istft(spec, length):
    """Overlap-add frame by frame, then divide by the per-sample window sum.

    The direct form of weighted overlap-add synthesis: every frame is
    tapered and added at its own offset, and every sample is divided by
    the squared taper summed over exactly the frames that cover it.
    """
    config = spec.config
    size, hop = config.window_size, config.hop_size
    win = config.taper()
    total = (spec.num_frames - 1) * hop + size
    out = np.zeros((total, spec.num_channels))
    win_sq_sum = np.zeros(total)
    frames = np.fft.irfft(spec.bins, n=size, axis=0) * win[:, None, None]
    for k in range(spec.num_frames):
        out[k * hop:k * hop + size] += frames[:, k]
        win_sq_sum[k * hop:k * hop + size] += win ** 2
    nonzero = win_sq_sum > 1e-10 * win_sq_sum.max()
    out[nonzero] /= win_sq_sum[nonzero, None]
    result = out[size - hop:size - hop + length]
    padding = np.zeros((length - result.shape[0], spec.num_channels))
    return np.vstack([result, padding])


OVERLAP_CONFIGS = [
    StftConfig(100, 30, "hann"),  # hops that do not divide the window
    StftConfig(33, 7, "hann"),
    StftConfig(50, 49, "rect"),
    StftConfig(64, 64, "rect"),
    StftConfig(4096, 1024, "hann"),
]


class TestOverlapAddOracle:
    @pytest.mark.parametrize("config", OVERLAP_CONFIGS, ids=str)
    @pytest.mark.parametrize("length", [1, 5, 29, 1000, 4097])
    def test_masked_spectrogram_matches_per_frame_synthesis(self, config, length):
        """Random complex gains make frames disagree where they overlap."""
        rng = np.random.default_rng(length)
        signal = AudioSignal(rng.standard_normal((length, 2)), 8000)
        spec = stft(signal, config)
        gains = rng.standard_normal(spec.bins.shape) + 1j * rng.standard_normal(
            spec.bins.shape
        )
        masked = Spectrogram(gains * spec.bins, config, length, 8000)
        np.testing.assert_allclose(
            istft(masked).samples, _per_frame_istft(masked, length), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("config", OVERLAP_CONFIGS, ids=str)
    @pytest.mark.parametrize("length", [1, 29, 1000])
    def test_length_past_the_span_is_zero_padded(self, config, length):
        """Samples past the last frame are zero; inside the span, the oracle.

        Between the span's end and the last frame's end the frames only
        partly overlap; the round trip's true continuation there is zero.
        """
        rng = np.random.default_rng(length + 1)
        samples = rng.standard_normal((length, 2))
        spec = stft(AudioSignal(samples, 8000), config)
        longer = length + 3 * config.window_size + 7
        covered = spec.num_frames * config.hop_size  # last frame's end
        back = istft(spec, longer).samples
        assert back.shape == (longer, 2)
        np.testing.assert_allclose(
            back[:length], _per_frame_istft(spec, longer)[:length], rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(back[:length], samples, rtol=0, atol=1e-10)
        assert np.abs(back[length:covered]).max(initial=0.0) <= 1e-12
        assert not np.any(back[covered:])


def _padded_stft(signal, config):
    """Whole-signal analysis: one float64 padded copy, one FFT batch."""
    samples = signal.samples
    size, hop = config.window_size, config.hop_size
    pad_front = size - hop
    num_frames = (pad_front + len(samples) - 1) // hop + 1
    padded = np.zeros(((num_frames - 1) * hop + size, samples.shape[1]))
    padded[pad_front:pad_front + len(samples)] = samples
    frames = np.lib.stride_tricks.sliding_window_view(padded, size, axis=0)[::hop]
    return np.moveaxis(scipy.fft.rfft(frames * config.taper(), axis=-1), -1, 0)


def _one_batch_istft(spec, length):
    """Overlap-add of every frame from one inverse-FFT batch, phase by phase
    from last to first, so each sample sums its frames in frame order."""
    config = spec.config
    size, hop = config.window_size, config.hop_size
    phases = -(-size // hop)
    frames = scipy.fft.irfft(spec.bins.transpose(1, 2, 0).copy(), n=size, axis=-1)
    frames *= config.taper()
    out = np.zeros((spec.num_frames + phases - 1, hop, spec.num_channels))
    for q in reversed(range(phases)):
        phase = frames[..., q * hop:(q + 1) * hop].swapaxes(1, 2)
        out[q:q + spec.num_frames, :phase.shape[1]] += phase
    out /= _overlap_profile(config)[:, None]
    result = out.reshape(-1, spec.num_channels)[size - hop:size - hop + length]
    return np.vstack([result, np.zeros((length - len(result), spec.num_channels))])


ROUND_TRIP_CONFIGS = [  # TestRoundTrip's configs
    StftConfig(256, 64), StftConfig(256, 128), StftConfig(256, 85),
    StftConfig(128, 128, "rect"), StftConfig(128, 32, "rect"), StftConfig(64, 16, "hamming"),
]


class TestChunkedFraming:
    """``stft`` and ``istft`` run chunk by chunk over frames, each chunk
    framed straight from the samples; that changes no bit against one
    padded copy and one FFT batch, however many chunks a signal spans."""

    @pytest.mark.parametrize("config", OVERLAP_CONFIGS + ROUND_TRIP_CONFIGS, ids=str)
    @pytest.mark.parametrize("length, channels", [
        (1, 2), (29, 1), (1000, 2), (4097, 3), (24000, 2), (100_000, 2),
    ])
    def test_bitwise_equal_to_one_padded_copy(self, config, length, channels):
        rng = np.random.default_rng(length + channels)
        samples = rng.standard_normal((length, channels)).astype(np.float32)
        spec = stft(AudioSignal(samples, 8000), config)
        np.testing.assert_array_equal(spec.bins,
                                      _padded_stft(AudioSignal(samples, 8000), config))
        gains = rng.standard_normal(spec.bins.shape)
        masked = Spectrogram(gains * spec.bins, config, length, 8000)
        longer = length + config.window_size + 3
        for target in (length, longer):
            np.testing.assert_array_equal(istft(masked, target).samples,
                                          _one_batch_istft(masked, target))


class TestLayout:
    """Results depend on the values of the samples, not on their layout."""

    @pytest.mark.parametrize("layout", ["F", "strided"])
    def test_input_layout_gives_bitwise_the_same_bins(self, layout):
        rng = np.random.default_rng(46)
        samples = rng.standard_normal((40_000, 3))
        config = StftConfig(256, 64)  # 625 frames: chunks of 165
        want = stft(AudioSignal(samples, 8000), config).bins
        got = stft(AudioSignal(relaid(samples, layout), 8000), config).bins
        np.testing.assert_array_equal(got, want)

    def test_bins_are_a_view_of_channel_major_planes(self):
        """stft's (F, T, I) bins transpose to contiguous (I, T, F) planes."""
        rng = np.random.default_rng(47)
        spec = stft(AudioSignal(rng.standard_normal((3000, 2)), 8000), StftConfig(128, 32))
        assert spec.bins.T.flags.c_contiguous

    def test_synthesis_returns_a_view_of_its_buffer(self):
        """Within the frames' span the (N, I) samples are a view of the
        channel-major overlap-add buffer, not a copy; past it they are
        zero-padded."""
        rng = np.random.default_rng(48)
        samples = rng.standard_normal((3000, 2))
        spec = stft(AudioSignal(samples, 8000), StftConfig(128, 32))
        back = istft(spec).samples
        assert back.base is not None and back.strides[0] == back.itemsize
        np.testing.assert_allclose(back, samples, atol=1e-10)
        longer = istft(spec, 4000).samples
        assert longer.shape == (4000, 2)
        np.testing.assert_array_equal(longer[:3000], back)
        np.testing.assert_allclose(longer[3000:], 0.0, atol=1e-10)
