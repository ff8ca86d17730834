"""Oracle mask tests: per-bin brute-force references and mask invariants."""

import numpy as np
import pytest

from sepeval import (
    AudioSignal,
    MatrixMask,
    ScalarMask,
    SourceImages,
    SpatialModel,
    Spectrogram,
    StftConfig,
    apply_mask,
    estimate_mwf_model,
    ibm_mask,
    irm_mask,
    istft,
    mwf_mask,
    oracle_separate,
    stft,
)


def _spec(bins, rate=8000):
    """Wrap raw (F, T, I) bins in a Spectrogram with a matching config."""
    bins = np.asarray(bins, dtype=np.complex128)
    window = 2 * (bins.shape[0] - 1)
    return Spectrogram(bins, StftConfig(window, max(1, window // 4)), 64, rate)


def _random_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestIbmMask:
    def test_matches_per_bin_reference(self):
        """Every bin agrees with a direct loop over the defining comparison."""
        rng = np.random.default_rng(11)
        stack = _random_stack(rng, (3, 5, 4, 2))
        stack[:, 2, 1, 0] = 0.0  # silent bin
        stack[0, 3, 0, 1] = 3.0  # exact two-way tie
        stack[1, 3, 0, 1] = -3.0
        stack[2, 3, 0, 1] = 0.0
        sources = SourceImages([_spec(s) for s in stack])
        for order in (1, 2):
            mask = ibm_mask(sources, order).values
            mags = np.abs(stack) ** order
            for j, f, t, i in np.ndindex(mags.shape):
                total = mags[:, f, t, i].sum()
                expect = float(total > 0 and mags[j, f, t, i] >= 0.5 * total)
                assert mask[j, f, t, i] == expect, (j, f, t, i, order)

    def test_dominant_source_wins(self):
        stack = np.zeros((2, 2, 1, 1), dtype=complex)
        stack[0, 0, 0, 0] = 3.0
        stack[1, 0, 0, 0] = 1.0
        mask = ibm_mask(SourceImages([_spec(s) for s in stack]))
        assert mask.values[0, 0, 0, 0] == 1.0
        assert mask.values[1, 0, 0, 0] == 0.0

    def test_ties_are_inclusive(self):
        stack = np.zeros((2, 2, 1, 1), dtype=complex)
        stack[:, 0, 0, 0] = [2.0, -2.0]
        mask = ibm_mask(SourceImages([_spec(s) for s in stack]))
        assert mask.values[0, 0, 0, 0] == 1.0
        assert mask.values[1, 0, 0, 0] == 1.0

    def test_silent_bins_get_zero(self):
        stack = np.zeros((2, 2, 3, 1), dtype=complex)
        mask = ibm_mask(SourceImages([_spec(s) for s in stack]))
        assert not np.any(mask.values)

    def test_order_changes_the_outcome(self):
        """(3, 2, 2): no majority in magnitude, a power majority for source 0."""
        stack = np.zeros((3, 2, 1, 1), dtype=complex)
        stack[:, 0, 0, 0] = [3.0, 2.0, 2.0]
        sources = SourceImages([_spec(s) for s in stack])
        assert not np.any(ibm_mask(sources, 1).values[:, 0, 0, 0])
        np.testing.assert_array_equal(
            ibm_mask(sources, 2).values[:, 0, 0, 0], [1.0, 0.0, 0.0]
        )

    def test_invalid_order(self):
        stack = np.zeros((1, 2, 1, 1), dtype=complex)
        with pytest.raises(ValueError):
            ibm_mask(SourceImages([_spec(stack[0])]), order=3)


class TestIrmMask:
    def test_matches_per_bin_reference(self):
        rng = np.random.default_rng(12)
        stack = _random_stack(rng, (3, 5, 4, 2))
        sources = SourceImages([_spec(s) for s in stack])
        for alpha in (1.0, 2.0, 0.5):
            mask = irm_mask(sources, alpha).values
            mags = np.abs(stack) ** alpha
            for j, f, t, i in np.ndindex(mags.shape):
                total = mags[:, f, t, i].sum()
                expect = mags[j, f, t, i] / total
                np.testing.assert_allclose(mask[j, f, t, i], expect, rtol=1e-14)

    def test_power_ratio_closed_form(self):
        stack = np.zeros((2, 2, 1, 1), dtype=complex)
        stack[:, 0, 0, 0] = [0.8, 0.2]
        mask = irm_mask(SourceImages([_spec(s) for s in stack]), alpha=2.0)
        np.testing.assert_allclose(mask.values[0, 0, 0, 0], 0.64 / 0.68)
        np.testing.assert_allclose(mask.values[1, 0, 0, 0], 0.04 / 0.68)

    def test_silent_bins_split_uniformly(self):
        stack = np.zeros((4, 2, 2, 1), dtype=complex)
        mask = irm_mask(SourceImages([_spec(s) for s in stack]))
        np.testing.assert_array_equal(mask.values, 0.25)

    def test_masks_sum_to_one(self):
        rng = np.random.default_rng(13)
        stack = _random_stack(rng, (3, 9, 6, 2))
        stack[:, 4, 2, :] = 0.0  # include a silent bin in the check
        sources = SourceImages([_spec(s) for s in stack])
        total = irm_mask(sources, alpha=2.0).values.sum(axis=0)
        assert np.abs(total - 1.0).max() <= 1e-14

    def test_single_source_mask_is_all_ones(self):
        rng = np.random.default_rng(14)
        sources = SourceImages([_spec(_random_stack(rng, (3, 2, 1)))])
        np.testing.assert_array_equal(irm_mask(sources).values, 1.0)

    def test_invalid_alpha(self):
        stack = np.zeros((1, 2, 1, 1), dtype=complex)
        with pytest.raises(ValueError):
            irm_mask(SourceImages([_spec(stack[0])]), alpha=0.0)


class TestSpatialModelFit:
    def test_single_channel_model(self):
        """With one channel the covariance is scalar 1 and v_j = |y_j|^2."""
        rng = np.random.default_rng(21)
        bins = _random_stack(rng, (5, 7, 1))
        model = estimate_mwf_model(SourceImages([_spec(bins)]))
        np.testing.assert_allclose(model.spatial_cov, 1.0, rtol=1e-12)
        np.testing.assert_allclose(model.psd[0], np.abs(bins[..., 0]) ** 2,
                                   rtol=1e-12)

    def test_identical_channels_give_rank_one_covariance(self):
        rng = np.random.default_rng(22)
        mono = _random_stack(rng, (5, 7, 1))
        bins = np.concatenate([mono, mono], axis=2)
        model = estimate_mwf_model(SourceImages([_spec(bins)]))
        np.testing.assert_allclose(model.spatial_cov[0],
                                   np.ones((5, 2, 2)), atol=1e-12)
        np.testing.assert_allclose(model.psd[0],
                                   np.abs(mono[..., 0]) ** 2 / 2, rtol=1e-10)

    def test_silent_source_pinned_and_flagged(self):
        rng = np.random.default_rng(23)
        live = _spec(_random_stack(rng, (4, 5, 2)))
        silent = _spec(np.zeros((4, 5, 2)))
        with pytest.warns(RuntimeWarning):
            model = estimate_mwf_model(SourceImages([live, silent]))
        assert model.degenerate == (1,)
        assert not np.any(model.psd[1])
        np.testing.assert_array_equal(model.spatial_cov[1],
                                      np.broadcast_to(np.eye(2), (4, 2, 2)))

    def test_covariance_is_trace_normalized(self):
        rng = np.random.default_rng(24)
        bins = _random_stack(rng, (4, 9, 3))
        model = estimate_mwf_model(SourceImages([_spec(bins)]))
        traces = np.einsum("jfii->jf", model.spatial_cov).real
        np.testing.assert_allclose(traces, 3.0, rtol=1e-12)

    def test_iterations_validated(self):
        rng = np.random.default_rng(25)
        sources = SourceImages([_spec(_random_stack(rng, (3, 2, 1)))])
        with pytest.raises(ValueError):
            estimate_mwf_model(sources, iterations=0)


class TestMwfMask:
    def _conditioned_sources(self, rng, num_sources=2, channels=2):
        """Bins with per-channel magnitudes in [1, 2), away from silence."""
        shape = (num_sources, 5, 6, channels)
        mags = 1.0 + rng.random(shape)
        phases = np.exp(2j * np.pi * rng.random(shape))
        return SourceImages([_spec(b) for b in mags * phases])

    def test_single_channel_matches_power_ratio_mask(self):
        """At I = 1 the Wiener filter reduces to the alpha=2 ratio mask."""
        rng = np.random.default_rng(31)
        sources = self._conditioned_sources(rng, channels=1)
        model = estimate_mwf_model(sources)
        wiener = mwf_mask(model, epsilon=0.0).values[..., 0, 0]
        ratio = irm_mask(sources, alpha=2.0).values[..., 0]
        np.testing.assert_allclose(wiener.real, ratio, atol=1e-12)
        assert np.abs(wiener.imag).max() <= 1e-12

    def test_default_loading_stays_close_to_power_ratio(self):
        rng = np.random.default_rng(32)
        sources = self._conditioned_sources(rng, channels=1)
        model = estimate_mwf_model(sources)
        wiener = mwf_mask(model).values[..., 0, 0]
        ratio = irm_mask(sources, alpha=2.0).values[..., 0]
        assert np.abs(wiener.real - ratio).max() < 1e-10

    def test_masks_sum_to_identity(self):
        rng = np.random.default_rng(33)
        model = estimate_mwf_model(self._conditioned_sources(rng))
        total = mwf_mask(model, epsilon=0.0).values.sum(axis=0)
        eye = np.broadcast_to(np.eye(2), total.shape)
        assert np.abs(total - eye).max() <= 1e-8

    def test_single_source_mask_is_identity(self):
        rng = np.random.default_rng(34)
        model = estimate_mwf_model(self._conditioned_sources(rng, num_sources=1))
        values = mwf_mask(model, epsilon=0.0).values
        eye = np.broadcast_to(np.eye(2), values.shape[1:])
        np.testing.assert_allclose(values[0], eye, atol=1e-10)

    def test_zero_psd_bins_give_zero_filters(self):
        psd = np.ones((2, 3, 4))
        psd[0, 1, 2] = 0.0
        cov = np.broadcast_to(np.eye(2, dtype=complex), (2, 3, 2, 2)).copy()
        values = mwf_mask(SpatialModel(psd, cov)).values
        np.testing.assert_array_equal(values[0, 1, 2], 0.0)

    def test_power_of_two_psd_scaling_is_bitwise_invariant(self):
        """Scaling all PSDs by 16 cancels exactly, regularizer included."""
        rng = np.random.default_rng(35)
        model = estimate_mwf_model(self._conditioned_sources(rng))
        assert np.einsum("jfii->f", model.spatial_cov).real.min() > 0
        scaled = SpatialModel(16.0 * model.psd, model.spatial_cov)
        np.testing.assert_array_equal(mwf_mask(scaled).values,
                                      mwf_mask(model).values)


class TestApplyMask:
    def test_scalar_identity(self):
        rng = np.random.default_rng(41)
        mixture = _spec(_random_stack(rng, (3, 4, 2)))
        mask = ScalarMask(np.ones((1, 3, 4, 2)))
        np.testing.assert_array_equal(apply_mask(mask, mixture, 0).bins,
                                      mixture.bins)

    def test_scalar_halving(self):
        rng = np.random.default_rng(42)
        mixture = _spec(_random_stack(rng, (3, 4, 2)))
        mask = ScalarMask(np.full((2, 3, 4, 2), 0.5))
        np.testing.assert_array_equal(apply_mask(mask, mixture, 1).bins,
                                      0.5 * mixture.bins)

    def test_matrix_channel_swap(self):
        rng = np.random.default_rng(43)
        mixture = _spec(_random_stack(rng, (3, 4, 2)))
        swap = np.zeros((1, 3, 4, 2, 2), dtype=complex)
        swap[..., 0, 1] = 1.0
        swap[..., 1, 0] = 1.0
        swapped = apply_mask(MatrixMask(swap), mixture, 0).bins
        np.testing.assert_array_equal(swapped, mixture.bins[:, :, ::-1])

    def test_shape_mismatches_rejected(self):
        rng = np.random.default_rng(44)
        mixture = _spec(_random_stack(rng, (3, 4, 2)))
        with pytest.raises(ValueError):
            apply_mask(ScalarMask(np.ones((1, 3, 4, 1))), mixture, 0)
        with pytest.raises(ValueError):
            apply_mask(MatrixMask(np.zeros((1, 3, 5, 2, 2))), mixture, 0)

    def test_source_index_validated(self):
        rng = np.random.default_rng(45)
        mixture = _spec(_random_stack(rng, (3, 4, 2)))
        with pytest.raises(IndexError):
            apply_mask(ScalarMask(np.ones((2, 3, 4, 2))), mixture, 2)

    def test_unsupported_mask_type(self):
        rng = np.random.default_rng(46)
        mixture = _spec(_random_stack(rng, (3, 4, 2)))
        with pytest.raises(TypeError):
            apply_mask(np.ones((1, 3, 4, 2)), mixture, 0)


class TestMaskValidation:
    def test_scalar_range_enforced(self):
        with pytest.raises(ValueError):
            ScalarMask(np.full((1, 2, 2, 1), 1.5))
        with pytest.raises(ValueError):
            ScalarMask(np.full((1, 2, 2, 1), -0.1))

    def test_matrix_must_be_square(self):
        with pytest.raises(ValueError):
            MatrixMask(np.zeros((1, 2, 2, 2, 3)))

    def test_source_images_shape_agreement(self):
        a = _spec(np.zeros((3, 4, 2)))
        b = _spec(np.zeros((3, 5, 2)))
        with pytest.raises(ValueError):
            SourceImages([a, b])

    def test_spatial_model_hermitian_check(self):
        cov = np.zeros((1, 2, 2, 2), dtype=complex)
        cov[..., 0, 1] = 1.0  # missing conjugate partner
        with pytest.raises(ValueError):
            SpatialModel(np.ones((1, 2, 3)), cov)


def _tones(rate=8000, samples=4000):
    """Two band-disjoint test tones and their mixture."""
    t = np.arange(samples) / rate
    low = np.sin(2 * np.pi * 200.0 * t)
    high = 0.7 * np.sin(2 * np.pi * 3000.0 * t)
    sources = [AudioSignal(low, rate), AudioSignal(high, rate)]
    mixture = AudioSignal(low + high, rate)
    return mixture, sources


def _snr_db(truth, estimate):
    err = truth - estimate
    return 10 * np.log10(np.sum(truth ** 2) / np.sum(err ** 2))


class TestOracleSeparate:
    CONFIG = StftConfig(256, 64)

    def test_binary_mask_separates_disjoint_bands(self):
        mixture, sources = _tones()
        estimates = oracle_separate(mixture, sources, "IBM1", self.CONFIG)
        for truth, est in zip(sources, estimates):
            assert _snr_db(truth.samples, est.samples) >= 40.0

    def test_wiener_filter_separates_spatial_tones(self):
        rate, samples = 8000, 4000
        t = np.arange(samples) / rate
        low = np.sin(2 * np.pi * 200.0 * t)
        high = np.sin(2 * np.pi * 3000.0 * t)
        a = AudioSignal(np.stack([low, 0.2 * low], axis=1), rate)
        b = AudioSignal(np.stack([0.3 * high, high], axis=1), rate)
        mixture = AudioSignal(a.samples + b.samples, rate)
        estimates = oracle_separate(mixture, [a, b], "MWF", self.CONFIG)
        for truth, est in zip([a, b], estimates):
            assert _snr_db(truth.samples, est.samples) >= 20.0

    def test_ratio_mask_estimates_sum_to_mixture(self):
        rng = np.random.default_rng(51)
        parts = [rng.standard_normal((3000, 2)) for _ in range(3)]
        sources = [AudioSignal(p, 8000) for p in parts]
        mixture = AudioSignal(sum(parts), 8000)
        estimates = oracle_separate(mixture, sources, "IRM2", self.CONFIG)
        total = sum(est.samples for est in estimates)
        assert np.abs(total - mixture.samples).max() <= 1e-6

    def test_single_source_passes_through(self):
        rng = np.random.default_rng(52)
        signal = AudioSignal(rng.standard_normal((2500, 2)), 8000)
        for method in ("IBM1", "IRM2"):
            (estimate,) = oracle_separate(signal, [signal], method, self.CONFIG)
            assert np.abs(estimate.samples - signal.samples).max() <= 1e-10

    @pytest.mark.parametrize("method", ["IBM1", "IBM2", "IRM1", "IRM2"])
    def test_power_of_two_scaling_is_bitwise_equivariant(self, method):
        rng = np.random.default_rng(53)
        parts = [rng.standard_normal((2000, 2)) for _ in range(2)]
        sources = [AudioSignal(p, 8000) for p in parts]
        mixture = AudioSignal(sum(parts), 8000)
        base = oracle_separate(mixture, sources, method, self.CONFIG)
        scaled = oracle_separate(
            AudioSignal(4.0 * mixture.samples, 8000),
            [AudioSignal(4.0 * p, 8000) for p in parts],
            method,
            self.CONFIG,
        )
        for lo, hi in zip(base, scaled):
            np.testing.assert_array_equal(hi.samples, 4.0 * lo.samples)

    def test_bare_names_take_explicit_parameters(self):
        mixture, sources = _tones()
        via_suffix = oracle_separate(mixture, sources, "IBM2", self.CONFIG)
        via_order = oracle_separate(mixture, sources, "IBM", self.CONFIG, order=2)
        for a, b in zip(via_suffix, via_order):
            np.testing.assert_array_equal(a.samples, b.samples)
        # fractional exponents only reachable through the bare spelling
        oracle_separate(mixture, sources, "IRM", self.CONFIG, alpha=1.5)

    def test_conflicting_parameters_rejected(self):
        mixture, sources = _tones()
        with pytest.raises(ValueError):
            oracle_separate(mixture, sources, "IBM1", self.CONFIG, order=2)
        with pytest.raises(ValueError):
            oracle_separate(mixture, sources, "IRM2", self.CONFIG, alpha=1.0)

    def test_unknown_method_rejected(self):
        mixture, sources = _tones()
        with pytest.raises(ValueError):
            oracle_separate(mixture, sources, "IWM", self.CONFIG)

    def test_input_validation(self):
        mixture, sources = _tones()
        with pytest.raises(ValueError):
            oracle_separate(mixture, [], "IBM1", self.CONFIG)
        short = AudioSignal(sources[0].samples[:100], 8000)
        with pytest.raises(ValueError):
            oracle_separate(mixture, [short], "IBM1", self.CONFIG)
        wrong_rate = AudioSignal(sources[0].samples, 16000)
        with pytest.raises(ValueError):
            oracle_separate(mixture, [wrong_rate], "IBM1", self.CONFIG)


def _einsum_mwf_model(stack, iterations=2):
    """The local Gaussian model fit, written with plain einsum contractions.

    Assumes every live source has energy in every frequency bin, which
    random test data does; silent sources are pinned as in the library.
    """
    channels = stack.shape[-1]
    psd = np.zeros(stack.shape[:3])
    cov = np.empty(stack.shape[:2] + (channels, channels), dtype=complex)
    for j, y in enumerate(stack):
        if not np.any(y):
            cov[j] = np.eye(channels)
            continue
        outer = np.einsum("fti,ftk->fik", y, y.conj())
        v = np.einsum("fti,fti->ft", y, y.conj()).real / channels
        for _ in range(iterations):
            r = outer / v.sum(axis=1)[:, None, None]
            r *= (channels / np.einsum("fii->f", r).real)[:, None, None]
            r_inv = np.linalg.pinv(r, hermitian=True)
            v = np.einsum("fik,ftk,fti->ft", r_inv, y, y.conj()).real / channels
            v = np.maximum(v, 0.0)
        psd[j] = v
        cov[j] = (r + r.conj().swapaxes(-1, -2)) / 2.0
    return psd, cov


def _einsum_loaded_mix_cov(psd, cov):
    channels = cov.shape[-1]
    mix_cov = np.einsum("jft,jfik->ftik", psd, cov)
    eps = 1e-10 * np.maximum(1.0, np.einsum("ftii->ft", mix_cov).real / channels)
    return mix_cov + eps[..., None, None] * np.eye(channels)


def _assert_close(actual, desired):
    """Relative agreement at 1e-12, measured against the array's scale."""
    scale = np.abs(desired).max()
    np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=1e-12 * scale)


class TestMwfAgainstEinsum:
    """The MWF path against einsum references, with one silent source."""

    CONFIG = StftConfig(128, 32)

    def _signals(self, num_sources, channels):
        rng = np.random.default_rng(10 * num_sources + channels)
        parts = [(1.0 + j) * rng.standard_normal((1500, channels))
                 for j in range(num_sources)]
        parts[-1][:] = 0.0  # the one silent source
        mixture = AudioSignal(sum(parts), 8000)
        return mixture, [AudioSignal(p, 8000) for p in parts]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("num_sources", [1, 3])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_model_and_estimates(self, num_sources, channels):
        mixture, sources = self._signals(num_sources, channels)
        stack = np.stack([stft(s, self.CONFIG).bins for s in sources])
        model = estimate_mwf_model(
            SourceImages([stft(s, self.CONFIG) for s in sources])
        )
        psd, cov = _einsum_mwf_model(stack)
        _assert_close(model.psd, psd)
        _assert_close(model.spatial_cov, cov)

        mix = stft(mixture, self.CONFIG)
        z = np.linalg.solve(_einsum_loaded_mix_cov(psd, cov), mix.bins[..., None])
        expected = [
            istft(Spectrogram(psd[j][..., None]
                              * np.einsum("fik,ftk->fti", cov[j], z[..., 0]),
                              self.CONFIG, mix.original_length, 8000))
            for j in range(num_sources)
        ]
        estimates = oracle_separate(mixture, sources, "MWF", self.CONFIG)
        for got, want in zip(estimates, expected):
            _assert_close(got.samples, want.samples)

    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_mask_and_matrix_application(self, channels):
        mixture, sources = self._signals(3, channels)
        psd, cov = _einsum_mwf_model(
            np.stack([stft(s, self.CONFIG).bins for s in sources])
        )
        mask = mwf_mask(SpatialModel(psd, cov))
        inv = np.linalg.inv(_einsum_loaded_mix_cov(psd, cov))
        source_cov = np.einsum("jft,jfik->jftik", psd, cov)
        _assert_close(mask.values,
                      np.einsum("jftik,ftkl->jftil", source_cov, inv))
        mix = stft(mixture, self.CONFIG)
        for j in range(3):
            _assert_close(apply_mask(mask, mix, j).bins,
                          np.einsum("ftik,ftk->fti", mask.values[j], mix.bins))
