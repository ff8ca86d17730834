"""Oracle mask tests: per-bin brute-force references and mask invariants."""

import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepeval.masks as masks_module
from conftest import relaid
from sepeval import (
    AudioSignal,
    MatrixMask,
    ScalarMask,
    SourceImages,
    SpatialModel,
    Spectrogram,
    StftConfig,
    WavReader,
    apply_mask,
    estimate_mwf_model,
    ibm_mask,
    irm_mask,
    istft,
    load_wav,
    mwf_mask,
    oracle_separate,
    save_wav,
    stft,
)
from sepeval.masks import _resolve_method, _wiener
from sepeval.spectral import _CHUNK_CELLS, _frame_layout

# Spellings that are no method's label: bare kinds, other orders, another
# way of writing an exponent, a case change, exponents that are not
# positive and finite, and one that ``:g`` rounds to IRM1.23457.
REFUSED_METHODS = ("IBM", "IRM", "IBM3", "IRM2.0", "IRM+2", "IRM 2", "irm2", "IRM0",
                   "IRM-1", "IRMinf", "IRMnan", "IRM1.2345678")


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
        for alpha in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="alpha"):
                irm_mask(SourceImages([_spec(stack[0])]), alpha=alpha)


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

    def test_spectrogram_without_frames_has_every_source_silent(self):
        empty = _spec(np.zeros((4, 0, 2)))
        with pytest.warns(RuntimeWarning, match=r"sources \[0, 1\] are silent"):
            model = estimate_mwf_model(SourceImages([empty, empty]))
        assert model.degenerate == (0, 1)
        assert model.psd.shape == (2, 4, 0)
        np.testing.assert_array_equal(model.spatial_cov,
                                      np.broadcast_to(np.eye(2), (2, 4, 2, 2)))

    def test_covariance_is_trace_normalized(self):
        rng = np.random.default_rng(24)
        bins = _random_stack(rng, (4, 9, 3))
        model = estimate_mwf_model(SourceImages([_spec(bins)]))
        traces = np.einsum("jfii->jf", model.spatial_cov).real
        np.testing.assert_allclose(traces, 3.0, rtol=1e-12)

    def test_alternating_sweeps_agree_with_one_sweep(self):
        """Each sweep of the alternating fit weights the outer products by
        the previous PSD, a weight constant over frames that the trace
        normalization cancels: sweeps 1, 2 and 3 of the einsum reference
        agree within 1e-12, and the library's one sweep matches them."""
        rng = np.random.default_rng(25)
        stack = _random_stack(rng, (2, 9, 40, 3)) * rng.random((2, 9, 40, 1))
        fits = [_einsum_mwf_model(stack, sweeps) for sweeps in (1, 2, 3)]
        for psd, cov in fits[1:]:
            _assert_close(psd, fits[0][0])
            _assert_close(cov, fits[0][1])
        model = estimate_mwf_model(SourceImages([_spec(bins) for bins in stack]))
        _assert_close(model.psd, fits[0][0])
        _assert_close(model.spatial_cov, fits[0][1])


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

    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_unloaded_singular_bin_raises(self, channels):
        """With epsilon=0 a bin where every PSD vanishes has C_x = 0: the
        solve refuses it, as LU does, rather than return NaN filters."""
        rng = np.random.default_rng(36)
        psd = 1.0 + rng.random((2, 3, 4))
        psd[:, 1, 2] = 0.0
        cov = np.broadcast_to(np.eye(channels, dtype=complex),
                              (2, 3, channels, channels)).copy()
        model = SpatialModel(psd, cov)
        with pytest.raises(np.linalg.LinAlgError):
            mwf_mask(model, epsilon=0.0)
        assert np.all(np.isfinite(mwf_mask(model).values))

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
        assert mask.num_sources == 2
        np.testing.assert_array_equal(apply_mask(mask, mixture, 1).bins,
                                      0.5 * mixture.bins)

    def test_matrix_channel_swap(self):
        rng = np.random.default_rng(43)
        mixture = _spec(_random_stack(rng, (3, 4, 2)))
        swap = np.zeros((1, 3, 4, 2, 2), dtype=complex)
        swap[..., 0, 1] = 1.0
        swap[..., 1, 0] = 1.0
        assert MatrixMask(swap).num_sources == 1
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

    @pytest.mark.parametrize("kind, values, message", [
        (ScalarMask, np.zeros((1, 2, 2)), "4-D"),
        (ScalarMask, np.full((1, 2, 2, 1), np.nan), "non-finite"),
        (MatrixMask, np.zeros((1, 2, 2, 2)), "5-D"),
        (MatrixMask, np.full((1, 2, 2, 2, 2), np.inf), "non-finite"),
    ], ids=["scalar-3d", "scalar-nan", "matrix-4d", "matrix-inf"])
    def test_mask_shape_and_finiteness(self, kind, values, message):
        with pytest.raises(ValueError, match=message):
            kind(values)

    def test_source_images_shape_agreement(self):
        a = _spec(np.zeros((3, 4, 2)))
        b = _spec(np.zeros((3, 5, 2)))
        assert SourceImages([b, b, b]).num_sources == 3
        with pytest.raises(ValueError):
            SourceImages([a, b])
        with pytest.raises(ValueError, match="at least one source image"):
            SourceImages([])

    @pytest.mark.parametrize("psd, cov_shape, message", [
        (np.ones((2, 3)), (1, 2, 2, 2), "psd must be 3-D"),
        (np.ones((1, 2, 3)), (1, 2, 2), "spatial_cov must be 4-D"),
        (np.ones((1, 3, 3)), (1, 2, 2, 2), "disagree on"),
        (-np.ones((1, 2, 3)), (1, 2, 2, 2), "non-negative"),
    ], ids=["psd-2d", "cov-3d", "bins-differ", "negative-psd"])
    def test_spatial_model_layout_and_sign_checks(self, psd, cov_shape, message):
        cov = np.broadcast_to(np.eye(cov_shape[-1], dtype=complex), cov_shape)
        with pytest.raises(ValueError, match=message):
            SpatialModel(psd, cov)

    def test_spatial_model_hermitian_check(self):
        cov = np.zeros((1, 2, 2, 2), dtype=complex)
        cov[..., 0, 1] = 1.0  # missing conjugate partner
        with pytest.raises(ValueError):
            SpatialModel(np.ones((1, 2, 3)), cov)

    def test_spatial_model_finiteness_check(self):
        """A NaN would otherwise reach the Wiener solve as a bad pivot."""
        cov = np.broadcast_to(np.eye(2, dtype=complex), (1, 2, 2, 2)).copy()
        psd = np.ones((1, 2, 3))
        psd[0, 1, 2] = np.nan
        with pytest.raises(ValueError):
            SpatialModel(psd, cov)
        cov[0, 1, 0, 0] = np.inf
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

    def test_exponent_parameters_are_gone(self):
        """The exponent is in the method's name: ``alpha`` and ``order``
        are unknown arguments, not remapped."""
        mixture, sources = _tones()
        for method, param, value in (("IRM", "alpha", 1.5), ("IRM2", "alpha", 2.0),
                                     ("IBM", "order", 2), ("IBM1", "order", 1)):
            with pytest.raises(TypeError, match=param):
                oracle_separate(mixture, sources, method, self.CONFIG,
                                **{param: value})

    def test_method_names_and_labels(self):
        """Each method resolves to its mask kind and exponent, of the type
        the mask takes."""
        expected = {"IBM1": ("IBM", 1), "IBM2": ("IBM", 2), "IRM1": ("IRM", 1.0),
                    "IRM2": ("IRM", 2.0), "IRM1.5": ("IRM", 1.5), "MWF": ("MWF", None)}
        for name, resolved in expected.items():
            assert repr(_resolve_method(name)) == repr(resolved)

    # Derandomized: the same examples on every run, so the suite cannot flake.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(alpha=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_every_exponent_has_one_name(self, alpha):
        """``IRM<alpha:g>`` is the name of the exponent it writes, for any
        positive finite alpha."""
        label = f"IRM{alpha:g}"
        kind, exponent = _resolve_method(label)
        assert (kind, exponent) == ("IRM", float(f"{alpha:g}"))
        assert f"IRM{exponent:g}" == label

    @pytest.mark.parametrize("method", REFUSED_METHODS)
    def test_other_spellings_are_refused(self, method):
        with pytest.raises(ValueError, match="expected IBM1, IBM2, MWF or IRM<alpha>"):
            _resolve_method(method)

    def test_unknown_method_rejected(self):
        mixture, sources = _tones()
        with pytest.raises(ValueError):
            oracle_separate(mixture, sources, "IWM", self.CONFIG)

    def test_input_validation(self):
        """The sources are checked against the mixture's layout, each
        refusal naming the source by index."""
        mixture, sources = _tones()
        with pytest.raises(ValueError, match="^at least one source is required$"):
            oracle_separate(mixture, [], "IBM1", self.CONFIG)
        short = AudioSignal(sources[0].samples[:100], 8000)
        with pytest.raises(ValueError, match=re.escape(
                "source 1 has 100 samples x 1 ch @ 8000 Hz, expected 4000 x 1 @ 8000 Hz")):
            oracle_separate(mixture, [sources[0], short], "IBM1", self.CONFIG)
        wrong_rate = AudioSignal(sources[0].samples, 16000)
        with pytest.raises(ValueError, match=re.escape(
                "source 0 has 4000 samples x 1 ch @ 16000 Hz, expected 4000 x 1 @ 8000 Hz")):
            oracle_separate(mixture, [wrong_rate], "IBM1", self.CONFIG)
        with pytest.raises(ValueError, match=re.escape("expected 4000 x 1 @ 16000 Hz")):
            oracle_separate(AudioSignal(mixture.samples, 16000), sources, "IBM1",
                            self.CONFIG)
        empty = AudioSignal(np.zeros((0, 2)), 8000)
        with pytest.raises(ValueError, match="cannot transform an empty signal"):
            oracle_separate(empty, [empty], "IBM1", self.CONFIG)


def _einsum_mwf_model(stack, sweeps=1):
    """The local Gaussian model fit, written with plain einsum contractions.

    ``sweeps`` alternating updates of R_j and v_j, starting from
    v_j = (1/I)*||y_j||^2.  Assumes every live source has energy in every
    frequency bin, which random test data does; silent sources are pinned
    as in the library.
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
        for _ in range(sweeps):
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
    @pytest.mark.parametrize("channels", [1, 2, 3, 4])
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

    @pytest.mark.parametrize("channels", [1, 2, 3, 4])
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

    @staticmethod
    def _dependent_stereo(kind):
        """Three stereo sources whose second channel depends on the first."""
        rng = np.random.default_rng(7)
        parts = []
        for j in range(3):
            mono = (1.0 + j) * rng.standard_normal(1500)
            second = {"rank-1": mono, "near-rank-1": mono * (1 + 1e-7),
                      "silent-channel": np.zeros_like(mono)}[kind]
            parts.append(np.stack([mono, second], axis=1))
        return AudioSignal(sum(parts), 8000), [AudioSignal(p, 8000) for p in parts]

    @pytest.mark.parametrize("kind", ["rank-1", "near-rank-1", "silent-channel"])
    def test_near_singular_stereo_sums_to_mixture(self, kind):
        """On (nearly) rank-1 C_x the estimates still sum to the mixture as
        closely as with LU (5e-11 of the mixture's peak): a closed-form
        adjugate/determinant solve left 3.9e-7 on the rank-1 kinds."""
        mixture, sources = self._dependent_stereo(kind)
        model = estimate_mwf_model(
            SourceImages([stft(s, self.CONFIG) for s in sources])
        )
        mix = stft(mixture, self.CONFIG)
        z = np.linalg.solve(_einsum_loaded_mix_cov(model.psd, model.spatial_cov),
                            mix.bins[..., None])[..., 0]
        reference = [
            istft(Spectrogram(model.psd[j][..., None]
                              * np.einsum("fik,ftk->fti", model.spatial_cov[j], z),
                              self.CONFIG, mix.original_length, 8000))
            for j in range(len(sources))
        ]
        estimates = oracle_separate(mixture, sources, "MWF", self.CONFIG)

        def gap(parts):
            total = sum(part.samples for part in parts)
            return np.abs(total - mixture.samples).max() / np.abs(mixture.samples).max()

        assert gap(estimates) <= 1e-6
        assert gap(estimates) <= 2 * gap(reference)


def _whole_spectrogram_estimates(mixture, sources, method, config):
    """The whole-track route: every spectrogram at once, then ``istft``."""
    mix = stft(mixture, config)
    images = SourceImages([stft(source, config) for source in sources])
    if method == "MWF":
        model = estimate_mwf_model(images)
        planes = mix.bins.T  # (I, T, F)
        masked = np.empty((model.num_sources, planes.shape[0], 1) + planes.shape[1:],
                          complex)
        _wiener(model.psd.transpose(0, 2, 1), model.spatial_cov.transpose(0, 2, 3, 1),
                planes[:, None], masked)
        specs = [Spectrogram(bins[:, 0].T, config, mix.original_length, mixture.sample_rate)
                 for bins in masked]
    else:
        power = int(method[3])
        mask = (ibm_mask(images, power) if method.startswith("IBM")
                else irm_mask(images, float(power)))
        specs = [apply_mask(mask, mix, j) for j in range(len(sources))]
    return [istft(spec, mixture.num_samples) for spec in specs]


def _chunk_cases():
    """Frame counts of 1, chunk - 1, chunk, chunk + 1 and 3 chunks + 1 (or
    the fewest frames a signal has, where the leading pad spans a hop)."""
    for config, channels in [
        (StftConfig(4096, 1024), 2),
        (StftConfig(50, 49, "rect"), 2),  # hops that do not divide the window
        (StftConfig(33, 7), 6),
        (StftConfig(512, 512, "rect"), 1),
    ]:
        chunk = _CHUNK_CELLS // (config.num_bins * channels)
        fewest = _frame_layout(1, config)[1]
        for frames in sorted({max(fewest, count)
                              for count in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 1)}):
            yield pytest.param(
                config, channels, frames,
                id=f"{config.window_size}/{config.hop_size}-{channels}ch-{frames}frames",
            )


class TestChunkedOracle:
    """``oracle_separate`` runs over chunks of frames; its estimates match
    the whole-spectrogram route at frame counts around the chunk size."""

    @staticmethod
    def _signals(config, channels, frames):
        """Four sources: one silent over the middle third, one throughout."""
        pad_front = config.window_size - config.hop_size
        length = max(1, (frames - 1) * config.hop_size - pad_front + 1)
        assert _frame_layout(length, config)[1] == frames
        rng = np.random.default_rng(frames + channels)
        parts = [(1.0 + j) * rng.standard_normal((length, channels)) for j in range(4)]
        parts[1][length // 3:2 * length // 3] = 0.0
        parts[3][:] = 0.0
        mixture = AudioSignal(sum(parts), 8000)
        return mixture, [AudioSignal(part, 8000) for part in parts]

    @pytest.mark.parametrize("config, channels, frames", _chunk_cases())
    def test_scalar_masks_are_bitwise_the_whole_spectrogram_route(
            self, config, channels, frames):
        mixture, sources = self._signals(config, channels, frames)
        for method in ("IBM1", "IBM2", "IRM1", "IRM2"):
            got = oracle_separate(mixture, sources, method, config)
            want = _whole_spectrogram_estimates(mixture, sources, method, config)
            for estimate, reference in zip(got, want):
                np.testing.assert_array_equal(estimate.samples, reference.samples)

    @pytest.mark.parametrize("config, channels, frames", _chunk_cases())
    def test_mwf_matches_the_whole_track_model(self, config, channels, frames):
        """Bitwise: both routes fit one model; the silent source warns once."""
        mixture, sources = self._signals(config, channels, frames)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = oracle_separate(mixture, sources, "MWF", config)
        assert [str(w.message) for w in caught] == [
            "sources [3] are silent; covariance pinned to identity"
        ]
        with pytest.warns(RuntimeWarning, match=r"sources \[3\] are silent"):
            want = _whole_spectrogram_estimates(mixture, sources, "MWF", config)
        for estimate, reference in zip(got, want):
            np.testing.assert_array_equal(estimate.samples, reference.samples)
        assert not np.any(got[3].samples)

    def test_source_whose_power_underflows_is_silent_in_both_routes(self):
        """A float64 source of 1e-170 amplitude has nonzero bins, but every
        bin's power underflows to 0: both routes flag it and warn, and its
        PSD and estimate are 0."""
        config = StftConfig(256, 64)
        mixture, sources = self._signals(config, 2, _three_chunks(config))
        sources[3] = AudioSignal(1e-170 * sources[0].samples, 8000)
        images = SourceImages([stft(source, config) for source in sources])
        assert np.any(images.images[3].bins)
        with pytest.warns(RuntimeWarning, match=r"sources \[3\] are silent"):
            model = estimate_mwf_model(images)
        assert model.degenerate == (3,)
        assert not np.any(model.psd[3])
        with pytest.warns(RuntimeWarning, match=r"sources \[3\] are silent"):
            estimates = oracle_separate(mixture, sources, "MWF", config)
        assert not np.any(estimates[3].samples)


def _three_chunks(config):
    """The frame count of three stereo chunks, the last of one frame."""
    return 2 * (_CHUNK_CELLS // (config.num_bins * 2)) + 1


class TestLayout:
    """Estimates depend on the values of the inputs, not on their layout or
    on the kind of signal that holds them (see ``audio._inputs``)."""

    @pytest.mark.parametrize("layout", ["F", "strided", "readers", "stacked"])
    def test_input_layout_gives_bitwise_the_same_estimates(self, layout, tmp_path):
        config = StftConfig(256, 64)
        mixture, sources = TestChunkedOracle._signals(config, 2, _three_chunks(config))
        if layout == "readers":  # WAV files, against their decoded float32 values
            paths = [tmp_path / f"{j}.wav" for j in range(len(sources) + 1)]
            for path, signal in zip(paths, [mixture] + sources):
                save_wav(path, signal)
            mixture, *sources = map(load_wav, paths)
            relaid_mixture, *relaid_sources = map(WavReader, paths)
        elif layout == "stacked":  # the sources as one (J, N, I) array
            relaid_mixture = mixture
            relaid_sources = np.stack([source.samples for source in sources])
        else:
            relaid_mixture = AudioSignal(relaid(mixture.samples, layout), 8000)
            relaid_sources = [AudioSignal(relaid(s.samples, layout), 8000) for s in sources]
        for method in ("IBM1", "IRM2", "MWF"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # silent source 3
                want = oracle_separate(mixture, sources, method, config)
                got = oracle_separate(relaid_mixture, relaid_sources, method, config)
            for estimate, reference in zip(got, want):
                np.testing.assert_array_equal(estimate.samples, reference.samples)

    def test_spatial_covariance_is_checked_once(self):
        """The track-constant covariances are checked once per call and the
        PSD once per chunk, whatever the number of chunks."""
        config = StftConfig(256, 64)
        mixture, sources = TestChunkedOracle._signals(config, 2, _three_chunks(config))
        calls = {"cov": 0, "psd": 0}

        def counting(name, check):
            def wrapper(values):
                calls[name] += 1
                check(values)
            return wrapper

        with pytest.warns(RuntimeWarning, match=r"sources \[3\] are silent"), \
                mock.patch.object(masks_module, "_check_covariance",
                                  counting("cov", masks_module._check_covariance)), \
                mock.patch.object(masks_module, "_check_psd",
                                  counting("psd", masks_module._check_psd)):
            oracle_separate(mixture, sources, "MWF", config)
        assert calls == {"cov": 1, "psd": 3}

    @pytest.mark.parametrize("fault, message", [
        ("nan", "psd and spatial_cov must be finite"),
        ("asymmetric", "spatial covariance not Hermitian"),
    ])
    def test_covariance_check_refuses_with_the_model_messages(self, fault, message):
        cov = np.broadcast_to(np.eye(2, dtype=complex), (1, 3, 2, 2)).copy()
        if fault == "nan":
            cov[0, 1, 0, 0] = np.nan
        else:
            cov[0, 1, 0, 1] = 1.0
        for check in (masks_module._check_covariance,
                      lambda c: SpatialModel(np.ones((1, 3, 4)), c)):
            with pytest.raises(ValueError, match=message):
                check(cov)


def test_wiener_memory_is_slab_bounded():
    """The kernel's temporaries live per slab of frames: on a 4 s stereo
    track with four sources (F = 2049, T = 176, K = 1) its tracemalloc peak
    stays below two (F, T, I) complex arrays, 23 MB.  It read 3.2 MB with
    frequency slabs of the (F, T, I) layout and 5.7 MB with frame slabs of
    the channel-major one; the batched-solve kernel with 4M-cell slabs read
    52 MB."""
    rng = np.random.default_rng(37)
    num_bins, num_frames, channels = 2049, 176, 2
    mixing = _random_stack(rng, (4, num_bins, channels, channels))
    cov = mixing @ mixing.conj().swapaxes(-1, -2)
    model = SpatialModel(rng.random((4, num_bins, num_frames)), cov)
    psd = np.ascontiguousarray(model.psd.transpose(0, 2, 1))  # (J, T, F)
    cov = np.ascontiguousarray(model.spatial_cov.transpose(0, 2, 3, 1))  # (J, I, I, F)
    rows = _random_stack(rng, (channels, 1, num_frames, num_bins))
    out = np.empty((4,) + rows.shape, dtype=complex)
    tracemalloc.start()
    try:
        _wiener(psd, cov, rows, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 23e6


@pytest.mark.parametrize("method, bound", [
    ("IBM1", 9.0), ("IBM2", 9.0), ("IRM2", 9.0), ("MWF", 10.0),
])
def test_oracle_memory_frees_images_and_masked_spectrograms(method, bound):
    """``oracle_separate`` frees the source images once the mask or model
    exists and synthesizes each estimate as its spectrogram is formed, and
    a scalar mask is written over one float array of the sources' powers,
    with no complex stack of the images: on a 1 s track of four stereo
    sources at 44.1 kHz and 4096/1024, its tracemalloc peak stays below
    ``bound`` (F, T, I) complex spectrograms.  It read 8.0 (IBM1, IBM2),
    7.75 (IRM2) and 8.1 (MWF); with the images stacked into one complex
    array for the masks, 11.0 for each mask method, and holding every image
    and masked spectrogram to the end, 14.1 (IRM2) and 13.3 (MWF)."""
    rng = np.random.default_rng(41)
    rate, config = 44100, StftConfig(4096, 1024)
    sources = [AudioSignal(rng.standard_normal((rate, 2)) * 0.05, rate)
               for _ in range(4)]
    mixture = AudioSignal(sum(source.samples for source in sources), rate)
    spectrogram = stft(mixture, config).bins.nbytes
    tracemalloc.start()
    try:
        oracle_separate(mixture, sources, method, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * spectrogram


@pytest.mark.parametrize("inputs", ["signals", "readers"])
@pytest.mark.parametrize("method", ["IRM2", "MWF"])
def test_oracle_memory_grows_only_with_its_outputs(method, inputs, tmp_path):
    """Only one chunk of frames is read, analysed, masked and synthesized
    at a time, so from a 2 s to a 6 s track of four stereo sources at
    44.1 kHz and 4096/1024, the tracemalloc peak of ``oracle_separate``
    grows by at most 1.25 times the growth of its float64 estimates (2.8 MB
    per track-second), whether it is given AudioSignals or WAV readers.
    It grew by 1.0 times; transforming whole tracks, the peak grew by 7.8
    times (22 MB per track-second)."""
    rate, config = 44100, StftConfig(4096, 1024)
    peaks, outputs = [], []
    for seconds in (2, 6):
        rng = np.random.default_rng(seconds)
        sources = [AudioSignal(rng.standard_normal((seconds * rate, 2)) * 0.05, rate)
                   for _ in range(4)]
        mixture = AudioSignal(sum(source.samples for source in sources), rate)
        if inputs == "readers":
            paths = [tmp_path / f"{seconds}-{j}.wav" for j in range(5)]
            for path, signal in zip(paths, [mixture] + sources):
                save_wav(path, signal)
            mixture, *sources = map(WavReader, paths)
        tracemalloc.start()
        try:
            estimates = oracle_separate(mixture, sources, method, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        outputs.append(sum(estimate.samples.nbytes for estimate in estimates))
    assert peaks[1] - peaks[0] <= 1.25 * (outputs[1] - outputs[0])
