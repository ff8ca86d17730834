"""Projection and metric tests against a dense normal-equation oracle.

The oracle materializes the full matrix of delayed reference channels and
solves the (identically regularized) normal equations with a dense solver,
so any disagreement isolates a bug in the FFT/Toeplitz assembly or the
solver (block Levinson, or its Cholesky fallback) rather than in the
problem statement.
"""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.signal
from scipy.linalg import LinAlgError, cho_factor

import sepeval.bsseval as bsseval_module
from conftest import relaid
from sepeval import (
    AudioSignal,
    Decomposition,
    FrameScores,
    ProjectionFilters,
    StftConfig,
    bss_eval,
    compute_projection,
    decompose,
    metrics_from_decomposition,
    oracle_separate,
    project,
    stft,
)
from sepeval.bsseval import _BLOCK_LEN as BLOCK


def _delay_matrix(refs: np.ndarray, filter_len: int) -> np.ndarray:
    """Columns are every reference channel at every delay, zero-padded.

    Column (j * I + c) * L + m holds reference j, channel c, delayed by m
    samples, on the padded domain of N + L - 1 rows.
    """
    num_refs, num_samples, channels = refs.shape
    rows = num_samples + filter_len - 1
    dense = np.zeros((rows, num_refs * channels * filter_len))
    col = 0
    for j in range(num_refs):
        for c in range(channels):
            for m in range(filter_len):
                dense[m:m + num_samples, col] = refs[j, :, c]
                col += 1
    return dense


def _oracle_solve(dense: np.ndarray, est: np.ndarray, filter_len: int):
    """Dense regularized normal equations; returns flat taps per column."""
    rows, total = dense.shape
    padded = np.zeros((rows, est.shape[1]))
    padded[:est.shape[0]] = est
    gram = dense.T @ dense
    gram[np.arange(total), np.arange(total)] += 1e-12 * np.trace(gram) / total
    return np.linalg.solve(gram, dense.T @ padded)


def _oracle_taps(refs: np.ndarray, est: np.ndarray, filter_len: int):
    """Joint and per-reference taps shaped (J, I, I_est, L), plus the matrix."""
    num_refs, _, channels = refs.shape
    dense = _delay_matrix(refs, filter_len)
    flat = _oracle_solve(dense, est, filter_len)
    taps = np.moveaxis(
        flat.reshape(num_refs, channels, filter_len, est.shape[1]), 2, 3
    )
    solo = np.empty_like(taps)
    for j in range(num_refs):
        solo_flat = _oracle_solve(
            _delay_matrix(refs[j:j + 1], filter_len), est, filter_len
        )
        solo[j] = np.moveaxis(
            solo_flat.reshape(1, channels, filter_len, est.shape[1]), 2, 3
        )[0]
    return taps, solo, dense


def _random_problem(rng, num_refs, channels, num_samples, noise=0.3):
    refs = rng.standard_normal((num_refs, num_samples, channels))
    weights = rng.standard_normal(num_refs)
    est = np.tensordot(weights, refs, axes=1)
    est += noise * rng.standard_normal(est.shape)
    return refs, est


def _signals(refs: np.ndarray, rate=8000):
    return [AudioSignal(r, rate) for r in refs]


class TestDenseOracle:
    CASES = [
        (1, 1, 4, 60),
        (2, 1, 8, 150),
        (2, 2, 8, 200),
        (3, 2, 4, 180),
        (1, 2, 16, 300),
        (2, 2, 24, 400),
    ]

    @pytest.mark.parametrize("num_refs,channels,filter_len,num_samples", CASES)
    def test_taps_match_dense_solution(self, num_refs, channels, filter_len,
                                       num_samples):
        rng = np.random.default_rng(1000 + num_refs * 10 + channels)
        refs, est = _random_problem(rng, num_refs, channels, num_samples)
        filters = compute_projection(
            _signals(refs), AudioSignal(est, 8000), filter_len
        )
        taps, solo, _ = _oracle_taps(refs, est, filter_len)
        assert np.abs(filters.taps - taps).max() <= 1e-9
        assert np.abs(filters.solo_taps - solo).max() <= 1e-9
        assert not filters.degenerate

    def test_projection_matches_dense_product(self):
        rng = np.random.default_rng(77)
        refs, est = _random_problem(rng, 2, 2, 150)
        filter_len = 8
        filters = compute_projection(
            _signals(refs), AudioSignal(est, 8000), filter_len
        )
        dense = _delay_matrix(refs, filter_len)
        flat = np.moveaxis(filters.taps, 3, 2).reshape(dense.shape[1], -1)
        expected = dense @ flat
        got = project(refs, filters.taps)
        assert got.shape == (150 + filter_len - 1, 2)
        assert np.abs(got - expected).max() <= 1e-10


class TestExactRecovery:
    def test_reference_estimate_gives_unit_tap(self):
        """Estimating a reference by itself fits a delta filter at lag 0."""
        rng = np.random.default_rng(5)
        refs = rng.standard_normal((2, 200, 1))
        est = refs[0].copy()
        filters = compute_projection(_signals(refs), AudioSignal(est, 8000), 8)
        delta = np.zeros(8)
        delta[0] = 1.0
        np.testing.assert_allclose(filters.solo_taps[0, 0, 0], delta, atol=1e-8)
        residual = est - project(refs[:1], filters.solo_taps[:1])[:200]
        assert np.abs(residual).max() <= 1e-8

    def test_delayed_reference_recovered(self):
        rng = np.random.default_rng(6)
        refs = rng.standard_normal((1, 300, 1))
        refs[0, -16:] = 0.0  # keep the delayed image inside the window
        delay = 5
        est = np.zeros_like(refs[0])
        est[delay:] = refs[0, :-delay]
        filters = compute_projection(_signals(refs), AudioSignal(est, 8000), 16)
        delta = np.zeros(16)
        delta[delay] = 1.0
        np.testing.assert_allclose(filters.taps[0, 0, 0], delta, atol=1e-7)

    def test_filtered_reference_recovers_impulse_response(self):
        """A reference convolved with a short FIR comes back as those taps."""
        rng = np.random.default_rng(7)
        filter_len = 12
        num_samples = 400
        source = np.zeros((1, num_samples, 1))
        source[0, :num_samples - filter_len + 1, 0] = rng.standard_normal(
            num_samples - filter_len + 1
        )
        h = rng.standard_normal(filter_len)
        est = np.convolve(source[0, :, 0], h)[:num_samples, None]
        filters = compute_projection(
            _signals(source), AudioSignal(est, 8000), filter_len
        )
        np.testing.assert_allclose(filters.taps[0, 0, 0], h, atol=1e-9)


class TestDecomposition:
    def _problem(self, seed=11, num_refs=2, channels=2, num_samples=400,
                 filter_len=8):
        rng = np.random.default_rng(seed)
        refs, est = _random_problem(rng, num_refs, channels, num_samples)
        filters = compute_projection(
            _signals(refs), AudioSignal(est, 8000), filter_len
        )
        d = decompose(AudioSignal(est, 8000), _signals(refs), 0, filters)
        return refs, est, filters, d

    def test_parts_sum_to_estimate(self):
        _, est, _, d = self._problem()
        total = d.s_target + d.e_spatial + d.e_interf + d.e_artif
        scale = np.abs(est).max()
        assert np.abs(total - est).max() <= 1e-12 * scale

    def test_residual_orthogonal_to_delayed_references(self):
        """LS optimality: the artifact residual is orthogonal to every column."""
        refs, est, filters, _ = self._problem()
        filter_len = filters.filter_len
        dense = _delay_matrix(refs, filter_len)
        padded = np.zeros((dense.shape[0], est.shape[1]))
        padded[:est.shape[0]] = est
        residual = padded - project(refs, filters.taps)
        inner = dense.T @ residual
        scale = (
            np.linalg.norm(dense, axis=0)[:, None]
            * np.linalg.norm(residual, axis=0)[None, :]
        )
        assert np.abs(inner / scale).max() <= 1e-8

    def test_solo_residual_orthogonal_to_target_columns(self):
        refs, est, filters, _ = self._problem()
        dense = _delay_matrix(refs[:1], filters.filter_len)
        padded = np.zeros((dense.shape[0], est.shape[1]))
        padded[:est.shape[0]] = est
        residual = padded - project(refs[:1], filters.solo_taps[:1])
        inner = dense.T @ residual
        scale = (
            np.linalg.norm(dense, axis=0)[:, None]
            * np.linalg.norm(residual, axis=0)[None, :]
        )
        assert np.abs(inner / scale).max() <= 1e-8

    def test_joint_fit_no_worse_than_solo(self):
        """The joint subspace contains the solo one, so its residual shrinks."""
        refs, est, filters, _ = self._problem()
        num_samples = est.shape[0]
        padded = np.zeros((num_samples + filters.filter_len - 1, est.shape[1]))
        padded[:num_samples] = est
        err_joint = np.linalg.norm(padded - project(refs, filters.taps))
        err_solo = np.linalg.norm(
            padded - project(refs[:1], filters.solo_taps[:1])
        )
        assert err_joint <= err_solo * (1 + 1e-9)

    def test_filters_of_a_span_of_another_length_are_refused(self):
        """A v3 window's filters split that window's samples, not the whole
        estimate's."""
        refs, est, _, _ = self._problem()
        signals, half = _signals(refs), len(est) // 2
        first = compute_projection(signals, AudioSignal(est, 8000), 8,
                                   mode="v3_windowed", window=half)[0]
        message = f"filters span {half} samples, got {len(est)}"
        with pytest.raises(ValueError, match=message):
            decompose(AudioSignal(est, 8000), signals, 0, first)
        d = decompose(AudioSignal(est[:half], 8000), _signals(refs[:, :half]), 0, first)
        assert d.s_target.shape == (half, refs.shape[2])

    def test_target_index_selects_reference(self):
        refs, est, filters, _ = self._problem()
        d = decompose(AudioSignal(est, 8000), _signals(refs), 1, filters)
        np.testing.assert_array_equal(d.s_target, refs[1])

    def test_validation(self):
        refs, est, filters, _ = self._problem()
        with pytest.raises(IndexError):
            decompose(AudioSignal(est, 8000), _signals(refs), 5, filters)
        with pytest.raises(ValueError):
            decompose(AudioSignal(est[:100], 8000), _signals(refs), 0, filters)
        with pytest.raises(ValueError, match="filters cover 2 references, got 1"):
            decompose(AudioSignal(est, 8000), _signals(refs[:1]), 0, filters)
        with pytest.raises(ValueError, match="taps shape"):
            project(_signals(refs), filters.taps[:1])
        with pytest.raises(ValueError, match="e_interf shape differs"):
            _make_decomposition([1.0, 2.0], [0.0, 0.0], [0.0], [0.0, 0.0])


def _make_decomposition(s, e_spatial, e_interf, e_artif):
    def col(x):
        return np.asarray(x, dtype=np.float64)[:, None]

    return Decomposition(col(s), col(e_spatial), col(e_interf), col(e_artif))


class TestMetricConventions:
    def test_hand_computed_ratios(self):
        d = _make_decomposition(
            [2, 0, 0, 0], [1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 4, 0]
        )
        (scores,) = metrics_from_decomposition(d, window=4)
        assert scores.sdr == pytest.approx(10 * math.log10(4 / 21))
        assert scores.isr == pytest.approx(10 * math.log10(4 / 1))
        assert scores.sir == pytest.approx(10 * math.log10(9 / 4))
        assert scores.sar == pytest.approx(10 * math.log10(13 / 16))

    def test_zero_error_is_positive_infinity(self):
        d = _make_decomposition([1, 1], [0, 0], [0, 0], [0, 0])
        (scores,) = metrics_from_decomposition(d, window=2)
        assert scores.sdr == math.inf
        assert scores.isr == math.inf
        assert scores.sir == math.inf
        assert scores.sar == math.inf

    def test_zero_signal_is_negative_infinity(self):
        d = _make_decomposition([0, 0], [0, 0], [0, 0], [3, 4])
        (scores,) = metrics_from_decomposition(d, window=2)
        assert scores.sdr == -math.inf
        assert math.isnan(scores.isr)  # no signal, no spatial error
        assert math.isnan(scores.sir)
        assert scores.sar == -math.inf

    def test_all_silent_is_nan(self):
        d = _make_decomposition([0, 0], [0, 0], [0, 0], [0, 0])
        (scores,) = metrics_from_decomposition(d, window=2)
        assert math.isnan(scores.sdr)
        assert math.isnan(scores.isr)
        assert math.isnan(scores.sir)
        assert math.isnan(scores.sar)


class TestFraming:
    def test_windows_cover_every_sample(self):
        rng = np.random.default_rng(21)
        d = _make_decomposition(*(rng.standard_normal(250) for _ in range(4)))
        frames = metrics_from_decomposition(d, window=100, hop=60)
        spans = [(f.window_start, f.window_start + f.window_len) for f in frames]
        assert spans == [(0, 100), (60, 160), (120, 220), (180, 250), (240, 250)]

    def test_window_energies_match_slices(self):
        rng = np.random.default_rng(22)
        parts = [rng.standard_normal(250) for _ in range(4)]
        d = _make_decomposition(*parts)
        frames = metrics_from_decomposition(d, window=100, hop=60)
        s, e_spat = parts[0], parts[1]
        for f in frames:
            sl = slice(f.window_start, f.window_start + f.window_len)
            expect = 10 * math.log10(np.sum(s[sl] ** 2) / np.sum(e_spat[sl] ** 2))
            assert f.isr == pytest.approx(expect, abs=1e-12)

    def test_default_hop_is_window(self):
        rng = np.random.default_rng(23)
        d = _make_decomposition(*(rng.standard_normal(300) for _ in range(4)))
        frames = metrics_from_decomposition(d, window=100)
        assert [f.window_start for f in frames] == [0, 100, 200]

    def test_zero_hop_rejected(self):
        """Only None means the window: hop 0 is refused like hop -1."""
        rng = np.random.default_rng(23)
        d = _make_decomposition(*(rng.standard_normal(300) for _ in range(4)))
        for hop in (0, -1):
            with pytest.raises(ValueError, match="hop"):
                metrics_from_decomposition(d, window=100, hop=hop)

    def test_window_longer_than_signal_rejected(self):
        rng = np.random.default_rng(24)
        d = _make_decomposition(*(rng.standard_normal(50) for _ in range(4)))
        with pytest.raises(ValueError):
            metrics_from_decomposition(d, window=51)

    def test_full_length_window_is_single_frame(self):
        rng = np.random.default_rng(25)
        d = _make_decomposition(*(rng.standard_normal(50) for _ in range(4)))
        frames = metrics_from_decomposition(d, window=50)
        assert len(frames) == 1
        assert frames[0].window_len == 50


class TestBssEval:
    def _fixture(self, seed=31, num_samples=600):
        rng = np.random.default_rng(seed)
        refs = rng.standard_normal((2, num_samples, 2))
        ests = [
            AudioSignal(refs[0] + 0.2 * rng.standard_normal(refs[0].shape), 8000),
            AudioSignal(refs[1] + 0.3 * refs[0], 8000),
        ]
        return _signals(refs), ests

    def test_one_frame_list_per_estimate(self):
        refs, ests = self._fixture()
        results = bss_eval(refs, ests, filter_len=16, window=200)
        assert len(results) == 2
        for frames in results:
            assert len(frames) == 3
            assert all(isinstance(f, FrameScores) for f in frames)

    def test_windowed_refit_equals_global_on_full_span(self):
        """With one window spanning the track the two modes coincide."""
        refs, ests = self._fixture()
        v4 = bss_eval(refs, ests, filter_len=16, window=600, mode="v4_global")
        v3 = bss_eval(refs, ests, filter_len=16, window=600, mode="v3_windowed")
        for frames4, frames3 in zip(v4, v3):
            for f4, f3 in zip(frames4, frames3):
                assert abs(f4.sdr - f3.sdr) <= 1e-10
                assert abs(f4.isr - f3.isr) <= 1e-10
                assert abs(f4.sir - f3.sir) <= 1e-10
                assert abs(f4.sar - f3.sar) <= 1e-10

    def test_estimate_order_does_not_leak(self):
        """Swapping estimate order with matching targets swaps scores bitwise."""
        refs, ests = self._fixture()
        forward = bss_eval(refs, ests, filter_len=16, window=300)
        swapped = bss_eval(refs, ests[::-1], filter_len=16, window=300,
                           targets=[1, 0])
        for f, s in zip(forward, swapped[::-1]):
            assert f == s

    @pytest.mark.parametrize("mode", ["v4_global", "v3_windowed"])
    def test_column_major_estimates_score_bitwise_the_same(self, mode):
        """Oracle estimates are transposed views of channel-major buffers;
        an F-ordered estimate scores as its C-ordered copy, bit for bit."""
        refs, ests = self._fixture()
        want = bss_eval(refs, ests, filter_len=16, window=300, mode=mode)
        columns = [AudioSignal(relaid(e.samples, "F"), e.sample_rate) for e in ests]
        assert all(e.samples.flags.f_contiguous for e in columns)
        assert bss_eval(refs, columns, filter_len=16, window=300, mode=mode) == want

    @pytest.mark.parametrize("mode", ["v4_global", "v3_windowed"])
    def test_float32_signals_score_as_their_float64_widening(self, mode):
        """Decoded samples are float32; scoring widens them before any
        arithmetic, so the frames are bitwise those of float64 copies."""
        rng = np.random.default_rng(32)
        narrow = rng.standard_normal((3, BLOCK + 700, 2)).astype(np.float32)
        wide = narrow.astype(np.float64)
        frames = [
            bss_eval([AudioSignal(r, 8000) for r in signals[:2]],
                     [AudioSignal(signals[2], 8000), AudioSignal(signals[0], 8000)],
                     filter_len=16, window=3000, hop=2000, mode=mode)
            for signals in (narrow, wide)
        ]
        assert frames[0] == frames[1]

    def test_explicit_targets_select_references(self):
        refs, ests = self._fixture()
        positional = bss_eval(refs, ests, filter_len=16, window=300)
        explicit = bss_eval(refs, [ests[1]], filter_len=16, window=300,
                            targets=[1])
        assert explicit[0] == positional[1]

    def test_short_final_window_shrinks_refit_span(self):
        refs, ests = self._fixture(num_samples=100)
        results = bss_eval(refs, ests, filter_len=50, window=64,
                           mode="v3_windowed")
        assert [f.window_len for f in results[0]] == [64, 36]
        for frames in results:
            for f in frames:
                assert math.isfinite(f.sdr)

    def test_zero_hop_rejected(self):
        refs, ests = self._fixture()
        for hop in (0, -1):
            with pytest.raises(ValueError, match="hop"):
                bss_eval(refs, ests, filter_len=16, window=200, hop=hop)
            with pytest.raises(ValueError, match="hop"):
                compute_projection(refs, ests[0], 16, mode="v3_windowed",
                                   window=200, hop=hop)

    def test_estimate_at_another_rate_rejected(self):
        refs, ests = self._fixture()
        filters = compute_projection(refs, ests[0], 16)
        other = AudioSignal(ests[0].samples, 16000)
        calls = (
            lambda: bss_eval(refs, [ests[1], other], filter_len=16, window=300),
            lambda: compute_projection(refs, other, 16),
            lambda: decompose(other, refs, 0, filters),
        )
        for call in calls:
            with pytest.raises(ValueError, match="estimate .* 16000 Hz"):
                call()

    def test_reference_array_must_be_three_dimensional(self):
        refs, ests = self._fixture()
        stacked = np.stack([ref.samples for ref in refs])
        for bad in (stacked[0], stacked[..., None]):
            with pytest.raises(ValueError, match=r"\(J, N, I\)"):
                bss_eval(bad, ests, filter_len=16, window=300)

    def test_all_zero_references_degenerate_path(self):
        silent = [AudioSignal(np.zeros((120, 1)), 8000)]
        est = AudioSignal(np.ones((120, 1)), 8000)
        filters = compute_projection(silent, est, 4)
        assert filters.degenerate
        np.testing.assert_array_equal(filters.taps, 0.0)
        results = bss_eval(silent, [est], filter_len=4, window=120)
        assert results[0][0].sdr == -math.inf

    def test_duplicate_references_still_score(self):
        rng = np.random.default_rng(33)
        base = rng.standard_normal((200, 1))
        refs = [AudioSignal(base, 8000), AudioSignal(base.copy(), 8000)]
        est = AudioSignal(base + 0.1 * rng.standard_normal(base.shape), 8000)
        results = bss_eval(refs, [est], filter_len=8, window=200)
        assert math.isfinite(results[0][0].sdr)

    def test_validation_errors(self):
        refs, ests = self._fixture()
        with pytest.raises(ValueError):
            bss_eval(refs, [], window=300)
        with pytest.raises(ValueError, match="at least one reference"):
            bss_eval([], ests, window=300)
        with pytest.raises(ValueError, match="one target index is required"):
            bss_eval(refs, ests, window=300, targets=[0])
        with pytest.raises(ValueError, match="requires a window length"):
            compute_projection(refs, ests[0], 16, mode="v3_windowed")
        with pytest.raises(ValueError):
            bss_eval(refs, ests, window=601)
        # One mode vocabulary: the bare fit names are nobody's.
        for mode in ("v5", "global", "windowed"):
            with pytest.raises(ValueError, match="mode"):
                bss_eval(refs, ests, window=300, mode=mode)
            with pytest.raises(ValueError, match="mode"):
                compute_projection(refs, ests[0], 16, mode=mode, window=300)
        with pytest.raises(ValueError):
            bss_eval(refs, ests + ests, window=300)
        with pytest.raises(IndexError):
            bss_eval(refs, ests, window=300, targets=[0, 7])
        with pytest.raises(IndexError):
            bss_eval(refs, ests, window=300, targets=[0, (1, 7)])
        for group in ((), (1, 1)):
            with pytest.raises(ValueError, match="distinct"):
                bss_eval(refs, ests, window=300, targets=[0, group])
        short = AudioSignal(ests[0].samples[:100], 8000)
        with pytest.raises(ValueError):
            bss_eval(refs, [short], window=50)
        with pytest.raises(ValueError):
            compute_projection(refs, ests[0], filter_len=601)

    @pytest.mark.parametrize("mode", ["v4_global", "v3_windowed"])
    @pytest.mark.parametrize("refs_as_array", [False, True])
    def test_estimates_array_scores_as_signals(self, mode, refs_as_array):
        """A (K, N, I) estimates array is taken as references are, against
        references of any rate, and scores as its rows' AudioSignals."""
        refs, ests = self._fixture()
        want = bss_eval(refs, ests, filter_len=16, window=300, mode=mode)
        stacked = np.stack([est.samples for est in ests])
        if refs_as_array:
            refs = np.stack([ref.samples for ref in refs])
        assert bss_eval(refs, stacked, filter_len=16, window=300, mode=mode) == want

    def test_estimates_array_is_checked(self):
        refs, ests = self._fixture()
        with pytest.raises(ValueError, match=re.escape("estimate array must be (J, N, I)")):
            bss_eval(refs, ests[0].samples, window=300)
        with pytest.raises(ValueError, match="estimate 0 has 599 samples"):
            bss_eval(refs, np.stack([ests[0].samples[:-1]]), window=300)
        with pytest.raises(ValueError, match="at least one estimate"):
            bss_eval(refs, np.empty((0, 600, 2)), window=300)

    @pytest.mark.parametrize("which", ["references", "estimates", "mixture",
                                       "sources", "signal"])
    def test_bare_array_list_names_the_accepted_kinds(self, which):
        """bss_eval, oracle_separate and stft take their signals by one
        rule, which refuses a bare (N, I) array by name."""
        refs, ests = self._fixture()
        bare, config = refs[1].samples, StftConfig(64, 16)
        call, kind, index = {
            "references": (lambda: bss_eval([refs[0].samples], ests, window=300),
                           "reference", 0),
            "estimates": (lambda: bss_eval(refs, [ests[0], bare], window=300),
                          "estimate", 1),
            "mixture": (lambda: oracle_separate(bare, refs, "IRM2", config), "mixture", 0),
            "sources": (lambda: oracle_separate(ests[0], [refs[0], bare], "IRM2", config),
                        "source", 1),
            "signal": (lambda: stft(bare, config), "signal", 0),
        }[which]
        message = (f"{kind} {index} is a ndarray: {kind}s must be AudioSignals or "
                   "sources with a layout (such as WavReaders), or one (J, N, I) array")
        with pytest.raises(TypeError, match=re.escape(message)):
            call()


class TestOneEngine:
    """bss_eval is compute_projection, decompose and the frame metrics."""

    def _fixture(self, num_samples):
        rng = np.random.default_rng(51)
        refs = rng.standard_normal((3, num_samples, 2))
        ests = [
            AudioSignal(refs[0] + 0.2 * rng.standard_normal(refs[0].shape), 8000),
            AudioSignal(refs[2] + 0.5 * refs[1], 8000),
        ]
        return refs, ests, [0, 2]

    def test_v4_frames_equal_public_pipeline_bitwise(self):
        refs, ests, targets = self._fixture(600)
        results = bss_eval(_signals(refs), ests, filter_len=16, window=250,
                           targets=targets)
        for est, j, frames in zip(ests, targets, results):
            filters = compute_projection(_signals(refs), est, 16)
            d = decompose(est, _signals(refs), j, filters)
            assert frames == metrics_from_decomposition(d, 250)

    def test_v3_frames_equal_windowed_public_pipeline_bitwise(self):
        """Per-window fits, including a final window shorter than the filter."""
        refs, ests, targets = self._fixture(260)
        results = bss_eval(_signals(refs), ests, filter_len=64, window=100,
                           mode="v3_windowed", targets=targets)
        for est, j, frames in zip(ests, targets, results):
            windowed = compute_projection(_signals(refs), est, 64,
                                          mode="v3_windowed", window=100)
            assert [f.filter_len for f in windowed] == [64, 64, 60]
            expected = []
            for filters in windowed:
                sl = slice(filters.window_start,
                           filters.window_start + filters.window_len)
                d = decompose(AudioSignal(est.samples[sl], 8000),
                              _signals(refs[:, sl]), j, filters)
                (frame,) = metrics_from_decomposition(d, filters.window_len)
                expected.append(
                    dataclasses.replace(frame, window_start=filters.window_start)
                )
            assert frames == expected

    def test_v4_multi_block_frames_equal_public_pipeline_bitwise(self):
        """Three full overlap-save blocks and a ragged fourth."""
        refs, ests, targets = self._fixture(3 * BLOCK + 1000)
        results = bss_eval(_signals(refs), ests, filter_len=16, window=9000,
                           targets=targets)
        for est, j, frames in zip(ests, targets, results):
            filters = compute_projection(_signals(refs), est, 16)
            d = decompose(est, _signals(refs), j, filters)
            assert len(frames) == 3
            assert frames == metrics_from_decomposition(d, 9000)

    def test_v3_multi_block_and_sub_block_windows_bitwise(self):
        """A window of three blocks and a ragged one, then one shorter than a block."""
        window = 3 * BLOCK + 500
        refs, ests, targets = self._fixture(window + 4000)
        results = bss_eval(_signals(refs), ests, filter_len=32, window=window,
                           mode="v3_windowed", targets=targets)
        for est, j, frames in zip(ests, targets, results):
            windowed = compute_projection(_signals(refs), est, 32,
                                          mode="v3_windowed", window=window)
            assert [f.window_len for f in windowed] == [window, 4000]
            expected = []
            for filters in windowed:
                sl = slice(filters.window_start,
                           filters.window_start + filters.window_len)
                d = decompose(AudioSignal(est.samples[sl], 8000),
                              _signals(refs[:, sl]), j, filters)
                (frame,) = metrics_from_decomposition(d, filters.window_len)
                expected.append(
                    dataclasses.replace(frame, window_start=filters.window_start)
                )
            assert frames == expected

    def test_v4_frames_across_chunks_equal_public_pipeline_bitwise(self):
        """A span of more blocks than one chunk holds, the last chunk ragged,
        and five targets: the four references and the group of the first
        three.  Each reference target's frames equal the public pipeline's,
        the group's those of its estimate scored alone, bit for bit; and
        each estimate's taps are the same fitted alone or beside the others,
        in any order."""
        rng = np.random.default_rng(71)
        num_samples, filter_len, window = 10 * BLOCK + 1000, 16, 8000
        chunks = bsseval_module._Blocks(num_samples, filter_len).chunks(num_samples, 8)
        assert len(chunks) > 1
        assert chunks[-1][1] - chunks[-1][0] < chunks[0][1] - chunks[0][0]
        refs = rng.standard_normal((4, num_samples, 2))
        samples = [refs[j] + 0.3 * refs[(j + 1) % 4]
                   + 0.1 * rng.standard_normal(refs[j].shape) for j in range(4)]
        samples.append(refs[0] + refs[1] + refs[2] + 0.4 * refs[3])
        ests = [AudioSignal(s, 8000) for s in samples]
        targets = [0, 1, 2, 3, (0, 1, 2)]
        kwargs = dict(filter_len=filter_len, window=window)
        results = bss_eval(_signals(refs), ests, targets=targets, **kwargs)
        for est, j, frames in zip(ests, targets, results[:4]):
            filters = compute_projection(_signals(refs), est, filter_len)
            d = decompose(est, _signals(refs), j, filters)
            assert frames == metrics_from_decomposition(d, window)
        assert results[4] == bss_eval(_signals(refs), ests[4:], targets=targets[4:],
                                      **kwargs)[0]
        alone = [bsseval_module._Projector(list(refs), filter_len, [s]).fit(0, [t])
                 for s, t in zip(samples, targets)]
        order = [4, 2, 0, 3, 1]
        together = bsseval_module._Projector(list(refs), filter_len,
                                             [samples[i] for i in order])
        for position, i in reversed(list(enumerate(order))):
            taps, (solo,) = together.fit(position, [targets[i]])
            assert np.array_equal(taps, alone[i][0])
            assert np.array_equal(solo, alone[i][1][0])

    @pytest.mark.parametrize("mode", ["v4_global", "v3_windowed"])
    def test_silent_target_scores_ignore_block_edges(self, mode):
        """The target is silent for two blocks and part of a third, then plays.

        Silent windows on either side of a block edge, and in the lead of
        the segment that holds the onset, score alike: ISR and SIR are
        undefined, SDR is -inf and SAR is finite.
        """
        onset = 2 * BLOCK + 1500
        refs, _, _ = self._fixture(3 * BLOCK + 700)
        refs[0, :onset] = 0.0
        est = AudioSignal(refs[0] + 0.5 * refs[1] + 0.1 * refs[2], 8000)
        (frames,) = bss_eval(_signals(refs), [est], filter_len=64, window=1000,
                             mode=mode)
        silent = [f for f in frames if f.window_start + f.window_len <= onset]
        assert len(silent) == onset // 1000
        for f in silent:
            assert math.isnan(f.isr) and math.isnan(f.sir)
            assert f.sdr == -math.inf and math.isfinite(f.sar)
        for f in frames[len(silent):]:
            assert all(math.isfinite(v) for v in (f.sdr, f.isr, f.sir, f.sar))

    @pytest.mark.parametrize("num_samples,filter_len", [
        (2 * BLOCK - 10, 64),  # the padded tail opens a third block
        (600, 16),             # one block of the whole span, tail in a second
    ])
    def test_project_padded_domain_crosses_block_boundary(self, num_samples,
                                                          filter_len):
        rng = np.random.default_rng(53)
        refs = rng.standard_normal((2, num_samples, 2))
        taps = rng.standard_normal((2, 2, 1, filter_len))
        expected = sum(
            np.convolve(refs[j, :, c], taps[j, c, 0])
            for j in range(2) for c in range(2)
        )
        got = project(refs, taps)
        assert got.shape == (num_samples + filter_len - 1, 1)
        assert np.abs(got[:, 0] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_project_long_signal_matches_direct_convolution(self):
        rng = np.random.default_rng(52)
        num_samples, filter_len = 1 << 15, 64
        refs = rng.standard_normal((2, num_samples, 2))
        taps = rng.standard_normal((2, 2, 3, filter_len))
        expected = np.zeros((num_samples + filter_len - 1, 3))
        for j in range(2):
            for c_ref in range(2):
                for c_est in range(3):
                    expected[:, c_est] += np.convolve(refs[j, :, c_ref],
                                                      taps[j, c_ref, c_est])
        got = project(refs, taps)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


class _Recorded:
    """An (N, I) source with a layout that records the length of each read."""

    def __init__(self, samples, reads, rate=8000):
        self.samples, self.reads = samples, reads
        self.shape, self.layout = samples.shape, samples.shape + (rate,)

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, frames):
        samples = self.samples[frames]
        self.reads.append(len(samples))
        return samples


class TestSpanReads:
    """bss_eval and compute_projection take a fit's span by one rule: the
    whole signal's span is the sources themselves, read a chunk of blocks
    at a time, so no read of a v4 fit spans the track."""

    # Three chunks of four stereo references at 16 taps, and part of one.
    NUM_SAMPLES = 3 * 6 * BLOCK + 1000

    @pytest.mark.parametrize("call", ["compute_projection", "bss_eval"])
    def test_v4_span_is_read_a_chunk_at_a_time(self, call):
        rng = np.random.default_rng(58)
        refs = rng.standard_normal((4, self.NUM_SAMPLES, 2))
        est = refs[0] + 0.1 * rng.standard_normal(refs[0].shape)
        ((first, stop), *_) = bsseval_module._Blocks(self.NUM_SAMPLES, 16).chunks(
            self.NUM_SAMPLES, 8)
        reads = []

        def run(references, estimate):
            if call == "bss_eval":
                return bss_eval(references, [estimate], filter_len=16, window=BLOCK)
            filters = compute_projection(references, estimate, 16)
            return filters.taps.tolist(), filters.solo_taps.tolist()

        want = run(_signals(refs), AudioSignal(est, 8000))
        got = run([_Recorded(ref, reads) for ref in refs], _Recorded(est, reads))
        assert got == want
        assert stop - first == 6 and max(reads) == (stop - first) * BLOCK + 16


class TestProjectionFiltersType:
    def test_shape_validation(self):
        good = np.zeros((1, 1, 1, 4))
        with pytest.raises(ValueError):
            ProjectionFilters(good, np.zeros((1, 1, 1, 5)), 4)
        with pytest.raises(ValueError):
            ProjectionFilters(good, good, 5)
        bad = good.copy()
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ProjectionFilters(bad, good, 4)

    def test_windowed_projection_metadata(self):
        rng = np.random.default_rng(41)
        refs = rng.standard_normal((1, 100, 1))
        est = AudioSignal(refs[0].copy(), 8000)
        filters = compute_projection(
            _signals(refs), est, filter_len=50, mode="v3_windowed", window=64
        )
        assert [f.window_start for f in filters] == [0, 64]
        assert [f.window_len for f in filters] == [64, 36]
        assert [f.filter_len for f in filters] == [50, 36]
        assert all(f.mode == "v3_windowed" for f in filters)


def _audible(kind: str, rng, num_samples=1200, rate=8000) -> np.ndarray:
    """Three stereo references that are audible but make the Gram near-singular."""
    refs = rng.standard_normal((3, num_samples, 2))
    if kind == "duplicate":
        refs[1] = refs[0]
    elif kind == "mono_as_stereo":
        refs[..., 1] = refs[..., 0]
    elif kind == "one_silent":
        refs[2] = 0.0
    elif kind == "sines":
        n = np.arange(num_samples)[:, None]
        freqs = rng.uniform(100.0, 3000.0, (3, 1, 2))
        refs = np.sin(2 * np.pi * freqs * n / rate + rng.uniform(0, 6, (3, 1, 2)))
    elif kind == "dc":
        refs = np.broadcast_to(rng.uniform(0.1, 1.0, (3, 1, 2)), refs.shape).copy()
    elif kind == "lowpass":
        sos = scipy.signal.butter(8, 0.05, output="sos")
        refs = scipy.signal.sosfilt(sos, refs, axis=1)
    return refs


@pytest.mark.parametrize("mode", ["v4_global", "v3_windowed"])
def test_group_target_scores_against_its_sum(mode):
    """Group (0, 2) of three references scores as against the pair
    [reference 1, reference 0 + reference 2], within 1e-9 dB."""
    rng = np.random.default_rng(68)
    refs = rng.standard_normal((3, 3000, 2))
    est = AudioSignal(refs[0] + refs[2] + 0.3 * refs[1]
                      + 0.1 * rng.standard_normal(refs[0].shape), 8000)
    kwargs = dict(filter_len=16, window=1000, mode=mode)
    (got,) = bss_eval(_signals(refs), [est], targets=[(0, 2)], **kwargs)
    (want,) = bss_eval(_signals([refs[1], refs[0] + refs[2]]), [est], targets=[1],
                       **kwargs)
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        for name in ("sdr", "isr", "sir", "sar"):
            assert abs(getattr(g, name) - getattr(w, name)) <= 1e-9


def test_group_systems_are_the_pair_projectors():
    """The group's joint and solo lags, loading included, are those of a
    projector over [reference 3, reference 0 + 1 + 2], to rounding."""
    rng = np.random.default_rng(70)
    refs = list(rng.standard_normal((4, 2000, 2)))
    projector = bsseval_module._Projector(refs, 16)
    pair = bsseval_module._Projector([refs[3], refs[0] + refs[1] + refs[2]], 16)
    group = (0, 1, 2)
    assert projector._frame(group) == (3, group)
    loading = pair._loading((0, 1))
    assert abs(projector._loading((3, group)) - loading) <= 1e-12 * loading
    for got, want in ((projector._joint(group), pair._joint(0)),
                      (projector._solo(group), pair._solo(1))):
        got, want = projector._system_lags(got), pair._system_lags(want)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(got[0], got[0].T)


class TestSilentSpanRule:
    """Silent references get exact zero taps and no unknowns; every other
    system gets the block-Levinson factor, or Cholesky when it is refused."""

    @staticmethod
    def _silent_first_window(num_windows=3, window=600):
        rng = np.random.default_rng(61)
        refs = rng.standard_normal((4, num_windows * window, 2))
        refs[:, :window] = 0.0
        est = AudioSignal(refs[0] + 0.5 * refs[1]
                          + 0.1 * rng.standard_normal(refs[0].shape), 8000)
        return _signals(refs), est, window

    def test_windowed_projection_zero_taps_on_silent_window(self):
        refs, est, window = self._silent_first_window()
        filters = compute_projection(refs, est, filter_len=16, mode="v3_windowed",
                                     window=window)
        assert filters[0].degenerate
        assert not np.any(filters[0].taps) and not np.any(filters[0].solo_taps)
        assert not any(f.degenerate for f in filters[1:])

    def test_v3_scores_of_silent_window(self):
        refs, est, window = self._silent_first_window()
        (frames,) = bss_eval(refs, [est], filter_len=16, window=window,
                             mode="v3_windowed")
        first = frames[0]
        assert first.sdr == -math.inf and first.sar == -math.inf
        assert math.isnan(first.isr) and math.isnan(first.sir)
        for f in frames[1:]:
            assert all(math.isfinite(v) for v in (f.sdr, f.isr, f.sir, f.sar))

    def test_only_audible_target_has_no_interference(self, monkeypatch):
        """Over windows where every reference but the target is silent, the
        joint taps are the target's solo taps: interference is exactly zero,
        SIR is +inf, and only the target's system is factorized."""
        sizes = []
        structured = bsseval_module._levinson

        def counting_levinson(lags):
            sizes.extend([lags.shape[1] * lags.shape[2]] * len(lags))
            return structured(lags)

        monkeypatch.setattr(bsseval_module, "_levinson", counting_levinson)
        rng = np.random.default_rng(64)
        window = 600
        refs = rng.standard_normal((2, 3 * window, 2))
        refs[0, :2 * window] = 0.0  # silent over the first two windows
        est = AudioSignal(refs[1] + 0.3 * refs[0]
                          + 0.05 * rng.standard_normal(refs[1].shape), 8000)
        signals = _signals(refs)
        (frames,) = bss_eval(signals, [est], filter_len=32, window=window,
                             mode="v3_windowed", targets=[1])
        assert [f.sir for f in frames[:2]] == [math.inf, math.inf]
        assert all(math.isfinite(f.sdr) and math.isfinite(f.sar) for f in frames)
        assert math.isfinite(frames[2].sir)
        # Per window the solo stack, then the joint system if it differs.
        assert sizes == [2 * 32, 2 * 32, 2 * 32, 2 * 2 * 32]
        first = compute_projection(signals, est, filter_len=32, mode="v3_windowed",
                                   window=window)[0]
        assert not np.any(first.taps[0]) and not np.any(first.solo_taps[0])
        assert np.array_equal(first.taps[1], first.solo_taps[1])
        part = AudioSignal(est.samples[:window], 8000)
        d = decompose(part, [AudioSignal(r[:window], 8000) for r in refs], 1, first)
        assert not np.any(d.e_interf)

    # Systems, joint (0) then solo (1 + j), whose block-Levinson factor is
    # refused, all by the error floor (see test_refused_before_probe), with
    # the order of the check that refuses them.
    FALLBACKS = {
        "duplicate": [0],            # order 0: R[0] is singular
        "mono_as_stereo": [0, 1, 2, 3],  # order 0
        "one_silent": [],            # reference 2 has no system
        "sines": [0],                # order 16
        "dc": [0, 1, 2, 3],          # order 0
        "lowpass": [0, 1, 2, 3],     # order 16
    }

    @pytest.mark.parametrize("kind", sorted(FALLBACKS))
    def test_audible_near_singular_references_factorize(self, kind, monkeypatch):
        """Every audible system gets one structured factor; the near-singular
        ones named in FALLBACKS are refused and factorized by Cholesky."""
        levinson, cholesky = [], []
        structured = bsseval_module._levinson

        def counting_levinson(lags):
            levinson.extend([lags.shape[1] * lags.shape[2]] * len(lags))
            return structured(lags)

        def counting_cholesky(*args, **kwargs):
            cholesky.append(len(args[0]))
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(bsseval_module, "_levinson", counting_levinson)
        monkeypatch.setattr(bsseval_module, "cho_factor", counting_cholesky)
        rng = np.random.default_rng(62)
        refs = _audible(kind, rng)
        est = refs[0] + 0.5 * refs[1] + 0.1 * rng.standard_normal(refs[0].shape)
        signals, estimate = _signals(refs), AudioSignal(est, 8000)
        filters = compute_projection(signals, estimate, filter_len=32)
        assert not filters.degenerate
        audible = 2 if kind == "one_silent" else 3
        sizes = [audible * 2 * 32] + [2 * 32] * audible  # the joint and solo
        order = list(range(1, audible + 1)) + [0]  # the solo stack first
        assert levinson == [sizes[s] for s in order]
        assert cholesky == [sizes[s] for s in order if s in self.FALLBACKS[kind]]
        if kind == "one_silent":
            assert not np.any(filters.taps[2]) and not np.any(filters.solo_taps[2])
        d = decompose(estimate, signals, 0, filters)
        total = d.s_target + d.e_spatial + d.e_interf + d.e_artif
        assert np.abs(total - est).max() <= 1e-12 * np.abs(est).max()

    @pytest.mark.parametrize("kind", sorted(k for k, v in FALLBACKS.items() if v))
    def test_refused_before_probe(self, kind, monkeypatch):
        """A near-singular factor is refused by the error floor within
        _FLOOR_STRIDE orders of the recursion, before its probe is solved."""
        orders, probes = [], []
        gains = bsseval_module.dposv

        def counting_gains(*args):
            orders.append(1)
            return gains(*args)

        monkeypatch.setattr(bsseval_module, "dposv", counting_gains)
        monkeypatch.setattr(bsseval_module, "_toeplitz_product",
                            lambda *args: probes.append(1))
        rng = np.random.default_rng(62)
        projector = bsseval_module._Projector(list(_audible(kind, rng)), 32)
        for system in self.FALLBACKS[kind]:
            key = projector._solo(system - 1) if system else projector._joint(0)
            orders.clear()
            assert bsseval_module._levinson(projector._system_lags(key)[None]) == [None]
            assert len(orders) <= bsseval_module._FLOOR_STRIDE
        assert probes == []

    def test_refused_system_leaves_the_stack(self, monkeypatch):
        """In one stack with accepted systems, only a refused one (a constant
        stereo reference, refused at order 0 as the "dc" kind) takes
        cho_factor; the others' solves are bitwise those of their factors
        alone."""
        cholesky = []

        def counting_cholesky(*args, **kwargs):
            cholesky.append(len(args[0]))
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(bsseval_module, "cho_factor", counting_cholesky)
        rng = np.random.default_rng(66)
        refs = rng.standard_normal((3, 1200, 2))
        refs[1] = rng.uniform(0.1, 1.0, 2)
        projector = bsseval_module._Projector(list(refs), 32)
        keys = [projector._solo(j) for j in range(3)]
        stack = np.stack([projector._system_lags(key) for key in keys])
        solves = bsseval_module._levinson(stack)
        assert [solve is None for solve in solves] == [False, True, False]
        projector._factor(keys)
        assert cholesky == [2 * 32]
        rhs = rng.standard_normal((2 * 32, 2))
        for j in (0, 2):
            (alone,) = bsseval_module._levinson(stack[j:j + 1])
            assert np.array_equal(projector._solvers[keys[j]](rhs), alone(rhs))
            assert np.array_equal(solves[j](rhs), alone(rhs))

    @pytest.mark.parametrize("check, order", [
        ("gains", 4), ("gains", 48), ("floor", 16), ("floor", 48)])
    def test_refusal_mid_recursion_leaves_the_stack(self, check, order, monkeypatch):
        """A system refused at some order, by its gains' Cholesky solve or by
        the error floor, gets None; the others run the recursion again from
        order 0 without it, and their solves are bitwise those of their
        factors alone."""
        L = 64
        rng = np.random.default_rng(69)
        projector = bsseval_module._Projector(list(rng.standard_normal((3, 1200, 2))), L)
        stack = np.stack([projector._system_lags(projector._solo(j)) for j in range(3)])
        rhs = rng.standard_normal((2 * L, 2))
        alone = [bsseval_module._levinson(stack[j:j + 1])[0] for j in range(3)]
        assert all(solve is not None for solve in alone)
        gains, floor, solves, checks = bsseval_module.dposv, bsseval_module._below_floor, [], []

        def failing_gains(error, corner):
            # Each order solves the systems in stack order: while all three
            # are in it, call 3 k + 2 is system 1's at order k.
            solves.append(1)
            solution = gains(error, corner)
            failing = check == "gains" and len(solves) == 3 * order + 2
            return solution[:2] + (1,) if failing else solution

        def failing_floor(errors, shift):
            # While all three are in the stack, check i is at order
            # _FLOOR_STRIDE i.
            checks.append(1)
            failing = (check == "floor"
                       and len(checks) == order // bsseval_module._FLOOR_STRIDE + 1)
            return [1] if failing else floor(errors, shift)

        monkeypatch.setattr(bsseval_module, "dposv", failing_gains)
        monkeypatch.setattr(bsseval_module, "_below_floor", failing_floor)
        got = bsseval_module._levinson(stack)
        assert got[1] is None
        # The orders run by all three systems, then all L - 1 by the other two.
        assert len(solves) == 3 * (order + (check == "gains")) + 2 * (L - 1)
        for j in (0, 2):
            assert np.array_equal(got[j](rhs), alone[j](rhs))

    def test_refused_factor_falls_back_to_cholesky_then_raises(self, monkeypatch):
        """A refused structured factor goes to cho_factor; a failing
        cho_factor raises, with no third solver tried."""
        attempts = []
        other_solvers = []

        def refusing(lags):
            attempts.append("levinson")
            return [None] * len(lags)

        def failing(*args, **kwargs):
            attempts.append("cholesky")
            raise LinAlgError("not positive definite")

        def record(name):
            def solver(*args, **kwargs):
                other_solvers.append(name)
            return solver

        monkeypatch.setattr(bsseval_module, "_levinson", refusing)
        monkeypatch.setattr(bsseval_module, "cho_factor", failing)
        monkeypatch.setattr(bsseval_module, "cho_solve", record("cho_solve"))
        for name in ("lstsq", "solve", "pinv", "inv", "cholesky"):
            monkeypatch.setattr(np.linalg, name, record(name))
        rng = np.random.default_rng(63)
        refs = rng.standard_normal((2, 600, 2))
        est = AudioSignal(refs[0] + 0.1 * rng.standard_normal(refs[0].shape), 8000)
        with pytest.raises(LinAlgError):
            bss_eval(_signals(refs), [est], filter_len=16, window=600)
        assert attempts == ["levinson", "cholesky"]  # the target's solo system
        assert other_solvers == []


@pytest.mark.parametrize("channels", [1, 2, 4])
def test_error_floor_refuses_by_the_scaled_smallest_eigenvalue(channels):
    """The floor check refuses exactly the systems whose error blocks,
    scaled by the lag-0 energies the floor is built from, have an
    eigenvalue at or below _ERROR_FLOOR: in one stack, a smallest scaled
    eigenvalue of _ERROR_FLOOR (1 - 1e-6) is refused and one of
    _ERROR_FLOOR (1 + 1e-6) is accepted, alone or not, over lag-0
    energies six decades apart."""
    floor_value, size = bsseval_module._ERROR_FLOOR, 2 * channels
    rng = np.random.default_rng(70 + channels)
    margins = [-1e-6, 1e-6, 1e-6, -1e-6, 1e-6, -1e-6]
    # Each system's lag-0 energies, once for E_f and once for E_b.
    energies = np.tile(10.0 ** rng.uniform(-3.0, 3.0, (len(margins), channels)), 2)
    errors = np.empty((len(margins), size, size))
    for s, margin in enumerate(margins):
        basis = np.linalg.qr(rng.standard_normal((size, size)))[0]
        eigenvalues = rng.uniform(0.1, 1.0, size)
        eigenvalues[0] = floor_value * (1.0 + margin)
        root = np.sqrt(energies[s])
        errors[s] = root[:, None] * ((basis * eigenvalues) @ basis.T) * root
    floor = np.zeros_like(errors)
    floor.reshape(len(margins), -1)[:, ::size + 1] = floor_value * energies
    scaled = errors / np.sqrt(energies[:, :, None] * energies[:, None, :])
    below = [s for s, block in enumerate(scaled)
             if np.linalg.eigvalsh(block)[0] <= floor_value]
    assert below == [s for s, margin in enumerate(margins) if margin < 0]
    assert bsseval_module._below_floor(errors, floor) == below
    for s in range(len(margins)):
        alone = bsseval_module._below_floor(errors[s:s + 1], floor[s:s + 1])
        assert alone == ([0] if s in below else [])


def test_factor_memory_is_linear_in_lags():
    """The block-Levinson factor keeps its final predictors' spectra, not
    an L C x L C triangle: on an 8-channel, 512-tap system (whose triangle
    alone is 134 MB) the tracemalloc peak of factor and probe measured
    5.8 MB.  The bound is 16 MB."""
    rng = np.random.default_rng(65)
    projector = bsseval_module._Projector(list(rng.standard_normal((4, 4096, 2))), 512)
    lags = projector._system_lags(projector._joint(0))[None]
    assert lags.shape == (1, 512, 8, 8)
    tracemalloc.start()
    try:
        bsseval_module._levinson(lags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_scoring_memory_grows_only_with_block_spectra():
    """v4 scoring holds no part at full length, and no spectrum of a whole
    span: not the references' segment spectra, nor an estimate's two
    per-block product arrays (solo and interference), which grew with the
    track while they were held.  Doubling a 20 s track at 8 kHz (four
    stereo references, float32 as decoded, allocated before tracing) may
    raise the tracemalloc peak by at most the growth those whole-span
    spectra had, computed from the blocks' geometry, plus one window of
    parts: 16.3 MB.  Holding the parts at full length grew it by 22.4 MB,
    holding the spectra and products 13.2 to 14.2 MB; streaming them in
    chunks of blocks does not grow it (13.73 MB at 20 s and at 40 s)."""
    rate, channels, filter_len = 8000, 2, 64
    rng = np.random.default_rng(67)
    peaks, spectra = [], []
    for seconds in (20, 40):
        num_samples = seconds * rate
        refs = [AudioSignal(rng.standard_normal((num_samples, channels))
                            .astype(np.float32), rate) for _ in range(4)]
        est = AudioSignal(refs[0].samples + np.float32(0.1) * refs[1].samples, rate)
        blocks = bsseval_module._Blocks(num_samples, filter_len)
        per_channel = 16 * (blocks.fft_size // 2 + 1) * -(-num_samples // blocks.length)
        spectra.append(per_channel * (4 * channels + 2 * channels))
        tracemalloc.start()
        try:
            bss_eval(refs, [est], filter_len=filter_len, window=rate)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    window_of_parts = 4 * rate * channels * 8
    assert peaks[1] - peaks[0] <= spectra[1] - spectra[0] + window_of_parts


def test_scoring_memory_does_not_grow_with_track_length():
    """v4 scoring streams each span in chunks of overlap-save blocks: per
    chunk the references' segment spectra and every estimate's projections
    of its blocks, then the four parts of one window.  So doubling a 20 s
    track at 8 kHz (four stereo references and five estimates, the fifth
    of the group of the first three, float32 as decoded, allocated before
    tracing; 64 taps) may raise the tracemalloc peak of ``bss_eval`` by at
    most one window of parts plus 256 kB.  Measured: 17.96 MB at 20 s and
    at 40 s, no growth; the whole-span spectra and products held before
    grew it by 14.2 MB."""
    rate, channels, filter_len = 8000, 2, 64
    rng = np.random.default_rng(72)
    peaks = []
    for seconds in (20, 40):
        num_samples = seconds * rate
        refs = [AudioSignal(rng.standard_normal((num_samples, channels))
                            .astype(np.float32), rate) for _ in range(4)]
        ests = [AudioSignal(refs[j].samples + np.float32(0.1) * refs[(j + 1) % 4].samples,
                            rate) for j in range(4)]
        ests.append(AudioSignal(refs[0].samples + refs[1].samples + refs[2].samples,
                                rate))
        tracemalloc.start()
        try:
            bss_eval(refs, ests, filter_len=filter_len, window=rate,
                     targets=[0, 1, 2, 3, (0, 1, 2)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    window_of_parts = 4 * rate * channels * 8
    assert peaks[1] - peaks[0] <= window_of_parts + 2**18
