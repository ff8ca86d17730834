"""Property tests of the overlap-save BSS Eval engine against direct sums.

Span lengths are drawn short of, at, and one sample either side of a
multiple of the block length, so ragged and exact final blocks both occur;
exact multiples are also pinned as explicit examples.  Filters run up to
the span length, so segments whose L-sample lead exceeds a block occur.
"""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

import sepeval.bsseval as bsseval_module
from sepeval import (
    AudioSignal,
    bss_eval,
    compute_projection,
    decompose,
    metrics_from_decomposition,
    project,
)
from sepeval.bsseval import _BLOCK_LEN as BLOCK
from sepeval.bsseval import MODES, _Blocks, _block_toeplitz, _levinson, _Projector

RATE = 8000
# Derandomized: the same examples on every run, so the suite cannot flake.
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def spans(draw, max_filter=None):
    """(N, L): N below one block, or at or next to k blocks; L up to N."""
    kind = draw(st.sampled_from(["short", "exact", "minus", "plus"]))
    if kind == "short":
        num_samples = draw(st.integers(1, BLOCK - 1))
    else:
        blocks = draw(st.integers(1, 3))
        num_samples = blocks * BLOCK + {"exact": 0, "minus": -1, "plus": 1}[kind]
    filter_len = draw(st.integers(1, min(num_samples, max_filter or num_samples)))
    return num_samples, filter_len


def _direct_lags(x: np.ndarray, y: np.ndarray, filter_len: int) -> np.ndarray:
    """r[m] = sum_n x[n - m] y[n] for m < L, by np.correlate."""
    padded = np.concatenate((y, np.zeros(filter_len - 1)))
    return np.correlate(padded, x, mode="valid")


def _chunks(one_block: bool):
    """Patch in chunks of one block each, or keep the module's chunks."""
    cells = 1 if one_block else bsseval_module._CHUNK_CELLS
    return mock.patch.object(bsseval_module, "_CHUNK_CELLS", cells)


@PROPERTY_SETTINGS
@given(span=spans(), channels=st.integers(1, 2), one_block=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(span=(2 * BLOCK, 3000), channels=2, one_block=False, seed=0)
@example(span=(3 * BLOCK + 1, 3000), channels=2, one_block=True, seed=0)
@example(span=(BLOCK, BLOCK), channels=1, one_block=False, seed=1)
def test_lags_match_direct_correlation(span, channels, one_block, seed):
    """Lags summed chunk by chunk, one block per chunk or the module's
    chunks, match np.correlate within 1e-12 of the channels' norms."""
    num_samples, filter_len = span
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((num_samples, channels))
    y = rng.standard_normal((num_samples, 2))
    blocks = _Blocks(num_samples, filter_len)
    with _chunks(one_block):
        (lags,), _ = blocks.lags(x, [y])
    assert lags.shape == (filter_len, channels, 2)
    for a in range(channels):
        for b in range(2):
            expected = _direct_lags(x[:, a], y[:, b], filter_len)
            scale = np.linalg.norm(x[:, a]) * np.linalg.norm(y[:, b])
            assert np.abs(lags[:, a, b] - expected).max() <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(span=spans(max_filter=64), channels=st.integers(1, 3),
       estimate_channels=st.integers(2, 3), one_block=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(span=(2 * BLOCK + 1, 64), channels=2, estimate_channels=3, one_block=True,
         seed=0)
def test_lags_of_a_channel_do_not_depend_on_the_others(span, channels,
                                                       estimate_channels, one_block,
                                                       seed):
    """Lags are formed one channel of the second signal at a time, so each
    column is bitwise that of the channel alone, whatever else shares the
    pass: for an estimate's cross-correlations and for the columns of a
    projector's Gram."""
    num_samples, filter_len = span
    rng = np.random.default_rng(seed)
    refs = list(rng.standard_normal((2, num_samples, channels)))
    est = rng.standard_normal((num_samples, estimate_channels))
    blocks = _Blocks(num_samples, filter_len)
    with _chunks(one_block):
        (lags, gram), _ = blocks.lags(refs, [est, refs])
        for c in range(estimate_channels):
            (alone,), _ = blocks.lags(refs, [est[:, c:c + 1]])
            assert np.array_equal(lags[..., c], alone[..., 0])
        for r, ref in enumerate(refs):
            for c in range(channels):
                (alone,), _ = blocks.lags(refs, [ref[:, c:c + 1]])
                assert np.array_equal(gram[..., r * channels + c], alone[..., 0])


@PROPERTY_SETTINGS
@given(span=spans(), seed=st.integers(0, 2**32 - 1))
@example(span=(2 * BLOCK, 3000), seed=0)
@example(span=(BLOCK, BLOCK), seed=1)
def test_projection_matches_direct_convolution(span, seed):
    num_samples, filter_len = span
    rng = np.random.default_rng(seed)
    refs = rng.standard_normal((2, num_samples, 1))
    taps = rng.standard_normal((2, 1, 2, filter_len))
    got = project(refs, taps)
    assert got.shape == (num_samples + filter_len - 1, 2)
    for c in range(2):
        expected = sum(np.convolve(refs[j, :, 0], taps[j, 0, c]) for j in range(2))
        scale = sum(
            np.linalg.norm(refs[j, :, 0]) * np.linalg.norm(taps[j, 0, c])
            for j in range(2)
        )
        assert np.abs(got[:, c] - expected).max() <= 1e-12 * scale


def _delay_matrix(channels: np.ndarray, filter_len: int) -> np.ndarray:
    """Dense A on the padded domain, lag-major: column m C + c is channel c
    of the (N, C) ``channels`` delayed by m samples."""
    num_samples, num_channels = channels.shape
    delayed = np.zeros((num_samples + filter_len - 1, filter_len, num_channels))
    for m in range(filter_len):
        delayed[m:m + num_samples, m] = channels
    return delayed.reshape(len(delayed), -1)


def _system(projector: _Projector, system: int):
    """Key of system 0, the joint one over all references, or of system
    1 + j, reference j's solo one; None if it has no unknowns."""
    return projector._solo(system - 1) if system else projector._joint(0)


def _gram(projector: _Projector, system: int) -> np.ndarray:
    """Loaded dense Gram of one system, as the Cholesky fallback builds it."""
    return _block_toeplitz(projector._system_lags(_system(projector, system)))


@PROPERTY_SETTINGS
@given(span=spans(max_filter=24), num_refs=st.integers(1, 3),
       channels=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
@example(span=(2 * BLOCK + 1, 24), num_refs=3, channels=2, seed=0)
def test_gram_is_lag_major_block_toeplitz(span, num_refs, channels, seed):
    """The unloaded joint Gram is A^T A, exactly symmetric, and each solo
    Gram is the joint one restricted to that reference's channels."""
    num_samples, filter_len = span
    rng = np.random.default_rng(seed)
    refs = list(rng.standard_normal((num_refs, num_samples, channels)))
    projector = _Projector(refs, filter_len)
    gram = _gram(projector, 0)
    delayed = _delay_matrix(np.concatenate(refs, axis=1), filter_len)
    expected = delayed.T @ delayed
    unloaded = gram - projector._loading(tuple(range(num_refs))) * np.eye(len(gram))
    assert np.abs(unloaded - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.array_equal(gram, gram.T)
    lags = np.arange(filter_len)[:, None] * num_refs * channels
    for j in range(num_refs):
        own = (lags + np.arange(j * channels, (j + 1) * channels)).ravel()
        assert np.array_equal(_gram(projector, 1 + j), gram[np.ix_(own, own)])


def _problem(rng, num_refs, channels, num_samples):
    refs = rng.standard_normal((num_refs, num_samples, channels))
    est = refs[0] + 0.5 * rng.standard_normal((num_samples, channels))
    est += 0.3 * refs[-1]
    return refs, est


@PROPERTY_SETTINGS
@given(span=spans(max_filter=16), num_refs=st.integers(1, 3),
       channels=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_four_parts_sum_to_estimate(span, num_refs, channels, seed):
    """Criterion 3's identity bound: 1e-12 relative to the estimate's peak."""
    num_samples, filter_len = span
    rng = np.random.default_rng(seed)
    refs, est = _problem(rng, num_refs, channels, num_samples)
    signals = [AudioSignal(r, RATE) for r in refs]
    estimate = AudioSignal(est, RATE)
    filters = compute_projection(signals, estimate, filter_len)
    d = decompose(estimate, signals, 0, filters)
    total = d.s_target + d.e_spatial + d.e_interf + d.e_artif
    assert np.abs(total - est).max() <= 1e-12 * np.abs(est).max()


@PROPERTY_SETTINGS
@given(num_refs=st.integers(3, 4), channels=st.integers(1, 2),
       filter_len=st.integers(1, 16), num_windows=st.integers(1, 3),
       ragged=st.booleans(), mode=st.sampled_from(["v4_global", "v3_windowed"]),
       order=st.randoms(use_true_random=False), seed=st.integers(0, 2**32 - 1))
def test_permuting_other_references_keeps_scores(num_refs, channels, filter_len,
                                                 num_windows, ragged, mode,
                                                 order, seed):
    """Windows hold four times the samples of the joint fit's parameters,
    so no error energy sits at rounding level, where dB values are noise."""
    window = 4 * num_refs * channels * filter_len
    num_samples = num_windows * window + (window // 2 if ragged else 0)
    rng = np.random.default_rng(seed)
    refs, est = _problem(rng, num_refs, channels, num_samples)
    others = list(range(1, num_refs))
    order.shuffle(others)
    permuted = refs[[0] + others]
    kwargs = dict(filter_len=filter_len, window=window, mode=mode, targets=[0])
    (frames,) = bss_eval([AudioSignal(r, RATE) for r in refs],
                         [AudioSignal(est, RATE)], **kwargs)
    (permuted_frames,) = bss_eval([AudioSignal(r, RATE) for r in permuted],
                                  [AudioSignal(est, RATE)], **kwargs)
    assert len(frames) == len(permuted_frames)
    for a, b in zip(frames, permuted_frames):
        for name in ("sdr", "isr", "sir", "sar"):
            x, y = getattr(a, name), getattr(b, name)
            assert math.isfinite(x) and abs(x - y) <= 1e-8


def _linear_parts(signals, est: np.ndarray, filter_len: int) -> list:
    """The parts of ``est``'s decomposition that are linear in the estimate:
    interference, artifacts, and the solo and joint projections."""
    estimate = AudioSignal(est, RATE)
    d = decompose(estimate, signals, 0,
                  compute_projection(signals, estimate, filter_len))
    solo = d.s_target + d.e_spatial
    return [d.e_interf, d.e_artif, solo, solo + d.e_interf]


@PROPERTY_SETTINGS
@given(span=spans(max_filter=16), num_refs=st.integers(1, 3),
       channels=st.integers(1, 2),
       weights=st.tuples(st.floats(-4, 4), st.floats(-4, 4)),
       seed=st.integers(0, 2**32 - 1))
def test_decomposition_is_linear_in_the_estimate(span, num_refs, channels,
                                                  weights, seed):
    """For fixed references the taps, and hence every part but the target
    image, are linear in the estimate.  The worst deviation measured over
    these examples was 6.3e-16 of the scale below (7.3e-16 over 60 more
    random draws); the bound is 1e-13."""
    num_samples, filter_len = span
    rng = np.random.default_rng(seed)
    refs, e1 = _problem(rng, num_refs, channels, num_samples)
    e2 = rng.standard_normal(e1.shape)
    a, b = weights
    signals = [AudioSignal(r, RATE) for r in refs]
    combined = _linear_parts(signals, a * e1 + b * e2, filter_len)
    parts1 = _linear_parts(signals, e1, filter_len)
    parts2 = _linear_parts(signals, e2, filter_len)
    scale = (abs(a) * np.abs(e1).max() + abs(b) * np.abs(e2).max()
             + np.abs(refs[0]).max())
    for got, p1, p2 in zip(combined, parts1, parts2):
        assert np.abs(got - (a * p1 + b * p2)).max() <= 1e-13 * scale


def _kind_of_references(kind, rng, num_refs, channels, num_samples):
    """Noise references; with a silent last channel, mono as stereo, or one
    pure sine per channel."""
    refs = rng.standard_normal((num_refs, num_samples, channels))
    if kind == "silent_channel":
        refs[-1, :, -1] = 0.0
    elif kind == "mono_as_stereo":
        refs[..., 1:] = refs[..., :1]
    elif kind == "sines":
        n = np.arange(num_samples)[:, None]
        cycles = rng.uniform(0.01, 0.49, (num_refs, 1, channels))
        refs = np.sin(2 * np.pi * cycles * n + rng.uniform(0, 2 * np.pi, cycles.shape))
    return refs


@PROPERTY_SETTINGS
@given(span=spans(max_filter=24), num_refs=st.integers(1, 3),
       channels=st.integers(1, 2),
       kind=st.sampled_from(["noise", "silent_channel", "mono_as_stereo", "sines"]),
       seed=st.integers(0, 2**32 - 1))
@example(span=(2 * BLOCK + 1, 24), num_refs=3, channels=2, kind="silent_channel",
         seed=0)
@example(span=(BLOCK, 13), num_refs=3, channels=2, kind="mono_as_stereo", seed=0)
@example(span=(BLOCK, 2), num_refs=2, channels=2, kind="sines", seed=0)
@example(span=(1, 1), num_refs=1, channels=2, kind="noise", seed=0)
def test_structured_solve_matches_cholesky(span, num_refs, channels, kind, seed):
    """Where the block-Levinson factor is accepted, its solve of T x = T v
    leaves a relative residual as small as cho_solve's on the same dense
    lag-major Gram, or near it (worst measured over 300 random draws: 6.7e-16
    on noise, silent-channel and mono-as-stereo references, against 5.0e-16,
    and 3.3e-14 on pure sines, against 9.4e-16; the bound is 1e-13).  Only
    Grams that are singular but for the loading are refused: those of stereo
    references with identical channels, of pure sines, and of any system
    whose N + L - 1 samples of convolution cannot give its L*C columns full
    rank (span (1, 1) over two noise channels is a one-sample Gram of rank
    1)."""
    num_samples, filter_len = span
    rng = np.random.default_rng(seed)
    refs = _kind_of_references(kind, rng, num_refs, channels, num_samples)
    projector = _Projector(list(refs), filter_len)
    for system in range(num_refs + 1):
        key = _system(projector, system)
        if key is None:
            continue
        lags = projector._system_lags(key)
        gram = _gram(projector, system)
        rhs = gram @ rng.standard_normal((len(gram), 2))
        expected = cho_solve(cho_factor(gram), rhs)
        (solve,) = _levinson(lags[None])
        if solve is None:
            system_channels = channels * (num_refs if system == 0 else 1)
            rank_deficient = num_samples + filter_len - 1 < filter_len * system_channels
            assert (kind == "sines" or (kind == "mono_as_stereo" and channels == 2)
                    or rank_deficient)
            projector._factor([key])
            assert np.array_equal(projector._solvers[key](rhs), expected)
            continue
        for x in (solve(rhs), expected):
            assert np.linalg.norm(gram @ x - rhs) <= 1e-13 * np.linalg.norm(rhs)


@PROPERTY_SETTINGS
@given(span=spans(max_filter=24), num_refs=st.integers(2, 3),
       channels=st.integers(1, 2),
       kind=st.sampled_from(["noise", "silent_channel", "mono_as_stereo", "sines"]),
       seed=st.integers(0, 2**32 - 1))
@example(span=(BLOCK, 13), num_refs=3, channels=2, kind="mono_as_stereo", seed=0)
@example(span=(BLOCK, 2), num_refs=2, channels=2, kind="sines", seed=0)
def test_stacked_solve_is_the_solve_alone(span, num_refs, channels, kind, seed):
    """Each solo system's solve is bitwise the same factorized alone or in
    a stack, in either order, and a system refused alone is refused in
    the stack."""
    num_samples, filter_len = span
    rng = np.random.default_rng(seed)
    refs = _kind_of_references(kind, rng, num_refs, channels, num_samples)
    projector = _Projector(list(refs), filter_len)
    keys = [projector._solo(j) for j in range(num_refs)]
    stack = np.stack([projector._system_lags(key) for key in keys if key])
    rhs = rng.standard_normal((filter_len * channels, 2))
    alone = [_levinson(lags[None])[0] for lags in stack]
    for order in (slice(None), slice(None, None, -1)):
        for want, got in zip(alone[order], _levinson(stack[order])):
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got(rhs), want(rhs))


@PROPERTY_SETTINGS
@given(span=spans(max_filter=16), num_refs=st.integers(1, 3),
       channels=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_failed_probe_falls_back_to_cholesky(span, num_refs, channels, seed):
    """With the probe bound forced to fail, every system is factorized by
    Cholesky, once, and its taps are those of a projector that never tries
    the structured factor."""
    num_samples, filter_len = span
    rng = np.random.default_rng(seed)
    refs, est = _problem(rng, num_refs, channels, num_samples)
    systems = 1 if num_refs == 1 else 1 + num_refs  # one reference: joint = solo
    with mock.patch.object(bsseval_module, "_PROBE_TOLERANCE", 0.0), \
            mock.patch.object(bsseval_module, "cho_factor",
                              wraps=cho_factor) as factor:
        projector = _Projector(list(refs), filter_len)
        assert _levinson(projector._system_lags(projector._solo(0))[None]) == [None]
        projector = _Projector(list(refs), filter_len, [est])
        taps, solo = projector.fit(0, range(num_refs))
        projector.fit(0, range(num_refs))
    assert factor.call_count == systems
    with mock.patch.object(bsseval_module, "_levinson",
                           side_effect=lambda lags: [None] * len(lags)):
        expected_taps, expected_solo = _Projector(list(refs), filter_len, [est]).fit(
            0, range(num_refs))
    assert np.array_equal(taps, expected_taps)
    assert all(np.array_equal(a, b) for a, b in zip(solo, expected_solo))


@PROPERTY_SETTINGS
@given(span=spans(max_filter=16), num_refs=st.integers(1, 3),
       channels=st.integers(1, 2),
       kind=st.sampled_from(["noise", "silent_channel", "mono_as_stereo"]),
       order=st.permutations(range(3)), seed=st.integers(0, 2**32 - 1))
def test_taps_do_not_depend_on_estimate_order(span, num_refs, channels, kind,
                                              order, seed):
    """An estimate's filters are bitwise equal fitted alone or beside other
    estimates, whatever their order and the order in which they, and the
    solo systems of each, are fitted."""
    num_samples, filter_len = span
    rng = np.random.default_rng(seed)
    refs = list(_kind_of_references(kind, rng, num_refs, channels, num_samples))
    estimates = rng.standard_normal((3, num_samples, channels))
    solo = list(range(num_refs))
    expected = [_Projector(refs, filter_len, [est]).fit(0, solo) for est in estimates]
    shuffled = _Projector(refs, filter_len, [estimates[i] for i in order])
    for position, i in reversed(list(enumerate(order))):
        taps, solo_taps = shuffled.fit(position, solo[::-1])
        assert np.array_equal(taps, expected[i][0])
        for got, want in zip(solo_taps, expected[i][1][::-1]):
            assert np.array_equal(got, want)


@st.composite
def framings(draw):
    """(N, window, hop): the hop below or above the window, N from one
    window to three windows plus a ragged rest."""
    window = draw(st.integers(16, 160))
    hop = draw(st.one_of(st.integers(1, window - 1),
                         st.integers(window + 1, 2 * window)))
    return draw(st.integers(window, 3 * window + 1)), window, hop


def _frame_bits(frame, offset: int = 0) -> bytes:
    """The four dB values and the window of ``frame``, moved by ``offset``."""
    return struct.pack("<4d2q", frame.sdr, frame.isr, frame.sir, frame.sar,
                       frame.window_start + offset, frame.window_len)


@PROPERTY_SETTINGS
@given(framing=framings(), num_refs=st.integers(1, 3), channels=st.integers(1, 2),
       filter_len=st.integers(1, 24), mode=st.sampled_from(sorted(MODES)),
       target=st.integers(0, 2), one_block=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(framing=(BLOCK + 5, 3000, 1000), num_refs=3, channels=2, filter_len=24,
         mode="v4_global", target=1, one_block=False, seed=0)
@example(framing=(3 * BLOCK + 5, 9000, 4000), num_refs=3, channels=2, filter_len=24,
         mode="v4_global", target=1, one_block=True, seed=3)
@example(framing=(BLOCK + 5, 3000, 4500), num_refs=2, channels=2, filter_len=24,
         mode="v3_windowed", target=0, one_block=False, seed=1)
@example(framing=(100, 40, 30), num_refs=2, channels=1, filter_len=24,
         mode="v3_windowed", target=1, one_block=False, seed=2)
def test_bss_eval_is_the_projection_layer_composed(framing, num_refs, channels,
                                                   filter_len, mode, target,
                                                   one_block, seed):
    """bss_eval's frames equal, bit for bit, those of compute_projection,
    decompose and metrics_from_decomposition composed, in both modes, with
    any hop, and with windows across chunk edges.  A v3 fit covers one
    window and scores it alone; the last, ragged window's filters are no
    longer than it.  A v4 filter is drawn no longer than the track
    (a longer one is refused: ``test_v4_filter_longer_than_the_track``)."""
    num_samples, window, hop = framing
    if mode == "v4_global":
        filter_len = min(filter_len, num_samples)
    target %= num_refs
    rng = np.random.default_rng(seed)
    refs, est = _problem(rng, num_refs, channels, num_samples)
    signals = [AudioSignal(r, RATE) for r in refs]
    with _chunks(one_block):
        (frames,) = bss_eval(signals, [AudioSignal(est, RATE)], filter_len=filter_len,
                             window=window, hop=hop, mode=mode, targets=[target])
        fits = compute_projection(signals, AudioSignal(est, RATE), filter_len,
                                  mode=mode, window=window, hop=hop)
        if mode == "v4_global":
            d = decompose(AudioSignal(est, RATE), signals, target, fits)
            composed = [_frame_bits(f)
                        for f in metrics_from_decomposition(d, window, hop)]
        else:
            composed = []
            for fit in fits:
                span = slice(fit.window_start, fit.window_start + fit.window_len)
                d = decompose(AudioSignal(est[span], RATE),
                              [AudioSignal(r[span], RATE) for r in refs], target, fit)
                composed += [_frame_bits(f, fit.window_start)
                             for f in metrics_from_decomposition(d, fit.window_len)]
    assert [_frame_bits(f) for f in frames] == composed


def test_v4_filter_longer_than_the_track():
    """A v4 filter longer than the track is refused by both the scorer and
    the projection layer (framing (16, 16, 1), filter_len 17)."""
    rng = np.random.default_rng(0)
    refs, est = _problem(rng, 2, 2, 16)
    signals = [AudioSignal(r, RATE) for r in refs]
    message = "filter_len 17 exceeds signal length 16"
    with pytest.raises(ValueError, match=message):
        bss_eval(signals, [AudioSignal(est, RATE)], filter_len=17, window=16, hop=1,
                 mode="v4_global", targets=[0])
    with pytest.raises(ValueError, match=message):
        compute_projection(signals, AudioSignal(est, RATE), 17, mode="v4_global",
                           window=16, hop=1)
