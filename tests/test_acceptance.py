"""Acceptance gate: one numbered release criterion per test.

Run ``pytest -v tests/test_acceptance.py`` to get a single PASS/FAIL line
per criterion; each test also prints its measured margins.  Criterion 9
additionally checks a full stem corpus when ``SEPEVAL_MUSDB_ROOT`` points
at one; with the variable unset the bundled two-track fixture decides.
"""

import math
import os
import time

import numpy as np

from sepeval import (
    AudioSignal,
    Decomposition,
    SourceImages,
    Spectrogram,
    StftConfig,
    bss_eval,
    compute_projection,
    decompose,
    estimate_mwf_model,
    ibm_mask,
    irm_mask,
    istft,
    metrics_from_decomposition,
    mwf_mask,
    oracle_separate,
    pairwise_significance,
    project,
    scan_corpus,
    stft,
)

RATE = 8000


def _report(line: str) -> None:
    print(f"[PASS] {line}")


def _delay_matrix(refs: np.ndarray, filter_len: int) -> np.ndarray:
    """Dense matrix of delayed reference channels on the padded domain."""
    num_refs, num_samples, channels = refs.shape
    dense = np.zeros((num_samples + filter_len - 1,
                      num_refs * channels * filter_len))
    col = 0
    for j in range(num_refs):
        for c in range(channels):
            for m in range(filter_len):
                dense[m:m + num_samples, col] = refs[j, :, c]
                col += 1
    return dense


def _oracle_flat(dense: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Dense solve of the identically regularized normal equations."""
    rows, total = dense.shape
    padded = np.zeros((rows, est.shape[1]))
    padded[:est.shape[0]] = est
    gram = dense.T @ dense
    gram[np.arange(total), np.arange(total)] += 1e-12 * np.trace(gram) / total
    return np.linalg.solve(gram, dense.T @ padded)


def _ratio_db(num: float, den: float) -> float:
    if den > 0.0:
        return 10.0 * math.log10(num / den) if num > 0.0 else -math.inf
    return math.inf if num > 0.0 else math.nan


def test_criterion_01_single_window_refit_matches_global():
    """10 s stereo track, one full-length window: the per-window refit mode
    agrees with global mode within 1e-10 dB per metric, in under 10 s."""
    rng = np.random.default_rng(11)
    num_samples = 10 * RATE
    refs_arr = rng.standard_normal((2, num_samples, 2))
    refs = [AudioSignal(r, RATE) for r in refs_arr]
    ests = [
        AudioSignal(refs_arr[0] + 0.2 * refs_arr[1], RATE),
        AudioSignal(refs_arr[1] + 0.2 * refs_arr[0], RATE),
    ]
    start = time.perf_counter()
    v4 = bss_eval(refs, ests, filter_len=512, window=num_samples,
                  mode="v4_global")
    v3 = bss_eval(refs, ests, filter_len=512, window=num_samples,
                  mode="v3_windowed")
    elapsed = time.perf_counter() - start

    worst = 0.0
    for frames4, frames3 in zip(v4, v3):
        for f4, f3 in zip(frames4, frames3):
            for name in ("sdr", "isr", "sir", "sar"):
                a, b = getattr(f4, name), getattr(f3, name)
                if math.isfinite(a) or math.isfinite(b):
                    worst = max(worst, abs(a - b))
                else:
                    assert a == b or (math.isnan(a) and math.isnan(b))
    assert worst <= 1e-10
    assert elapsed < 10.0
    _report(f"criterion 1: worst mode difference {worst:.2e} dB "
            f"(<= 1e-10), elapsed {elapsed:.2f} s (< 10)")


def test_criterion_02_fft_path_matches_dense_oracle():
    """100 random small instances: FFT-assembled projection filters match a
    dense normal-equation solve within 1e-9 (taps) and 1e-8 dB (metrics)."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst_tap = 0.0
    worst_db = 0.0
    instances = 0
    for _ in range(100):
        num_refs = int(rng.integers(1, 4))
        channels = int(rng.integers(1, 3))
        filter_len = int(rng.integers(1, 9))
        num_samples = int(rng.integers(64, 257))
        refs = rng.standard_normal((num_refs, num_samples, channels))
        est = refs[0] + 0.5 * rng.standard_normal((num_samples, channels))
        signals = [AudioSignal(r, RATE) for r in refs]

        filters = compute_projection(signals, AudioSignal(est, RATE),
                                     filter_len)
        dense = _delay_matrix(refs, filter_len)
        flat = _oracle_flat(dense, est)
        taps = np.moveaxis(
            flat.reshape(num_refs, channels, filter_len, channels), 2, 3
        )
        worst_tap = max(worst_tap, float(np.abs(filters.taps - taps).max()))

        dense_solo = _delay_matrix(refs[:1], filter_len)
        flat_solo = _oracle_flat(dense_solo, est)
        solo = np.moveaxis(
            flat_solo.reshape(1, channels, filter_len, channels), 2, 3
        )
        worst_tap = max(
            worst_tap, float(np.abs(filters.solo_taps[0] - solo[0]).max())
        )

        proj_all = (dense @ flat)[:num_samples]
        proj_solo = (dense_solo @ flat_solo)[:num_samples]
        s = refs[0]
        e_sp = proj_solo - s
        e_i = proj_all - proj_solo
        e_a = est - proj_all
        oracle = (
            _ratio_db(float(np.sum(s * s)),
                      float(np.sum((e_sp + e_i + e_a) ** 2))),
            _ratio_db(float(np.sum(s * s)), float(np.sum(e_sp * e_sp))),
            _ratio_db(float(np.sum((s + e_sp) ** 2)),
                      float(np.sum(e_i * e_i))),
            _ratio_db(float(np.sum((s + e_sp + e_i) ** 2)),
                      float(np.sum(e_a * e_a))),
        )
        frame = bss_eval(signals, [AudioSignal(est, RATE)],
                         filter_len=filter_len, window=num_samples)[0][0]
        for got, want in zip((frame.sdr, frame.isr, frame.sir, frame.sar),
                             oracle):
            if math.isfinite(want):
                worst_db = max(worst_db, abs(got - want))
            else:
                assert got == want or (math.isnan(got) and math.isnan(want))
        instances += 1
    elapsed = time.perf_counter() - start

    assert instances >= 100
    assert worst_tap <= 1e-9
    assert worst_db <= 1e-8
    assert elapsed < 60.0
    _report(f"criterion 2: {instances} instances, worst taps {worst_tap:.2e} "
            f"(<= 1e-9), worst metric {worst_db:.2e} dB (<= 1e-8), "
            f"elapsed {elapsed:.2f} s (< 60)")


def test_criterion_03_decomposition_identity_and_orthogonality():
    """Across random fixtures the four parts sum to the estimate within
    1e-12 relative and the projection residual is orthogonal to every
    delayed reference within 1e-8 relative."""
    rng = np.random.default_rng(43)
    worst_identity = 0.0
    worst_ortho = 0.0
    for _ in range(40):
        num_refs = int(rng.integers(1, 4))
        channels = int(rng.integers(1, 3))
        filter_len = int(rng.integers(2, 17))
        num_samples = int(rng.integers(150, 500))
        refs = rng.standard_normal((num_refs, num_samples, channels))
        est = refs[0] + 0.4 * rng.standard_normal((num_samples, channels))
        signals = [AudioSignal(r, RATE) for r in refs]
        est_signal = AudioSignal(est, RATE)

        filters = compute_projection(signals, est_signal, filter_len)
        d = decompose(est_signal, signals, 0, filters)
        total = d.s_target + d.e_spatial + d.e_interf + d.e_artif
        worst_identity = max(
            worst_identity,
            float(np.abs(total - est).max() / np.abs(est).max()),
        )

        dense = _delay_matrix(refs, filter_len)
        padded = np.zeros((dense.shape[0], channels))
        padded[:num_samples] = est
        residual = padded - project(refs, filters.taps)
        res_norms = np.linalg.norm(residual, axis=0)
        if res_norms.max() <= 1e-10 * np.linalg.norm(est):
            continue  # exact fit: orthogonality has nothing to measure
        inner = dense.T @ residual
        scale = (np.linalg.norm(dense, axis=0)[:, None]
                 * res_norms[None, :])
        worst_ortho = max(worst_ortho, float(np.abs(inner / scale).max()))

    assert worst_identity <= 1e-12
    assert worst_ortho <= 1e-8
    _report(f"criterion 3: identity residual {worst_identity:.2e} "
            f"(<= 1e-12 rel), orthogonality {worst_ortho:.2e} (<= 1e-8 rel)")


def test_criterion_04_closed_form_metric_cases():
    """Scaled target (2*y) gives SDR = ISR = 0 dB with SIR = SAR = +inf;
    the target itself gives all four +inf.  Exact on the closed-form
    decomposition; the full filter-fitting pipeline corroborates to float
    precision (errors land at the arithmetic noise floor, 180+ dB down)."""
    rng = np.random.default_rng(99)
    num_samples = 4000
    y = rng.standard_normal((num_samples, 2))

    # Closed form: with exact global filters, est = 2y decomposes into
    # s = y, e_spatial = y, e_interf = e_artif = 0.
    zeros = np.zeros_like(y)
    d2 = Decomposition(y.copy(), y.copy(), zeros.copy(), zeros.copy())
    (f2,) = metrics_from_decomposition(d2, window=num_samples)
    assert f2.sdr == 0.0
    assert f2.isr == 0.0
    assert f2.sir == math.inf
    assert f2.sar == math.inf

    # est = y decomposes into s = y and three zero parts.
    d1 = Decomposition(y.copy(), zeros.copy(), zeros.copy(), zeros.copy())
    (f1,) = metrics_from_decomposition(d1, window=num_samples)
    assert f1.sdr == math.inf
    assert f1.isr == math.inf
    assert f1.sir == math.inf
    assert f1.sar == math.inf

    # End-to-end corroboration through the fitted filters.
    refs_arr = np.stack([y, rng.standard_normal((num_samples, 2))])
    refs = [AudioSignal(r, RATE) for r in refs_arr]
    (scaled,) = bss_eval(refs, [AudioSignal(2.0 * y, RATE)],
                         filter_len=16, window=num_samples)
    assert abs(scaled[0].sdr) <= 1e-8
    assert abs(scaled[0].isr) <= 1e-8
    assert scaled[0].sir == math.inf or scaled[0].sir >= 180.0
    assert scaled[0].sar == math.inf or scaled[0].sar >= 180.0
    (exact,) = bss_eval(refs, [AudioSignal(y.copy(), RATE)],
                        filter_len=16, window=num_samples)
    for value in (exact[0].sdr, exact[0].isr, exact[0].sir, exact[0].sar):
        assert value == math.inf or value >= 180.0
    _report(f"criterion 4: closed form exact; pipeline residuals "
            f"SDR {scaled[0].sdr:.1e} dB, ISR {scaled[0].isr:.1e} dB, "
            f"SIR {scaled[0].sir:.0f} dB, SAR {scaled[0].sar:.0f} dB")


def _conditioned_images(rng, num_sources=2, bins=33, frames=40, channels=1):
    """Source spectrograms whose bin magnitudes lie in [1, 2)."""
    shape = (num_sources, bins, frames, channels)
    mags = 1.0 + rng.random(shape)
    stack = mags * np.exp(2j * np.pi * rng.random(shape))
    config = StftConfig(2 * (bins - 1), (bins - 1) // 2)
    return SourceImages(
        [Spectrogram(b, config, 100, RATE) for b in stack]
    )


def test_criterion_05_mask_invariants():
    """Ratio masks sum to one in [0, 1]; Wiener filters sum to identity and
    reduce to the power-ratio mask on mono input; binary masks are 0/1;
    all masks are invariant under global source scaling."""
    rng = np.random.default_rng(55)

    # Ratio masks: partition of unity, in range.
    stack = rng.standard_normal((3, 17, 12, 2)) + 1j * rng.standard_normal(
        (3, 17, 12, 2)
    )
    stack[:, 5, 3, :] = 0.0
    config = StftConfig(32, 8)
    images = SourceImages([Spectrogram(b, config, 64, RATE) for b in stack])
    sum_gap = 0.0
    for alpha in (1.0, 2.0):
        values = irm_mask(images, alpha).values
        assert values.min() >= 0.0 and values.max() <= 1.0
        sum_gap = max(sum_gap, float(np.abs(values.sum(axis=0) - 1.0).max()))
    assert sum_gap <= 1e-14

    # Wiener filters: sum to identity with the regularizer off.
    conditioned = _conditioned_images(rng, channels=2)
    model = estimate_mwf_model(conditioned)
    total = mwf_mask(model, epsilon=0.0).values.sum(axis=0)
    eye = np.broadcast_to(np.eye(2), total.shape)
    identity_gap = float(np.abs(total - eye).max())
    assert identity_gap <= 1e-8

    # Mono Wiener filter equals the power-ratio mask.
    mono = _conditioned_images(rng, channels=1)
    mono_model = estimate_mwf_model(mono)
    wiener = mwf_mask(mono_model).values[..., 0, 0]
    ratio = irm_mask(mono, alpha=2.0).values[..., 0]
    mono_gap = float(np.abs(wiener.real - ratio).max())
    assert mono_gap <= 1e-10
    assert float(np.abs(wiener.imag).max()) == 0.0

    # Binary masks take only the values 0 and 1.
    for order in (1, 2):
        values = ibm_mask(images, order).values
        assert np.all((values == 0.0) | (values == 1.0))

    # Scaling every source by 4 leaves all masks bitwise unchanged.
    scaled_images = SourceImages(
        [Spectrogram(4.0 * b, config, 64, RATE) for b in stack]
    )
    for order in (1, 2):
        np.testing.assert_array_equal(ibm_mask(scaled_images, order).values,
                                      ibm_mask(images, order).values)
    for alpha in (1.0, 2.0):
        np.testing.assert_array_equal(irm_mask(scaled_images, alpha).values,
                                      irm_mask(images, alpha).values)
    scaled_cond = SourceImages(
        [Spectrogram(4.0 * img.bins, img.config, 100, RATE)
         for img in conditioned.images]
    )
    np.testing.assert_array_equal(
        mwf_mask(estimate_mwf_model(scaled_cond)).values,
        mwf_mask(model).values,
    )
    _report(f"criterion 5: ratio-sum gap {sum_gap:.1e}, identity gap "
            f"{identity_gap:.1e} (<= 1e-8), mono Wiener gap {mono_gap:.1e} "
            f"(<= 1e-10), scaling bitwise invariant")


def test_criterion_06_oracle_reconstruction():
    """On 5 s fixtures the ratio-mask and Wiener estimates sum back to the
    mixture within 1e-6, and analysis/synthesis round-trips within 1e-6."""
    rng = np.random.default_rng(66)
    num_samples = 5 * RATE
    parts = [0.3 * rng.standard_normal((num_samples, 2)) for _ in range(3)]
    sources = [AudioSignal(p, RATE) for p in parts]
    mixture = AudioSignal(sum(parts), RATE)
    config = StftConfig(1024, 256)

    worst_sum = 0.0
    for method in ("IRM1", "IRM2", "IRM1.5", "MWF"):
        estimates = oracle_separate(mixture, sources, method, config)
        total = sum(e.samples for e in estimates)
        gap = float(np.abs(total - mixture.samples).max())
        worst_sum = max(worst_sum, gap)
        assert gap <= 1e-6, (method, gap)

    worst_rt = 0.0
    for window, hop, taper in ((4096, 1024, "hann"), (1024, 256, "hann"),
                               (512, 512, "rect")):
        back = istft(stft(mixture, StftConfig(window, hop, taper)))
        worst_rt = max(
            worst_rt, float(np.abs(back.samples - mixture.samples).max())
        )
    assert worst_rt <= 1e-6
    _report(f"criterion 6: worst estimate-sum gap {worst_sum:.1e}, worst "
            f"round-trip {worst_rt:.1e} (both <= 1e-6)")


def test_criterion_07_soft_masks_beat_binary_on_artifacts():
    """Across 10 dense two-source stereo mixtures, every soft method's
    median SAR exceeds every binary method's median SAR."""
    rng = np.random.default_rng(77)
    config = StftConfig(512, 128)
    methods = ("IBM1", "IBM2", "IRM1", "IRM2", "MWF")
    sars = {m: [] for m in methods}
    for _ in range(10):
        num_samples = RATE
        a = rng.standard_normal((num_samples, 1)) * np.array(
            [1.0, 0.4 + 0.2 * rng.random()]
        )
        b = rng.standard_normal((num_samples, 1)) * np.array(
            [0.5 + 0.2 * rng.random(), 1.0]
        )
        sources = [AudioSignal(a, RATE), AudioSignal(b, RATE)]
        mixture = AudioSignal(a + b, RATE)
        for method in methods:
            estimates = oracle_separate(mixture, sources, method, config)
            results = bss_eval(sources, estimates, filter_len=64,
                               window=num_samples)
            sars[method].extend(frames[0].sar for frames in results)

    medians = {m: float(np.median(v)) for m, v in sars.items()}
    soft_floor = min(medians[m] for m in ("IRM1", "IRM2", "MWF"))
    binary_ceiling = max(medians[m] for m in ("IBM1", "IBM2"))
    assert soft_floor > binary_ceiling
    _report("criterion 7: median SAR " + ", ".join(
        f"{m}={medians[m]:.1f}" for m in methods
    ) + f"; soft floor {soft_floor:.1f} > binary ceiling {binary_ceiling:.1f}")


def test_criterion_08_global_mode_speedup():
    """On a 60 s stereo track with 1 s windows, global-filter evaluation is
    at least twice as fast as refitting filters per window."""
    rng = np.random.default_rng(88)
    num_samples = 60 * RATE
    refs_arr = rng.standard_normal((2, num_samples, 2))
    refs = [AudioSignal(r, RATE) for r in refs_arr]
    ests = [
        AudioSignal(refs_arr[0] + 0.3 * refs_arr[1], RATE),
        AudioSignal(refs_arr[1] + 0.3 * refs_arr[0], RATE),
    ]

    start = time.perf_counter()
    bss_eval(refs, ests, filter_len=512, window=RATE, mode="v4_global")
    t_global = time.perf_counter() - start

    start = time.perf_counter()
    bss_eval(refs, ests, filter_len=512, window=RATE, mode="v3_windowed")
    t_windowed = time.perf_counter() - start

    assert t_windowed >= 2.0 * t_global
    _report(f"criterion 8: global {t_global:.2f} s, per-window "
            f"{t_windowed:.2f} s, speedup {t_windowed / t_global:.1f}x "
            f"(>= 2x)")


def test_criterion_09_corpus_checks(corpus_root):
    """The bundled fixture corpus scans to 1 train + 1 test track; a full
    corpus, when configured, scans to exactly 150 tracks (100/50), all
    44.1 kHz stereo with five consistent stems."""
    corpus = scan_corpus(corpus_root)
    assert len(corpus.tracks) == 2
    assert len(corpus.train) == 1
    assert len(corpus.test) == 1

    musdb_root = os.environ.get("SEPEVAL_MUSDB_ROOT")
    if not musdb_root:
        _report("criterion 9: fixture corpus scans to 1 train + 1 test "
                "(SEPEVAL_MUSDB_ROOT unset, full-corpus portion skipped)")
        return
    full = scan_corpus(musdb_root)
    assert len(full.tracks) == 150
    assert len(full.train) == 100
    assert len(full.test) == 50
    for track in full.tracks:
        assert track.sample_rate == 44100
        assert track.channels == 2
        assert track.duration > 0.0
    _report("criterion 9: fixture corpus 1+1; full corpus 150 tracks "
            "(100 train / 50 test), all 44.1 kHz stereo")


def test_criterion_10_significance_engine():
    """A 20-track design with a constant 10 dB winner is significant at
    0.01; identical methods give p = 1; the matrix is symmetric with unit
    diagonal and invariant under monotone score transforms."""
    rng = np.random.default_rng(13)
    base = {f"t{i:02d}": float(rng.standard_normal()) for i in range(20)}
    dominated = {
        "A": base,
        "B": {track: value + 10.0 for track, value in base.items()},
    }
    matrix = pairwise_significance(dominated, metric="SDR", target="vocals")
    p_ab = matrix.pair("A", "B")
    assert p_ab < 0.01

    identical = {"A": base, "B": dict(base)}
    same = pairwise_significance(identical)
    assert same.pair("A", "B") == 1.0

    three = {
        "A": base,
        "B": {t: v + 10.0 for t, v in base.items()},
        "C": {t: float(rng.standard_normal()) for t in base},
    }
    m3 = pairwise_significance(three)
    np.testing.assert_array_equal(m3.p_values, m3.p_values.T)
    np.testing.assert_array_equal(np.diag(m3.p_values), 1.0)

    transformed = {
        method: {t: v**3 for t, v in by_track.items()}
        for method, by_track in three.items()
    }
    np.testing.assert_array_equal(
        pairwise_significance(transformed).p_values, m3.p_values
    )
    _report(f"criterion 10: dominance p = {p_ab:.2e} (< 0.01), identical "
            f"p = 1, symmetric unit-diagonal, monotone-invariant")
