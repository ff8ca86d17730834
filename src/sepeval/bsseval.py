"""BSS Eval image metrics: SDR, ISR, SIR and SAR from filtered projections.

An estimate is decomposed into four parts by least-squares projection onto
subspaces spanned by delayed reference channels (FIR distortion filters of
``filter_len`` taps): the true target image, spatial distortion,
interference and artifacts.  Metrics are energy ratios of these parts,
reported per evaluation window.

Two modes are provided.  ``v4_global`` fits one set of distortion filters
for the whole track and only the energies are windowed; ``v3_windowed``
refits the filters inside every window, which is much slower and tends to
over-estimate performance.  With a single window spanning the whole track
the modes coincide.

One engine fits and projects.  Each reference channel is transformed once,
by an rFFT long enough that circular correlations and convolutions with
``filter_len`` taps are exact.  The block-Toeplitz Gram matrix and the
cross-correlations come from these spectra, and so do projections: tap
spectra are multiplied in and summed, then inverse-transformed once per
estimate channel.  The Gram is solved by Cholesky factorization after tiny
diagonal loading, or by minimum-norm least squares if it is singular.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.linalg import LinAlgError, cho_factor, cho_solve, toeplitz

from .audio import AudioSignal

__all__ = [
    "ProjectionFilters",
    "Decomposition",
    "FrameScores",
    "compute_projection",
    "project",
    "decompose",
    "metrics_from_decomposition",
    "bss_eval",
]

DEFAULT_FILTER_LEN = 512
DEFAULT_WINDOW = 44100


@dataclass
class ProjectionFilters:
    """Distortion filters from every reference channel to every estimate channel.

    ``taps`` solves the joint problem over all references (used for the
    interference bound); ``solo_taps[j]`` solves the restricted problem
    over reference j alone (used for the target/spatial split).  Both are
    shaped (J, I_ref, I_est, L).  ``degenerate`` marks a singular Gram
    matrix resolved by a minimum-norm solution.
    """

    taps: np.ndarray
    solo_taps: np.ndarray
    filter_len: int
    mode: str = "global"
    window_start: int = 0
    window_len: int | None = None
    degenerate: bool = False

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        solo = np.asarray(self.solo_taps, dtype=np.float64)
        if taps.ndim != 4 or solo.shape != taps.shape:
            raise ValueError(
                f"tap tensors must both be (J, I_ref, I_est, L); "
                f"got {taps.shape} and {solo.shape}"
            )
        if taps.shape[-1] != self.filter_len or self.filter_len < 1:
            raise ValueError(
                f"filter_len {self.filter_len} does not match taps {taps.shape}"
            )
        if taps.size and not (np.all(np.isfinite(taps)) and np.all(np.isfinite(solo))):
            raise ValueError("filter taps contain non-finite values")
        self.taps = taps
        self.solo_taps = solo


@dataclass
class Decomposition:
    """Four-way split of an estimate, each part shaped like the estimate.

    s_target + e_spatial + e_interf + e_artif reproduces the estimate to
    within a few ulp (successive-residual construction).
    """

    s_target: np.ndarray
    e_spatial: np.ndarray
    e_interf: np.ndarray
    e_artif: np.ndarray

    def __post_init__(self):
        shape = self.s_target.shape
        for name in ("e_spatial", "e_interf", "e_artif"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape differs from s_target {shape}")


@dataclass(frozen=True)
class FrameScores:
    """Metrics for one evaluation window, in dB.

    Values may be ``inf`` (zero error energy), ``-inf`` (zero signal
    energy) or NaN (zero over zero: nothing to measure in the window).
    """

    sdr: float
    isr: float
    sir: float
    sar: float
    window_start: int
    window_len: int


def _reference_spectra(refs: np.ndarray, filter_len: int):
    """FFT length and rFFT of every reference channel, reference-major.

    The transform length leaves at least L-1 zeros of tail, so circular
    lags within +/-(L-1) and convolutions with L taps match their linear
    counterparts exactly.
    """
    num_refs, num_samples, channels = refs.shape
    n_fft = scipy.fft.next_fast_len(num_samples + 2 * filter_len)
    flat = refs.transpose(0, 2, 1).reshape(num_refs * channels, num_samples)
    return n_fft, scipy.fft.rfft(flat, n=n_fft, axis=-1)


def _filter_and_sum(spectra: np.ndarray, n_fft: int, taps: np.ndarray,
                    length: int) -> np.ndarray:
    """Reference channels filtered through (J, I_ref, I_est, L) taps, summed.

    ``spectra`` come from :func:`_reference_spectra`.  Tap spectra are
    formed one reference channel at a time into one (I_est, F) sum; the
    result is its first ``length`` samples, shaped (length, I_est).
    """
    est_channels = taps.shape[2]
    total = np.zeros((est_channels, spectra.shape[1]), dtype=spectra.dtype)
    for ref_spectrum, channel_taps in zip(spectra, taps.reshape(-1, *taps.shape[2:])):
        tap_spectra = scipy.fft.rfft(channel_taps, n=n_fft, axis=-1)
        tap_spectra *= ref_spectrum
        total += tap_spectra
    return np.ascontiguousarray(scipy.fft.irfft(total, n_fft, axis=-1)[:, :length].T)


class _Projector:
    """Reference spectra and factorized Gram matrices for one span.

    Reusing one instance across estimates guarantees that evaluating the
    same estimate twice, in any order, produces bitwise-equal filters.
    """

    def __init__(self, references: np.ndarray, filter_len: int):
        num_refs, num_samples, channels = references.shape
        if filter_len < 1:
            raise ValueError(f"filter_len must be >= 1, got {filter_len}")
        if filter_len > num_samples:
            raise ValueError(
                f"filter_len {filter_len} exceeds signal length {num_samples}"
            )
        self.filter_len = filter_len
        self.num_refs = num_refs
        self.num_samples = num_samples
        self.channels = channels
        self.n_fft, self.spectra = _reference_spectra(references, filter_len)

        total = num_refs * channels * filter_len
        gram = np.empty((total, total))
        L = filter_len
        for b1 in range(num_refs * channels):
            for b2 in range(b1, num_refs * channels):
                cc = scipy.fft.irfft(
                    self.spectra[b1] * self.spectra[b2].conj(), self.n_fft
                )
                block = toeplitz(np.concatenate(([cc[0]], cc[-1:-L:-1])), cc[:L])
                gram[b1 * L:(b1 + 1) * L, b2 * L:(b2 + 1) * L] = block
                if b2 != b1:
                    gram[b2 * L:(b2 + 1) * L, b1 * L:(b1 + 1) * L] = block.T

        loading = 1e-12 * np.trace(gram) / total
        diag = np.arange(total)
        gram[diag, diag] += loading

        # The joint system over all references, then each reference's own
        # diagonal block.
        block_size = channels * filter_len
        self._spans = [slice(0, total)] + [
            slice(j * block_size, (j + 1) * block_size) for j in range(num_refs)
        ]
        self._factors = []
        for span in self._spans:
            try:
                self._factors.append(cho_factor(gram[span, span]))
            except LinAlgError:
                self._factors.append(None)

        self.degenerate = None in self._factors
        self._gram = gram if self.degenerate else None

    def cross_correlations(self, estimate: np.ndarray) -> np.ndarray:
        """Right-hand side D[(b, m), c] = <reference b delayed by m, estimate c>."""
        num_samples, est_channels = estimate.shape
        L = self.filter_len
        est_spectra = scipy.fft.rfft(estimate.T, n=self.n_fft, axis=-1)
        D = np.empty((self.spectra.shape[0] * L, est_channels))
        for b in range(self.spectra.shape[0]):
            cc = scipy.fft.irfft(
                self.spectra[b] * est_spectra.conj(), self.n_fft, axis=-1
            )
            D[b * L:(b + 1) * L] = np.concatenate(
                (cc[:, :1], cc[:, -1:-L:-1]), axis=1
            ).T
        return D

    def _solve(self, factor, span: slice, rhs: np.ndarray) -> np.ndarray:
        if factor is not None:
            return cho_solve(factor, rhs)
        return np.linalg.lstsq(self._gram[span, span], rhs, rcond=None)[0]

    def fit(self, estimate: np.ndarray, mode: str = "global",
            start: int = 0) -> ProjectionFilters:
        """Joint and all J solo filters from the references to an estimate."""
        D = self.cross_correlations(estimate)
        flats = [
            self._solve(factor, span, D[span])
            for factor, span in zip(self._factors, self._spans)
        ]
        shape = (self.num_refs, self.channels, self.filter_len, D.shape[1])
        taps, solo = (
            np.ascontiguousarray(np.moveaxis(flat.reshape(shape), 2, 3))
            for flat in (flats[0], np.concatenate(flats[1:]))
        )
        return ProjectionFilters(
            taps, solo, self.filter_len, mode=mode, window_start=start,
            window_len=self.num_samples, degenerate=self.degenerate,
        )


def _split(refs: np.ndarray, est: np.ndarray, j: int, filters: ProjectionFilters,
           spectra: np.ndarray, n_fft: int) -> Decomposition:
    """Four parts of ``est`` from its projections on reference j and on all."""
    num_samples, channels = refs.shape[1:]
    proj_solo = _filter_and_sum(
        spectra[j * channels:(j + 1) * channels], n_fft,
        filters.solo_taps[j:j + 1], num_samples,
    )
    proj_all = _filter_and_sum(spectra, n_fft, filters.taps, num_samples)
    s_target = refs[j].copy()
    return Decomposition(
        s_target, proj_solo - s_target, proj_all - proj_solo, est - proj_all
    )


def _signal_stack(references) -> np.ndarray:
    """Validate and stack reference signals to (J, N, I)."""
    if not references:
        raise ValueError("at least one reference is required")
    arrays = []
    shape = references[0].samples.shape
    rate = references[0].sample_rate
    for ref in references:
        if ref.samples.shape != shape:
            raise ValueError(
                f"reference shapes differ: {ref.samples.shape} vs {shape}"
            )
        if ref.sample_rate != rate:
            raise ValueError("reference sample rates differ")
        arrays.append(ref.samples)
    return np.stack(arrays)


def compute_projection(
    references,
    estimate: AudioSignal,
    filter_len: int = DEFAULT_FILTER_LEN,
    mode: str = "global",
    window: int | None = None,
    hop: int | None = None,
):
    """Least-squares FIR distortion filters matching references to an estimate.

    In ``global`` mode one :class:`ProjectionFilters` covers the whole
    signal; in ``windowed`` mode a list is returned, one per evaluation
    window of ``window`` samples advanced by ``hop``.
    """
    refs = _signal_stack(references)
    est = estimate.samples
    if est.shape[0] != refs.shape[1] or est.shape[1] != refs.shape[2]:
        raise ValueError(
            f"estimate shape {est.shape} does not match references "
            f"{refs.shape[1:]}"
        )
    if mode == "global":
        return _Projector(refs, filter_len).fit(est)
    if mode != "windowed":
        raise ValueError(f"mode must be 'global' or 'windowed', got {mode!r}")
    if window is None:
        raise ValueError("windowed mode requires a window length")
    return [
        _Projector(refs[:, start:stop], min(filter_len, stop - start)).fit(
            est[start:stop], "windowed", start
        )
        for start, stop in _windows(refs.shape[1], window, hop or window)
    ]


def project(references, taps: np.ndarray) -> np.ndarray:
    """Filter-and-sum references through (J, I_ref, I_est, L) taps.

    Returns the projection on the padded domain, length N + L - 1, where
    the least-squares optimality (residual orthogonal to every delayed
    reference) holds.
    """
    refs = references if isinstance(references, np.ndarray) else _signal_stack(references)
    num_refs, num_samples, channels = refs.shape
    if taps.shape[0] != num_refs or taps.shape[1] != channels:
        raise ValueError(
            f"taps shape {taps.shape} does not match references {refs.shape}"
        )
    filter_len = taps.shape[3]
    n_fft, spectra = _reference_spectra(refs, filter_len)
    return _filter_and_sum(spectra, n_fft, taps, num_samples + filter_len - 1)


def decompose(
    estimate: AudioSignal,
    references,
    target_index: int,
    filters: ProjectionFilters,
) -> Decomposition:
    """Split an estimate into target, spatial, interference and artifact parts.

    The target part is the true image itself; the spatial part is the
    single-reference projection minus the target; interference is what
    the remaining references additionally explain; artifacts are the
    unexplained residual.  Successive residuals make the four parts sum
    to the estimate exactly.
    """
    refs = _signal_stack(references)
    est = estimate.samples
    num_refs, num_samples, _ = refs.shape
    if not 0 <= target_index < num_refs:
        raise IndexError(f"target index {target_index} out of range")
    if est.shape[0] != num_samples:
        raise ValueError("estimate and references differ in length")
    if filters.taps.shape[0] != num_refs:
        raise ValueError(
            f"filters cover {filters.taps.shape[0]} references, got {num_refs}"
        )
    n_fft, spectra = _reference_spectra(refs, filters.filter_len)
    return _split(refs, est, target_index, filters, spectra, n_fft)


def _ratio_db(num: float, den: float) -> float:
    if den > 0.0:
        return 10.0 * math.log10(num / den) if num > 0.0 else -math.inf
    return math.inf if num > 0.0 else math.nan


def _windows(num_samples: int, window: int, hop: int):
    if window < 1 or hop < 1:
        raise ValueError(f"window and hop must be >= 1, got {window}, {hop}")
    if window > num_samples:
        raise ValueError(
            f"window of {window} samples exceeds signal length {num_samples}"
        )
    return [
        (start, min(start + window, num_samples))
        for start in range(0, num_samples, hop)
    ]


def metrics_from_decomposition(
    d: Decomposition, window: int, hop: int | None = None
) -> list:
    """Energy-ratio metrics over rectangular windows covering the signal.

    Per window: SDR compares the target to the total error, ISR to the
    spatial part, SIR to interference (after granting the spatial fit),
    SAR to artifacts (after granting everything else).
    """
    hop = hop or window
    return [
        _frame_scores(d, start, stop)
        for start, stop in _windows(d.s_target.shape[0], window, hop)
    ]


def bss_eval(
    references,
    estimates,
    filter_len: int = DEFAULT_FILTER_LEN,
    window: int = DEFAULT_WINDOW,
    hop: int | None = None,
    mode: str = "v4_global",
    targets=None,
) -> list:
    """Score each estimate against its target reference, framewise.

    Pairing is positional by default (estimate k scored against reference
    k); pass ``targets`` to name the reference index for each estimate.
    Returns one list of :class:`FrameScores` per estimate.
    """
    refs = _signal_stack(references)
    num_refs, num_samples, _ = refs.shape
    if not estimates:
        raise ValueError("at least one estimate is required")
    est_arrays = []
    for est in estimates:
        if est.samples.shape[0] != num_samples:
            raise ValueError(
                f"estimate length {est.samples.shape[0]} does not match "
                f"references ({num_samples})"
            )
        est_arrays.append(est.samples)
    if targets is None:
        if len(est_arrays) > num_refs:
            raise ValueError(
                f"{len(est_arrays)} estimates for {num_refs} references; "
                "pass explicit targets"
            )
        targets = list(range(len(est_arrays)))
    elif len(targets) != len(est_arrays):
        raise ValueError("one target index is required per estimate")
    for j in targets:
        if not 0 <= j < num_refs:
            raise IndexError(f"target index {j} out of range")
    spans = _windows(num_samples, window, hop or window)

    # Each fit: the span the filters are fitted on, their length, and the
    # windows scored from that fit.
    if mode == "v4_global":
        fits = [(0, num_samples, filter_len, spans)]
    elif mode == "v3_windowed":
        fits = [
            (start, stop, min(filter_len, stop - start), [(start, stop)])
            for start, stop in spans
        ]
    else:
        raise ValueError(
            f"mode must be 'v4_global' or 'v3_windowed', got {mode!r}"
        )
    results = [[] for _ in est_arrays]
    for start, stop, span_filter_len, frames in fits:
        span_refs = refs[:, start:stop]
        projector = _Projector(span_refs, span_filter_len)
        for scores, est, j in zip(results, est_arrays, targets):
            span_est = est[start:stop]
            d = _split(span_refs, span_est, j, projector.fit(span_est),
                       projector.spectra, projector.n_fft)
            scores.extend(
                _frame_scores(d, a - start, b - start, start) for a, b in frames
            )
    return results


def _frame_scores(d: Decomposition, start: int, stop: int,
                  offset: int = 0) -> FrameScores:
    """Scores of samples [start, stop) of ``d``, which begins at ``offset``."""
    sl = slice(start, stop)
    s = d.s_target[sl]
    e_spat = d.e_spatial[sl]
    e_interf = d.e_interf[sl]
    e_artif = d.e_artif[sl]
    s_energy = float(np.sum(s * s))
    return FrameScores(
        sdr=_ratio_db(s_energy, float(np.sum((e_spat + e_interf + e_artif) ** 2))),
        isr=_ratio_db(s_energy, float(np.sum(e_spat * e_spat))),
        sir=_ratio_db(float(np.sum((s + e_spat) ** 2)),
                      float(np.sum(e_interf * e_interf))),
        sar=_ratio_db(float(np.sum((s + e_spat + e_interf) ** 2)),
                      float(np.sum(e_artif * e_artif))),
        window_start=offset + start,
        window_len=stop - start,
    )
