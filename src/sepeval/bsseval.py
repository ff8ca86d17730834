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

One engine fits and projects, over overlap-save blocks of B samples (8192,
or the whole span when it is shorter).  Each reference channel is held as
the rFFTs of its segments, block k plus the L samples before it, at a size
M >= B + L; no transform spans the whole signal.  Lags 0..L-1 of the
segments against another signal's zero-padded block spectra are summed
over blocks bin by bin and inverse-transformed once per channel pair,
lag-major as (L, C, C'): against the references themselves they give the
Gram matrix's blocks, against an estimate its cross-correlations.  The
normal equations keep that layout: unknown (p, a) is tap p of channel a,
so the Gram is block-Toeplitz with block (p, q) = R[p - q], where R[m] is
the lag-m matrix and R[-m] = R[m]^T.  Projections multiply tap spectra
into the segment spectra, sum over reference channels and keep the B
valid samples of each block's inverse transform.  Each Gram is factorized
by Cholesky after tiny diagonal loading; when every reference is silent
over the span the Gram is zero, and so is every tap.  ``bss_eval``
factorizes only the single-reference systems of the references it scores
against.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_factor, cho_solve

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
# Overlap-save block length, unless the span is shorter.
_BLOCK_LEN = 8192


@dataclass
class ProjectionFilters:
    """Distortion filters from every reference channel to every estimate channel.

    ``taps`` solves the joint problem over all references (used for the
    interference bound); ``solo_taps[j]`` solves the restricted problem
    over reference j alone (used for the target/spatial split).  Both are
    shaped (J, I_ref, I_est, L).  ``degenerate`` marks a span over which
    every reference is silent: the Gram matrix is zero and every tap is
    exactly zero, its minimum-norm solution.
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
    ISR and SIR are NaN wherever the target is silent in the window.
    """

    sdr: float
    isr: float
    sir: float
    sar: float
    window_start: int
    window_len: int


class _Blocks:
    """Overlap-save geometry of one span: block length B, L taps, FFT size M.

    Block k covers samples [kB, (k+1)B); its segment [kB - L, (k+1)B) adds
    the L samples before it.  Because M >= B + L, circular products of a
    segment with a zero-padded block, or with L zero-padded taps, equal the
    linear correlation or convolution over that block.  B follows from the
    span length alone, so every caller on a span gets the same blocks and
    hence bitwise-equal results.
    """

    def __init__(self, num_samples: int, filter_len: int):
        self.length = min(num_samples, _BLOCK_LEN)
        self.filter_len = filter_len
        self.fft_size = scipy.fft.next_fast_len(self.length + filter_len, real=True)

    def segment_spectra(self, signals, length: int) -> np.ndarray:
        """(F, C, K) segment rFFTs of the C channels of ``signals`` (see
        :func:`_channels`), zero-extended to ``length`` samples and K blocks."""
        B, L = self.length, self.filter_len
        channels = _channels(signals)
        num_blocks = -(-length // B)
        spectra = np.empty((self.fft_size // 2 + 1, len(channels), num_blocks),
                           dtype=complex)
        padded = np.zeros(L + num_blocks * B)
        for c, samples in enumerate(channels):
            padded[L:L + len(samples)] = samples
            segments = sliding_window_view(padded, B + L)[::B]
            spectra[:, c] = scipy.fft.rfft(segments, n=self.fft_size, axis=-1).T
        return spectra

    def lags(self, segments: np.ndarray, signals) -> np.ndarray:
        """(L, C, C') correlations r[m, a, b] = sum_n x_a[n - m] y_b[n].

        ``segments`` are the segment spectra of the C channels x; y are the
        C' channels of ``signals``, as long as x.  The zero-padded blocks of y
        are transformed and conjugated; one product per bin sums them
        against the segments over blocks, and one inverse transform per
        channel pair gives the circular correlation c[d] = sum_n
        x_seg[n + d] y_blk[n], whose lag m sits at d = L - m.
        """
        B = self.length
        channels = _channels(signals)
        full, rest = divmod(len(channels[0]), B)
        padded = np.zeros((full + (rest > 0), self.fft_size))
        blocks = np.empty((self.fft_size // 2 + 1, len(padded), len(channels)),
                          dtype=complex)
        for c, samples in enumerate(channels):
            padded[:full, :B] = samples[:full * B].reshape(full, B)
            padded[full:, :rest] = samples[full * B:]
            blocks[:, :, c] = scipy.fft.rfft(padded, axis=-1).T
        cross = np.matmul(segments, np.conjugate(blocks, out=blocks))
        return scipy.fft.irfft(cross, self.fft_size, axis=0)[self.filter_len:0:-1]

    def filter_and_sum(self, segments: np.ndarray, taps: np.ndarray,
                       length: int) -> np.ndarray:
        """Channels of ``segments`` filtered through (J, I_ref, I_est, L) taps, summed.

        Tap spectra meet the segment spectra in one product per bin that
        sums over reference channels; one inverse transform per block and
        estimate channel then keeps the B valid samples.  Returns the first
        ``length`` samples, shaped (length, I_est).
        """
        taps = taps.reshape(-1, *taps.shape[2:])
        tap_spectra = scipy.fft.rfft(taps, n=self.fft_size, axis=-1).transpose(2, 1, 0)
        summed = np.matmul(np.ascontiguousarray(tap_spectra), segments)
        valid = scipy.fft.irfft(summed, self.fft_size, axis=0)[
            self.filter_len:self.filter_len + self.length
        ]
        return valid.transpose(2, 0, 1).reshape(-1, taps.shape[1])[:length]


def _channels(signals) -> list:
    """1-D views of the channels of one (N, I) array, or of a sequence of
    them (a list or a (J, N, I) array), reference-major."""
    if isinstance(signals, np.ndarray) and signals.ndim == 2:
        signals = [signals]
    return [signal[:, c] for signal in signals for c in range(signal.shape[1])]


class _Projector:
    """Reference segment spectra and factorized Gram matrices for one span.

    Each reference channel is held as the spectra of its overlap-save
    segments (see :class:`_Blocks`).  Their lags against the references'
    own block spectra, R[m] = ``_lags[m]``, are the Gram's blocks: with the
    unknowns lag-major, block (p, q) is R[p - q] (R[-m] = R[m]^T).  An
    estimate's cross-correlations are its lags, in the same layout, and
    projections filter the segments.  System 0 is the joint one over
    all references, system 1 + j reference j's alone (its channels).
    Each system's Gram is built from the lags and factorized in place by
    Cholesky when first solved, so only the factors are kept; a Gram the
    loading leaves indefinite raises LinAlgError.  When every reference is
    silent (``degenerate``), the joint Gram's diagonal and hence the
    loading are zero: nothing is factorized and every tap is zero.

    Reusing one instance across estimates guarantees that evaluating the
    same estimate twice, in any order, produces bitwise-equal filters.
    """

    def __init__(self, references: list, filter_len: int):
        num_refs = len(references)
        num_samples, channels = references[0].shape
        if filter_len < 1:
            raise ValueError(f"filter_len must be >= 1, got {filter_len}")
        if filter_len > num_samples:
            raise ValueError(
                f"filter_len {filter_len} exceeds signal length {num_samples}"
            )
        self.filter_len = filter_len
        self.num_refs = num_refs
        self.channels = channels
        self.blocks = _Blocks(num_samples, filter_len)
        self.segments = self.blocks.segment_spectra(references, num_samples)
        # The references' block spectra live only inside lags(), so they
        # are freed before any Gram is built.
        self._lags = np.ascontiguousarray(self.blocks.lags(self.segments, references))
        # Lag 0 holds each channel pair twice, equal only to rounding; keeping
        # the upper triangle, which Cholesky reads, makes every Gram symmetric.
        self._lags[0] = np.triu(self._lags[0]) + np.triu(self._lags[0], 1).T
        # Diagonal loading: 1e-12 of the mean of the joint Gram's diagonal.
        self._loading = 1e-12 * float(np.mean(np.diagonal(self._lags[0])))
        self.degenerate = self._loading == 0.0
        self._factors = {}
        if not self.degenerate:
            self._factor(0)

    def _channel_span(self, system: int) -> slice:
        if system == 0:
            return slice(0, self.num_refs * self.channels)
        return slice((system - 1) * self.channels, system * self.channels)

    def _gram(self, system: int) -> np.ndarray:
        """Loaded Gram matrix of ``system``, lag-major, in Fortran order for LAPACK.

        Unknown (p, a) is tap p of channel a, so block (p, q) is the C x C
        matrix R[p - q], with R[m] = ``_lags[m]`` and R[-m] = ``_lags[m].T``.
        """
        span = self._channel_span(system)
        lags = self._lags[:, span, span]
        L, C = lags.shape[:2]
        gram = np.empty((L * C, L * C), order="F")
        # R[-(L-1)], ..., R[L-1]; window p, reversed, holds R[p - q] at q.
        extended = np.concatenate((lags[:0:-1].transpose(0, 2, 1), lags))
        windows = sliding_window_view(extended, L, axis=0)[..., ::-1]  # (p, a, b, q)
        gram.reshape((C, L, C, L), order="F")[...] = windows.transpose(1, 0, 2, 3)
        diag = np.arange(L * C)
        gram[diag, diag] += self._loading
        return gram

    def _factor(self, system: int):
        """Cholesky factor of ``system``."""
        if system not in self._factors:
            # Finite by construction: AudioSignal rejects non-finite samples.
            self._factors[system] = cho_factor(
                self._gram(system), overwrite_a=True, check_finite=False
            )
        return self._factors[system]

    def _taps(self, D: np.ndarray, system: int) -> np.ndarray:
        """(J', I_ref, I_est, L) taps solving ``system`` for (L, C, I_est) right-hand
        sides D[m, b, c] = <reference channel b delayed by m, estimate channel c>."""
        rhs = D[:, self._channel_span(system)].reshape(-1, D.shape[2])
        if self.degenerate:
            flat = np.zeros_like(rhs)
        else:
            flat = cho_solve(self._factor(system), rhs, check_finite=False)
        taps = flat.reshape(self.filter_len, -1, self.channels, D.shape[2])
        return np.ascontiguousarray(taps.transpose(1, 2, 3, 0))

    def fit(self, estimate: np.ndarray, solo) -> tuple:
        """Joint taps to an estimate, and solo taps for each reference in ``solo``."""
        D = self.blocks.lags(self.segments, estimate)
        return self._taps(D, 0), [self._taps(D, 1 + j) for j in solo]


def _split(refs: list, est: np.ndarray, j: int, taps: np.ndarray,
           solo_taps: np.ndarray, blocks: _Blocks,
           segments: np.ndarray) -> Decomposition:
    """Four parts of ``est`` from its projections on reference j and on all.

    ``solo_taps`` are reference j's own, shaped (1, I_ref, I_est, L).
    """
    num_samples, channels = refs[j].shape
    proj_solo = blocks.filter_and_sum(
        segments[:, j * channels:(j + 1) * channels], solo_taps, num_samples
    )
    proj_all = blocks.filter_and_sum(segments, taps, num_samples)
    s_target = refs[j].copy()
    return Decomposition(
        s_target, proj_solo - s_target, proj_all - proj_solo, est - proj_all
    )


def _references(references) -> list:
    """Validate reference signals; their (N, I) sample arrays, uncopied."""
    if not references:
        raise ValueError("at least one reference is required")
    shape = references[0].samples.shape
    rate = references[0].sample_rate
    for ref in references:
        if ref.samples.shape != shape:
            raise ValueError(
                f"reference shapes differ: {ref.samples.shape} vs {shape}"
            )
        if ref.sample_rate != rate:
            raise ValueError("reference sample rates differ")
    return [ref.samples for ref in references]


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
    refs = _references(references)
    est = estimate.samples
    if est.shape != refs[0].shape:
        raise ValueError(
            f"estimate shape {est.shape} does not match references "
            f"{refs[0].shape}"
        )
    if mode == "global":
        return _filters(refs, est, filter_len)
    if mode != "windowed":
        raise ValueError(f"mode must be 'global' or 'windowed', got {mode!r}")
    if window is None:
        raise ValueError("windowed mode requires a window length")
    return [
        _filters([ref[start:stop] for ref in refs], est[start:stop],
                 min(filter_len, stop - start), "windowed", start)
        for start, stop in _windows(len(est), window, hop or window)
    ]


def _filters(refs: list, est: np.ndarray, filter_len: int,
             mode: str = "global", start: int = 0) -> ProjectionFilters:
    """Joint and all J solo filters from the references to an estimate."""
    projector = _Projector(refs, filter_len)
    taps, solo = projector.fit(est, range(len(refs)))
    return ProjectionFilters(
        taps, np.concatenate(solo), filter_len, mode=mode, window_start=start,
        window_len=len(est), degenerate=projector.degenerate,
    )


def project(references, taps: np.ndarray) -> np.ndarray:
    """Filter-and-sum references through (J, I_ref, I_est, L) taps.

    Returns the projection on the padded domain, length N + L - 1, where
    the least-squares optimality (residual orthogonal to every delayed
    reference) holds.
    """
    refs = references if isinstance(references, np.ndarray) else _references(references)
    num_refs = len(refs)
    num_samples, channels = refs[0].shape
    if taps.shape[0] != num_refs or taps.shape[1] != channels:
        raise ValueError(
            f"taps shape {taps.shape} does not match {num_refs} references "
            f"of shape {refs[0].shape}"
        )
    blocks = _Blocks(num_samples, taps.shape[3])
    length = num_samples + taps.shape[3] - 1
    return blocks.filter_and_sum(blocks.segment_spectra(refs, length), taps, length)


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
    refs = _references(references)
    est = estimate.samples
    num_refs, num_samples = len(refs), len(refs[0])
    if not 0 <= target_index < num_refs:
        raise IndexError(f"target index {target_index} out of range")
    if est.shape[0] != num_samples:
        raise ValueError("estimate and references differ in length")
    if filters.taps.shape[0] != num_refs:
        raise ValueError(
            f"filters cover {filters.taps.shape[0]} references, got {num_refs}"
        )
    blocks = _Blocks(num_samples, filters.filter_len)
    segments = blocks.segment_spectra(refs, num_samples)
    return _split(refs, est, target_index, filters.taps,
                  filters.solo_taps[target_index:target_index + 1], blocks, segments)


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
    refs = _references(references)
    num_refs, num_samples = len(refs), len(refs[0])
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
        span_refs = [ref[start:stop] for ref in refs]
        projector = _Projector(span_refs, span_filter_len)
        for scores, est, j in zip(results, est_arrays, targets):
            span_est = est[start:stop]
            taps, (solo,) = projector.fit(span_est, [j])
            d = _split(span_refs, span_est, j, taps, solo,
                       projector.blocks, projector.segments)
            scores.extend(
                _frame_scores(d, a - start, b - start, start) for a, b in frames
            )
            del d  # before the next estimate's parts are allocated
        del projector  # before the next span's Gram is allocated
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
    if s_energy == 0.0:
        # No target image: ISR and SIR would score only what the solo
        # projection leaks into the window (rounding residue or the tail of
        # earlier sound), which depends on the block edges.  Undefined.
        isr = sir = math.nan
    else:
        isr = _ratio_db(s_energy, float(np.sum(e_spat * e_spat)))
        sir = _ratio_db(float(np.sum((s + e_spat) ** 2)),
                        float(np.sum(e_interf * e_interf)))
    return FrameScores(
        sdr=_ratio_db(s_energy, float(np.sum((e_spat + e_interf + e_artif) ** 2))),
        isr=isr,
        sir=sir,
        sar=_ratio_db(float(np.sum((s + e_spat + e_interf) ** 2)),
                      float(np.sum(e_artif * e_artif))),
        window_start=offset + start,
        window_len=stop - start,
    )
