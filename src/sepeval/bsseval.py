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
valid samples of each block's inverse transform.

Each system is solved, after tiny diagonal loading, through a block-
Levinson factor built from its lags in O(L^2 C^3), rather than the
O(L^3 C^3) of a Cholesky factor of the dense Gram, which is never formed.
The factor keeps only the spectra of its final forward and backward
predictors, O(L C^2), and applies T^-1 in the Gohberg-Semencul form by
FFT, followed by fixed refinement steps.  It is refused when one of its
error blocks, scaled by R[0]'s diagonal, falls to ``_ERROR_FLOOR``
(checked as the recursion runs, so a near-singular system is refused
early), or when its solve of a fixed known-solution probe leaves a
relative residual of ``_PROBE_TOLERANCE`` or more; that system's dense
Gram is then factorized by Cholesky.  A reference silent over the span
gets zero taps and no unknowns, so where only the target is audible its
joint fit is its solo fit and the interference is exactly zero; when
every reference is silent, so is every tap.  ``bss_eval`` factorizes only
the single-reference systems of the references it scores against.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dposv

from .audio import AudioSignal, check_layout

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
DEFAULT_MODE = "v4_global"
# Overlap-save block length, unless the span is shorter.
_BLOCK_LEN = 8192
# Relative residual of the block-Levinson probe solve at or above which a
# system falls back to Cholesky (see _levinson).  Coloured-noise stems at
# 512 taps leave 2e-16 to 5e-16; the accepted systems of harmonic tones
# over a 16-bit noise floor, pure sines and lowpass noise up to 4e-12;
# near-singular systems that pass the error floor can leave 1e-11 and more.
_PROBE_TOLERANCE = 1e-11
# Smallest eigenvalue of a Levinson error block, scaled by R[0]'s diagonal,
# at or below which the factor is refused (see _levinson).  Coloured-noise
# stems at 512 taps stay above 5e-6; lowpass, constant, duplicate and
# mono-as-stereo references fall below it within 16 orders, and so do the
# joint systems of pure sines, whose probe residuals pass.  Checked every
# _FLOOR_STRIDE orders, so a near-singular system is refused before most
# of its recursion is paid.
_ERROR_FLOOR = 1e-8
_FLOOR_STRIDE = 16
# Refinement steps after the Gohberg-Semencul apply (see _levinson).  The
# apply alone leaves relative residuals up to 2e-7 on coloured-noise stems
# and 1.5e-6 on pure sines; each step multiplies the residual by about as
# much again, so one step still leaves up to 1.4e-11 on sine systems the
# floor accepts, and two leave rounding level (3.3e-14 at most over 300
# random draws).
_REFINEMENTS = 2
# bss_eval's modes, each with the compute_projection mode that fits the
# same way: one fit over the whole signal, or one per evaluation window.
MODES = {"v4_global": "global", "v3_windowed": "windowed"}


@dataclass
class ProjectionFilters:
    """Distortion filters from every reference channel to every estimate channel.

    ``taps`` solves the joint problem over all references (used for the
    interference bound); ``solo_taps[j]`` solves the restricted problem
    over reference j alone (used for the target/spatial split).  Both are
    shaped (J, I_ref, I_est, L).  A reference silent over the span has
    exactly zero taps in both.  ``degenerate`` marks a span over which
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
    """Reference segment spectra and factorized normal equations for one span.

    Each reference channel is held as the spectra of its overlap-save
    segments (see :class:`_Blocks`).  Their lags against the references'
    own block spectra, R[m] = ``_lags[m]``, are the Gram's blocks: with the
    unknowns lag-major, block (p, q) is R[p - q] (R[-m] = R[m]^T).  An
    estimate's cross-correlations are its lags, in the same layout, and
    projections filter the segments.  System 0 is the joint one over
    all references, system 1 + j reference j's alone (its channels).

    A reference that is silent over the span gets zero taps and no
    unknowns: system 0 covers the audible references only, so when only
    one is audible the joint system is that reference's solo system and
    their taps are bitwise equal.  When every reference is silent
    (``degenerate``) the loading is zero too, nothing is factorized and
    every tap is zero.  Each system is factorized once, when first solved,
    by :func:`_levinson` from its loaded lags (a factor that holds only the
    spectra of its final predictors and lags, 2.5 MB for 8 channels and
    512 taps), or by Cholesky of its dense Gram when that factor is
    refused; a Gram the loading leaves indefinite then raises LinAlgError.

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
        # are freed before any system is factorized.
        self._lags = np.ascontiguousarray(self.blocks.lags(self.segments, references))
        # Lag 0 holds each channel pair twice, equal only to rounding; keeping
        # the upper triangle makes every Gram exactly symmetric.
        self._lags[0] = np.triu(self._lags[0]) + np.triu(self._lags[0], 1).T
        energies = np.diagonal(self._lags[0])
        # Diagonal loading: 1e-12 of the mean of the joint Gram's diagonal.
        self._loading = 1e-12 * float(np.mean(energies))
        self._audible = tuple(
            j for j, energy in enumerate(energies.reshape(num_refs, channels))
            if np.any(energy)
        )
        self.degenerate = not self._audible
        self._solvers = {}

    def _system_refs(self, system: int) -> tuple:
        """The audible references whose channels are the unknowns of ``system``."""
        if system == 0:
            return self._audible
        return (system - 1,) if system - 1 in self._audible else ()

    def _channel_index(self, refs: tuple) -> np.ndarray:
        channels = np.arange(self.channels)
        return (np.asarray(refs)[:, None] * self.channels + channels).ravel()

    def _system_lags(self, refs: tuple) -> np.ndarray:
        """(L, C, C) lags among the channels of ``refs``, R[0] loaded."""
        index = self._channel_index(refs)
        lags = self._lags[:, index[:, None], index]
        lags[0].flat[::len(index) + 1] += self._loading
        return lags

    def _solver(self, refs: tuple):
        """T^-1 of the system over ``refs``, as a function of right-hand sides."""
        if refs not in self._solvers:
            lags = self._system_lags(refs)
            try:
                solver = _levinson(lags)
            except LinAlgError:
                solver = None
            if solver is None:
                # After the handler, so the refused factor is freed first.
                # Finite by construction: AudioSignal rejects non-finite samples.
                factor = cho_factor(_block_toeplitz(lags), overwrite_a=True,
                                    check_finite=False)
                solver = functools.partial(cho_solve, factor, check_finite=False)
            self._solvers[refs] = solver
        return self._solvers[refs]

    def _taps(self, D: np.ndarray, system: int) -> np.ndarray:
        """(J', I_ref, I_est, L) taps solving ``system`` for (L, C, I_est) right-hand
        sides D[m, b, c] = <reference channel b delayed by m, estimate channel c>."""
        refs = self._system_refs(system)
        taps = np.zeros((self.num_refs if system == 0 else 1, self.channels,
                         D.shape[2], self.filter_len))
        if refs:
            rhs = D[:, self._channel_index(refs)].reshape(-1, D.shape[2])
            flat = self._solver(refs)(rhs)
            taps[list(refs) if system == 0 else 0] = flat.reshape(
                self.filter_len, len(refs), self.channels, D.shape[2]
            ).transpose(1, 2, 3, 0)
        return taps

    def fit(self, estimate: np.ndarray, solo) -> tuple:
        """Joint taps to an estimate, and solo taps for each reference in ``solo``."""
        D = self.blocks.lags(self.segments, estimate)
        return self._taps(D, 0), [self._taps(D, 1 + j) for j in solo]


def _two_sided(lags: np.ndarray) -> np.ndarray:
    """R[-(L-1)], ..., R[L-1] from R[m] = ``lags[m]``, with R[-m] = R[m]^T."""
    return np.concatenate((lags[:0:-1].transpose(0, 2, 1), lags))


def _block_toeplitz(lags: np.ndarray) -> np.ndarray:
    """Dense (L C, L C) matrix, in Fortran order for LAPACK, whose block (p, q)
    is R[p - q], with R[m] = ``lags[m]`` and R[-m] = ``lags[m].T``."""
    L, C = lags.shape[:2]
    gram = np.empty((L * C, L * C), order="F")
    # Window p of the two-sided lags, reversed, holds R[p - q] at q: (p, a, b, q).
    windows = sliding_window_view(_two_sided(lags), L, axis=0)[..., ::-1]
    gram.reshape((C, L, C, L), order="F")[...] = windows.transpose(1, 0, 2, 3)
    return gram


def _toeplitz_product(spectrum: np.ndarray, x: np.ndarray, size: int) -> np.ndarray:
    """T x for the block-Toeplitz T whose lags R[-(L-1)], ..., R[L-1] have the
    rFFT ``spectrum`` at ``size`` >= 2L - 1, and (L C, K) ``x``: one FFT
    convolution, in which y[p] = sum_q R[p - q] x[q] sits at index p + L - 1,
    clear of the circular wrap."""
    C = spectrum.shape[1]
    L = len(x) // C
    product = np.matmul(spectrum, scipy.fft.rfft(x.reshape(L, C, -1), size, axis=0))
    return scipy.fft.irfft(product, size, axis=0)[L - 1:2 * L - 1].reshape(L * C, -1)


def _levinson(lags: np.ndarray):
    """T^-1 of the block-Toeplitz T of loaded (L, C, C) ``lags``, by block Levinson.

    The forward and backward block recursions (Wiggins & Robinson 1965)
    run together: at order k the forward predictor a_k (blocks a_k[0..k],
    a_k[0] = I) has T_k a_k = [E_f, 0, ..., 0] and the backward one b_k
    (b_k[k] = I) has T_k b_k = [0, ..., 0, E_b].  With nabla = Delta^T =
    sum_i R[i + 1]^T b_k[i] and the gains K_b = -E_f^-1 nabla and K_f =
    -E_b^-1 Delta, one product per order,

        [a_{k+1} | b_{k+1}] = [a_k; 0 | 0; b_k] [[I, K_b], [K_f, I]],

    updates both predictors; only the current pair is kept.  From the
    final pair T^-1 takes the Gohberg-Semencul form

        T^-1 = L(a) L(a E_f^-1)^T - L(Zb) L(Zb E_b^-1)^T,

    where L(v) is the lower block-triangular Toeplitz matrix whose first
    block column is v and Zb = [0; b[0..L-2]].  Applying it takes four FFTs
    of size >= 2L - 1 and two per-bin products: the right-hand sides are
    correlated with a E_f^-1 and Zb E_b^-1, then convolved with a and -Zb.
    The form is only forward accurate (its residual grows with T's
    condition number), so the solve follows the apply with
    ``_REFINEMENTS`` fixed refinement steps, x += apply(rhs - T x), T x by
    FFT from the lag spectrum (see :func:`_toeplitz_product`).

    Returns that solve, or raises LinAlgError when an error block E, scaled
    to S E S by S = diag(R[0])^-1/2, has an eigenvalue at or below
    ``_ERROR_FLOOR``, or when the solve of T v for a fixed v leaves a
    relative residual of ``_PROBE_TOLERANCE`` or more.  Levinson is only
    weakly stable: near-singular Toeplitz systems lose the accuracy
    Cholesky keeps.  S E_b[k] S is the Schur complement closing order
    k + 1 of the unit-diagonal scaling of T, so the floor refuses only
    systems whose scaled T has a condition number above 1 / ``_ERROR_FLOOR``
    (a silent channel, loaded and decoupled, is no such system).  The
    error blocks shrink as k grows, so the floor is checked every
    ``_FLOOR_STRIDE`` orders during the recursion and on the final blocks
    at its end; the gains' Cholesky solve refuses an error block that is
    not positive definite at any order.
    """
    L, C = lags.shape[:2]
    n = L * C
    floor = _ERROR_FLOOR * np.diag(np.tile(np.diagonal(lags[0]), 2))
    negated = -lags.reshape(n, C).T         # column block m is -R[m]^T
    # The pair [a_k; 0 | 0; b_k], transposed: its 2C columns are the rows
    # of a (2C, n + C) buffer, a_k's blocks from column block 0 and b_k's
    # from column block 1.  ``shifted`` views a buffer with its b rows one
    # block further on, so the product of the gains with one buffer writes
    # [a_{k+1}; 0 | 0; b_{k+1}] into the other, ready for the next order.
    buffers = np.zeros((2, 2, C * (n + C) + C))
    pairs = buffers.reshape(2, -1)[:, :2 * C * (n + C)].reshape(2, 2 * C, n + C)
    shifted = buffers[..., :C * (n + C)].reshape(2, 2, C, n + C)
    pairs[0, :C, :C] = pairs[0, C:, C:2 * C] = np.eye(C)
    errors = np.zeros((2 * C, 2 * C))       # diag(E_f, E_b)
    errors[:C, :C] = errors[C:, C:] = lags[0]
    corner = np.empty((2 * C, 2 * C))       # [[E_f, -nabla], [-Delta, E_b]]
    two = 2.0 * np.eye(2 * C)
    for k in range(L - 1):
        if k % _FLOOR_STRIDE == 0:
            np.linalg.cholesky(errors - floor)  # LinAlgError: below the floor
        rows = (k + 2) * C
        pair = pairs[k % 2]
        corner[...] = errors
        # nabla = sum_i R[i + 1]^T b_k[i]: row 0 of T_{k+1} times [0; b_k].
        np.matmul(negated[:, :rows], pair[C:, :rows].T, out=corner[:C, C:])
        corner[C:, :C] = corner[:C, C:].T
        _, gains, info = dposv(errors, corner)  # [[I, K_b], [K_f, I]]
        if info:
            raise LinAlgError("block Levinson error block is not positive definite")
        np.matmul(gains.T.reshape(2, C, 2 * C), pair[:, :rows],
                  out=shifted[1 - k % 2, :, :, :rows])
        # diag(E_f + nabla K_f, E_b + Delta K_b) = corner (2I - gains).
        np.matmul(corner, two - gains, out=errors)
    np.linalg.cholesky(errors - floor)
    pair = pairs[(L - 1) % 2, :, :n]        # [a | Zb], transposed
    size = scipy.fft.next_fast_len(2 * L - 1, real=True)
    spectrum = scipy.fft.rfft(_two_sided(lags), size, axis=0)
    # Per bin, convolve is the (C, 2C) spectrum of [a | -Zb] and correlate
    # the (2C, C) conjugate transpose of that of [a E_f^-1 | Zb E_b^-1],
    # which is [a | -Zb] diag(E_f^-1, -E_b^-1).
    pair[C:] *= -1.0
    convolve = scipy.fft.rfft(pair.T.reshape(L, C, 2 * C), size, axis=0)
    inverse = np.linalg.inv(errors)
    inverse[:, C:] *= -1.0
    correlate = (convolve.reshape(-1, 2 * C) @ inverse).reshape(convolve.shape)
    correlate = np.ascontiguousarray(correlate.conj().transpose(0, 2, 1))

    def apply(rhs: np.ndarray) -> np.ndarray:
        half = scipy.fft.irfft(
            correlate @ scipy.fft.rfft(rhs.reshape(L, C, -1), size, axis=0),
            size, axis=0)[:L]
        return scipy.fft.irfft(convolve @ scipy.fft.rfft(half, size, axis=0),
                               size, axis=0)[:L].reshape(n, -1)

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = apply(rhs)
        for _ in range(_REFINEMENTS):
            x += apply(rhs - _toeplitz_product(spectrum, x, size))
        return x

    probe = np.random.default_rng(0).standard_normal((n, 1))
    rhs = _toeplitz_product(spectrum, probe, size)
    residual = _toeplitz_product(spectrum, solve(rhs), size) - rhs
    if not np.linalg.norm(residual) < _PROBE_TOLERANCE * np.linalg.norm(rhs):
        raise LinAlgError("block Levinson solve failed its probe")
    return solve


def _split(refs: list, est: np.ndarray, j: int, taps: np.ndarray,
           solo_taps: np.ndarray, blocks: _Blocks,
           segments: np.ndarray) -> Decomposition:
    """Four parts of ``est`` from its projections on reference j and on all.

    ``solo_taps`` are reference j's own, shaped (1, I_ref, I_est, L).
    Interference is what the joint taps add to the solo projection: the
    projection through their difference, so it is exactly zero when the
    joint fit is the solo fit (every other reference silent).
    """
    num_samples, channels = refs[j].shape
    proj_solo = blocks.filter_and_sum(
        segments[:, j * channels:(j + 1) * channels], solo_taps, num_samples
    )
    added = taps.copy()
    added[j] -= solo_taps[0]
    e_interf = blocks.filter_and_sum(segments, added, num_samples)
    s_target = refs[j].copy()
    return Decomposition(
        s_target, proj_solo - s_target, e_interf, est - (proj_solo + e_interf)
    )


def _signals(references, estimates=None, targets=None) -> tuple:
    """Checked (N, I) sample arrays of ``references`` and ``estimates``,
    uncopied, and the reference index each estimate is scored against.

    The references are AudioSignals of one layout (length, channels and
    rate), or one (J, N, I) array; each estimate must have their layout,
    any rate against an array (see :func:`~sepeval.audio.check_layout`).
    ``targets`` default to estimate k against reference k; one outside the
    references raises IndexError.  Without ``estimates`` the last two are
    None.
    """
    if not len(references):
        raise ValueError("at least one reference is required")
    if isinstance(references, np.ndarray):
        if references.ndim != 3:
            raise ValueError(
                f"reference array must be (J, N, I), got {references.shape}"
            )
        layout = references.shape[1:] + (None,)
    else:
        layout = references[0].layout
        for j, ref in enumerate(references):
            check_layout(f"reference {j}", ref.layout, layout)
        references = [ref.samples for ref in references]
    if estimates is None:
        return references, None, None
    if not estimates:
        raise ValueError("at least one estimate is required")
    for k, est in enumerate(estimates):
        check_layout(f"estimate {k}", est.layout, layout)
    ests = [est.samples for est in estimates]
    if targets is None:
        if len(ests) > len(references):
            raise ValueError(
                f"{len(ests)} estimates for {len(references)} references; "
                "pass explicit targets"
            )
        targets = range(len(ests))
    elif len(targets) != len(ests):
        raise ValueError("one target index is required per estimate")
    for j in targets:
        if not 0 <= j < len(references):
            raise IndexError(f"target index {j} out of range")
    return references, ests, list(targets)


def _refits(mode: str, names) -> bool:
    """Whether ``mode``, which must be one of ``names``, fits once per window."""
    if mode not in names:
        raise ValueError(
            f"mode must be {' or '.join(map(repr, names))}, got {mode!r}"
        )
    return MODES.get(mode, mode) == "windowed"


def _plan(num_samples: int, filter_len: int, refit: bool, window: int,
          hop: int | None) -> list:
    """Each fit as (start, stop, span filter length, scored windows): one fit
    over the whole signal scoring every window, or with ``refit`` one per
    window, its filters no longer than the window."""
    spans = _windows(num_samples, window, hop)
    if not refit:
        return [(0, num_samples, filter_len, spans)]
    return [
        (start, stop, min(filter_len, stop - start), [(start, stop)])
        for start, stop in spans
    ]


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
    refs, (est,), _ = _signals(references, [estimate])
    refit = _refits(mode, MODES.values())
    if not refit:
        window, hop = len(est), None
    elif window is None:
        raise ValueError("windowed mode requires a window length")
    filters = []
    for start, stop, span_filter_len, _ in _plan(len(est), filter_len, refit,
                                                 window, hop):
        projector = _Projector([ref[start:stop] for ref in refs], span_filter_len)
        taps, solo = projector.fit(est[start:stop], range(len(refs)))
        filters.append(ProjectionFilters(
            taps, np.concatenate(solo), span_filter_len, mode=mode,
            window_start=start, window_len=stop - start,
            degenerate=projector.degenerate,
        ))
    return filters if refit else filters[0]


def project(references, taps: np.ndarray) -> np.ndarray:
    """Filter-and-sum references through (J, I_ref, I_est, L) taps.

    Returns the projection on the padded domain, length N + L - 1, where
    the least-squares optimality (residual orthogonal to every delayed
    reference) holds.
    """
    refs = _signals(references)[0]
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
    refs, (est,), (j,) = _signals(references, [estimate], [target_index])
    if filters.taps.shape[0] != len(refs):
        raise ValueError(
            f"filters cover {filters.taps.shape[0]} references, got {len(refs)}"
        )
    blocks = _Blocks(len(est), filters.filter_len)
    segments = blocks.segment_spectra(refs, len(est))
    return _split(refs, est, j, filters.taps, filters.solo_taps[j:j + 1],
                  blocks, segments)


def _ratio_db(num: float, den: float) -> float:
    if den > 0.0:
        return 10.0 * math.log10(num / den) if num > 0.0 else -math.inf
    return math.inf if num > 0.0 else math.nan


def _windows(num_samples: int, window: int, hop: int | None):
    """[start, stop) of each window of ``window`` samples, advanced by ``hop``
    (None: the window), until the signal ends."""
    hop = window if hop is None else hop
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
    mode: str = DEFAULT_MODE,
    targets=None,
) -> list:
    """Score each estimate against its target reference, framewise.

    Pairing is positional by default (estimate k scored against reference
    k); pass ``targets`` to name the reference index for each estimate.
    Returns one list of :class:`FrameScores` per estimate.
    """
    refs, ests, targets = _signals(references, estimates, targets)
    plan = _plan(len(refs[0]), filter_len, _refits(mode, MODES), window, hop)
    results = [[] for _ in ests]
    for start, stop, span_filter_len, frames in plan:
        span_refs = [ref[start:stop] for ref in refs]
        projector = _Projector(span_refs, span_filter_len)
        for scores, est, j in zip(results, ests, targets):
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
