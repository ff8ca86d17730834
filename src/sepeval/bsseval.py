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
or the whole span when it is shorter).  A reference channel's segment,
block k plus the L samples before it, is transformed at a size M >= B + L;
no transform spans the whole signal, and no spectrum of a whole span is
held.  A span is streamed in chunks of blocks, as many as hold the segment
spectra of every reference channel in ``_CHUNK_CELLS`` complex cells, in
two passes.  The fit pass forms each chunk's segment spectra once and
adds their products with the zero-padded block spectra of every
reference and estimate channel, one channel at a time, to that channel's
cross spectra; one inverse transform per channel pair then gives lags
0..L-1, lag-major as (L, C, C'): against the references themselves the
Gram matrix's blocks, against an estimate its cross-correlations.  The
normal equations keep that layout: unknown (p, a) is tap p of channel a,
so the Gram is block-Toeplitz with block (p, q) = R[p - q], where R[m] is
the lag-m matrix and R[-m] = R[m]^T.  The split pass forms each chunk's
segment spectra again (a span of one chunk keeps them from the fit) and,
for every estimate, multiplies tap spectra into them, sums over reference
channels and keeps the B valid samples of each block's inverse transform;
``bss_eval`` scores each window as soon as its samples are there, so
beyond one chunk it holds about one window of samples per estimate and no
part at full length.  Samples may be float32, as decoded; every transform
runs on float64 copies.

Every loop over a span reads it a range at a time from its sources
(:func:`_sources`): the block framing, ``audio._frames`` as for the STFT
of the oracles, reads each chunk's samples once per source, and the
split and the check that a group is audible read one window or block, a
group's references through their
:class:`~sepeval.audio.SourceSum`.  A source is an (N, I)
array or anything sliced like one, such as a
:class:`~sepeval.audio.WavReader`, which decodes only the frames asked
for.  So ``bss_eval`` and ``compute_projection`` over WAV readers hold
no whole reference or estimate: one rule (:func:`_span`) makes a v4 span
the sources themselves, and reads a shorter span (a v3 window) once.

Each system is solved, after tiny diagonal loading, through a block-
Levinson factor built from its lags in O(L^2 C^3), rather than the
O(L^3 C^3) of a Cholesky factor of the dense Gram, which is never formed.
The factor keeps only the spectra of its final forward and backward
predictors, O(L C^2), and applies T^-1 in the Gohberg-Semencul form by
FFT, followed by fixed refinement steps.  One recursion factors a stack
of systems of one size, each on its own slice, so a system's solve does
not depend on the stack it is in.  A system is refused when one of its
error blocks, scaled by R[0]'s diagonal, falls to ``_ERROR_FLOOR``
(checked as the recursion runs, so a near-singular system is refused
early), or when its solve of a fixed known-solution probe leaves a
relative residual of ``_PROBE_TOLERANCE`` or more; its dense Gram is
then factorized by Cholesky.  A refusal during the recursion stops it,
and the systems left run it again from the start.  A reference silent
over the span gets zero taps and no unknowns, so where only the target
is audible its joint fit is its solo fit and the interference is exactly
zero; when every reference is silent, so is every tap.

A target of ``bss_eval`` is a reference, or a group of references scored
against their sum with each other reference one interferer (MUSDB18's
accompaniment).  One projector per fit serves every target: a group's
lags, right-hand sides and projections are linear images of its
members', and the solo systems of all targets are factorized in one
stack, ahead of the joint systems, one per set of references scored
against.
"""

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dposv, dpotrf

from .audio import AudioSignal, SourceSum, _frames, _layouts, _samples, check_layout

__all__ = [
    "ProjectionFilters",
    "Decomposition",
    "FrameScores",
    "compute_projection",
    "project",
    "decompose",
    "metrics_from_decomposition",
    "bss_eval",
    "check_scoring",
]

DEFAULT_FILTER_LEN = 512
DEFAULT_WINDOW = 44100
DEFAULT_MODE = "v4_global"
# Overlap-save block length, unless the span is shorter.
_BLOCK_LEN = 8192
# Complex cells of reference segment spectra, (blocks, C, F), held at once:
# spans are streamed in chunks of as many blocks as fit (see _Blocks).  Four
# stereo references at 512 taps take 6 blocks (3.4 MB), which hold a 1 s
# window at 44.1 kHz, so a v3 fit transforms its references once.
_CHUNK_CELLS = 240_000
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
# The scoring modes: one fit over the whole signal, or one per window.
MODES = ("v4_global", "v3_windowed")


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
    mode: str = DEFAULT_MODE
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
    linear correlation or convolution over that block.  Blocks are
    transformed a chunk at a time (:meth:`chunks`), so no spectrum of a
    whole span is held.  B follows from the span length alone, and the
    chunks from it, L and the reference channel count, so every caller on
    a span gets the same blocks and chunks and hence bitwise-equal results.
    """

    def __init__(self, num_samples: int, filter_len: int):
        self.length = min(num_samples, _BLOCK_LEN)
        self.filter_len = filter_len
        self.fft_size = scipy.fft.next_fast_len(self.length + filter_len, real=True)

    def chunks(self, length: int, channels: int) -> list:
        """[first, stop) block ranges of the chunks of ``length`` samples: as
        many blocks as hold the segment spectra of ``channels`` channels in
        ``_CHUNK_CELLS`` complex cells, and at least one."""
        size = max(1, _CHUNK_CELLS // ((self.fft_size // 2 + 1) * channels))
        num_blocks = -(-length // self.length)
        return [(k, min(k + size, num_blocks)) for k in range(0, num_blocks, size)]

    def _spectra(self, sources: list, first: int, stop: int, history: int):
        """Per channel of the (N, I) ``sources`` (see :func:`_sources`), in
        order, the (K, F) rFFTs at M of its blocks first, ..., stop - 1,
        each with the ``history`` samples before it: samples [kB - history,
        (k+1)B) of the channel, zero outside it.  Each source is framed by
        :func:`~sepeval.audio._frames`, which reads its samples [first B -
        history, stop B) once, and each channel's frames are copied into
        the first B + history columns of one zero-padded (K, M) buffer,
        whose transform is the channel's."""
        B, width = self.length, self.length + history
        frames = np.zeros((stop - first, self.fft_size))
        for source in sources:
            for framed in _frames(source, first * B - history, stop - first, width, B):
                frames[:, :width] = framed
                yield scipy.fft.rfft(frames, axis=-1)

    def segment_spectra(self, sources: list, first: int, stop: int) -> np.ndarray:
        """(K, C, F) rFFTs of the segments of blocks first, ..., stop - 1 of
        the C channels of ``sources``, zero beyond their end."""
        spectra = np.empty((stop - first, _width(sources), self.fft_size // 2 + 1),
                           dtype=complex)
        for c, spectrum in enumerate(self._spectra(sources, first, stop,
                                                   self.filter_len)):
            spectra[:, c] = spectrum
        return spectra

    def lags(self, references, signals) -> tuple:
        """Per item of ``signals`` (each a source or sources, see
        :func:`_sources`), its (L, C, C') correlations r[m, a, b] = sum_n
        x_a[n - m] y_b[n] with the C channels x of ``references``, all as
        long as x; and the segment spectra of x when the span is one chunk,
        else None.

        Chunk by chunk, the segment spectra of x are formed once.  One
        channel of y at a time, the chunk's zero-padded blocks are
        transformed and conjugated, and their products with the segments
        are added, block by block and bin by bin, to the channel's cross
        spectra; so column b depends on channel b alone.  After the last
        chunk, one inverse transform per channel pair gives the circular
        correlation c[d] = sum_n x_seg[n + d] y_blk[n], whose lag m sits at
        d = L - m.  Cross spectra are held from the first chunk to the
        last, so a span of one chunk holds one item's at a time.
        """
        x = _sources(references)
        ys = [_sources(signal) for signal in signals]
        bins = self.fft_size // 2 + 1
        term = np.empty((_width(x), bins), dtype=complex)
        chunks = self.chunks(len(x[0]), _width(x))
        cross, lags = [None] * len(ys), [None] * len(ys)
        for first, stop in chunks:
            segments = None  # the last chunk's, freed before the next's are formed
            segments = self.segment_spectra(x, first, stop)
            for i, y in enumerate(ys):
                if not first:
                    cross[i] = np.zeros((_width(x), _width(y), bins), dtype=complex)
                for b, spectrum in enumerate(self._spectra(y, first, stop, 0)):
                    total = cross[i][:, b]
                    for segment, block in zip(segments, np.conjugate(spectrum, out=spectrum)):
                        total += np.multiply(segment, block, out=term)
                if stop == chunks[-1][1]:
                    lags[i] = np.ascontiguousarray(scipy.fft.irfft(cross[i], self.fft_size)[
                        ..., self.filter_len:0:-1].transpose(2, 0, 1))
                    cross[i] = None
        return lags, segments if len(chunks) == 1 else None

    def tap_spectra(self, taps: np.ndarray) -> np.ndarray:
        """(I_est, J I_ref, F) rFFTs at M of (J, I_ref, I_est, L) taps, laid
        out for :meth:`filtered`."""
        taps = taps.reshape(-1, *taps.shape[2:])
        spectra = scipy.fft.rfft(taps, n=self.fft_size, axis=-1).transpose(1, 0, 2)
        return np.ascontiguousarray(spectra)

    def filtered(self, segments: np.ndarray, tap_spectra: np.ndarray,
                 out: np.ndarray) -> None:
        """Write to (K B, I_est) ``out`` the B valid samples of each block of
        the channels of (K, C, F) ``segments`` filtered through
        :meth:`tap_spectra` and summed: per reference channel one product,
        bin by bin, added in channel order, then one inverse transform per
        block and estimate channel, so a block's samples do not depend on
        the others."""
        product = np.multiply(segments[None, :, 0], tap_spectra[:, 0, None])
        term = np.empty_like(product)
        for c in range(1, segments.shape[1]):
            product += np.multiply(segments[None, :, c], tap_spectra[:, c, None], out=term)
        del term
        valid = scipy.fft.irfft(product, self.fft_size)[
            ..., self.filter_len:self.filter_len + self.length]
        blocks = out.reshape(len(segments), self.length, -1)
        for c, samples in enumerate(valid):
            blocks[..., c] = samples


def _sources(signals) -> list:
    """The (N, I) sources of one source, or of a sequence of them (a list
    or a (J, N, I) array), reference-major.

    A source is read a range of samples at a time, ``source[a:b]`` as an
    (b - a, I) array, and has a ``shape`` and a ``len``: an array, or
    anything that reads like one, such as a
    :class:`~sepeval.audio.WavReader` or a
    :class:`~sepeval.audio.SourceSum`."""
    return [signals] if len(getattr(signals, "shape", ())) == 2 else list(signals)


def _width(sources: list) -> int:
    """The channels of ``sources`` in all."""
    return sum(source.shape[1] for source in sources)


def _members(target) -> tuple:
    """The reference indices of a target: a group's own, or the one index."""
    return target if isinstance(target, tuple) else (target,)


class _Projector:
    """Lags and factorized normal equations of one span's references and estimates.

    One pass over the span's chunks (:meth:`_Blocks.lags`) correlates the
    references' overlap-save segments with the references' own blocks and
    with every estimate's.  The former, R[m] = ``_lags[m]``, are the Gram's
    blocks: with the unknowns lag-major, block (p, q) is R[p - q] (R[-m] =
    R[m]^T).  The latter are the estimates' cross-correlations D, in the
    same layout.  ``segments`` keeps the segment spectra of a span of one
    chunk, for the split (:func:`_parts`) to reuse.

    A target is scored against a frame of references (:meth:`_frame`):
    every reference, or for a group target the references outside the
    group and then the group's sum.  A system is keyed by its frame and
    the audible references whose channels are its unknowns: the joint
    system of a frame covers all of them, a target's solo system its own.
    A group's quantities are linear images of its members': with M the
    matrix that sums the members' channels (:meth:`_mixing`), its lags are
    M^T R[m] M and its right-hand sides M^T D, and its taps filter each
    member's segments.  Each frame's systems are loaded by 1e-12 of the
    mean lag-0 energy over its channels.

    A reference that is silent over the span gets zero taps and no
    unknowns; a group is silent exactly when its summed samples are all
    zero.  So when only one reference of a frame is audible its joint
    system is that reference's solo system, factorized once, and their
    taps are bitwise equal.  When every reference is silent
    (``degenerate``) the loading is zero too, nothing is factorized and
    every tap is zero.  Each system is factorized once, by :func:`_levinson`
    from its loaded lags (a factor that holds only the spectra of its final
    predictors and lags, 2.5 MB for 8 channels and 512 taps), in a stack
    with the other systems :meth:`_factor` is given, or by Cholesky of its
    dense Gram when that factor is refused; a Gram the loading leaves
    indefinite then raises LinAlgError.

    Each estimate channel's lags depend on that channel alone, so an
    estimate's filters are bitwise the same with or without the others, in
    any order, and fitting it twice gives them again.
    """

    def __init__(self, references: list, filter_len: int, estimates=()):
        num_refs = len(references)
        num_samples, channels = references[0].shape
        if filter_len > num_samples:
            raise ValueError(
                f"filter_len {filter_len} exceeds signal length {num_samples}"
            )
        self.filter_len = filter_len
        self.num_refs = num_refs
        self.channels = channels
        self.references = references
        self.blocks = _Blocks(num_samples, filter_len)
        # One pass over the chunks gives the Gram's lags and every estimate's.
        (self._lags, *self._rhs), self.segments = self.blocks.lags(
            references, [references, *estimates])
        # Lag 0 holds each channel pair twice, equal only to rounding; keeping
        # the upper triangle makes every Gram exactly symmetric.
        self._lags[0] = np.triu(self._lags[0]) + np.triu(self._lags[0], 1).T
        energies = np.diagonal(self._lags[0]).reshape(num_refs, channels)
        self._audible = {j for j, energy in enumerate(energies) if np.any(energy)}
        self.degenerate = not self._audible
        self._groups = {}   # group -> audible
        self._solvers = {}

    def _frame(self, target) -> tuple:
        """The references ``target`` is scored against: all, or for a group
        those outside it, then the group."""
        if isinstance(target, tuple):
            return tuple(j for j in range(self.num_refs) if j not in target) + (target,)
        return tuple(range(self.num_refs))

    def _is_audible(self, ref) -> bool:
        """Whether reference or group ``ref`` has a nonzero sample in the span."""
        if not isinstance(ref, tuple):
            return ref in self._audible
        if ref not in self._groups:
            total = SourceSum(self.references[j] for j in ref)
            step = self.blocks.length
            self._groups[ref] = any(
                np.any(total[a:a + step]) for a in range(0, len(total), step)
            )
        return self._groups[ref]

    def _system(self, frame: tuple, refs: tuple):
        """Key of the system over the audible ones of ``refs`` in ``frame``,
        or None when none is audible."""
        refs = tuple(ref for ref in refs if self._is_audible(ref))
        return (frame, refs) if refs else None

    def _joint(self, target):
        frame = self._frame(target)
        return self._system(frame, frame)

    def _solo(self, target):
        return self._system(self._frame(target), (target,))

    def _mixing(self, refs: tuple) -> np.ndarray:
        """(J C, R C) matrix from the reference channels to those of the R
        ``refs``: column block r sums the channels of ref r's members."""
        mixing = np.zeros((self.num_refs, self.channels, len(refs), self.channels))
        for r, ref in enumerate(refs):
            mixing[list(_members(ref)), :, r] = np.eye(self.channels)
        return mixing.reshape(self.num_refs * self.channels, -1)

    def _loading(self, frame: tuple) -> float:
        """Diagonal loading of the systems of ``frame``: 1e-12 of the mean
        lag-0 energy over its channels."""
        mixing = self._mixing(frame)
        return 1e-12 * float(np.mean(np.diagonal(mixing.T @ self._lags[0] @ mixing)))

    def _system_lags(self, key: tuple) -> np.ndarray:
        """(L, C, C) lags among the channels of system ``key``, R[0] loaded."""
        frame, refs = key
        mixing = self._mixing(refs)
        lags = mixing.T @ self._lags @ mixing
        lags[0] = np.triu(lags[0]) + np.triu(lags[0], 1).T
        lags[0].flat[::len(lags[0]) + 1] += self._loading(frame)
        return lags

    def _factor(self, keys) -> None:
        """Factorize those of ``keys`` (None: no system) not yet factorized,
        which must have one channel count: by block Levinson in one stack,
        and by Cholesky each system it refuses."""
        keys = [key for key in dict.fromkeys(keys)
                if key is not None and key not in self._solvers]
        if not keys:
            return
        stack = np.stack([self._system_lags(key) for key in keys])
        for key, lags, solver in zip(keys, stack, _levinson(stack)):
            if solver is None:
                # Finite: AudioSignal and WavReader reject non-finite samples.
                factor = cho_factor(_block_toeplitz(lags), overwrite_a=True,
                                    check_finite=False)
                solver = functools.partial(cho_solve, factor, check_finite=False)
            self._solvers[key] = solver

    def _taps(self, D: np.ndarray, key) -> np.ndarray:
        """(R, I_ref, I_est, L) taps of the R references of system ``key``
        (None: one reference, all zero) for (L, J I_ref, I_est) right-hand
        sides D[m, b, c] = <reference channel b delayed by m, estimate channel c>."""
        if key is None:
            return np.zeros((1, self.channels, D.shape[2], self.filter_len))
        self._factor([key])
        refs = key[1]
        rhs = (self._mixing(refs).T @ D).reshape(-1, D.shape[2])
        return self._solvers[key](rhs).reshape(
            self.filter_len, len(refs), self.channels, D.shape[2]
        ).transpose(1, 2, 3, 0)

    def fit(self, index: int, solo) -> tuple:
        """Joint taps to estimate ``index``, (J, I_ref, I_est, L), and the solo
        taps of each target in ``solo``, (1, I_ref, I_est, L).

        The targets of ``solo`` share one frame, over which the joint taps
        are fitted; a group's taps sit on each of its members.  Their solo
        systems are factorized in one stack.
        """
        self._factor([self._solo(target) for target in solo])
        D = self._rhs[index]
        taps = np.zeros((self.num_refs, self.channels, D.shape[2], self.filter_len))
        joint = self._joint(next(iter(solo), 0))
        if joint is not None:
            for ref, ref_taps in zip(joint[1], self._taps(D, joint)):
                taps[list(_members(ref))] = ref_taps
        return taps, [self._taps(D, self._solo(target)) for target in solo]


def _two_sided(lags: np.ndarray) -> np.ndarray:
    """R[-(L-1)], ..., R[L-1] from R[m] = ``lags[..., m, :, :]``, with R[-m] = R[m]^T."""
    return np.concatenate((np.swapaxes(lags[..., :0:-1, :, :], -1, -2), lags), axis=-3)


def _block_toeplitz(lags: np.ndarray) -> np.ndarray:
    """Dense (L C, L C) matrix, in Fortran order for LAPACK, whose block (p, q)
    is R[p - q], with R[m] = ``lags[m]`` and R[-m] = ``lags[m].T``."""
    L, C = lags.shape[:2]
    gram = np.empty((L * C, L * C), order="F")
    # Window p of the two-sided lags, reversed, holds R[p - q] at q: (p, a, b, q).
    windows = sliding_window_view(_two_sided(lags), L, axis=0)[..., ::-1]
    gram.reshape((C, L, C, L), order="F")[...] = windows.transpose(1, 0, 2, 3)
    return gram


def _toeplitz_product(spectrum: np.ndarray, x: np.ndarray, size: int,
                      first: int) -> np.ndarray:
    """Blocks first, ..., first + L - 1 of the FFT convolution of a block
    sequence with the L blocks x[q] of (..., L C, K) ``x``, as (..., L C', K).

    ``spectrum`` is the sequence's (..., F, C', C) rFFT at ``size`` >= 2L - 1,
    so no block taken wraps; leading axes are systems, each its own.  For
    the two-sided lags R[-(L-1)], ..., R[L-1] of a block-Toeplitz T and
    ``first`` = L - 1 this is T x, y[p] = sum_q R[p - q] x[q]; for L causal
    blocks v and ``first`` = 0 it is L(v) x, and for the conjugate transpose
    of their spectrum L(v)^T x.  The K columns sit on the batch axis of one
    matrix-vector product per bin and column, so each depends on its own
    right-hand side alone.
    """
    C, K = spectrum.shape[-1], x.shape[-1]
    blocks = x.reshape(x.shape[:-2] + (-1, C, K))
    X = scipy.fft.rfft(np.swapaxes(blocks, -1, -2), size, axis=-3)  # (..., F, K, C)
    product = np.matmul(spectrum[..., None, :, :], X[..., None])[..., 0]
    y = scipy.fft.irfft(np.swapaxes(product, -1, -2), size, axis=-3)
    return y[..., first:first + blocks.shape[-3], :, :].reshape(x.shape[:-2] + (-1, K))


def _gohberg_semencul(spectrum: np.ndarray, correlate: np.ndarray,
                      convolve: np.ndarray, size: int):
    """T^-1 applied by the Gohberg-Semencul form and refined (see
    :func:`_levinson`), as a function of (..., L C, K) right-hand sides;
    leading axes of the spectra are systems."""

    def apply(rhs: np.ndarray) -> np.ndarray:
        half = _toeplitz_product(correlate, rhs, size, 0)
        return _toeplitz_product(convolve, half, size, 0)

    def solve(rhs: np.ndarray) -> np.ndarray:
        last = rhs.shape[-2] // spectrum.shape[-1] - 1
        x = apply(rhs)
        for _ in range(_REFINEMENTS):
            x += apply(rhs - _toeplitz_product(spectrum, x, size, last))
        return x

    return solve


def _below_floor(errors: np.ndarray, floor: np.ndarray) -> list:
    """The systems whose error blocks minus ``floor`` are not positive
    definite: those whose LAPACK Cholesky (``dpotrf``, lower triangle)
    returns a nonzero info."""
    return [s for s, matrix in enumerate(errors - floor) if dpotrf(matrix, lower=1)[1]]


def _predictors(lags: np.ndarray) -> tuple:
    """The block recursion of :func:`_levinson` over the fixed stack of S
    systems of loaded (S, L, C, C) ``lags``: (refused, predictors).

    ``refused`` lists the systems refused at the first check that refuses
    any, and predictors is then None.  The checks are the floor, every
    ``_FLOOR_STRIDE`` orders and on the final blocks (:func:`_below_floor`:
    a nonzero ``dpotrf`` info for diag(E_f, E_b) less ``_ERROR_FLOOR``
    times each channel's lag-0 energy on its diagonal), and every gains
    solve (a nonzero ``dposv`` info).  Otherwise ``refused`` is empty and
    predictors is the final [a | Zb], transposed as (S, 2C, L C), and
    diag(E_f, E_b), (S, 2C, 2C).
    """
    S, L, C = lags.shape[:3]
    n = L * C
    floor = np.zeros((S, 2 * C, 2 * C))
    floor.reshape(S, -1)[:, ::2 * C + 1] = _ERROR_FLOOR * np.tile(
        np.diagonal(lags[:, 0], axis1=1, axis2=2), 2)
    # Column block m is -R[m]^T.  C-contiguous, so a system's products take
    # one BLAS path in any stack.
    negated = np.ascontiguousarray(-np.swapaxes(lags.reshape(-1, n, C), 1, 2))
    # The pair [a_k; 0 | 0; b_k], transposed: its 2C columns are the rows
    # of a (2C, n + C) buffer, a_k's blocks from column block 0 and b_k's
    # from column block 1.  ``shifted`` views a buffer with its b rows one
    # block further on, so the product of the gains with one buffer writes
    # [a_{k+1}; 0 | 0; b_{k+1}] into the other, ready for the next order.
    buffers = np.zeros((S, 2, 2, C * (n + C) + C))
    pairs = buffers.reshape(S, 2, -1)[..., :2 * C * (n + C)].reshape(S, 2, 2 * C, n + C)
    shifted = buffers[..., :C * (n + C)].reshape(S, 2, 2, C, n + C)
    # Per parity of k, what order k reads and writes: the pair, its b rows
    # transposed and the shifted buffer.
    parities = [(pairs[:, p, None], pairs[:, p, C:].transpose(0, 2, 1), shifted[:, 1 - p])
                for p in (0, 1)]
    pairs[:, 0, :C, :C] = pairs[:, 0, C:, C:2 * C] = np.eye(C)
    errors = np.zeros((S, 2 * C, 2 * C))    # diag(E_f, E_b)
    errors[:, :C, :C] = errors[:, C:, C:] = lags[:, 0]
    corner = np.empty_like(errors)          # [[E_f, -nabla], [-Delta, E_b]]
    gains = np.empty_like(errors)           # [[I, K_b], [K_f, I]], transposed
    systems = list(zip(errors, corner, gains))  # what each dposv reads and writes
    two = 2.0 * np.eye(2 * C)
    for k in range(L - 1):
        if k % _FLOOR_STRIDE == 0 and (refused := _below_floor(errors, floor)):
            return refused, None
        rows = (k + 2) * C
        pair, b_rows, out = parities[k % 2]
        corner[...] = errors
        # nabla = sum_i R[i + 1]^T b_k[i]: row 0 of T_{k+1} times [0; b_k].
        np.matmul(negated[..., :rows], b_rows[:, :rows], out=corner[:, :C, C:])
        corner[:, C:, :C] = corner[:, :C, C:].transpose(0, 2, 1)
        refused = []
        for s, (error, rhs, gain) in enumerate(systems):
            _, solution, info = dposv(error, rhs)
            gain[...] = solution.T
            if info:                          # E is not positive definite
                refused.append(s)
        if refused:
            return refused, None
        np.matmul(gains.reshape(S, 2, C, 2 * C), pair[..., :rows], out=out[..., :rows])
        # diag(E_f + nabla K_f, E_b + Delta K_b) = corner (2I - gains).
        np.matmul(corner, two - gains.transpose(0, 2, 1), out=errors)
    refused = _below_floor(errors, floor)
    return refused, None if refused else (pairs[:, (L - 1) % 2, :, :n], errors)


def _levinson(lags: np.ndarray) -> list:
    """T^-1 of the block-Toeplitz T of each system of loaded (S, L, C, C)
    ``lags``, by block Levinson over the stack of S systems.

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

    Every order's products, copies and floor checks run over the stack,
    and the gains are one LAPACK ``dposv`` per system; each step reads and
    writes its own system's slice only, so a system's solve is bitwise the
    same alone or in any stack.  Returns one solve per system, or None for
    a system that is refused: when an error block E, scaled to S E S by
    S = diag(R[0])^-1/2, has an eigenvalue at or below ``_ERROR_FLOOR``
    (tested as LAPACK's Cholesky of E - ``_ERROR_FLOOR`` diag(R[0])
    failing, a nonzero ``dpotrf`` info: see :func:`_below_floor`),
    when its gains' Cholesky solve finds an error block that is not
    positive definite, or when its solve of T v for a fixed v leaves a
    relative residual of ``_PROBE_TOLERANCE`` or more.  The recursion
    (:func:`_predictors`) stops at the first check that refuses a system,
    and the others run it again from order 0 in a stack without the
    refused ones: a refusal at order k repeats k orders for them, and
    leaves their solves as they are alone.  Levinson is only weakly
    stable: near-singular Toeplitz systems lose the accuracy Cholesky
    keeps.  S E_b[k] S is the Schur complement closing order k + 1 of the
    unit-diagonal scaling of T, so the floor refuses only systems whose
    scaled T has a condition number above 1 / ``_ERROR_FLOOR`` (a silent
    channel, loaded and decoupled, is no such system).  The error blocks
    shrink as k grows, so the floor is checked every ``_FLOOR_STRIDE``
    orders during the recursion and on the final blocks at its end.
    """
    solves = [None] * len(lags)
    live = np.arange(len(lags))             # the systems not yet refused
    while len(live):
        refused, predictors = _predictors(lags[live])
        live = np.delete(live, refused)
        if not refused:
            break
    else:
        return solves
    lags = lags[live]
    pair, errors = predictors               # [a | Zb], transposed
    L, C = lags.shape[1:3]
    n = L * C
    size = scipy.fft.next_fast_len(2 * L - 1, real=True)
    spectrum = scipy.fft.rfft(_two_sided(lags), size, axis=1)
    # Per bin, convolve is the (C, 2C) spectrum of [a | -Zb] and correlate
    # the (2C, C) conjugate transpose of that of [a E_f^-1 | Zb E_b^-1],
    # which is [a | -Zb] diag(E_f^-1, -E_b^-1).
    pair[:, C:] *= -1.0
    convolve = scipy.fft.rfft(
        np.swapaxes(pair, 1, 2).reshape(len(live), L, C, 2 * C), size, axis=1)
    inverse = np.linalg.inv(errors)
    inverse[:, :, C:] *= -1.0
    correlate = (convolve.reshape(len(live), -1, 2 * C) @ inverse).reshape(convolve.shape)
    correlate = np.ascontiguousarray(np.swapaxes(correlate.conj(), 2, 3))
    probe = np.random.default_rng(0).standard_normal((n, 1))
    rhs = _toeplitz_product(spectrum, np.broadcast_to(probe, (len(live), n, 1)),
                            size, L - 1)
    probed = _gohberg_semencul(spectrum, correlate, convolve, size)(rhs)
    residual = _toeplitz_product(spectrum, probed, size, L - 1) - rhs
    for s, system in enumerate(live):
        if np.linalg.norm(residual[s]) < _PROBE_TOLERANCE * np.linalg.norm(rhs[s]):
            solves[system] = _gohberg_semencul(spectrum[s], correlate[s],
                                               convolve[s], size)
    return solves


def _parts(refs, ests, targets, fits, blocks: _Blocks, spans,
           segments=None) -> Iterator[tuple]:
    """(k, a, the four parts of ``ests[k][a:b]``) for each [a, b) of ``spans``,
    whose starts must not decrease, and each estimate k, from its
    projections on ``targets[k]`` (a reference index, or a group scored
    against its members' sum) alone and on all of ``refs``.

    ``fits[k]`` holds estimate k's joint taps and, alone in a list, its
    target's own, shaped (1, I_ref, I_est, L), which filter each member's
    segments (see :meth:`_Projector.fit`).
    Interference is what the joint taps add to the solo projection: the
    projection through their difference, so it is exactly zero when the
    joint fit is the solo fit (every other reference silent).

    Chunk by chunk, the references' segment spectra are formed once
    (``segments``, those of a span of one chunk, are taken as given) and
    filtered for every estimate through tap spectra formed once; the
    valid samples of both projections are held until no span needs them,
    and each span is split as soon as its samples are held.  So beyond one
    chunk's spectra and samples and the estimates' tap spectra (one
    estimate's at a time for a span of one chunk), only about one span of
    samples per estimate is alive, provided each span's parts are dropped
    before the next are asked for.
    """
    channels = refs[0].shape[1]
    projections = []  # per estimate, (reference channels, taps) of both projections
    for (taps, (solo_taps,)), target in zip(fits, targets):
        members = _members(target)
        low, high = min(members), max(members) + 1  # the references spanning them
        solo = np.zeros((high - low,) + solo_taps.shape[1:])
        solo[[j - low for j in members]] = solo_taps[0]
        added = taps.copy()
        added[list(members)] -= solo_taps[0]
        projections.append([(slice(low * channels, high * channels), solo),
                            (slice(None), added)])
    chunks = blocks.chunks(len(ests[0]), len(refs) * channels)
    B, given = blocks.length, segments
    # Per estimate, the valid samples of both projections from sample ``first`` on.
    held = [[np.empty((0, est.shape[1]))] * 2 for est in ests]
    first = scored = 0

    def split(k: int, a: int, b: int) -> Decomposition:
        proj_solo, e_interf = (h[a - first:b - first] for h in held[k])
        s_target = SourceSum(refs[j] for j in _members(targets[k]))[a:b]
        return Decomposition(s_target, proj_solo - s_target, e_interf,
                             ests[k][a:b] - (proj_solo + e_interf))

    for start, stop in chunks:
        if given is None:
            segments = None  # the last chunk's, freed before the next's are formed
            segments = blocks.segment_spectra(refs, start, stop)
        done = scored  # the spans whose samples are all held after this chunk
        while done < len(spans) and spans[done][1] <= stop * B:
            done += 1
        keep = min(spans[done][0], stop * B) if done < len(spans) else stop * B
        for k in range(len(ests)):
            filters = projections[k]
            if not start:
                filters = [(sl, blocks.tap_spectra(taps)) for sl, taps in filters]
                if len(chunks) > 1:
                    projections[k] = filters
            grown = []
            for tail, (sl, spectra) in zip(held[k], filters):
                grown.append(np.empty((len(tail) + (stop - start) * B, tail.shape[1])))
                grown[-1][:len(tail)] = tail
                blocks.filtered(segments[:, sl], spectra, grown[-1][len(tail):])
            held[k] = grown
            for a, b in spans[scored:done]:
                yield k, a, split(k, a, b)
            held[k] = [h[keep - first:].copy() for h in held[k]]
        first, scored = keep, done


def _signals(references, estimates=None, targets=None) -> tuple:
    """Checked (N, I) sources of ``references`` and ``estimates``, uncopied
    and unread, and the reference index each estimate is scored against.

    The references are signals of the kinds :func:`~sepeval.audio._layouts`
    takes (else TypeError), of one layout (length, channels and rate); the
    estimates are of the same kinds, each of their layout, and a bare
    array's rows match any rate (see :func:`~sepeval.audio.check_layout`).
    ``targets`` default to estimate k against reference k; each is a
    reference index or a group, a tuple of distinct ones (else
    ValueError), and an index outside the references raises IndexError.
    Without ``estimates`` the last two are None.
    """
    if not len(references):
        raise ValueError("at least one reference is required")
    layouts = _layouts("reference", references)
    for j, layout in enumerate(layouts):
        check_layout(f"reference {j}", layout, layouts[0])
    references = [_samples(ref) for ref in references]
    if estimates is None:
        return references, None, None
    if not len(estimates):
        raise ValueError("at least one estimate is required")
    for k, layout in enumerate(_layouts("estimate", estimates)):
        check_layout(f"estimate {k}", layout, layouts[0])
    ests = [_samples(est) for est in estimates]
    if targets is None:
        if len(ests) > len(references):
            raise ValueError(
                f"{len(ests)} estimates for {len(references)} references; "
                "pass explicit targets"
            )
        targets = range(len(ests))
    elif len(targets) != len(ests):
        raise ValueError("one target index is required per estimate")
    for target in targets:
        members = _members(target)
        if len(set(members)) != len(members) or not members:
            raise ValueError(f"group target {target} needs distinct indices")
        for j in members:
            if not 0 <= j < len(references):
                raise IndexError(f"target index {j} out of range")
    return references, ests, list(targets)


def _span(sources, start: int, stop: int) -> list:
    """The ``sources`` over samples [start, stop) of a fit: a span of the
    whole signal is the sources themselves, read as it is streamed, and a
    shorter one (a v3 window) is read once."""
    if (start, stop) == (0, len(sources[0])):
        return list(sources)
    return [source[start:stop] for source in sources]


def check_scoring(window: int, hop: int | None = None,
                  filter_len: int = DEFAULT_FILTER_LEN, mode: str = DEFAULT_MODE) -> int:
    """The hop of checked scoring parameters: ``hop``, or the window if None.

    Window, hop and filter length must be ints of at least 1 (a bool, a
    float or a NumPy integer raises TypeError, a smaller int ValueError)
    and ``mode`` one of :data:`MODES` (else ValueError).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")
    hop = window if hop is None else hop
    for name, value in (("window", window), ("hop", hop), ("filter_len", filter_len)):
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    return hop


def _plan(num_samples: int, filter_len: int, mode: str, window: int,
          hop: int | None) -> list:
    """Each fit as (start, stop, span filter length, scored windows): one fit
    over the whole signal scoring every window, or in ``v3_windowed`` mode
    one per window, its filters no longer than the window."""
    spans = _windows(num_samples, window, hop, filter_len, mode)
    if mode == "v4_global":
        return [(0, num_samples, filter_len, spans)]
    return [
        (start, stop, min(filter_len, stop - start), [(start, stop)])
        for start, stop in spans
    ]


def compute_projection(
    references,
    estimate: AudioSignal,
    filter_len: int = DEFAULT_FILTER_LEN,
    mode: str = DEFAULT_MODE,
    window: int | None = None,
    hop: int | None = None,
):
    """Least-squares FIR distortion filters matching references to an estimate.

    In ``v4_global`` mode one :class:`ProjectionFilters` covers the whole
    signal; in ``v3_windowed`` mode a list is returned, one per evaluation
    window of ``window`` samples advanced by ``hop``.
    """
    refs, (est,), _ = _signals(references, [estimate])
    refit = mode == "v3_windowed"
    if not refit:
        window, hop = len(est), None
    elif window is None:
        raise ValueError("v3_windowed mode requires a window length")
    filters = []
    for start, stop, span_filter_len, _ in _plan(len(est), filter_len, mode,
                                                 window, hop):
        projector = _Projector(_span(refs, start, stop), span_filter_len,
                               _span([est], start, stop))
        taps, solo = projector.fit(0, range(len(refs)))
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
    spectra = blocks.tap_spectra(taps)
    chunks = blocks.chunks(length, num_refs * channels)
    projection = np.empty((chunks[-1][1] * blocks.length, taps.shape[2]))
    for first, stop in chunks:
        blocks.filtered(blocks.segment_spectra(refs, first, stop), spectra,
                        projection[first * blocks.length:stop * blocks.length])
    return projection[:length]


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
    to the estimate exactly.  ``filters`` must cover the references and,
    when fitted over a span (``window_len``), one as long as the estimate
    (else ValueError).
    """
    refs, (est,), (j,) = _signals(references, [estimate], [target_index])
    if filters.taps.shape[0] != len(refs):
        raise ValueError(
            f"filters cover {filters.taps.shape[0]} references, got {len(refs)}"
        )
    if filters.window_len not in (None, len(est)):
        raise ValueError(f"filters span {filters.window_len} samples, got {len(est)}")
    fit = (filters.taps, [filters.solo_taps[j:j + 1]])
    ((_, _, d),) = _parts(refs, [est], [j], [fit], _Blocks(len(est), filters.filter_len),
                          [(0, len(est))])
    return d


def _ratio_db(num: float, den: float) -> float:
    if den > 0.0:
        return 10.0 * math.log10(num / den) if num > 0.0 else -math.inf
    return math.inf if num > 0.0 else math.nan


def _windows(num_samples: int, window: int, hop: int | None,
             filter_len: int = DEFAULT_FILTER_LEN, mode: str = DEFAULT_MODE):
    """[start, stop) of each window of ``window`` samples, advanced by ``hop``
    (None: the window), until the signal ends; the four parameters pass
    :func:`check_scoring` first."""
    hop = check_scoring(window, hop, filter_len, mode)
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
    """Score each estimate against its target, framewise.

    Pairing is positional by default (estimate k scored against reference
    k); pass ``targets`` to name the target of each estimate: a reference
    index, or a group, a tuple of reference indices.  An estimate of a
    group is scored against the sum of the group's references, in float64
    and in the tuple's order, and each reference outside the group counts
    as one interferer: ``(0, 1, 2)`` over MUSDB18's drums, bass, other and
    vocals is the accompaniment, scored against [vocals, accompaniment].
    References and estimates may also be sources that carry a ``layout``,
    such as :class:`~sepeval.audio.WavReader`: each is read a block at a
    time, and the scores are those of its decoded samples.
    One fit pass serves every target: per span one projector, and one
    block-Levinson stack for the solo systems of all targets.
    Returns one list of :class:`FrameScores` per estimate.
    """
    refs, ests, targets = _signals(references, estimates, targets)
    plan = _plan(len(refs[0]), filter_len, mode, window, hop)
    results = [[] for _ in ests]
    for start, stop, span_filter_len, frames in plan:
        span_refs, span_ests = _span(refs, start, stop), _span(ests, start, stop)
        projector = _Projector(span_refs, span_filter_len, span_ests)
        projector._factor([projector._solo(target) for target in targets])
        fits = [projector.fit(k, [target]) for k, target in enumerate(targets)]
        windows = [(a - start, b - start) for a, b in frames]
        parts = _parts(span_refs, span_ests, targets, fits, projector.blocks, windows,
                       projector.segments)
        del projector  # its factors, before the split
        for k, a, d in parts:
            results[k].append(_frame_scores(d, 0, len(d.s_target), start + a))
            del d  # before the next window's parts are formed
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
