"""Oracle time-frequency masks computed from true source images.

Three upper-bound separators are provided, all closed-form given the
ground-truth source images, each method under one name that is also its
run label:

* IBM1 / IBM2: binary masks selecting bins where a source's magnitude
  (order 1) or power (order 2) is at least half the sum over sources.
* IRM<alpha>: soft ratio masks of |y_j|^alpha, alpha > 0 written as
  ``f"{alpha:g}"``: IRM1 (magnitude), IRM2 (power), IRM1.5.
* MWF: multichannel Wiener filter from a local Gaussian model, one I-by-I
  complex matrix per source and bin.  A source whose covariance trace is
  zero in every bin is silent: its covariance is pinned to the identity
  and its PSD is 0.

Masks are built in the STFT domain and applied to the mixture; estimates
return to the time domain through weighted overlap-add synthesis.  The
MWF filters and estimates share one kernel, which solves the loaded
mixture covariance of every bin and frame at once by an elementwise LDL^H
elimination over the channels, slab by slab along frames.  The MWF model
is fitted by one routine for :func:`estimate_mwf_model` and
:func:`oracle_separate`, over the same chunks of frames, so the oracle's
estimates of every method are bitwise those of the whole-spectrogram
route.  The oracle reads its inputs a chunk of frames at a time, so over
WAV readers it holds only its estimates whole.

Every kernel works in the transform's own layout, channel-major: a
source's bins are I contiguous (t, F) planes, one per channel (see
``spectral``), a PSD is one (t, F) plane per source, and an I x I matrix
per bin is I*I planes, entry (i, m) one plane (or one (F,) row for the
frame-constant spatial covariances, which broadcasts over a plane).  Each
step is then one array operation over whole contiguous planes, and a
slab of frames is a contiguous run of every plane.  The public functions
take and return the (F, T, I)-shaped arrays of their signatures and run
the same kernels on transposed views of them; the arrays they return
are transposed views of channel-major results.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .audio import _inputs
from .spectral import (
    Spectrogram,
    StftConfig,
    _analyse,
    _chunks,
    _frame_layout,
    _OverlapAdd,
)

__all__ = [
    "SourceImages",
    "ScalarMask",
    "MatrixMask",
    "SpatialModel",
    "ibm_mask",
    "irm_mask",
    "estimate_mwf_model",
    "mwf_mask",
    "apply_mask",
    "oracle_separate",
]

@dataclass
class SourceImages:
    """Ordered stack of per-source spectrograms sharing one shape."""

    images: list

    def __post_init__(self):
        if not self.images:
            raise ValueError("at least one source image is required")
        shape = self.images[0].bins.shape
        for image in self.images[1:]:
            if image.bins.shape != shape:
                raise ValueError(
                    f"source image shapes differ: {image.bins.shape} vs {shape}"
                )

    @property
    def num_sources(self) -> int:
        return len(self.images)


@dataclass
class ScalarMask:
    """Real per-channel mask tensor of shape (J, F, T, I), values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 4:
            raise ValueError(f"mask must be 4-D (J, F, T, I), got {values.shape}")
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("mask contains non-finite values")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ValueError("scalar mask values must lie in [0, 1]")
        self.values = values

    @property
    def num_sources(self) -> int:
        return self.values.shape[0]


@dataclass
class MatrixMask:
    """Complex matrix mask tensor of shape (J, F, T, I, I)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 5 or values.shape[-1] != values.shape[-2]:
            raise ValueError(
                f"mask must be 5-D (J, F, T, I, I), got {values.shape}"
            )
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("mask contains non-finite values")
        self.values = values

    @property
    def num_sources(self) -> int:
        return self.values.shape[0]


@dataclass
class SpatialModel:
    """Local Gaussian model: per-source PSD and spatial covariance.

    ``psd`` is v_j(f,t) with shape (J, F, T); ``spatial_cov`` is R_j(f)
    with shape (J, F, I, I), Hermitian PSD and trace-normalized to I.
    ``degenerate`` lists indices of the sources whose covariance trace is
    zero in every bin, pinned to the identity.
    """

    psd: np.ndarray
    spatial_cov: np.ndarray
    degenerate: tuple = ()

    def __post_init__(self):
        psd = np.asarray(self.psd, dtype=np.float64)
        cov = np.asarray(self.spatial_cov, dtype=np.complex128)
        if psd.ndim != 3:
            raise ValueError(f"psd must be 3-D (J, F, T), got {psd.shape}")
        if cov.ndim != 4 or cov.shape[-1] != cov.shape[-2]:
            raise ValueError(
                f"spatial_cov must be 4-D (J, F, I, I), got {cov.shape}"
            )
        if psd.shape[:2] != cov.shape[:2]:
            raise ValueError("psd and spatial_cov disagree on (J, F)")
        _check_psd(psd)
        _check_covariance(cov)
        self.psd = psd
        self.spatial_cov = cov
        self.degenerate = tuple(self.degenerate)

    @property
    def num_sources(self) -> int:
        return self.psd.shape[0]

    @property
    def num_channels(self) -> int:
        return self.spatial_cov.shape[-1]


def _check_psd(psd: np.ndarray) -> None:
    """Raise ValueError unless every PSD value is finite and non-negative."""
    if not np.all(np.isfinite(psd)):
        raise ValueError("psd and spatial_cov must be finite")
    if psd.size and psd.min() < 0.0:
        raise ValueError("psd must be non-negative")


def _check_covariance(cov: np.ndarray) -> None:
    """Raise ValueError unless the (J, F, I, I) ``cov`` is finite and Hermitian."""
    if not np.all(np.isfinite(cov)):
        raise ValueError("psd and spatial_cov must be finite")
    hermitian_gap = np.abs(cov - cov.conj().swapaxes(-1, -2)).max() if cov.size else 0.0
    if hermitian_gap > 1e-10:
        raise ValueError(
            f"spatial covariance not Hermitian (max asymmetry {hermitian_gap:.2e})"
        )


def _powers(images: list, exponent: float) -> np.ndarray:
    """|y_j|^exponent of every source's (I, t, F) planes, as (J, I, t, F).

    Written source by source into one float array, so no complex stack of
    the images is formed; each mask is then written over it in place.
    """
    power = np.empty((len(images),) + images[0].shape)
    for bins, out in zip(images, power):
        np.abs(bins, out=out)
        out **= exponent
    return power


def _scalar_masks(images: list, kind: str, exponent: float) -> np.ndarray:
    """The IBM or IRM masks of the sources' (I, t, F) planes, as (J, I, t, F).

    ``kind`` is ``"IBM"``, with ``exponent`` the comparison order, or
    ``"IRM"``, with ``exponent`` the ratio mask's alpha; both are local to
    each bin and frame.  The one route of :func:`ibm_mask`,
    :func:`irm_mask` and the oracle's chunks.
    """
    values = _powers(images, exponent)
    total = values.sum(axis=0)
    if kind == "IBM":
        np.greater_equal(values, 0.5 * total, out=values)
        values *= total > 0
    else:
        np.divide(values, total, out=values, where=total > 0)
        np.copyto(values, 1.0 / len(images), where=total == 0)
    return values


def ibm_mask(sources: SourceImages, order: int = 1) -> ScalarMask:
    """Ideal binary mask: 1 where a source holds at least half the energy.

    ``order`` selects magnitude (1) or power (2) comparison.  Ties are
    inclusive, so exactly equal competitors all receive 1; bins where
    every source is silent receive 0.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    images = [image.bins.T for image in sources.images]
    return ScalarMask(_scalar_masks(images, "IBM", order).transpose(0, 3, 2, 1))


def irm_mask(sources: SourceImages, alpha: float = 2.0) -> ScalarMask:
    """Ideal ratio mask: fractional |y_j|^alpha of the per-bin total.

    Bins where all sources vanish get the uniform value 1/J, which keeps
    the masks summing to one everywhere.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    images = [image.bins.T for image in sources.images]
    return ScalarMask(_scalar_masks(images, "IRM", alpha).transpose(0, 3, 2, 1))


def _outer_sum(bins: np.ndarray) -> np.ndarray:
    """Sum over frames of the outer products y y^H: (I, T, F) -> (I, I, F).

    One elementwise product of two channel planes and one sum over frames
    per channel pair, exactly Hermitian.
    """
    channels = bins.shape[0]
    out = np.empty((channels, channels, bins.shape[-1]), dtype=np.complex128)
    for i in range(channels):
        for k in range(i, channels):
            out[i, k] = (bins[i] * bins[k].conj()).sum(axis=0)
            out[k, i] = out[i, k].conj()
    return out


def _spatial_covariances(chunks) -> tuple:
    """R_j(f) = I * S_j(f) / tr S_j(f), S_j(f) the sum of y_j y_j^H over frames.

    ``chunks`` yields, for each :func:`spectral._chunks` range in order, the
    sources' (I, t, F) planes over it; S_j is summed chunk by chunk, so the
    whole-spectrogram and chunked routes fit bitwise the same model.
    Returns the covariances and their pseudo-inverses, both contiguous
    (J, I, I, F), and the indices of the degenerate sources, those whose
    trace is zero in every bin, with one warning for all of them.  A bin
    where a source has no energy gets the identity.
    """
    outer_sums = sum(np.stack([_outer_sum(bins) for bins in images]) for images in chunks)
    channels = outer_sums.shape[1]
    eye = np.eye(channels, dtype=np.complex128)[..., None]
    cov = np.empty(outer_sums.shape, dtype=np.complex128)
    degenerate = []
    for j, (r, outer_sum) in enumerate(zip(cov, outer_sums)):
        trace = np.einsum("iif->f", outer_sum).real
        scalable = trace > 0
        r[..., scalable] = outer_sum[..., scalable] * (channels / trace[scalable])
        r[..., ~scalable] = eye
        if not scalable.any():
            degenerate.append(j)
    cov = (cov + cov.conj().swapaxes(1, 2)) / 2.0
    if degenerate:
        warnings.warn(
            f"sources {degenerate} are silent; covariance pinned to identity",
            RuntimeWarning,
            stacklevel=3,
        )
    # pinv batches over (J, F); its inverse is made channel-major once.
    inverse = np.linalg.pinv(cov.transpose(0, 3, 1, 2), hermitian=True)
    return cov, np.ascontiguousarray(inverse.transpose(0, 2, 3, 1)), tuple(degenerate)


def _local_model(images: list, cov_inv: np.ndarray) -> np.ndarray:
    """The PSD over the frames of ``images``, one (I, t, F) array per source.

    v_j = max((1/I) * y_j^H R_j^{-1} y_j, 0) per bin and frame, as one
    (J, t, F) array; a silent source's is exactly 0.
    """
    channels = cov_inv.shape[1]
    psd = np.zeros((len(images),) + images[0].shape[1:])
    solved = np.empty(images[0].shape, dtype=np.complex128)  # R^-1 y
    for j, bins in enumerate(images):
        _channel_sum(cov_inv[j], bins, solved)
        for i in range(channels):
            psd[j] += (solved[i] * bins[i].conj()).real
        psd[j] /= channels
        np.maximum(psd[j], 0.0, out=psd[j])
    return psd


def estimate_mwf_model(sources: SourceImages) -> SpatialModel:
    """Fit the local Gaussian model (v_j, R_j) in one sweep.

    The frequency-wise covariance R_j(f) is the sum of the outer products
    y_j y_j^H over frames, trace-normalized to I, and the PSD is the
    matched quadratic form v_j = (1/I)*y_j^H R_j^{-1} y_j.  Alternating
    sweeps would weight the outer products by the previous PSD, but a
    weight that is constant over frames cancels in the normalization, so
    every sweep gives this same fit.  A source whose covariance trace is
    zero in every bin is flagged and pinned to R_j = identity, v_j = 0.
    The sums run over the oracle's chunks of frames, so
    :func:`oracle_separate` fits bitwise this model.
    """
    images = [image.bins.T for image in sources.images]
    channels, num_frames, num_bins = images[0].shape
    # A spectrogram of no frames is one empty chunk, all of its sources silent.
    chunks = _chunks(num_frames, num_bins, channels) or [(0, 0)]
    cov, cov_inv, degenerate = _spatial_covariances(
        [bins[:, start:stop] for bins in images] for start, stop in chunks
    )
    psd = _local_model(images, cov_inv)
    return SpatialModel(psd.transpose(0, 2, 1), cov.transpose(0, 3, 1, 2), degenerate)


def _wiener(psd: np.ndarray, cov: np.ndarray, rows: np.ndarray, out: np.ndarray,
            epsilon=None) -> None:
    """Write v_j R_j (C_x + eps*I)^{-1} B into ``out[j]`` for every source j.

    Channel-major throughout: ``psd`` is (J, T, F), ``cov`` is (J, I, I, F),
    and B holds K right-hand-side columns per bin and frame, ``rows`` as
    (I, K, T, F), channel i of column k at ``rows[i, k]``; ``out`` is
    (J, I, K, T, F).  Per slab of frames, each entry (i, m) of the lower
    triangle of C_x is one plane, sum_j v_j R_j[i, m]; the solve is the
    elementwise LDL^H elimination of :func:`_solve_hermitian`, and R_j Z
    is a sum over channels (:func:`_channel_sum`).  By default eps tracks
    the local trace of C_x (1e-10 * max(1, tr/I)) so silent bins stay
    invertible; an explicit epsilon (including 0) overrides it, and a pivot
    that is then not positive raises ``np.linalg.LinAlgError``.
    """
    num_sources, num_frames, num_bins = psd.shape
    channels = cov.shape[1]
    for start, stop in _chunks(num_frames, num_bins, channels):
        v = psd[:, start:stop]  # (J, t, F)
        mix_cov = np.empty((channels, channels) + v.shape[1:], dtype=np.complex128)
        for i in range(channels):
            for m in range(i + 1):
                entry = mix_cov[i, m]
                np.multiply(v[0], cov[0, i, m], out=entry)
                for j in range(1, num_sources):
                    entry += v[j] * cov[j, i, m]
        if epsilon is None:
            trace = sum(mix_cov[i, i].real for i in range(channels))
            loading = 1e-10 * np.maximum(1.0, trace / channels)
        else:
            loading = float(epsilon)
        for i in range(channels):
            mix_cov[i, i] += loading
        z = _solve_hermitian(mix_cov, rows[:, :, start:stop])
        for j in range(num_sources):
            target = out[j][:, :, start:stop]
            _channel_sum(cov[j], z, target)
            target *= v[j]


def _solve_hermitian(matrix: np.ndarray, rows: np.ndarray) -> list:
    """Solve A z = b elementwise for Hermitian positive definite A.

    ``matrix`` is (I, I, ...), entry (i, m) one array over the leading
    bins and frames; only its lower triangle is read, and it is
    overwritten.  ``rows`` is (I, K, ...), right-hand side k's channel i at
    ``rows[i, k]``.  Returns the solution's channels as I arrays of shape
    (K, ...).  LDL^H elimination without pivoting, which is backward stable
    for Hermitian positive definite A: Python loops run over channels
    only, and every step is one array operation over all bins and frames.
    A pivot that is not positive raises ``np.linalg.LinAlgError``.
    """
    channels = matrix.shape[0]
    shape = rows.shape[1:2] + matrix.shape[2:]
    z = [np.array(np.broadcast_to(rows[i], shape)) for i in range(channels)]
    for k in range(channels):
        pivot = matrix[k, k].real
        if not np.all(pivot > 0):
            raise np.linalg.LinAlgError("Wiener covariance is not positive definite")
        inverse = 1.0 / pivot
        for i in range(k + 1, channels):
            multiplier = matrix[i, k] * inverse
            for m in range(k + 1, i + 1):
                matrix[i, m] -= multiplier * matrix[m, k].conj()
            z[i] -= multiplier * z[k]
            matrix[k, i] = multiplier.conj()  # L^H, in the unread upper half
        z[k] *= inverse
    for i in range(channels - 2, -1, -1):
        for m in range(i + 1, channels):
            z[i] -= matrix[i, m] * z[m]
    return z


def _channel_sum(matrix: np.ndarray, columns, out: np.ndarray) -> None:
    """Per-bin matrix-vector product: out[i] = sum_m matrix[i, m] * columns[m].

    Channel-major: ``matrix[i, m]`` is one array over bins (and frames),
    ``columns`` holds the vector's I channels as planes, and every entry
    broadcasts against them, so one (I, I, F) matrix serves all frames.
    Over a cache-sized slab and for a few channels, this elementwise sum
    over contiguous planes beats one small matmul per bin.
    """
    for i in range(len(out)):
        np.multiply(matrix[i, 0], columns[0], out=out[i])
        for m in range(1, len(columns)):
            out[i] += matrix[i, m] * columns[m]


def mwf_mask(model: SpatialModel, epsilon: float | None = None) -> MatrixMask:
    """Multichannel Wiener filter M_j = C_j (C_x + eps*I)^{-1} per bin.

    The Wiener kernel on identity columns: channel i of column k of its
    output is M_j[i, k], so it writes the channel-major (J, I, I, T, F)
    mask whose transposed view is returned.  The model's PSD and spatial
    covariances are made channel-major once per call (no copy for a model
    from :func:`estimate_mwf_model`).
    """
    num_sources, num_bins, num_frames = model.psd.shape
    channels = model.num_channels
    psd = np.ascontiguousarray(model.psd.transpose(0, 2, 1))
    cov = np.ascontiguousarray(model.spatial_cov.transpose(0, 2, 3, 1))
    values = np.empty((num_sources, channels, channels, num_frames, num_bins),
                      dtype=np.complex128)
    identity = np.broadcast_to(np.eye(channels, dtype=np.complex128)[..., None, None],
                               (channels, channels, num_frames, num_bins))
    _wiener(psd, cov, identity, values, epsilon)
    return MatrixMask(values.transpose(0, 4, 3, 1, 2))


def _masked(mask: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """One source's channel-major mask applied to the (I, T, F) ``planes``.

    A scalar mask, (I, T, F), multiplies each channel; a matrix mask,
    (I, I, T, F), acts on the channel vector x(f,t) by matrix-vector
    product, slab by slab along frames.  Returns channel-major planes.
    """
    if mask.ndim == planes.ndim:
        return mask * planes
    masked = np.empty(planes.shape, dtype=np.complex128)
    channels, num_frames, num_bins = planes.shape
    for start, stop in _chunks(num_frames, num_bins, channels):
        _channel_sum(mask[:, :, start:stop], planes[:, start:stop], masked[:, start:stop])
    return masked


def apply_mask(mask, mixture: Spectrogram, j: int) -> Spectrogram:
    """Apply source j's mask to the mixture spectrogram.

    Scalar masks multiply each channel; matrix masks act on the channel
    vector x(f,t) by matrix-vector product (:func:`_masked`, on
    channel-major views), and the result's bins are the transposed view
    of channel-major planes.
    """
    if not isinstance(mask, (ScalarMask, MatrixMask)):
        raise TypeError(f"unsupported mask type {type(mask).__name__}")
    values = mask.values
    if not 0 <= j < values.shape[0]:
        raise IndexError(f"source index {j} out of range for {values.shape[0]} sources")
    # (F, T, I) leads a scalar mask's (F, T, I) and a matrix mask's (F, T, I, I).
    if values.shape[1:4] != mixture.bins.shape:
        raise ValueError(
            f"mask shape {values.shape[1:]} does not match "
            f"mixture {mixture.bins.shape}"
        )
    if isinstance(mask, ScalarMask):
        channel_major = values[j].T  # (I, T, F)
    else:
        channel_major = values[j].transpose(2, 3, 1, 0)  # (I, I, T, F)
    masked = _masked(channel_major, mixture.bins.T)
    return Spectrogram(masked.T, mixture.config, mixture.original_length,
                       mixture.sample_rate)


def _resolve_method(method: str) -> tuple:
    """The mask kind and exponent, ``(kind, exponent)``, of an oracle method.

    Each method has one name, which is also its run label: ``IBM1`` and
    ``IBM2`` (comparison order 1 or 2), ``MWF`` (no exponent), and
    ``IRM<alpha>`` for the ratio mask's exponent alpha > 0, written as
    ``f"{alpha:g}"`` (``IRM1``, ``IRM2``, ``IRM1.5``).  Any other
    spelling, one that names the same exponent otherwise (``IRM2.0``,
    ``irm2``) or one that ``:g`` rounds (``IRM1.2345678``), raises
    ValueError, so no two names write one run.
    """
    kind, suffix = method[:3], method[3:]
    if method in ("IBM1", "IBM2"):
        return kind, int(suffix)
    if method == "MWF":
        return kind, None
    if kind == "IRM":
        try:
            alpha = float(suffix)
        except ValueError:
            alpha = math.nan
        if 0 < alpha < math.inf and f"IRM{alpha:g}" == method:
            return kind, alpha
    raise ValueError(
        f"unknown method {method!r}; expected IBM1, IBM2, MWF or IRM<alpha> "
        "with alpha > 0 as f'{alpha:g}' writes it (IRM1, IRM2, IRM1.5)"
    )


def oracle_separate(
    mixture,
    true_sources,
    method: str,
    config: StftConfig = StftConfig(),
) -> list:
    """Run one oracle method end to end, returning time-domain estimates.

    All inputs are transformed with ``config``; the mask derived from the
    true source images is applied to the mixture and synthesized back,
    trimmed to the input length.  ``method`` names the mask and its
    exponent: ``IBM1``, ``IBM2``, ``MWF`` or ``IRM<alpha>``
    (:func:`_resolve_method`).  The true sources are signals as
    ``bss_eval`` takes them (:func:`~sepeval.audio._inputs`), the mixture
    one with a rate; all must have the mixture's layout.

    The work runs over chunks of frames (:func:`spectral._chunks`): each
    chunk's span of the mixture and source samples is read (a
    :class:`~sepeval.audio.WavReader` decodes only it), analysed, masked
    and added to the estimates by overlap-add, so only one chunk's spectra
    are alive at a time, and every chunk stays channel-major, (I, t, F),
    from analysis to overlap-add.  The chunks run on the plane kernels
    alone: the inputs are checked once per call (of one layout, and finite
    as ``AudioSignal`` holds them or a reader decodes them), and each
    estimate once as its ``AudioSignal`` is made.
    The scalar masks (:func:`_scalar_masks`, :func:`_masked`) are local to
    each bin and frame.  MWF makes two passes: the first hands each
    chunk's source bins to :func:`_spatial_covariances`, the fit
    :func:`estimate_mwf_model` also runs over these chunks, and checks the
    covariances once; the second recomputes each chunk's source bins for
    the PSD (checked per chunk) and runs the Wiener kernel on the
    mixture's bins.  A source whose covariance trace is zero in every bin
    is silent (one warning names them all) and its estimate is 0.  So
    every method's estimates equal the whole-spectrogram route bitwise.
    The estimates' samples are transposed views of channel-major
    overlap-add buffers.
    """
    kind, exponent = _resolve_method(method)
    (mixture,), (length, channels, rate) = _inputs("mixture", [mixture])
    true_sources, _ = _inputs("source", true_sources, (length, channels, rate))
    if length == 0:
        raise ValueError("cannot transform an empty signal")
    _, num_frames = _frame_layout(length, config)
    outputs = [_OverlapAdd(config, num_frames, channels) for _ in true_sources]
    chunks = _chunks(num_frames, config.num_bins, channels)
    win = config.taper()

    def analyse(source, start, stop):
        return _analyse(source, config, win, start, stop)

    if kind == "MWF":
        cov, cov_inv, _ = _spatial_covariances(
            [analyse(source, start, stop) for source in true_sources]
            for start, stop in chunks
        )
        _check_covariance(cov.transpose(0, 3, 1, 2))
    for start, stop in chunks:
        mix = analyse(mixture, start, stop)
        images = [analyse(source, start, stop) for source in true_sources]
        if kind == "MWF":
            psd = _local_model(images, cov_inv)
            _check_psd(psd)
            # The Wiener kernel on the mixture column: no mask is materialized.
            masked = np.empty((len(images), channels, 1) + psd.shape[1:], complex)
            _wiener(psd, cov, mix[:, None], masked)
            masked = masked[:, :, 0]
        else:
            masked = (_masked(mask, mix) for mask in _scalar_masks(images, kind, exponent))
        for output, planes in zip(outputs, masked):
            output.add(start, planes)
    return [output.signal(length, rate) for output in outputs]
