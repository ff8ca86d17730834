"""Oracle time-frequency masks computed from true source images.

Three upper-bound separators are provided, all closed-form given the
ground-truth source images, each method under one name that is also its
run label:

* IBM1 / IBM2: binary masks selecting bins where a source's magnitude
  (order 1) or power (order 2) is at least half the sum over sources.
* IRM<alpha>: soft ratio masks of |y_j|^alpha, alpha > 0 written as
  ``f"{alpha:g}"``: IRM1 (magnitude), IRM2 (power), IRM1.5.
* MWF: multichannel Wiener filter from a local Gaussian model, one I-by-I
  complex matrix per source and bin.

Masks are built in the STFT domain and applied to the mixture; estimates
return to the time domain through weighted overlap-add synthesis.  The
MWF filters and estimates share one kernel, which solves the loaded
mixture covariance of every bin and frame at once by an elementwise LDL^H
elimination over the channels, slab by slab along frequency.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .audio import AudioSignal, check_layout
from .spectral import (
    _CHUNK_CELLS,
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
    ``degenerate`` lists indices of all-zero sources whose covariance was
    pinned to the identity.
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
        if not (np.all(np.isfinite(psd)) and np.all(np.isfinite(cov))):
            raise ValueError("psd and spatial_cov must be finite")
        if psd.size and psd.min() < 0.0:
            raise ValueError("psd must be non-negative")
        hermitian_gap = np.abs(cov - cov.conj().swapaxes(-1, -2)).max() if cov.size else 0.0
        if hermitian_gap > 1e-10:
            raise ValueError(
                f"spatial covariance not Hermitian (max asymmetry {hermitian_gap:.2e})"
            )
        self.psd = psd
        self.spatial_cov = cov
        self.degenerate = tuple(self.degenerate)

    @property
    def num_sources(self) -> int:
        return self.psd.shape[0]

    @property
    def num_channels(self) -> int:
        return self.spatial_cov.shape[-1]


def _powers(sources: SourceImages, exponent: float) -> np.ndarray:
    """|y_j|^exponent of every source image, shaped (J, F, T, I).

    Written source by source into one float array, so no complex stack of
    the images is formed; each mask is then written over it in place.
    """
    power = np.empty((sources.num_sources,) + sources.images[0].bins.shape)
    for image, out in zip(sources.images, power):
        np.abs(image.bins, out=out)
        out **= exponent
    return power


def ibm_mask(sources: SourceImages, order: int = 1) -> ScalarMask:
    """Ideal binary mask: 1 where a source holds at least half the energy.

    ``order`` selects magnitude (1) or power (2) comparison.  Ties are
    inclusive, so exactly equal competitors all receive 1; bins where
    every source is silent receive 0.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    values = _powers(sources, order)
    total = values.sum(axis=0)
    np.greater_equal(values, 0.5 * total, out=values)
    values *= total > 0
    return ScalarMask(values)


def irm_mask(sources: SourceImages, alpha: float = 2.0) -> ScalarMask:
    """Ideal ratio mask: fractional |y_j|^alpha of the per-bin total.

    Bins where all sources vanish get the uniform value 1/J, which keeps
    the masks summing to one everywhere.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    values = _powers(sources, alpha)
    total = values.sum(axis=0)
    np.divide(values, total, out=values, where=total > 0)
    np.copyto(values, 1.0 / sources.num_sources, where=total == 0)
    return ScalarMask(values)


def _outer_sum(bins: np.ndarray) -> np.ndarray:
    """Sum over frames of the outer products y y^H: (F, T, I) -> (F, I, I).

    One elementwise product and sum per channel pair, exactly Hermitian;
    for a few channels this beats a batch of (I, T) @ (T, I) products.
    """
    channels = bins.shape[-1]
    out = np.empty((bins.shape[0], channels, channels), dtype=np.complex128)
    for i in range(channels):
        for k in range(i, channels):
            out[:, i, k] = (bins[..., i] * bins[..., k].conj()).sum(axis=1)
            out[:, k, i] = out[:, i, k].conj()
    return out


def _spatial_covariances(outer_sums: list, live: list) -> tuple:
    """R_j(f) = I * S_j(f) / tr S_j(f) from each source's outer-product sum S_j.

    Returns the (J, F, I, I) covariances, their pseudo-inverses and the
    indices of the sources that are not ``live`` (no energy anywhere),
    which are pinned to the identity with one warning for all of them.  A
    bin where a live source has no energy also gets the identity.
    """
    channels = outer_sums[0].shape[-1]
    eye = np.eye(channels, dtype=np.complex128)
    cov = np.empty((len(outer_sums),) + outer_sums[0].shape, dtype=np.complex128)
    for r, outer_sum in zip(cov, outer_sums):
        trace = np.einsum("fii->f", outer_sum).real
        scalable = trace > 0
        r[scalable] = outer_sum[scalable] * (channels / trace[scalable])[:, None, None]
        r[~scalable] = eye
    cov = (cov + cov.conj().swapaxes(-1, -2)) / 2.0
    degenerate = tuple(j for j, source_live in enumerate(live) if not source_live)
    if degenerate:
        warnings.warn(
            f"sources {list(degenerate)} are silent; covariance pinned to identity",
            RuntimeWarning,
            stacklevel=3,
        )
    return cov, np.linalg.pinv(cov, hermitian=True), degenerate


def _local_model(images: list, cov, cov_inv, degenerate) -> SpatialModel:
    """The model over the frames of ``images``, one (F, T, I) array per source.

    v_j = max((1/I) * y_j^H R_j^{-1} y_j, 0) per bin and frame; a
    degenerate source keeps v_j = 0.
    """
    channels = cov.shape[-1]
    psd = np.zeros((len(images),) + images[0].shape[:2])
    for j, bins in enumerate(images):
        if j in degenerate:
            continue
        columns = [bins[..., m] for m in range(channels)]
        solved = np.empty(bins.shape, dtype=np.complex128)  # R^-1 y
        _channel_sum(cov_inv[j][:, None], columns, solved)
        for i, column in enumerate(columns):
            psd[j] += (solved[..., i] * column.conj()).real
        psd[j] /= channels
        np.maximum(psd[j], 0.0, out=psd[j])
    return SpatialModel(psd, cov, degenerate)


def estimate_mwf_model(sources: SourceImages) -> SpatialModel:
    """Fit the local Gaussian model (v_j, R_j) in one sweep.

    The frequency-wise covariance R_j(f) is the sum of the outer products
    y_j y_j^H over frames, trace-normalized to I, and the PSD is the
    matched quadratic form v_j = (1/I)*y_j^H R_j^{-1} y_j.  Alternating
    sweeps would weight the outer products by the previous PSD, but a
    weight that is constant over frames cancels in the normalization, so
    every sweep gives this same fit.  A source with no energy anywhere is
    flagged and pinned to R_j = identity, v_j = 0.
    """
    images = [image.bins for image in sources.images]
    cov, cov_inv, degenerate = _spatial_covariances(
        [_outer_sum(bins) for bins in images], [bool(np.any(bins)) for bins in images]
    )
    return _local_model(images, cov, cov_inv, degenerate)


def _wiener(model: SpatialModel, rows: np.ndarray, out, epsilon=None) -> None:
    """Write v_j R_j (C_x + eps*I)^{-1} B into ``out[j]`` for every source j.

    B holds K right-hand-side columns per bin and frame.  ``rows`` and each
    ``out[j]`` are (F, T, K, I), column k as row k.  Per frequency slab,
    C_x = sum_j v_j R_j is one real batched product over the float view of
    R, the solve is the elementwise LDL^H elimination of
    :func:`_solve_hermitian`, and R_j Z is a sum over channels
    (:func:`_channel_sum`).  By default eps tracks the local trace of C_x
    (1e-10 * max(1, tr/I)) so silent bins stay invertible; an explicit
    epsilon (including 0) overrides it, and a pivot that is then not
    positive raises ``np.linalg.LinAlgError``.
    """
    num_bins, num_frames, _, channels = rows.shape
    diagonal = (..., np.arange(channels), np.arange(channels))
    for start, stop in _freq_slabs(num_bins, num_frames, channels):
        v = model.psd[:, start:stop]  # (J, Fc, T)
        r = model.spatial_cov[:, start:stop]  # (J, Fc, I, I)
        flat = np.ascontiguousarray(r).view(np.float64).reshape(
            model.num_sources, stop - start, -1)  # (J, Fc, 2*I*I) re/im
        mix_cov = (v.transpose(1, 2, 0) @ flat.transpose(1, 0, 2)).view(
            np.complex128).reshape(stop - start, num_frames, channels, channels)
        if epsilon is None:
            trace = np.einsum("ftii->ft", mix_cov).real
            mix_cov[diagonal] += 1e-10 * np.maximum(1.0, trace / channels)[..., None]
        else:
            mix_cov[diagonal] += float(epsilon)
        z = _solve_hermitian(mix_cov, rows[start:stop])
        for j in range(model.num_sources):
            target = out[j][start:stop]
            _channel_sum(r[j][:, None, None], z, target)
            target *= v[j][..., None, None]


def _solve_hermitian(matrix: np.ndarray, rows: np.ndarray) -> list:
    """Solve A z = b elementwise for Hermitian positive definite A.

    ``matrix`` is (..., I, I); only its lower triangle is read, and it is
    overwritten.  ``rows`` is (..., K, I), right-hand side k as row k.
    Returns the solution's channels as I arrays of shape (..., K).  LDL^H
    elimination without pivoting, which is backward stable for Hermitian
    positive definite A: Python loops run over channels only, and every
    step is one array operation over all leading entries.  A pivot that
    is not positive raises ``np.linalg.LinAlgError``.
    """
    channels = matrix.shape[-1]
    shape = matrix.shape[:-2] + rows.shape[-2:-1]
    z = [np.array(np.broadcast_to(rows[..., i], shape)) for i in range(channels)]
    for k in range(channels):
        pivot = matrix[..., k, k].real
        if not np.all(pivot > 0):
            raise np.linalg.LinAlgError("Wiener covariance is not positive definite")
        inverse = 1.0 / pivot
        for i in range(k + 1, channels):
            multiplier = matrix[..., i, k] * inverse
            for m in range(k + 1, i + 1):
                matrix[..., i, m] -= multiplier * matrix[..., m, k].conj()
            z[i] -= multiplier[..., None] * z[k]
            matrix[..., k, i] = multiplier.conj()  # L^H, in the unread upper half
        z[k] *= inverse[..., None]
    for i in range(channels - 2, -1, -1):
        for m in range(i + 1, channels):
            z[i] -= matrix[..., i, m][..., None] * z[m]
    return z


def _channel_sum(matrix: np.ndarray, columns, out: np.ndarray) -> None:
    """Per-bin matrix-vector product: out[..., i] = sum_m matrix[..., i, m] columns[m].

    ``columns`` holds the vector's I channels as separate arrays, and every
    entry of ``matrix`` broadcasts against them, so one (F, I, I) matrix
    serves all frames.  Over a cache-sized slab and for a few channels,
    this elementwise sum beats one small matmul per bin, and it beats
    ``einsum`` once the matrix is broadcast.
    """
    for i in range(out.shape[-1]):
        total = matrix[..., i, 0] * columns[0]
        for m in range(1, len(columns)):
            total += matrix[..., i, m] * columns[m]
        out[..., i] = total


def mwf_mask(model: SpatialModel, epsilon: float | None = None) -> MatrixMask:
    """Multichannel Wiener filter M_j = C_j (C_x + eps*I)^{-1} per bin.

    The Wiener kernel on identity columns: row k of its output is column k
    of M_j, so it writes into the transposed mask.
    """
    num_bins, num_frames = model.psd.shape[1:]
    channels = model.num_channels
    values = np.empty((model.num_sources, num_bins, num_frames, channels, channels),
                      dtype=np.complex128)
    identity = np.broadcast_to(np.eye(channels, dtype=np.complex128),
                               (num_bins, num_frames, channels, channels))
    _wiener(model, identity, values.swapaxes(-1, -2), epsilon)
    return MatrixMask(values)


def _freq_slabs(num_bins: int, num_frames: int, channels: int):
    """Frequency chunks of at most 64k cells (frames x I x I per bin).

    Every step of the Wiener kernel and of a matrix mask's product is a
    whole-slab array operation that reads a strided I x I entry, so slabs
    are kept cache-sized: a slab of C_x or of a mask is at most 1 MB, and
    at two channels each per-channel temporary 256 kB.  The kernel
    measured faster at this cap than at 250k or 4M cells, and its peak
    memory stays far below that of its output.
    """
    step = max(1, _CHUNK_CELLS // max(1, num_frames * channels * channels))
    for start in range(0, num_bins, step):
        yield start, min(start + step, num_bins)


def apply_mask(mask, mixture: Spectrogram, j: int) -> Spectrogram:
    """Apply source j's mask to the mixture spectrogram.

    Scalar masks multiply each channel; matrix masks act on the channel
    vector x(f,t) by matrix-vector product.
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
        masked = values[j] * mixture.bins
    else:
        masked = np.empty(mixture.bins.shape, dtype=np.complex128)
        for start, stop in _freq_slabs(*masked.shape):
            bins = mixture.bins[start:stop]
            _channel_sum(values[j][start:stop],
                         [bins[..., m] for m in range(bins.shape[-1])],
                         masked[start:stop])
    return Spectrogram(masked, mixture.config, mixture.original_length, mixture.sample_rate)


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
    mixture: AudioSignal,
    true_sources: list,
    method: str,
    config: StftConfig = StftConfig(),
) -> list:
    """Run one oracle method end to end, returning time-domain estimates.

    All inputs are transformed with ``config``; the mask derived from the
    true source images is applied to the mixture and synthesized back,
    trimmed to the input length.  ``method`` names the mask and its
    exponent: ``IBM1``, ``IBM2``, ``MWF`` or ``IRM<alpha>``
    (:func:`_resolve_method`).

    The work runs over chunks of frames (:func:`spectral._chunks`): each
    chunk's mixture and source bins are analysed, masked and added to the
    estimates by overlap-add, so only one chunk's spectra are alive at a
    time.  The scalar masks are local to each bin and frame, so their
    estimates equal the whole-spectrogram route bitwise.  MWF makes two
    passes: the first sums each source's outer products for the spatial
    covariances, the second recomputes each chunk's source bins for the
    PSD and runs the Wiener kernel on the mixture's bins.
    """
    kind, exponent = _resolve_method(method)
    if not true_sources:
        raise ValueError("at least one true source is required")
    for j, source in enumerate(true_sources):
        check_layout(f"source {j}", source.layout, mixture.layout)

    length, channels = mixture.samples.shape
    if length == 0:
        raise ValueError("cannot transform an empty signal")
    _, num_frames = _frame_layout(length, config)
    outputs = [_OverlapAdd(config, num_frames, channels) for _ in true_sources]
    chunks = list(_chunks(num_frames, config, channels))
    win = config.taper()

    def analyse(signal, start, stop):
        bins = _analyse(signal.samples, config, win, start, stop)
        return Spectrogram(bins, config, length, mixture.sample_rate)

    if kind == "MWF":
        outer_sums = np.zeros((len(true_sources), config.num_bins, channels, channels),
                              dtype=np.complex128)
        live = [False] * len(true_sources)
        for start, stop in chunks:
            for j, source in enumerate(true_sources):
                bins = analyse(source, start, stop).bins
                outer_sums[j] += _outer_sum(bins)
                live[j] = live[j] or bool(np.any(bins))
        covariance = _spatial_covariances(outer_sums, live)
    for start, stop in chunks:
        mix = analyse(mixture, start, stop)
        images = [analyse(source, start, stop) for source in true_sources]
        if kind == "MWF":
            model = _local_model([image.bins for image in images], *covariance)
            # The Wiener kernel on the mixture column: no mask is materialized.
            masked = np.empty((model.num_sources,) + mix.bins.shape, complex)
            _wiener(model, mix.bins[..., None, :], masked[..., None, :])
        else:
            images = SourceImages(images)
            mask = (ibm_mask if kind == "IBM" else irm_mask)(images, exponent)
            masked = (apply_mask(mask, mix, j).bins for j in range(mask.num_sources))
        for output, bins in zip(outputs, masked):
            output.add(start, bins)
    return [output.signal(length, mixture.sample_rate) for output in outputs]
