"""Oracle time-frequency masks computed from true source images.

Five classic upper-bound separators are provided, all closed-form given
the ground-truth source images:

* IBM1 / IBM2: binary masks selecting bins where a source's magnitude
  (order 1) or power (order 2) is at least half the sum over sources.
* IRM1 / IRM2: soft ratio masks, fractional magnitude or power.
* MWF: multichannel Wiener filter from a local Gaussian model, one I-by-I
  complex matrix per source and bin.

Masks are built in the STFT domain and applied to the mixture; estimates
return to the time domain through weighted overlap-add synthesis.  The
MWF filters and estimates share one kernel, which solves the loaded
mixture covariance of every bin and frame at once by an elementwise LDL^H
elimination over the channels, slab by slab along frequency.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .audio import AudioSignal, check_layout
from .spectral import Spectrogram, StftConfig, istft, stft

__all__ = [
    "ORACLE_METHODS",
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

ORACLE_METHODS = ("IBM1", "IBM2", "IRM1", "IRM2", "MWF")


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

    def magnitudes(self) -> np.ndarray:
        """|y_j| stacked to shape (J, F, T, I)."""
        return np.abs(np.stack([image.bins for image in self.images]))


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


def ibm_mask(sources: SourceImages, order: int = 1) -> ScalarMask:
    """Ideal binary mask: 1 where a source holds at least half the energy.

    ``order`` selects magnitude (1) or power (2) comparison.  Ties are
    inclusive, so exactly equal competitors all receive 1; bins where
    every source is silent receive 0.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    power = sources.magnitudes()
    if order == 2:
        power = power * power
    total = power.sum(axis=0)
    values = ((power >= 0.5 * total) & (total > 0)).astype(np.float64)
    return ScalarMask(values)


def irm_mask(sources: SourceImages, alpha: float = 2.0) -> ScalarMask:
    """Ideal ratio mask: fractional |y_j|^alpha of the per-bin total.

    Bins where all sources vanish get the uniform value 1/J, which keeps
    the masks summing to one everywhere.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    power = sources.magnitudes() ** alpha
    total = power.sum(axis=0)
    num = sources.num_sources
    values = np.full_like(power, 1.0 / num)
    np.divide(power, total, out=values, where=total > 0)
    return ScalarMask(values)


def estimate_mwf_model(sources: SourceImages, iterations: int = 2) -> SpatialModel:
    """Fit the local Gaussian model (v_j, R_j) by alternating estimation.

    Starting from v_j = (1/I)*||y_j(f,t)||^2, each sweep recomputes the
    frequency-wise covariance R_j(f) as the PSD-weighted average of outer
    products (trace-normalized to I) and then the PSD as the matched
    quadratic form v_j = (1/I)*y_j^H R_j^{-1} y_j.  A source with no
    energy anywhere is flagged and pinned to R_j = identity, v_j = 0.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    num_sources = sources.num_sources
    num_bins, num_frames, channels = sources.images[0].bins.shape

    psd = np.empty((num_sources, num_bins, num_frames))
    cov = np.empty((num_sources, num_bins, channels, channels), dtype=np.complex128)
    eye = np.eye(channels, dtype=np.complex128)
    degenerate = []

    for j, image in enumerate(sources.images):
        bins = image.bins  # (F, T, I)
        if not np.any(bins):
            degenerate.append(j)
            psd[j] = 0.0
            cov[j] = eye
            continue
        # Sum of outer products per frequency; reused every sweep because
        # the weights only rescale it.
        outer_sum = bins.swapaxes(1, 2) @ bins.conj()
        flat = np.ascontiguousarray(bins).view(np.float64)  # (F, T, 2I) re/im
        v = np.einsum("ftk,ftk->ft", flat, flat) / channels
        r = np.broadcast_to(eye, outer_sum.shape).copy()
        for _ in range(iterations):
            weight = v.sum(axis=1)  # (F,)
            live = weight > 0
            r[live] = outer_sum[live] / weight[live, None, None]
            r[~live] = eye
            trace = np.einsum("fii->f", r).real
            scalable = trace > 0
            r[scalable] *= (channels / trace[scalable])[:, None, None]
            r[~scalable] = eye
            r_inv = np.linalg.pinv(r, hermitian=True)
            v = np.einsum("ftk,ftk->ft",  # Re sum_i conj(y_i) (R^-1 y)_i
                          (bins @ r_inv.swapaxes(-1, -2)).view(np.float64), flat)
            v = np.maximum(v / channels, 0.0)
        psd[j] = v
        cov[j] = (r + r.conj().swapaxes(-1, -2)) / 2.0

    if degenerate:
        warnings.warn(
            f"sources {degenerate} are silent; covariance pinned to identity",
            RuntimeWarning,
            stacklevel=2,
        )
    return SpatialModel(psd, cov, tuple(degenerate))


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
    step = max(1, 64_000 // max(1, num_frames * channels * channels))
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
    if isinstance(mask, ScalarMask):
        if values.shape[1:] != mixture.bins.shape:
            raise ValueError(
                f"mask shape {values.shape[1:]} does not match "
                f"mixture {mixture.bins.shape}"
            )
        masked = values[j] * mixture.bins
    else:
        if values.shape[1:3] + values.shape[4:] != mixture.bins.shape:
            raise ValueError(
                f"mask shape {values.shape[1:]} does not match "
                f"mixture {mixture.bins.shape}"
            )
        masked = np.empty(mixture.bins.shape, dtype=np.complex128)
        for start, stop in _freq_slabs(*masked.shape):
            bins = mixture.bins[start:stop]
            _channel_sum(values[j][start:stop],
                         [bins[..., m] for m in range(bins.shape[-1])],
                         masked[start:stop])
    return Spectrogram(masked, mixture.config, mixture.original_length, mixture.sample_rate)


def _resolve_method(method: str, alpha, order):
    """Normalize a method name plus optional explicit mask parameter.

    IBM takes only ``order`` and IRM only ``alpha``; MWF takes neither.  A
    parameter the method does not take, or one that contradicts the
    method's suffix, is an error.
    """
    name = method.upper()
    if name not in ORACLE_METHODS + ("IBM", "IRM"):
        raise ValueError(
            f"unknown method {method!r}; expected one of "
            f"{ORACLE_METHODS + ('IBM', 'IRM')}"
        )
    kind = name[:3]
    if alpha is not None and kind != "IRM":
        raise ValueError(f"alpha {alpha} does not apply to method {name}")
    if order is not None and kind != "IBM":
        raise ValueError(f"order {order} does not apply to method {name}")
    if name == "IBM":
        return "IBM", None, order if order is not None else 1
    if name == "IRM":
        return "IRM", alpha if alpha is not None else 2.0, None
    if name == "MWF":
        return "MWF", None, None
    suffix = int(name[3])
    if kind == "IBM":
        if order is not None and order != suffix:
            raise ValueError(f"order {order} conflicts with method {name}")
        return "IBM", None, suffix
    if alpha is not None and alpha != float(suffix):
        raise ValueError(f"alpha {alpha} conflicts with method {name}")
    return "IRM", float(suffix), None


def oracle_separate(
    mixture: AudioSignal,
    true_sources: list,
    method: str,
    config: StftConfig = StftConfig(),
    iterations: int = 2,
    alpha: float | None = None,
    order: int | None = None,
) -> list:
    """Run one oracle method end to end, returning time-domain estimates.

    All inputs are transformed with ``config``; the mask derived from the
    true source images is applied to the mixture and synthesized back,
    trimmed to the input length.  ``method`` is one of the five canonical
    names, or bare ``IBM``/``IRM`` combined with an explicit ``order`` or
    ``alpha``.
    """
    kind, alpha, order = _resolve_method(method, alpha, order)
    if not true_sources:
        raise ValueError("at least one true source is required")
    for j, source in enumerate(true_sources):
        check_layout(f"source {j}", source.layout, mixture.layout)

    mix_spec = stft(mixture, config)
    images = SourceImages([stft(source, config) for source in true_sources])

    if kind == "MWF":
        model = estimate_mwf_model(images, iterations)
        # The Wiener kernel on the mixture column: no mask is materialized.
        masked = np.empty((images.num_sources,) + mix_spec.bins.shape, complex)
        _wiener(model, mix_spec.bins[..., None, :], masked[..., None, :])
        specs = [
            Spectrogram(bins, config, mix_spec.original_length, mixture.sample_rate)
            for bins in masked
        ]
    else:
        mask = ibm_mask(images, order) if kind == "IBM" else irm_mask(images, alpha)
        specs = [apply_mask(mask, mix_spec, j) for j in range(images.num_sources)]
    return [istft(spec, mixture.num_samples) for spec in specs]
