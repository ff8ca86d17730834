"""Pairwise significance of method score differences, Conover style.

Scores are paired by track and ranked within each track (average ranks on
ties), then Conover's post-hoc t-statistic on Friedman rank sums gives a
two-sided p-value per method pair.  Rank-based, so any strictly monotone
transform of the scores leaves the matrix unchanged.  Ranks and the t
distribution's tail come from NumPy and ``scipy.special``, so the module
loads no ``scipy.stats``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

__all__ = ["SignificanceMatrix", "pairwise_significance"]


@dataclass
class SignificanceMatrix:
    """Symmetric matrix of two-sided p-values with unit diagonal.

    Cells are NaN when the pair could not be tested (fewer than two
    common tracks).
    """

    methods: tuple
    p_values: np.ndarray
    metric: str = ""
    target: str = ""
    num_tracks: int = 0

    def __post_init__(self):
        self.methods = tuple(self.methods)
        p = np.asarray(self.p_values, dtype=np.float64)
        k = len(self.methods)
        if p.shape != (k, k):
            raise ValueError(f"expected a {k}x{k} matrix, got {p.shape}")
        self.p_values = p

    def pair(self, a: str, b: str) -> float:
        return float(self.p_values[self.methods.index(a), self.methods.index(b)])


def _common_tracks(scores_by_method: dict) -> list:
    """Tracks scored by every method, in sorted order."""
    methods = list(scores_by_method)
    common = set(scores_by_method[methods[0]])
    for method in methods[1:]:
        common &= set(scores_by_method[method])
    return sorted(common)


def _average_ranks(data: np.ndarray) -> np.ndarray:
    """1-based ranks within each row of ``data``, ties sharing their mean rank.

    A value's rank is the count of smaller values in its row plus half of
    (the count of equal values, itself included, plus one): for a run of
    equal values at sorted positions s..e (0-based), the half-integer
    ``0.5 * (s + e + 2)`` that ``scipy.stats.rankdata`` gives it.
    Infinities rank like any other value, and equal infinities tie.
    """
    value, others = data[:, :, None], data[:, None, :]
    smaller = np.count_nonzero(others < value, axis=2)
    equal = np.count_nonzero(others == value, axis=2)
    return smaller + 0.5 * (equal + 1)


def pairwise_significance(
    scores_by_method: dict,
    metric: str = "",
    target: str = "",
) -> SignificanceMatrix:
    """Conover post-hoc test on per-track scores of competing methods.

    Parameters
    ----------
    scores_by_method : dict
        Maps method name to a mapping of track name to score (typically
        the track-wise median of a metric).  Only tracks present for
        every method enter the test (complete block design).

    Returns
    -------
    SignificanceMatrix
        p < alpha in cell (i, j) means methods i and j differ
        significantly; identical score vectors give p = 1.

    Raises
    ------
    ValueError
        When a score on a common track is NaN, which has no rank; the
        message names the method and the track.  Infinite scores rank as
        the extremes.
    """
    methods = tuple(scores_by_method)
    k = len(methods)
    if k < 2:
        raise ValueError("significance needs at least two methods")
    tracks = _common_tracks(scores_by_method)
    n = len(tracks)
    p = np.full((k, k), math.nan)
    np.fill_diagonal(p, 1.0)
    if n < 2:
        return SignificanceMatrix(methods, p, metric, target, n)

    data = np.array(
        [[scores_by_method[m][t] for m in methods] for t in tracks], dtype=np.float64
    )
    unranked = np.argwhere(np.isnan(data))
    if unranked.size:
        t, m = unranked[0]
        raise ValueError(f"score of method {methods[m]!r} on track {tracks[t]!r} is NaN")
    ranks = _average_ranks(data)  # (n, k)
    rank_sums = ranks.sum(axis=0)

    a1 = float(np.sum(ranks * ranks))
    c1 = n * k * (k + 1) ** 2 / 4.0
    df = (n - 1) * (k - 1)

    if a1 <= c1:
        # Every track ranks all methods identically (total ties): no
        # evidence of any difference.
        p.fill(1.0)
        return SignificanceMatrix(methods, p, metric, target, n)

    t1 = (k - 1) * (float(np.sum(rank_sums**2)) - n * c1) / (a1 - c1)
    spread = 2.0 * n * (a1 - c1) / df * (1.0 - t1 / (n * (k - 1)))

    gaps = np.abs(rank_sums[:, None] - rank_sums[None, :])
    if spread <= 0.0:
        # Perfectly consistent rankings: any rank-sum gap is infinitely
        # many standard errors wide.
        p = np.where(gaps == 0.0, 1.0, 0.0)
    else:
        # stdtr(df, -x) is the upper tail t.sf(x, df), bitwise; stdtr(df, 0)
        # is 0.5, so the diagonal is 1.
        p = np.minimum(1.0, 2.0 * stdtr(df, -gaps / math.sqrt(spread)))
    return SignificanceMatrix(methods, p, metric, target, n)
