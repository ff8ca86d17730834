"""Rank-test checks: independent recomputation and known designs."""

import math

import numpy as np
import pytest
from scipy import stats as sstats

from sepeval import SignificanceMatrix, pairwise_significance
from sepeval.stats import _average_ranks


def _random_scores(rng, methods=("a", "b", "c"), tracks=8, lift=None):
    lift = lift or {}
    return {
        m: {
            f"track{t:02d}": float(rng.standard_normal() + lift.get(m, 0.0))
            for t in range(tracks)
        }
        for m in methods
    }


def _reference_pvalue(data, i, j):
    """Straight-line recomputation of the post-hoc rank statistic."""
    n, k = data.shape
    ranks = np.array([sstats.rankdata(row) for row in data])
    rank_sums = ranks.sum(axis=0)
    a1 = np.sum(ranks**2)
    c1 = n * k * (k + 1) ** 2 / 4.0
    df = (n - 1) * (k - 1)
    t1 = (k - 1) * (np.sum(rank_sums**2) - n * c1) / (a1 - c1)
    spread = 2.0 * n * (a1 - c1) / df * (1.0 - t1 / (n * (k - 1)))
    stat = abs(rank_sums[i] - rank_sums[j]) / math.sqrt(spread)
    return min(1.0, 2.0 * sstats.t.sf(stat, df))


class TestAgainstReferences:
    def test_matches_straight_line_recomputation(self):
        rng = np.random.default_rng(91)
        scores = _random_scores(rng, tracks=12)
        matrix = pairwise_significance(scores)
        methods = list(scores)
        tracks = sorted(scores[methods[0]])
        data = np.array([[scores[m][t] for m in methods] for t in tracks])
        for i in range(3):
            for j in range(i + 1, 3):
                expect = _reference_pvalue(data, i, j)
                assert matrix.p_values[i, j] == expect

    def test_rank_statistic_consistent_with_friedman(self):
        """The internal chi-square statistic matches the scipy Friedman test
        on tie-free data (where the two definitions coincide)."""
        rng = np.random.default_rng(92)
        scores = _random_scores(rng, tracks=15)
        methods = list(scores)
        tracks = sorted(scores[methods[0]])
        data = np.array([[scores[m][t] for m in methods] for t in tracks])
        n, k = data.shape
        ranks = np.array([sstats.rankdata(row) for row in data])
        rank_sums = ranks.sum(axis=0)
        a1 = np.sum(ranks**2)
        c1 = n * k * (k + 1) ** 2 / 4.0
        t1 = (k - 1) * (np.sum(rank_sums**2) - n * c1) / (a1 - c1)
        scipy_stat = sstats.friedmanchisquare(*data.T).statistic
        assert t1 == pytest.approx(scipy_stat, rel=1e-12)


def _tie_heavy_rows():
    """200 rows of 7 scores from five values and +inf; the first 20 all equal."""
    rng = np.random.default_rng(90)
    data = rng.integers(-2, 3, size=(200, 7)).astype(float)
    data[rng.random(data.shape) < 0.1] = math.inf
    data[:20] = 3.0
    return data


@pytest.mark.parametrize("rows", [
    [[1.0, 1.0, 1.0, 1.0]],  # all equal
    [[0.0, -0.0, 0.0], [5.0, 5.0, 5.0]],  # signed zeros tie; all equal
    [[2.0, 1.0, 2.0, 1.0, 2.0], [3.0, 3.0, 1.0, 2.0, 2.0]],
    [[math.inf, 1.0, math.inf, -math.inf, -math.inf]],  # infinities tie
    [[7.0]],
    _tie_heavy_rows(),
])
def test_ranks_are_bitwise_rankdatas(rows):
    """Ties get the half-integer average ranks of ``scipy.stats.rankdata``."""
    data = np.array(rows)
    np.testing.assert_array_equal(_average_ranks(data), sstats.rankdata(data, axis=1))


class TestKnownDesigns:
    def test_consistent_dominance_is_significant(self):
        """One method ahead on all 20 tracks: p below any usual alpha."""
        rng = np.random.default_rng(93)
        base = {f"t{i:02d}": float(rng.standard_normal()) for i in range(20)}
        scores = {
            "low": base,
            "high": {t: v + 10.0 for t, v in base.items()},
        }
        matrix = pairwise_significance(scores)
        assert matrix.pair("low", "high") < 0.01

    def test_identical_methods_not_significant(self):
        rng = np.random.default_rng(94)
        base = {f"t{i:02d}": float(rng.standard_normal()) for i in range(10)}
        scores = {"a": base, "b": dict(base), "c": dict(base)}
        matrix = pairwise_significance(scores)
        off_diag = matrix.p_values[~np.eye(3, dtype=bool)]
        np.testing.assert_array_equal(off_diag, 1.0)

    def test_mixed_design(self):
        """Two evenly traded methods tie while a dominant one stands out."""
        tracks = [f"t{i:02d}" for i in range(24)]
        scores = {
            "a": {t: 2.0 if i % 2 == 0 else 1.0 for i, t in enumerate(tracks)},
            "b": {t: 1.0 if i % 2 == 0 else 2.0 for i, t in enumerate(tracks)},
            "winner": {t: 3.0 for t in tracks},
        }
        matrix = pairwise_significance(scores)
        assert matrix.pair("a", "winner") < 0.01
        assert matrix.pair("b", "winner") < 0.01
        assert matrix.pair("a", "b") == 1.0  # equal rank sums, zero statistic


class TestMatrixProperties:
    def test_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(96)
        matrix = pairwise_significance(_random_scores(rng, tracks=9))
        p = matrix.p_values
        np.testing.assert_array_equal(p, p.T)
        np.testing.assert_array_equal(np.diag(p), 1.0)
        assert np.all(p[np.isfinite(p)] >= 0.0)
        assert np.all(p[np.isfinite(p)] <= 1.0)

    def test_monotone_transform_invariance(self):
        """Ranks see only order, so x -> x^3 leaves the matrix bitwise equal."""
        rng = np.random.default_rng(97)
        scores = _random_scores(rng, tracks=11)
        cubed = {
            m: {t: v**3 for t, v in by_track.items()}
            for m, by_track in scores.items()
        }
        np.testing.assert_array_equal(
            pairwise_significance(scores).p_values,
            pairwise_significance(cubed).p_values,
        )

    def test_only_common_tracks_enter(self):
        """Tracks missing from any method are ignored, not treated as zero."""
        rng = np.random.default_rng(98)
        scores = _random_scores(rng, methods=("a", "b"), tracks=10)
        extra = dict(scores["a"])
        extra["only_in_a"] = 1e9
        baseline = pairwise_significance(scores)
        widened = pairwise_significance({"a": extra, "b": scores["b"]})
        np.testing.assert_array_equal(widened.p_values, baseline.p_values)
        assert widened.num_tracks == 10

    def test_too_few_common_tracks_gives_nan(self):
        scores = {"a": {"t1": 1.0}, "b": {"t1": 2.0}}
        matrix = pairwise_significance(scores)
        assert math.isnan(matrix.pair("a", "b"))
        assert matrix.pair("a", "a") == 1.0
        assert matrix.num_tracks == 1

    def test_nan_score_is_refused_by_method_and_track(self):
        """A NaN has no rank; it must not turn every p-value into 1.0."""
        rng = np.random.default_rng(95)
        scores = _random_scores(rng, tracks=6)
        scores["b"]["track03"] = math.nan
        with pytest.raises(ValueError, match="method 'b' on track 'track03' is NaN"):
            pairwise_significance(scores)

    def test_infinite_scores_rank_as_extremes(self):
        rng = np.random.default_rng(100)
        scores = _random_scores(rng, tracks=8)
        finite = {m: dict(by_track) for m, by_track in scores.items()}
        scores["a"]["track02"], finite["a"]["track02"] = math.inf, 1e300
        scores["c"]["track05"], finite["c"]["track05"] = -math.inf, -1e300
        np.testing.assert_array_equal(
            pairwise_significance(scores).p_values,
            pairwise_significance(finite).p_values,
        )

    def test_fewer_than_two_methods_rejected(self):
        with pytest.raises(ValueError):
            pairwise_significance({"a": {"t1": 1.0, "t2": 2.0}})

    def test_metadata_carried(self):
        rng = np.random.default_rng(99)
        matrix = pairwise_significance(
            _random_scores(rng, tracks=5), metric="SDR", target="vocals"
        )
        assert matrix.metric == "SDR"
        assert matrix.target == "vocals"
        assert matrix.num_tracks == 5

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SignificanceMatrix(("a", "b"), np.ones((3, 3)))
