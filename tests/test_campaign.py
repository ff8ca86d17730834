"""Campaign tests: track scoring, parallel runs, aggregation, significance."""

import csv
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepeval import (
    AggregateTable,
    AudioSignal,
    EvalConfig,
    FrameScores,
    SignificanceMatrix,
    TrackScore,
    WavFormatError,
    aggregate,
    evaluate_track,
    read_report,
    run_campaign,
    save_wav,
    scan_corpus,
    significance_from_table,
    write_significance_csv,
    write_significance_json,
)

from sepeval import campaign, dataset
from sepeval.bsseval import MODES

from conftest import FIXTURE_RATE, write_track

CONFIG = EvalConfig(window=4000, filter_len=32)


def _corpus_with_arrays(tmp_path, names=("One",), split="train", seed=5):
    rng = np.random.default_rng(seed)
    arrays = {}
    for name in names:
        arrays[name] = write_track(tmp_path / split / name, rng)
    return scan_corpus(tmp_path), arrays


def _write_estimates(dest, stem_arrays, names=None, transform=None):
    dest.mkdir(parents=True, exist_ok=True)
    for name in names or stem_arrays:
        samples = stem_arrays[name]
        if transform is not None:
            samples = transform(samples)
        save_wav(dest / f"{name}.wav", AudioSignal(samples, FIXTURE_RATE))


class TestEvaluateTrack:
    def test_true_stems_hit_the_ceiling(self, tmp_path):
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, stems)
        score = evaluate_track(corpus.tracks[0], est_dir, "oracle", CONFIG)
        assert set(score.targets) == {"drums", "bass", "other", "vocals",
                                      "accompaniment"}
        for frames in score.targets.values():
            for f in frames:
                for value in (f.sdr, f.isr, f.sir, f.sar):
                    assert value == math.inf or value >= 150.0

    def test_mixture_anchor_scores_are_finite(self, tmp_path):
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, mixture = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, {name: mixture for name in stems})
        score = evaluate_track(corpus.tracks[0], est_dir, "MIX", CONFIG)
        for name in ("drums", "bass", "other", "vocals"):
            for f in score.targets[name]:
                assert math.isfinite(f.sdr)
                assert f.sdr < 20.0

    def test_missing_estimate_drops_target_with_warning(self, tmp_path):
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, stems,
                         names=[n for n in stems if n != "vocals"])
        with pytest.warns(RuntimeWarning, match="vocals"):
            score = evaluate_track(corpus.tracks[0], est_dir, "partial", CONFIG)
        assert "vocals" not in score.targets
        assert "drums" in score.targets
        assert "accompaniment" in score.targets  # derived from non-vocal files

    def test_derived_accompaniment_matches_explicit_file(self, tmp_path):
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        derived_dir = tmp_path / "derived"
        explicit_dir = tmp_path / "explicit"
        _write_estimates(derived_dir, stems)
        _write_estimates(explicit_dir, stems)
        accomp = stems["drums"] + stems["bass"] + stems["other"]
        save_wav(explicit_dir / "accompaniment.wav",
                 AudioSignal(accomp, FIXTURE_RATE))
        a = evaluate_track(corpus.tracks[0], derived_dir, "m", CONFIG)
        b = evaluate_track(corpus.tracks[0], explicit_dir, "m", CONFIG)
        assert a.targets["accompaniment"] == b.targets["accompaniment"]

    def test_shape_mismatch_is_fatal(self, tmp_path):
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, stems)
        save_wav(est_dir / "vocals.wav",
                 AudioSignal(np.zeros((100, 2)), FIXTURE_RATE))
        with pytest.raises(ValueError, match="vocals"):
            evaluate_track(corpus.tracks[0], est_dir, "bad", CONFIG)

    def test_estimate_at_another_rate_is_fatal(self, tmp_path):
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, stems)
        save_wav(est_dir / "vocals.wav",
                 AudioSignal(stems["vocals"], 2 * FIXTURE_RATE))
        with pytest.raises(WavFormatError,
                           match=re.escape(str(est_dir / "vocals.wav"))):
            evaluate_track(corpus.tracks[0], est_dir, "bad", CONFIG)

    def test_mixture_header_only_checks_stems(self, tmp_path, monkeypatch):
        """mixture.wav is never decoded, yet a stem that disagrees with its
        header is fatal and named."""
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, stems)
        decoded = []
        load_wav = campaign.load_wav

        def recording_load_wav(path):
            decoded.append(path.name)
            return load_wav(path)

        for module in (campaign, dataset):
            monkeypatch.setattr(module, "load_wav", recording_load_wav)
        evaluate_track(corpus.tracks[0], est_dir, "m", CONFIG)
        assert "mixture.wav" not in decoded
        assert decoded.count("vocals.wav") == 2  # the stem and its estimate
        track = corpus.tracks[0]
        save_wav(track.path / "bass.wav",
                 AudioSignal(np.zeros((100, 2)), FIXTURE_RATE))
        with pytest.raises(WavFormatError, match="bass"):
            evaluate_track(track, est_dir, "m", CONFIG)

    def test_only_needed_estimates_are_decoded(self, tmp_path, monkeypatch):
        """The configured targets' files, and the non-vocal ones only while
        an accompaniment without a file of its own is derived from them."""
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, stems)
        decoded = []
        load_wav = campaign.load_wav

        def recording_load_wav(path):
            decoded.append(path.name)
            return load_wav(path)

        monkeypatch.setattr(campaign, "load_wav", recording_load_wav)

        def decode(*targets):
            decoded.clear()
            config = EvalConfig(window=4000, filter_len=32, targets=targets)
            evaluate_track(corpus.tracks[0], est_dir, "m", config)
            return sorted(decoded)

        assert decode("vocals") == ["vocals.wav"]
        assert decode("bass", "vocals") == ["bass.wav", "vocals.wav"]
        assert decode("accompaniment") == ["bass.wav", "drums.wav", "other.wav"]
        assert decode("drums", "accompaniment") == ["bass.wav", "drums.wav",
                                                    "other.wav"]
        accomp = stems["drums"] + stems["bass"] + stems["other"]
        save_wav(est_dir / "accompaniment.wav", AudioSignal(accomp, FIXTURE_RATE))
        assert decode("accompaniment") == ["accompaniment.wav"]

    def test_target_subset_respected(self, tmp_path):
        corpus, arrays = _corpus_with_arrays(tmp_path)
        stems, _ = arrays["One"]
        est_dir = tmp_path / "est"
        _write_estimates(est_dir, stems)
        config = EvalConfig(window=4000, filter_len=32, targets=("vocals",))
        score = evaluate_track(corpus.tracks[0], est_dir, "m", config)
        assert set(score.targets) == {"vocals"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(window=0)
        with pytest.raises(ValueError):
            EvalConfig(hop=0)
        with pytest.raises(ValueError):
            EvalConfig(targets=("vocals", "chorus"))
        for filter_len in (0, -3):
            with pytest.raises(ValueError, match="filter_len"):
                EvalConfig(filter_len=filter_len)
        # Only bss_eval's modes; compute_projection's names are not among them.
        for mode in ("v5", "global", "windowed", "v4"):
            with pytest.raises(ValueError, match="mode"):
                EvalConfig(mode=mode)
        for mode in MODES:
            assert EvalConfig(mode=mode).mode == mode


class TestRunCampaign:
    def _setup(self, tmp_path, names=("Able", "Baker")):
        corpus, arrays = _corpus_with_arrays(tmp_path, names=names)
        root = tmp_path / "estimates"
        for name in names:
            stems, _ = arrays[name]
            _write_estimates(root / name, stems)
        return corpus, root

    def test_scores_sorted_and_reports_written(self, tmp_path):
        corpus, root = self._setup(tmp_path)
        out = tmp_path / "reports"
        scores = run_campaign(corpus.tracks, root, "oracle", CONFIG,
                              output_dir=out)
        assert [s.track for s in scores] == ["Able", "Baker"]
        for score in scores:
            (back,) = read_report(out / f"{score.track}.json")
            assert back == score

    def test_worker_count_does_not_change_output(self, tmp_path):
        corpus, root = self._setup(tmp_path)
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_campaign(corpus.tracks, root, "m", CONFIG,
                     workers=1, output_dir=serial_dir)
        run_campaign(corpus.tracks, root, "m", CONFIG,
                     workers=4, output_dir=parallel_dir)
        for name in ("Able", "Baker"):
            assert (serial_dir / f"{name}.json").read_bytes() == (
                parallel_dir / f"{name}.json"
            ).read_bytes()

    def test_partial_failure_skips_track(self, tmp_path):
        corpus, root = self._setup(tmp_path)
        save_wav(root / "Able" / "drums.wav",
                 AudioSignal(np.zeros((9, 2)), FIXTURE_RATE))
        with pytest.warns(RuntimeWarning, match="Able"):
            scores = run_campaign(corpus.tracks, root, "m", CONFIG)
        assert [s.track for s in scores] == ["Baker"]

    def test_all_failures_raise(self, tmp_path):
        corpus, root = self._setup(tmp_path)
        for name in ("Able", "Baker"):
            save_wav(root / name / "drums.wav",
                     AudioSignal(np.zeros((9, 2)), FIXTURE_RATE))
        with pytest.warns(RuntimeWarning):
            with pytest.raises(RuntimeError):
                run_campaign(corpus.tracks, root, "m", CONFIG)

    def test_memory_error_is_a_per_track_failure(self, tmp_path, monkeypatch):
        """Running out of memory on one track leaves the others scored."""
        corpus, root = self._setup(tmp_path, names=("Able", "Baker", "Charlie"))
        real = campaign.evaluate_track

        def exhausting(track, *args, **kwargs):
            if track.name == "Baker":
                raise MemoryError("cannot allocate the Gram")
            return real(track, *args, **kwargs)

        monkeypatch.setattr(campaign, "evaluate_track", exhausting)
        out = tmp_path / "reports"
        with pytest.warns(RuntimeWarning, match="Baker") as caught:
            scores = run_campaign(corpus.tracks, root, "m", CONFIG,
                                  workers=2, output_dir=out)
        assert [s.track for s in scores] == ["Able", "Charlie"]
        assert sorted(p.name for p in out.iterdir()) == ["Able.json", "Charlie.json"]
        failures = [str(w.message) for w in caught if "failed" in str(w.message)]
        assert len(failures) == 1 and "Baker" in failures[0]


class TestMapThreads:
    def test_results_in_item_order(self):
        for workers in (1, 2, 5):
            assert campaign._map_threads(lambda x: x * x, range(7), workers) == [
                x * x for x in range(7)
            ]

    def test_caller_takes_part(self):
        """One worker is the caller; two workers start one thread."""
        threads = campaign._map_threads(
            lambda _: threading.get_ident(), range(4), workers=1
        )
        assert set(threads) == {threading.get_ident()}
        barrier = threading.Barrier(2, timeout=10)

        def meet(_):
            barrier.wait()  # both items run at once, or this times out
            return threading.get_ident()

        threads = campaign._map_threads(meet, range(2), workers=2)
        assert threading.get_ident() in threads and len(set(threads)) == 2

    def test_helper_exception_reaches_caller(self):
        caller = threading.get_ident()
        helper_ran = threading.Event()

        def fail_off_caller(_):
            if threading.get_ident() == caller:
                helper_ran.wait(timeout=10)  # leave the other item to the helper
                return
            helper_ran.set()
            raise KeyError("helper")

        with pytest.raises(KeyError, match="helper"):
            campaign._map_threads(fail_off_caller, range(2), workers=2)


def _frame(sdr, start=0, length=100):
    return FrameScores(sdr=sdr, isr=sdr, sir=sdr, sar=sdr,
                       window_start=start, window_len=length)


def _track_score(track, method, sdrs):
    frames = [_frame(v, start=100 * i) for i, v in enumerate(sdrs)]
    return TrackScore(track=track, method=method, targets={"vocals": frames},
                      sample_rate=8000, window=100, hop=100)


class TestAggregate:
    def test_median_over_finite_frames(self):
        scores = [_track_score("T", "m", [1.0, 3.0, 5.0])]
        table = aggregate(scores)
        assert table.track_medians[("m", "vocals", "SDR")]["T"] == 3.0

    def test_non_finite_frames_excluded(self):
        scores = [_track_score("T", "m", [1.0, math.inf, 3.0])]
        table = aggregate(scores)
        assert table.track_medians[("m", "vocals", "SDR")]["T"] == 2.0

    def test_all_non_finite_gives_none(self):
        scores = [_track_score("T", "m", [math.inf, -math.inf, math.nan])]
        table = aggregate(scores)
        assert table.track_medians[("m", "vocals", "SDR")]["T"] is None
        assert table.campaign_medians[("m", "vocals", "SDR")] is None

    def test_campaign_median_over_tracks(self):
        scores = [
            _track_score("A", "m", [2.0]),
            _track_score("B", "m", [4.0]),
            _track_score("C", "m", [9.0]),
        ]
        table = aggregate(scores)
        assert table.campaign_medians[("m", "vocals", "SDR")] == 4.0

    def test_score_order_does_not_matter(self):
        scores = [
            _track_score("A", "m", [2.0]),
            _track_score("B", "m", [4.0]),
            _track_score("C", "n", [1.0]),
        ]
        forward = aggregate(scores)
        backward = aggregate(scores[::-1])
        assert forward.track_medians == backward.track_medians
        assert forward.campaign_medians == backward.campaign_medians

    def test_methods_listed_sorted(self):
        scores = [_track_score("A", "zeta", [1.0]),
                  _track_score("A", "alpha", [1.0])]
        assert aggregate(scores).methods == ("alpha", "zeta")

    def test_csv_round_trip(self, tmp_path):
        scores = [_track_score("A", "m", [2.0]), _track_score("B", "m", [4.0])]
        path = tmp_path / "agg.csv"
        aggregate(scores).write_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["method", "target", "metric", "track",
                           "track_median", "campaign_median"]
        sdr_rows = [r for r in rows[1:] if r[2] == "SDR"]
        assert [(r[3], float(r[4]), float(r[5])) for r in sdr_rows] == [
            ("A", 2.0, 3.0),
            ("B", 4.0, 3.0),
        ]

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_even_count_takes_mean_of_middle_pair(self):
        scores = [_track_score("T", "m", [4.0, 1.0, math.nan, 2.0, 8.0])]
        assert aggregate(scores).track_medians[("m", "vocals", "SDR")]["T"] == 3.0

    def test_scores_by_method_skips_undefined(self):
        table = AggregateTable(
            track_medians={
                ("m", "vocals", "SDR"): {"A": 1.0, "B": None},
                ("n", "vocals", "SDR"): {"A": 2.0, "B": 3.0},
            },
            campaign_medians={},
        )
        scores = table.scores_by_method("vocals", "SDR")
        assert scores["m"] == {"A": 1.0}
        assert scores["n"] == {"A": 2.0, "B": 3.0}


class TestSignificance:
    def _table(self, gap=10.0, tracks=8):
        scores = []
        rng = np.random.default_rng(17)
        for i in range(tracks):
            base = float(rng.standard_normal())
            scores.append(_track_score(f"t{i:02d}", "A", [base]))
            scores.append(_track_score(f"t{i:02d}", "B", [base + gap]))
        return aggregate(scores)

    def test_consistent_gap_is_significant(self):
        matrix = significance_from_table(self._table(), "vocals", "SDR")
        assert matrix.pair("A", "B") < 0.01
        assert matrix.num_tracks == 8
        assert matrix.metric == "SDR"
        assert matrix.target == "vocals"

    def test_single_method_rejected(self):
        table = aggregate([_track_score("T", "only", [1.0])])
        with pytest.raises(ValueError):
            significance_from_table(table, "vocals", "SDR")

    def test_csv_blank_for_untestable_pairs(self, tmp_path):
        matrix = SignificanceMatrix(
            ("a", "b"), np.array([[1.0, math.nan], [math.nan, 1.0]])
        )
        path = tmp_path / "sig.csv"
        write_significance_csv(matrix, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["method", "a", "b"]
        assert rows[1] == ["a", "1.0", ""]
        assert rows[2] == ["b", "", "1.0"]

    def test_json_null_for_untestable_pairs(self, tmp_path):
        import json

        matrix = SignificanceMatrix(
            ("a", "b"), np.array([[1.0, math.nan], [math.nan, 1.0]]),
            metric="SDR", target="vocals", num_tracks=1,
        )
        path = tmp_path / "sig.json"
        write_significance_json(matrix, path)
        payload = json.loads(path.read_text())
        assert payload["methods"] == ["a", "b"]
        assert payload["p_values"] == [[1.0, None], [None, 1.0]]
        assert payload["num_tracks"] == 1


def _np_finite_median(values):
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return None
    with np.errstate(over="ignore"):  # two middle values near the float max
        return float(np.median(finite))


# Frame lists of odd and even length, empty ones and all-non-finite ones.
_FRAME_VALUES = st.lists(
    st.one_of(
        st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324,
                         1.7976931348623157e308, -1.7976931348623157e308]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-100.0, 100.0),
    ),
    max_size=9,
)


class TestMedianProperty:
    # Derandomized: the same examples on every run, so the suite cannot flake.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rows=st.lists(
        st.tuples(st.sampled_from(["A", "B", "C", "D"]),
                  st.sampled_from(["m", "n"]), _FRAME_VALUES),
        min_size=1, max_size=8, unique_by=lambda row: row[:2],
    ), data=st.data())
    def test_medians_equal_numpy_and_ignore_order(self, rows, data):
        scores = [_track_score(track, method, values)
                  for track, method, values in rows]
        table = aggregate(scores)
        for track, method, values in rows:
            got = table.track_medians[(method, "vocals", "SDR")][track]
            want = _np_finite_median(values)
            assert got == want and type(got) is type(want)
        for key, per_track in table.track_medians.items():
            want = _np_finite_median(v for v in per_track.values() if v is not None)
            assert table.campaign_medians[key] == want
        shuffled = aggregate(data.draw(st.permutations(scores)))
        assert shuffled.track_medians == table.track_medians
        assert shuffled.campaign_medians == table.campaign_medians
