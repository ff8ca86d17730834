"""Report serialization tests: round trips, statuses and schema errors."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepeval import (
    FrameScores,
    ReportSchemaError,
    TrackScore,
    read_report,
    write_report,
)


def _frame(sdr=1.5, isr=2.5, sir=3.5, sar=4.5, start=0, length=100):
    return FrameScores(sdr=sdr, isr=isr, sir=sir, sar=sar,
                       window_start=start, window_len=length)


def _score(track="Song", method="IRM2", **kwargs):
    targets = kwargs.pop(
        "targets",
        {"vocals": [_frame(), _frame(start=100)], "drums": [_frame(sdr=-3.0)]},
    )
    return TrackScore(track=track, method=method, targets=targets,
                      sample_rate=8000, window=100, hop=100, **kwargs)


class TestRoundTrip:
    def test_finite_values_survive(self, tmp_path):
        path = tmp_path / "r.json"
        score = _score()
        write_report(score, path)
        (back,) = read_report(path)
        assert back == score

    def test_non_finite_values_survive(self, tmp_path):
        path = tmp_path / "r.json"
        frame = _frame(sdr=math.inf, isr=-math.inf, sir=math.nan, sar=0.0)
        score = _score(targets={"bass": [frame]})
        write_report(score, path)
        (back,) = read_report(path)
        got = back.targets["bass"][0]
        assert got.sdr == math.inf
        assert got.isr == -math.inf
        assert math.isnan(got.sir)
        assert got.sar == 0.0

    def test_non_finite_serialized_as_null_plus_status(self, tmp_path):
        path = tmp_path / "r.json"
        frame = _frame(sdr=math.inf, isr=-math.inf, sir=math.nan, sar=7.0)
        write_report(_score(targets={"other": [frame]}), path)
        payload = json.loads(path.read_text())
        obj = payload["targets"]["other"]["frames"][0]
        assert obj["SDR"] is None and obj["SDR_status"] == "inf"
        assert obj["ISR"] is None and obj["ISR_status"] == "neg_inf"
        assert obj["SIR"] is None and obj["SIR_status"] == "undefined"
        assert obj["SAR"] == 7.0 and obj["SAR_status"] == "ok"
        assert "Infinity" not in path.read_text()
        assert "NaN" not in path.read_text()

    def test_multiple_reports_per_file(self, tmp_path):
        path = tmp_path / "many.json"
        scores = [_score(track="A"), _score(track="B", method="MWF")]
        write_report(scores, path)
        back = read_report(path)
        assert back == scores

    def test_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(_score(), a)
        write_report(_score(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_unicode_track_names(self, tmp_path):
        path = tmp_path / "u.json"
        score = _score(track="Sизвед – Îles")
        write_report(score, path)
        assert read_report(path)[0].track == "Sизвед – Îles"
        assert "Îles" in path.read_text(encoding="utf-8")

    def test_metadata_round_trips(self, tmp_path):
        path = tmp_path / "m.json"
        score = TrackScore(
            track="T", method="IBM1", targets={"vocals": [_frame()]},
            sample_rate=44100, window=44100, hop=22050,
            mode="v3_windowed", filter_len=256,
        )
        write_report(score, path)
        (back,) = read_report(path)
        assert back.mode == "v3_windowed"
        assert back.hop == 22050
        assert back.filter_len == 256


# Mostly non-finite values, so runs of inf/-inf/NaN in any order occur.
_VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_FRAMES = st.lists(
    st.tuples(_VALUES, _VALUES, _VALUES, _VALUES), max_size=6
).map(lambda rows: [
    FrameScores(*row, window_start=100 * i, window_len=100)
    for i, row in enumerate(rows)
])
_SCORES = st.dictionaries(
    st.sampled_from(["vocals", "drums", "bass", "other", "accompaniment"]),
    _FRAMES, min_size=1, max_size=5,
).map(lambda targets: _score(targets=targets))


def _values(score):
    """Every dB value by repr, which tells NaN, -0.0 and inf apart exactly."""
    return {
        name: [repr((f.sdr, f.isr, f.sir, f.sar, f.window_start, f.window_len))
               for f in frames]
        for name, frames in score.targets.items()
    }


class TestRoundTripProperty:
    # Derandomized: the same examples on every run, so the suite cannot flake.
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(score=_SCORES)
    def test_non_finite_patterns_round_trip_byte_identically(self, score, tmp_path_factory):
        folder = tmp_path_factory.mktemp("prop")
        first, second = folder / "first.json", folder / "second.json"
        write_report(score, first)
        (back,) = read_report(first)
        assert _values(back) == _values(score)
        write_report(back, second)
        assert second.read_bytes() == first.read_bytes()


class TestSchemaErrors:
    def _write(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        return path

    def test_wrong_schema_version(self, tmp_path):
        path = self._write(tmp_path, {"schema_version": 2, "track": "x",
                                      "method": "m", "targets": {}})
        with pytest.raises(ReportSchemaError, match="schema_version"):
            read_report(path)

    def test_missing_schema_version(self, tmp_path):
        path = self._write(tmp_path, {"track": "x"})
        with pytest.raises(ReportSchemaError):
            read_report(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ReportSchemaError, match="JSON"):
            read_report(path)

    def test_missing_required_key(self, tmp_path):
        path = self._write(tmp_path, {"schema_version": 1, "track": "x",
                                      "targets": {}})
        with pytest.raises(ReportSchemaError, match="method"):
            read_report(path)

    def test_missing_metric_in_frame(self, tmp_path):
        frame = {"time": 0, "duration": 10, "SDR": 1.0, "SDR_status": "ok"}
        payload = {"schema_version": 1, "track": "x", "method": "m",
                   "targets": {"vocals": {"frames": [frame]}}}
        with pytest.raises(ReportSchemaError, match="ISR"):
            read_report(self._write(tmp_path, payload))

    def test_unknown_status_rejected(self, tmp_path):
        frame = {"time": 0, "duration": 10}
        for name in ("SDR", "ISR", "SIR", "SAR"):
            frame[name] = None
            frame[f"{name}_status"] = "inf"
        frame["SDR_status"] = "galaxy"
        payload = {"schema_version": 1, "track": "x", "method": "m",
                   "targets": {"vocals": {"frames": [frame]}}}
        with pytest.raises(ReportSchemaError, match="galaxy"):
            read_report(self._write(tmp_path, payload))

    def test_status_value_conflicts_rejected(self, tmp_path):
        frame = {"time": 0, "duration": 10}
        for name in ("SDR", "ISR", "SIR", "SAR"):
            frame[name] = 1.0
            frame[f"{name}_status"] = "ok"
        frame["SDR"] = 3.0
        frame["SDR_status"] = "inf"  # numeric value with non-finite status
        payload = {"schema_version": 1, "track": "x", "method": "m",
                   "targets": {"vocals": {"frames": [frame]}}}
        with pytest.raises(ReportSchemaError):
            read_report(self._write(tmp_path, payload))
        frame["SDR"] = None
        frame["SDR_status"] = "ok"  # and the reverse
        with pytest.raises(ReportSchemaError):
            read_report(self._write(tmp_path, payload))

    def test_bad_frame_timing(self, tmp_path):
        frame = {"duration": 10, "SDR": 1.0, "ISR": 1.0, "SIR": 1.0, "SAR": 1.0}
        payload = {"schema_version": 1, "track": "x", "method": "m",
                   "targets": {"vocals": {"frames": [frame]}}}
        with pytest.raises(ReportSchemaError, match="timing"):
            read_report(self._write(tmp_path, payload))

    def test_reports_must_be_list(self, tmp_path):
        path = self._write(tmp_path, {"schema_version": 1, "reports": {}})
        with pytest.raises(ReportSchemaError, match="list"):
            read_report(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ReportSchemaError, match="object"):
            read_report(path)
