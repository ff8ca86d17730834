"""Report serialization tests: round trips, statuses and schema errors."""

import dataclasses
import json
import math
import re

import numpy as np
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
    header = {"sample_rate": 8000, "window": 100, "hop": 100, **kwargs}
    return TrackScore(track=track, method=method, targets=targets, **header)


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

    def test_undecodable_track_name_round_trips(self, tmp_path):
        """A folder name with an undecodable byte reads as a surrogate
        escape; its report is valid UTF-8, holds the escape as JSON's
        \\udcXX, and reads back as the same name."""
        name = b"Mot\xf6rhead - Ace".decode("utf-8", "surrogateescape")
        path = tmp_path / "s.json"
        write_report(_score(track=name), path)
        text = path.read_bytes().decode("utf-8")  # strict: a raw 0xf6 raises
        assert '"track": "Mot\\udcf6rhead - Ace"' in text
        assert read_report(path)[0].track == name

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

    @pytest.mark.parametrize("version", [2, True, 1.0, "1"])
    def test_wrong_schema_version(self, tmp_path, version):
        path = self._write(tmp_path, {"schema_version": version, "track": "x",
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


def _dumps_value(value):
    """The reference encoding of one dB value: a float, or null plus status."""
    if math.isnan(value):
        return None, "undefined"
    if math.isinf(value):
        return None, "inf" if value > 0 else "neg_inf"
    return float(value), "ok"


def _dumps_report(score):
    targets = {}
    for name, frames in score.targets.items():
        objs = []
        for f in frames:
            obj = {"time": f.window_start, "duration": f.window_len}
            for metric, value in zip(("SDR", "ISR", "SIR", "SAR"),
                                     (f.sdr, f.isr, f.sir, f.sar)):
                obj[metric], obj[f"{metric}_status"] = _dumps_value(value)
            objs.append(obj)
        targets[name] = {"frames": objs}
    return {"track": score.track, "method": score.method,
            "sample_rate": score.sample_rate, "window": score.window,
            "hop": score.hop, "mode": score.mode,
            "filter_len": score.filter_len, "targets": targets}


def _dumps_form(scores):
    """The file text as ``json.dumps`` lays it out: the writer's reference."""
    if isinstance(scores, TrackScore):
        payload = {"schema_version": 1, **_dumps_report(scores)}
    else:
        payload = {"schema_version": 1,
                   "reports": [_dumps_report(s) for s in scores]}
    text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


_EDGE_VALUES = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
                -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
_ANY_VALUE = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-10**6, 10**6),
)
_NAMES = st.one_of(
    st.sampled_from(['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
                     "Sизвед – Îles", "東京 \u2028 \U0001f3b5", ""]),
    st.text(max_size=12),
)
_ANY_FRAMES = st.lists(
    st.tuples(_ANY_VALUE, _ANY_VALUE, _ANY_VALUE, _ANY_VALUE,
              st.integers(0, 10**9), st.integers(0, 10**6)),
    max_size=4,
).map(lambda rows: [
    FrameScores(*row[:4], window_start=row[4], window_len=row[5]) for row in rows
])
_ANY_SCORES = st.builds(
    TrackScore,
    track=_NAMES,
    method=_NAMES,
    targets=st.dictionaries(_NAMES, _ANY_FRAMES, max_size=3),
    sample_rate=st.integers(1, 192000),
    window=st.integers(1, 10**6),
    hop=st.integers(1, 10**6),
    mode=_NAMES,
    filter_len=st.integers(0, 4096),
)


class TestWriterMatchesJsonDumps:
    # Derandomized: the same examples on every run, so the suite cannot flake.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(scores=st.one_of(_ANY_SCORES, st.lists(_ANY_SCORES, max_size=3)))
    def test_bytes_equal_json_dumps(self, scores, tmp_path_factory):
        path = tmp_path_factory.mktemp("bytes") / "r.json"
        write_report(scores, path)
        assert path.read_bytes() == _dumps_form(scores)

    @pytest.mark.parametrize("scores", [
        [],
        _score(targets={}),
        _score(targets={"vocals": []}),
        [_score(targets={}), _score(track="B", targets={"bass": []})],
        _score(targets={"vocals": [_frame(sdr=0, isr=1, sir=-2, sar=3)]}),
    ], ids=["no-reports", "no-targets", "no-frames", "multi-empty",
            "int-values"])
    def test_edge_layouts(self, scores, tmp_path):
        path = tmp_path / "r.json"
        write_report(scores, path)
        assert path.read_bytes() == _dumps_form(scores)


# Values of types the schema does not hold.
_WILD_NAMES = st.one_of(
    st.booleans(), st.integers(), st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_WILD_KEYS = st.one_of(st.booleans(), st.integers(), st.none(),
                       st.tuples(st.integers()))
_WILD_INTS = st.one_of(
    st.booleans(), st.integers(0, 10**6).map(np.int64),
    st.integers(0, 10**6).map(float),
    st.floats(allow_nan=True, allow_infinity=True).filter(
        lambda x: not x.is_integer()),
)
_WILD_VALUES = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True, width=32).map(np.float32),
    st.integers(-10**6, 10**6).map(np.int64),
)
_FRAME_FIELDS = {"sdr": "SDR", "isr": "ISR", "sir": "SIR", "sar": "SAR",
                 "window_start": "time", "window_len": "duration"}


@st.composite
def _wild_scores(draw):
    """An ``_ANY_SCORES`` draw with one header field, target name or frame
    entry swapped for a value of a type the schema does not hold.

    Returns the score and the field the writer's TypeError must name.
    """
    score = draw(_ANY_SCORES)
    spot = draw(st.sampled_from(
        ["track", "method", "mode", "sample_rate", "window", "hop",
         "filter_len", "targets key", "frame"]
    ))
    if spot in ("track", "method", "mode"):
        return dataclasses.replace(score, **{spot: draw(_WILD_NAMES)}), spot
    if spot == "targets key":
        targets = {**score.targets, draw(_WILD_KEYS): []}
        return dataclasses.replace(score, targets=targets), spot
    if spot != "frame":
        return dataclasses.replace(score, **{spot: draw(_WILD_INTS)}), spot
    attribute = draw(st.sampled_from(sorted(_FRAME_FIELDS)))
    wild = _WILD_INTS if attribute.startswith("window") else _WILD_VALUES
    frame = dataclasses.replace(_frame(), **{attribute: draw(wild)})
    targets = {**score.targets, "wild": [frame]}
    field = f"targets['wild'][0].{_FRAME_FIELDS[attribute]}"
    return dataclasses.replace(score, targets=targets), field


_MIXED_SCORES = st.one_of(_ANY_SCORES, _wild_scores().map(lambda pair: pair[0]))


class TestWriterAcceptsOnlyWhatReadsBack:
    # Derandomized: the same examples on every run, so the suite cannot flake.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scores=st.one_of(_MIXED_SCORES, st.lists(_MIXED_SCORES, max_size=3)))
    def test_rejects_or_rewrites_byte_identically(self, scores, tmp_path_factory):
        folder = tmp_path_factory.mktemp("mixed")
        first, second = folder / "first.json", folder / "second.json"
        try:
            write_report(scores, first)
        except TypeError:
            assert not first.exists()
            return
        assert first.read_bytes() == _dumps_form(scores)
        back = read_report(first)
        write_report(back[0] if isinstance(scores, TrackScore) else back, second)
        assert second.read_bytes() == first.read_bytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(wild=_wild_scores())
    def test_wild_field_is_refused_by_name(self, wild, tmp_path_factory):
        score, field = wild
        path = tmp_path_factory.mktemp("wild") / "r.json"
        with pytest.raises(TypeError, match=re.escape(f"report field {field} ")):
            write_report(score, path)
        assert not path.exists()


# (case, score or list of scores, field the TypeError must name)
REJECTED = [
    ("float32-value", _score(targets={"vocals": [_frame(sdr=np.float32(1.5))]}),
     "targets['vocals'][0].SDR"),
    ("int64-value", _score(targets={"vocals": [_frame(sar=np.int64(2))]}),
     "targets['vocals'][0].SAR"),
    ("bool-value", _score(targets={"vocals": [_frame(isr=True)]}),
     "targets['vocals'][0].ISR"),
    ("int-beyond-float", _score(targets={"vocals": [_frame(sir=10**400)]}),
     "targets['vocals'][0].SIR"),
    ("int64-time", _score(targets={"vocals": [_frame(start=np.int64(3))]}),
     "targets['vocals'][0].time"),
    ("float-time", _score(targets={"bass": [_frame(start=0.0)]}),
     "targets['bass'][0].time"),
    ("bool-duration", _score(targets={"bass": [_frame(), _frame(length=True)]}),
     "targets['bass'][1].duration"),
    ("int64-header", _score(filter_len=np.int64(512)), "filter_len"),
    ("bool-header", _score(hop=True), "hop"),
    ("float-window", _score(window=1000.0), "window"),
    ("fractional-rate", _score(sample_rate=44100.5), "sample_rate"),
    ("int-track", _score(track=5), "track"),
    ("none-mode", _score(mode=None), "mode"),
    ("object-name", _score(track=object()), "track"),
    ("int-target-names", _score(targets={2: [_frame()], 10: [_frame(start=7)]}),
     "targets key"),
    ("container-names", [_score(), _score(track=["a", {"b": [1, 2]}])], "track"),
]


@pytest.mark.parametrize("scores,field", [case[1:] for case in REJECTED],
                         ids=[case[0] for case in REJECTED])
def test_rejected_types_raise_type_error_and_write_nothing(scores, field, tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(TypeError, match=re.escape(f"report field {field} ")):
        write_report(scores, path)
    assert not path.exists()


def _valid_payload():
    frame = {"time": 0, "duration": 10}
    for name in ("SDR", "ISR", "SIR", "SAR"):
        frame[name] = 1.0
        frame[f"{name}_status"] = "ok"
    return {"schema_version": 1, "track": "x", "method": "m",
            "sample_rate": 8000, "mode": "v4_global",
            "targets": {"vocals": {"frames": [frame]}}}


_FRAME0 = ("targets", "vocals", "frames", 0)
# (case, key path into the payload, value put there)
MALFORMED = [
    ("targets-list", ("targets",), []),
    ("frames-int", ("targets", "vocals", "frames"), 5),
    ("target-without-frames", ("targets", "vocals"), {}),
    ("frame-not-object", _FRAME0, "frame"),
    ("status-list", _FRAME0 + ("SDR_status",), []),
    ("sample-rate-text", ("sample_rate",), "abc"),
    ("sample-rate-null", ("sample_rate",), None),
    ("sample-rate-bool", ("sample_rate",), True),
    ("db-true", _FRAME0 + ("SDR",), True),
    ("db-false", _FRAME0 + ("SAR",), False),
    ("db-int-beyond-float", _FRAME0 + ("ISR",), 10**400),
    # json.dumps writes inf as Infinity, which reads back as 1e400 does.
    ("db-float-overflow", _FRAME0 + ("SDR",), math.inf),
    ("db-nan", _FRAME0 + ("SIR",), math.nan),
    ("time-fraction", _FRAME0 + ("time",), 1.7),
    ("duration-fraction", _FRAME0 + ("duration",), 2.5),
    ("time-text", _FRAME0 + ("time",), "0"),
    ("track-int", ("track",), 5),
    ("method-null", ("method",), None),
    ("mode-list", ("mode",), ["v4"]),
]


def malformed_payload(keys, value):
    """A valid report payload with the entry at ``keys`` set to ``value``."""
    payload = _valid_payload()
    node = payload
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return payload


class TestReaderRejectsMalformed:
    @pytest.mark.parametrize("keys,value", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_single_report_names_the_file(self, tmp_path, keys, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(malformed_payload(keys, value)))
        with pytest.raises(ReportSchemaError, match=re.escape(str(path))):
            read_report(path)

    @pytest.mark.parametrize("keys,value", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_multi_report_names_the_file_and_entry(self, tmp_path, keys, value):
        good = _valid_payload()
        del good["schema_version"]
        bad = malformed_payload(keys, value)
        del bad["schema_version"]
        path = tmp_path / "many.json"
        path.write_text(json.dumps({"schema_version": 1, "reports": [good, bad]}))
        with pytest.raises(ReportSchemaError, match=re.escape(f"{path}[1]")):
            read_report(path)

    def test_report_entry_not_an_object(self, tmp_path):
        path = tmp_path / "many.json"
        path.write_text(json.dumps({"schema_version": 1, "reports": [5]}))
        with pytest.raises(ReportSchemaError,
                           match=re.escape(f"{path}[0]: report entry is not an object")):
            read_report(path)

    def test_valid_payload_reads(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(_valid_payload()))
        (score,) = read_report(path)
        assert score.targets["vocals"][0].sdr == 1.0

    def test_integral_floats_still_read_as_ints(self, tmp_path):
        payload = _valid_payload()
        payload["sample_rate"] = 8000.0
        payload["targets"]["vocals"]["frames"][0]["time"] = 100.0
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(payload))
        (score,) = read_report(path)
        assert type(score.sample_rate) is int and score.sample_rate == 8000
        frame = score.targets["vocals"][0]
        assert type(frame.window_start) is int and frame.window_start == 100

    def test_float_overflow_text_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_valid_payload()).replace(
            '"SDR": 1.0', '"SDR": 1e400'))
        with pytest.raises(ReportSchemaError, match=re.escape(f"{path}.vocals[0].SDR")):
            read_report(path)

    def test_integer_db_value_reads_as_float(self, tmp_path):
        payload = _valid_payload()
        payload["targets"]["vocals"]["frames"][0]["SDR"] = 3
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(payload))
        (score,) = read_report(path)
        assert type(score.targets["vocals"][0].sdr) is float

    @pytest.mark.parametrize("raw", [
        '{"track": "Îles"}'.encode("latin-1"),
        b"[" * 100000 + b"]" * 100000,
        b'{"schema_version": ' + b"1" * 5000 + b"}",
    ], ids=["not-utf8", "too-deep", "int-too-long"])
    def test_undecodable_file_names_the_file(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(ReportSchemaError, match=re.escape(str(path))):
            read_report(path)
