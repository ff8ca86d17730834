"""Framewise score reports as JSON, round-tripping non-finite values.

Schema (version 1): a report object per track holding one frame list per
target.  dB values serialize as numbers when finite and as ``null`` plus
a status field otherwise, so +inf/-inf/undefined survive the round trip
and downstream tools never meet bare Infinity tokens:

    {"schema_version": 1, "track": ..., "method": ...,
     "sample_rate": ..., "window": ..., "hop": ..., "mode": ...,
     "filter_len": ...,
     "targets": {"vocals": {"frames": [
         {"time": 0, "duration": 44100,
          "SDR": 5.1, "SDR_status": "ok",
          "SIR": null, "SIR_status": "inf", ...}]}}}

A file holds either one report object or ``{"schema_version": 1,
"reports": [...]}``.

The writer emits the bytes of ``json.dumps(payload, indent=2,
sort_keys=True, ensure_ascii=False)`` from a fixed template: with
``indent`` set, ``json.dumps`` runs CPython's pure-Python encoder, which
took most of the write time.  ``tests/test_reports.py`` checks byte
identity against that ``json.dumps`` form.  The reader raises
:class:`ReportSchemaError`, naming the file, for any malformed structure
or value, including booleans as dB values, non-integral frame timing and
non-string names.
"""

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path

from .bsseval import FrameScores

__all__ = ["SCHEMA_VERSION", "ReportSchemaError", "TrackScore",
           "write_report", "read_report"]

SCHEMA_VERSION = 1

_METRICS = ("SDR", "ISR", "SIR", "SAR")
# A frame object's keys in the order sort_keys gives them.
_FRAME_KEYS = ("ISR", "ISR_status", "SAR", "SAR_status", "SDR", "SDR_status",
               "SIR", "SIR_status", "duration", "time")
_STATUS_VALUES = {"inf": math.inf, "neg_inf": -math.inf, "undefined": math.nan}


class ReportSchemaError(ValueError):
    """Raised for malformed report files or unsupported schema versions."""


@dataclass
class TrackScore:
    """All framewise scores of one method on one track, keyed by target."""

    track: str
    method: str
    targets: dict
    sample_rate: int = 44100
    window: int = 44100
    hop: int = 44100
    mode: str = "v4_global"
    filter_len: int = 512


def _json(value, pad: str) -> str:
    """``value`` as the report's ``json.dumps`` writes it, on a line at ``pad``.

    Exact ``str``, ``int`` and finite ``float`` take the encoder's own
    formatting directly.  Anything else goes to ``json.dumps`` itself,
    re-indented to sit at ``pad``, so it is written, or rejected with
    ``TypeError``, as ``json.dumps`` of the whole report would.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    text = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)
    return text.replace("\n", "\n" + pad)


def _key(name) -> str:
    """A dict key as ``json.dumps`` writes it: always a JSON string."""
    if type(name) is str:
        return encode_basestring(name)
    return json.dumps({name: None}, ensure_ascii=False)[1:-len(": null}")]


def _object(fields: dict, pad: str) -> str:
    """Already encoded values under sorted keys, braces indented by ``pad``."""
    if not fields:
        return "{}"
    inner = pad + "  "
    lines = (f"{inner}{_key(name)}: {fields[name]}" for name in sorted(fields))
    return "{\n" + ",\n".join(lines) + "\n" + pad + "}"


def _array(items: list, pad: str) -> str:
    """Already encoded items, brackets indented by ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _encode_value(value) -> tuple:
    """JSON text and status of one dB value; non-finite values become null."""
    if math.isnan(value):
        return "null", "undefined"
    if math.isinf(value):
        return "null", "inf" if value > 0 else "neg_inf"
    return _json(value, ""), "ok"


def _frame_template(pad: str) -> str:
    """``str.format`` text of one frame object whose braces sit at ``pad``."""
    inner = pad + "  "
    lines = (
        f'{inner}"{key}": ' + ('"{}"' if key.endswith("_status") else "{}")
        for key in _FRAME_KEYS
    )
    return "{{\n" + ",\n".join(lines) + "\n" + pad + "}}"


def _frames_text(frames, pad: str) -> str:
    """A target's frame list, brackets indented by ``pad``.

    A frame of finite exact floats and exact int timing, the common case,
    goes into the template as is: ``format`` writes such values as
    ``float.__repr__`` and ``int.__repr__``.  Any other frame has each
    value encoded first.
    """
    inner = pad + "  "
    template = _frame_template(inner)
    values = inner + "  "
    items = []
    for frame in frames:
        isr, sar, sdr, sir = frame.isr, frame.sar, frame.sdr, frame.sir
        duration, time = frame.window_len, frame.window_start
        if (type(isr) is type(sar) is type(sdr) is type(sir) is float
                and type(duration) is type(time) is int
                and math.isfinite(isr + sar + sdr + sir)):
            items.append(template.format(
                isr, "ok", sar, "ok", sdr, "ok", sir, "ok", duration, time
            ))
        else:
            items.append(template.format(
                *_encode_value(isr), *_encode_value(sar),
                *_encode_value(sdr), *_encode_value(sir),
                _json(duration, values), _json(time, values),
            ))
    return _array(items, pad)


def _report_text(score: TrackScore, pad: str, **extra) -> str:
    """One report object with ``extra`` keys added, braces indented by ``pad``."""
    inner = pad + "  "
    body = inner + "  "
    targets = {
        name: _object({"frames": _frames_text(frames, body + "  ")}, body)
        for name, frames in score.targets.items()
    }
    fields = {
        "track": score.track,
        "method": score.method,
        "sample_rate": score.sample_rate,
        "window": score.window,
        "hop": score.hop,
        "mode": score.mode,
        "filter_len": score.filter_len,
        **extra,
    }
    encoded = {name: _json(value, inner) for name, value in fields.items()}
    encoded["targets"] = _object(targets, inner)
    return _object(encoded, pad)


def _integer(value, where: str, key: str) -> int:
    """A JSON integer, or an integral float, as int."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ReportSchemaError(f"{where}: {key} must be an integer, got {value!r}")


def _decode_value(number, status, where: str) -> float:
    if status == "ok":
        # Exact types: a JSON true/false is a bool, which is an int.
        if type(number) is float:
            return number
        if type(number) is int:
            try:
                return float(number)
            except OverflowError:
                pass
        raise ReportSchemaError(f"{where}: status 'ok' but {number!r} is not a number")
    if number is not None:
        raise ReportSchemaError(f"{where}: non-finite status with a numeric value")
    try:
        return _STATUS_VALUES[status]
    except (KeyError, TypeError):
        raise ReportSchemaError(f"{where}: unknown status {status!r}") from None


def _frame_from_obj(obj, where: str) -> FrameScores:
    try:
        start = obj["time"]
        length = obj["duration"]
    except (KeyError, TypeError) as exc:
        raise ReportSchemaError(f"{where}: bad frame timing: {exc}") from None
    if type(start) is not int or type(length) is not int:
        start = _integer(start, where, "time")
        length = _integer(length, where, "duration")
    values = {}
    for name in _METRICS:
        if name not in obj:
            raise ReportSchemaError(f"{where}: missing {name}")
        status = obj.get(f"{name}_status", "ok")
        values[name.lower()] = _decode_value(obj[name], status, f"{where}.{name}")
    return FrameScores(window_start=start, window_len=length, **values)


def _score_from_obj(obj: dict, where: str) -> TrackScore:
    if not isinstance(obj, dict):
        raise ReportSchemaError(f"{where}: report entry is not an object")
    for key in ("track", "method", "targets"):
        if key not in obj:
            raise ReportSchemaError(f"{where}: missing key {key!r}")
    for key in ("track", "method", "mode"):
        if key in obj and type(obj[key]) is not str:
            raise ReportSchemaError(
                f"{where}: {key} must be a string, got {obj[key]!r}"
            )
    if not isinstance(obj["targets"], dict):
        raise ReportSchemaError(f"{where}: targets must be an object")
    targets = {}
    for name, body in obj["targets"].items():
        if not isinstance(body, dict) or "frames" not in body:
            raise ReportSchemaError(f"{where}: target {name!r} lacks frames")
        if not isinstance(body["frames"], list):
            raise ReportSchemaError(f"{where}: target {name!r} frames not a list")
        targets[name] = [
            _frame_from_obj(frame, f"{where}.{name}[{i}]")
            for i, frame in enumerate(body["frames"])
        ]
    return TrackScore(
        track=obj["track"],
        method=obj["method"],
        targets=targets,
        sample_rate=_integer(obj.get("sample_rate", 44100), where, "sample_rate"),
        window=_integer(obj.get("window", 44100), where, "window"),
        hop=_integer(obj.get("hop", 44100), where, "hop"),
        mode=obj.get("mode", "v4_global"),
        filter_len=_integer(obj.get("filter_len", 512), where, "filter_len"),
    )


def write_report(scores, path) -> None:
    """Serialize one TrackScore or a list of them to a JSON file.

    Output is deterministic (sorted keys, fixed layout): identical scores
    always produce byte-identical files.
    """
    if isinstance(scores, TrackScore):
        text = _report_text(scores, "", schema_version=SCHEMA_VERSION)
    else:
        reports = [_report_text(score, "    ") for score in scores]
        text = _object({
            "reports": _array(reports, "  "),
            "schema_version": _json(SCHEMA_VERSION, ""),
        }, "")
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_report(path) -> list:
    """Parse a report file back into a list of TrackScore."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ReportSchemaError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ReportSchemaError(f"{path}: top level must be an object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ReportSchemaError(
            f"{path}: schema_version {version!r} not supported "
            f"(expected {SCHEMA_VERSION})"
        )
    if "reports" in payload:
        entries = payload["reports"]
        if not isinstance(entries, list):
            raise ReportSchemaError(f"{path}: 'reports' must be a list")
        return [
            _score_from_obj(entry, f"{path}[{i}]") for i, entry in enumerate(entries)
        ]
    return [_score_from_obj(payload, str(path))]
