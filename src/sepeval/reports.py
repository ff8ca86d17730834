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

The header fields beside ``targets``, their JSON types (``str`` or
``int``) and their defaults are :class:`TrackScore`'s fields, read into
one table that the writer and the reader share; a field a file omits
takes its TrackScore default.  The writer accepts only what the reader
gives back: exact ``str`` names and modes, exact ``int`` (not ``bool``)
header integers and frame timing, and ``int`` or ``float`` dB values,
written as ``float(value)``.  Anything else raises ``TypeError`` naming
the field before the file is opened, so every written report reads back
and rewrites to the same bytes.

The writer emits, from a fixed template, the bytes the ``json`` module
writes for the payload with ``indent=2, sort_keys=True,
ensure_ascii=False``: with ``indent`` set, that module runs CPython's
pure-Python encoder, which took most of the write time.
``tests/test_reports.py`` checks byte identity against it.  Every report
is valid UTF-8: a track folder's name that the file-system encoding
could not decode is written as its original bytes where they are UTF-8,
and each other byte as the JSON escape ``\\udcXX`` of its surrogate,
which reads back as the same string.  The reader raises
:class:`ReportSchemaError`, naming the file, for any malformed structure
or value, including booleans or out-of-range numbers as dB values,
non-integral frame timing and non-string names.

The common frame, four finite floats with "ok" (or, in a file, absent)
statuses and int timing, takes one fast path each way: the writer fills
one ``%`` template with it, and the reader builds its
:class:`FrameScores` straight from the object.  Every other frame is
checked and encoded, or decoded, field by field, and the fast paths
give the bytes and the frames those checks give, so a file's bytes and
every error are the same whichever path a frame takes.
"""

import json
import math
import re
from dataclasses import MISSING, dataclass, fields
from functools import cache
from json.encoder import encode_basestring
from pathlib import Path

from .audio import _replace
from .bsseval import DEFAULT_FILTER_LEN, DEFAULT_MODE, DEFAULT_WINDOW, FrameScores

__all__ = ["SCHEMA_VERSION", "METRIC_NAMES", "ReportSchemaError", "TrackScore",
           "write_report", "read_report"]

SCHEMA_VERSION = 1

METRIC_NAMES = ("SDR", "ISR", "SIR", "SAR")
# A frame object's keys in the order sort_keys gives them.
_FRAME_KEYS = ("ISR", "ISR_status", "SAR", "SAR_status", "SDR", "SDR_status",
               "SIR", "SIR_status", "duration", "time")
_STATUS_VALUES = {"inf": math.inf, "neg_inf": -math.inf, "undefined": math.nan}
# A lone surrogate, and a run of the U+DC80-U+DCFF escapes of the bytes of
# a name that the file-system encoding could not decode.
_SURROGATE = re.compile(r"[\ud800-\udfff]")
_ESCAPED_BYTES = re.compile(r"[\udc80-\udcff]+")


class ReportSchemaError(ValueError):
    """Raised for malformed report files or unsupported schema versions."""


@dataclass
class TrackScore:
    """All framewise scores of one method on one track, keyed by target."""

    track: str
    method: str
    targets: dict
    sample_rate: int = 44100
    window: int = DEFAULT_WINDOW
    hop: int = DEFAULT_WINDOW
    mode: str = DEFAULT_MODE
    filter_len: int = DEFAULT_FILTER_LEN


# The report header: every TrackScore field but the targets, name -> JSON
# type.  Fields without a default must be present in a file.
_HEADER = {field.name: field.type for field in fields(TrackScore)
           if field.name != "targets"}
_REQUIRED = tuple(field.name for field in fields(TrackScore)
                  if field.default is MISSING)


def _checked(value, kind: type, field: str):
    """``value`` if its type is exactly ``kind``, else TypeError naming ``field``.

    Exact, so a bool is no int and a NumPy integer or ``str`` subclass
    is refused.
    """
    if type(value) is not kind:
        raise TypeError(
            f"report field {field} must be {kind.__name__}, got {value!r}"
        )
    return value


def _db(value, field: str) -> float:
    """A dB value, an exact int or a float (NumPy float64 too), as float."""
    if type(value) is int or isinstance(value, float):
        try:
            return float(value)
        except OverflowError:
            pass
    raise TypeError(
        f"report field {field} must be a real number in float range, got {value!r}"
    )


def _write_json(text: str, path) -> None:
    """Write JSON ``text`` and a newline to ``path`` as valid UTF-8, whatever
    surrogates its strings hold, whole or not at all (see
    :func:`~sepeval.audio._replace`).

    ``text`` is JSON as ``json`` writes it with ``ensure_ascii`` off.
    Escaped bytes (see ``_ESCAPED_BYTES``) are restored: those that form
    UTF-8 are written as such, the original bytes, and every surrogate
    left is written as its ``\\uXXXX`` escape, which ``json.loads`` reads
    back as the same surrogate.
    """
    if not text.isascii():
        text = _ESCAPED_BYTES.sub(
            lambda run: run.group().encode("utf-8", "surrogateescape")
            .decode("utf-8", "surrogateescape"), text)
        text = _SURROGATE.sub(lambda match: f"\\u{ord(match.group()):04x}", text)
    _replace(path, text.encode("utf-8"), b"\n")


def _object(members: dict, pad: str) -> str:
    """Already encoded values under sorted keys, braces indented by ``pad``."""
    if not members:
        return "{}"
    inner = pad + "  "
    lines = (f"{inner}{encode_basestring(name)}: {members[name]}"
             for name in sorted(members))
    return "{\n" + ",\n".join(lines) + "\n" + pad + "}"


def _array(items: list, pad: str) -> str:
    """Already encoded items, brackets indented by ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _encode_value(value: float) -> tuple:
    """A dB value's JSON text and its status; non-finite is null."""
    if math.isnan(value):
        return "null", "undefined"
    if math.isinf(value):
        return "null", "inf" if value > 0 else "neg_inf"
    return repr(value), "ok"


@cache
def _frame_template(pad: str, value: str = "%r", status: str = '"ok"') -> str:
    """``%`` text of one frame object whose braces sit at ``pad``: each dB
    value is ``value``, each status ``status`` and the timing ``%d``."""
    inner = pad + "  "
    lines = (
        f'{inner}"{key}": ' + (status if key.endswith("_status")
                               else value if key in METRIC_NAMES else "%d")
        for key in _FRAME_KEYS
    )
    return "{\n" + ",\n".join(lines) + "\n" + pad + "}"


def _frames_text(target: str, frames, pad: str) -> str:
    """A target's frame list, brackets indented by ``pad``.

    ``%r`` writes an exact float as ``float.__repr__`` and ``%d`` an
    exact int as ``int.__repr__``.  A frame of finite exact floats and
    exact int timing, the common case, fills one template whose statuses
    are ``"ok"``; any other frame has each value checked and encoded
    first, its statuses filled in.
    """
    fast = _frame_template(pad + "  ")
    checked = _frame_template(pad + "  ", "%s", '"%s"')
    items = []
    for i, frame in enumerate(frames):
        isr, sar, sdr, sir = frame.isr, frame.sar, frame.sdr, frame.sir
        duration, time = frame.window_len, frame.window_start
        if (type(isr) is type(sar) is type(sdr) is type(sir) is float
                and type(duration) is type(time) is int
                and math.isfinite(isr + sar + sdr + sir)):
            items.append(fast % (isr, sar, sdr, sir, duration, time))
        else:
            where = f"targets[{target!r}][{i}]"
            items.append(checked % (
                *_encode_value(_db(isr, f"{where}.ISR")),
                *_encode_value(_db(sar, f"{where}.SAR")),
                *_encode_value(_db(sdr, f"{where}.SDR")),
                *_encode_value(_db(sir, f"{where}.SIR")),
                _checked(duration, int, f"{where}.duration"),
                _checked(time, int, f"{where}.time"),
            ))
    return _array(items, pad)


def _report_text(score: TrackScore, pad: str, **extra) -> str:
    """One report object with encoded ``extra`` keys, braces indented by ``pad``."""
    inner = pad + "  "
    body = inner + "  "
    encoded = {}
    for name, kind in _HEADER.items():
        value = _checked(getattr(score, name), kind, name)
        encoded[name] = encode_basestring(value) if kind is str else repr(value)
    targets = {}
    for name, frames in score.targets.items():
        text = _frames_text(_checked(name, str, "targets key"), frames, body + "  ")
        targets[name] = _object({"frames": text}, body)
    encoded["targets"] = _object(targets, inner)
    return _object({**encoded, **extra}, pad)


def _field(value, kind: type, where: str, key: str):
    """A header or timing value of JSON type ``kind``; integral floats read as int."""
    if type(value) is kind:
        return value
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    raise ReportSchemaError(
        f"{where}: {key} must be of type {kind.__name__}, got {value!r}"
    )


def _decode_value(number, status, where: str) -> float:
    if status == "ok":
        # Exact types: a JSON true/false is a bool, which is an int.
        if type(number) is int:
            try:
                number = float(number)
            except OverflowError:
                pass
        # A number beyond float range parses as inf, which "ok" cannot be.
        if type(number) is float and math.isfinite(number):
            return number
        raise ReportSchemaError(
            f"{where}: status 'ok' but {number!r} is not a finite number"
        )
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
        start = _field(start, int, where, "time")
        length = _field(length, int, where, "duration")
    values = {}
    for name in METRIC_NAMES:
        if name not in obj:
            raise ReportSchemaError(f"{where}: missing {name}")
        status = obj.get(f"{name}_status", "ok")
        values[name.lower()] = _decode_value(obj[name], status, f"{where}.{name}")
    return FrameScores(window_start=start, window_len=length, **values)


def _score_from_obj(obj: dict, where: str) -> TrackScore:
    if not isinstance(obj, dict):
        raise ReportSchemaError(f"{where}: report entry is not an object")
    for key in _REQUIRED:
        if key not in obj:
            raise ReportSchemaError(f"{where}: missing key {key!r}")
    header = {key: _field(obj[key], kind, where, key)
              for key, kind in _HEADER.items() if key in obj}
    if not isinstance(obj["targets"], dict):
        raise ReportSchemaError(f"{where}: targets must be an object")
    targets = {}
    for name, body in obj["targets"].items():
        if not isinstance(body, dict) or "frames" not in body:
            raise ReportSchemaError(f"{where}: target {name!r} lacks frames")
        if not isinstance(body["frames"], list):
            raise ReportSchemaError(f"{where}: target {name!r} frames not a list")
        targets[name] = frames = []
        for i, frame in enumerate(body["frames"]):
            # The common frame, four finite floats with "ok" or absent
            # statuses and int timing, is built here; _frame_from_obj
            # checks any other and names what is wrong with it.
            if type(frame) is dict:
                get = frame.get
                sdr, isr, sir, sar = get("SDR"), get("ISR"), get("SIR"), get("SAR")
                start, length = get("time"), get("duration")
                if (type(sdr) is type(isr) is type(sir) is type(sar) is float
                        and type(start) is type(length) is int
                        and math.isfinite(sdr + isr + sir + sar)
                        and get("SDR_status", "ok") == "ok"
                        and get("ISR_status", "ok") == "ok"
                        and get("SIR_status", "ok") == "ok"
                        and get("SAR_status", "ok") == "ok"):
                    frames.append(FrameScores(sdr, isr, sir, sar, start, length))
                    continue
            frames.append(_frame_from_obj(frame, f"{where}.{name}[{i}]"))
    return TrackScore(targets=targets, **header)


def write_report(scores, path) -> None:
    """Serialize one TrackScore or a list of them to a JSON file.

    Output is deterministic (sorted keys, fixed layout): identical scores
    always produce byte-identical files.  A value of a type the schema
    does not hold raises ``TypeError`` and writes nothing.
    """
    version = repr(SCHEMA_VERSION)
    if isinstance(scores, TrackScore):
        text = _report_text(scores, "", schema_version=version)
    else:
        reports = [_report_text(score, "    ") for score in scores]
        text = _object({"reports": _array(reports, "  "),
                        "schema_version": version}, "")
    _write_json(text, path)


def read_report(path) -> list:
    """Parse a report file back into a list of TrackScore."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and over-long integers.
        raise ReportSchemaError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ReportSchemaError(f"{path}: top level must be an object")
    version = payload.get("schema_version")
    # Exact int: a JSON true or 1.0 compares equal to 1.
    if type(version) is not int or version != SCHEMA_VERSION:
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
