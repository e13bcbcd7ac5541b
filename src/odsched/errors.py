"""Exception types shared across the package, its decoder contract and its
JSON file layer.

Every decoder runs in one `try` that labels the field it is decoding; any of
`DECODE_ERRORS` there is malformed input, which `decode_error` reports.
`json_float`, `json_int`, `json_bool` and `json_str` read a field that must
hold that JSON type, and name the field when it does not; `json_names`
reads a list of names, which must be a JSON array of strings.

Checks on the per-record path test the valid case first, in one cheap
comparison, and build an explanation only when that test fails, inside the
same function: `json_float` returns a JSON float at once and sends every
other value through the full number check.  A failing value therefore gets
the same error, with the same message, as it would without the fast test.

Every whole-file JSON input (a catalog, scenario, prediction map or sweep
grid) is read by `load_json`, which reports an unreadable or unparsable
file (nesting too deep for the parser included) as the caller's
`ValidationError` subclass, decodes the document, and puts the file's path
in front of a decoder's error.
Every whole-file JSON output is written by `write_json` in one format:
sorted keys, two-space indent, no NaN or infinity, a trailing newline.
Traces are NDJSON and keep their per-line reader and writer in `catalog`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

_T = TypeVar("_T")


class ValidationError(ValueError):
    """A file or in-memory structure violates its schema or invariants."""


class CatalogError(ValidationError):
    """Catalog file is malformed or inconsistent."""


class TraceError(ValidationError):
    """Characterization trace file is malformed or inconsistent."""


class ScenarioError(ValidationError):
    """Synthetic trace scenario description is malformed."""


# int() of an infinite number raises OverflowError.
DECODE_ERRORS = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def decode_error(
    error: type[ValidationError], where: str, exc: Exception
) -> ValidationError:
    """`exc`, raised while decoding `where`, as an `error` naming `where`."""
    reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return error(f"{where}: {reason}")


def json_float(doc: Mapping[str, Any], key: str) -> float:
    """`doc[key]`, a JSON number, as a float; booleans and strings are not
    numbers."""
    value = doc[key]
    if type(value) is float:
        return value
    return float(_json_number(doc, key))


def json_int(doc: Mapping[str, Any], key: str) -> int:
    """`doc[key]`, a JSON number with no fractional part, as an int."""
    value = _json_number(doc, key)
    try:
        whole = int(value)
    except (OverflowError, ValueError) as exc:  # NaN or infinity
        raise ValueError(f"{key}: {exc}") from None
    if whole != value:
        raise ValueError(f"{key}: must be an integer, got {value!r}")
    return whole


def json_bool(doc: Mapping[str, Any], key: str, default: bool) -> bool:
    """`doc[key]`, which must be a JSON boolean, or `default` when absent."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{key}: must be true or false, got {value!r}")
    return value


def json_str(doc: Mapping[str, Any], key: str) -> str:
    """`doc[key]`, which must be a JSON string; a number is not a name."""
    value = doc[key]
    if type(value) is not str:
        raise ValueError(f"{key}: must be a string, got {value!r}")
    return value


def json_names(value: Any) -> tuple[str, ...]:
    """`value`, which must be a JSON array of strings: neither a string,
    whose characters would be read as names, nor an object, whose keys
    would."""
    if type(value) is not list or not all(type(name) is str for name in value):
        raise ValueError(f"must be an array of strings, got {value!r}")
    return tuple(value)


def _json_number(doc: Mapping[str, Any], key: str) -> int | float:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key}: must be a number, got {value!r}")
    return value


def load_json(
    path: str | Path,
    what: str,
    error: type[ValidationError],
    decode: Callable[[Any], _T],
) -> _T:
    """`decode` of the JSON document at `path`.  `what` names the document
    in an `error` when it cannot be read or parsed, and an error `decode`
    raises is raised again with `path` in front."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    try:
        return decode(doc)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_json(doc: Any, path: str | Path) -> None:
    """Write `doc` to `path`; NaN and infinity are rejected, not written."""
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
