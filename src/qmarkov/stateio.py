"""Text format for states: versioned JSON with explicit (re, im) pairs.

Schema (version 1):
    {
      "version": 1,
      "kind": "pure" | "mixed",
      "layout": [["A", 2], ["B", 2], ["C", 2]],
      "data": [[re, im], ...]                     # pure: flat vector
              | [[[re, im], ...], ...]            # mixed: row-major matrix
    }

Parsing validates the schema and the physical invariants.  The document is
read one top-level key at a time by json's own scanner.  A mixed matrix is
read one row at a time, and each row is converted to doubles as soon as it
is scanned, so no Python object per number outlives its row; a pure vector
is converted in bulk, as one array.  A file this scan does not accept is
parsed whole by json.loads and its data walked, to name the first short row
or bad entry by index (data[i] or data[i][j]), so a rejected file gets the
same error either way.  Normalization is enforced within 1e-6 and then made
exact.  A state whose imaginary parts are all zero loads as a real one
(linalg's field rule).  Error codes, stable for scripting: SCHEMA_JSON, SCHEMA_FIELD,
SCHEMA_VERSION, SCHEMA_KIND, SCHEMA_LAYOUT, SCHEMA_LEN, SCHEMA_ENTRY, NORM,
TRACE and INVALID_STATE.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .linalg import NORM_TOL, DensityOp, PureVec, SystemLayout

FORMAT_VERSION = 1


class StateFileError(ValueError):
    """Schema or invariant violation, with a stable error code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def _entry_fault(entry: Any) -> str | None:
    """Why one entry is not a [re, im] pair of finite doubles; None if it is."""
    if (not isinstance(entry, list) or len(entry) != 2
            or not all(type(x) in (int, float) for x in entry)):  # bool is an int
        return f"expected [re, im], got {entry!r}"
    try:
        return None if all(map(math.isfinite, entry)) else "non-finite entry"
    except OverflowError:  # an integer beyond the double range
        return "entry out of double range"


def _complex_array(data: Any, kind: str, d: int) -> np.ndarray:
    """The data field as a complex vector or matrix, checked in bulk; only
    rejected data is walked, to name its first short row or bad entry."""
    shape = (d,) if kind == "pure" else (d, d)
    try:
        obj = np.array(data, dtype=object)
        # exact leaf types: astype would read JSON true as 1.0 and "1" as 1.0
        if obj.shape == (*shape, 2) and set(map(type, obj.flat)) <= {int, float}:
            pairs = obj.astype(np.float64)
            if np.isfinite(pairs).all():
                return pairs.view(np.complex128)[..., 0]
    except (ValueError, OverflowError):  # ragged nesting; an integer beyond doubles
        pass
    if not isinstance(data, list) or len(data) != d:
        got = len(data) if isinstance(data, list) else "?"
        raise StateFileError("SCHEMA_LEN", f"{kind} data length {got} != {d}")
    for i, row in enumerate(data if kind == "mixed" else ()):
        if not isinstance(row, list) or len(row) != d:
            raise StateFileError("SCHEMA_LEN", f"row {i} length != {d}")
    entries = data if kind == "pure" else [e for row in data for e in row]
    for n, entry in enumerate(entries):
        if reason := _entry_fault(entry):
            where = "".join(f"[{i}]" for i in np.unravel_index(n, shape))
            raise StateFileError("SCHEMA_ENTRY", f"data{where}: {reason}")
    raise StateFileError("SCHEMA_ENTRY", "data is not [re, im] pairs of finite doubles")


def _parse_layout(raw: Any) -> SystemLayout:
    if not isinstance(raw, list) or not raw:
        raise StateFileError("SCHEMA_LAYOUT", "layout must be a non-empty list")
    factors = []
    for item in raw:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not isinstance(item[0], str) or type(item[1]) is not int):
            raise StateFileError("SCHEMA_LAYOUT", f"bad layout entry {item!r}")
        factors.append((item[0], item[1]))
    try:
        return SystemLayout(factors)
    except Exception as err:
        raise StateFileError("SCHEMA_LAYOUT", str(err)) from err


_scan_value = json.JSONDecoder().scan_once
_skip_ws = json.decoder.WHITESPACE.match


def _scan_rows(text: str, i: int) -> tuple[np.ndarray, int]:
    """The array of rows at text[i] as one (rows, m, 2) float array, each
    row converted by the exact-type rule of _complex_array as soon as it is
    scanned; ValueError for a row that rule does not take."""
    rows = []
    while True:
        row, i = _scan_value(text, _skip_ws(text, i + 1).end())
        pairs = np.array(row, dtype=object)
        if (pairs.ndim != 2 or pairs.shape[1] != 2
                or not set(map(type, pairs.flat)) <= {int, float}):
            raise ValueError("not a row of [re, im] pairs")
        rows.append(pairs.astype(np.float64))
        i = _skip_ws(text, i).end()
        if text[i:i + 1] == "]":
            return np.stack(rows), i + 1
        if text[i:i + 1] != ",":
            raise ValueError("rows not separated by commas")


def _starts_rows(text: str, i: int) -> bool:
    """Whether text[i] opens an array whose first entry opens an array of arrays."""
    for _ in range(3):
        if text[i:i + 1] != "[":
            return False
        i = _skip_ws(text, i + 1).end()
    return True


def _scan(text: str) -> dict[str, Any] | None:
    """The top-level object as json.loads reads it, one key at a time with
    json's own scanner, but with a data field that is an array of rows held
    as one float array (_scan_rows); None for any text the scan does not
    take, which json.loads then reads to name its fault."""
    try:
        i = _skip_ws(text, 0).end()
        if text[i:i + 1] != "{":
            return None
        doc, sep = {}, ","
        while sep == ",":
            i = _skip_ws(text, i + 1).end()
            if text[i:i + 1] != '"':
                return None
            key, i = json.decoder.scanstring(text, i + 1)
            i = _skip_ws(text, i).end()
            if text[i:i + 1] != ":":
                return None
            i = _skip_ws(text, i + 1).end()
            scan = _scan_rows if key == "data" and _starts_rows(text, i) else _scan_value
            doc[key], i = scan(text, i)  # a repeated key keeps its last value, as in json.loads
            i = _skip_ws(text, i).end()
            sep = text[i:i + 1]
    except (StopIteration, ValueError, OverflowError, RecursionError):
        return None  # no value at i; a malformed one; an integer beyond doubles; deep nesting
    if sep != "}" or _skip_ws(text, i + 1).end() != len(text):
        return None
    return doc


def _parse(text: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise StateFileError("SCHEMA_JSON", str(err)) from err
    except RecursionError as err:
        raise StateFileError("SCHEMA_JSON", "nesting too deep") from err
    if not isinstance(doc, dict):
        raise StateFileError("SCHEMA_JSON", "top level must be an object")
    return doc


def loads(text: str) -> PureVec | DensityOp:
    doc = _scan(text)
    if doc is None:
        doc = _parse(text)
    for key in ("version", "kind", "layout", "data"):
        if key not in doc:
            raise StateFileError("SCHEMA_FIELD", f"missing field {key!r}")
    if isinstance(doc["version"], bool) or doc["version"] != FORMAT_VERSION:
        raise StateFileError("SCHEMA_VERSION", f"unsupported version {doc['version']!r}")
    kind = doc["kind"]
    if kind not in ("pure", "mixed"):
        raise StateFileError("SCHEMA_KIND", f"kind must be pure or mixed, got {kind!r}")
    lay = _parse_layout(doc["layout"])
    d = lay.dim
    data = doc["data"]
    if not isinstance(data, np.ndarray):
        x = _complex_array(data, kind, d)
    elif kind == "mixed" and data.shape == (d, d, 2) and np.isfinite(data).all():
        x = data.view(np.complex128)[..., 0]
    else:  # rows the scan took but the schema does not: walk json.loads' tree
        x = _complex_array(_parse(text)["data"], kind, d)
    if kind == "pure":
        norm = float(np.linalg.norm(x))
        if abs(norm - 1.0) > NORM_TOL:
            raise StateFileError("NORM", f"vector norm {norm} deviates from 1 beyond 1e-6")
        return PureVec(lay, x / norm)
    tr = float(np.trace(x).real)
    if abs(tr - 1.0) > NORM_TOL:
        raise StateFileError("TRACE", f"trace {tr} deviates from 1 beyond 1e-6")
    x /= tr
    try:
        return DensityOp(lay, x)
    except Exception as err:
        raise StateFileError("INVALID_STATE", str(err)) from err


def dumps(state: PureVec | DensityOp) -> str:
    x = state.vec if isinstance(state, PureVec) else state.mat
    return json.dumps({"version": FORMAT_VERSION, "kind": "pure" if x.ndim == 1 else "mixed",
                       "layout": [[l, d] for l, d in state.layout.factors],
                       "data": np.stack([x.real, x.imag], -1).tolist()},
                      separators=(",", ":"))


def dump(state: PureVec | DensityOp, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(state))
        fh.write("\n")
