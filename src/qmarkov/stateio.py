"""Text format for states: versioned JSON with explicit (re, im) pairs.

Schema (version 1):
    {
      "version": 1,
      "kind": "pure" | "mixed",
      "layout": [["A", 2], ["B", 2], ["C", 2]],
      "data": [[re, im], ...]                     # pure: flat vector
              | [[[re, im], ...], ...]            # mixed: row-major matrix
    }

Parsing validates the schema and the physical invariants.  The data field
is checked in bulk, as one array; only rejected data is walked, to name its
first short row or bad entry by index (data[i] or data[i][j]).  Normalization
is enforced within 1e-6 and then made exact.  Error codes, stable for
scripting: SCHEMA_JSON, SCHEMA_FIELD, SCHEMA_VERSION, SCHEMA_KIND,
SCHEMA_LAYOUT, SCHEMA_LEN, SCHEMA_ENTRY, NORM, TRACE and INVALID_STATE.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .linalg import DensityOp, PureVec, SystemLayout

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


def loads(text: str) -> PureVec | DensityOp:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise StateFileError("SCHEMA_JSON", str(err)) from err
    except RecursionError as err:
        raise StateFileError("SCHEMA_JSON", "nesting too deep") from err
    if not isinstance(doc, dict):
        raise StateFileError("SCHEMA_JSON", "top level must be an object")
    for key in ("version", "kind", "layout", "data"):
        if key not in doc:
            raise StateFileError("SCHEMA_FIELD", f"missing field {key!r}")
    if isinstance(doc["version"], bool) or doc["version"] != FORMAT_VERSION:
        raise StateFileError("SCHEMA_VERSION", f"unsupported version {doc['version']!r}")
    kind = doc["kind"]
    if kind not in ("pure", "mixed"):
        raise StateFileError("SCHEMA_KIND", f"kind must be pure or mixed, got {kind!r}")
    lay = _parse_layout(doc["layout"])
    x = _complex_array(doc["data"], kind, lay.dim)
    if kind == "pure":
        norm = float(np.linalg.norm(x))
        if abs(norm - 1.0) > 1e-6:
            raise StateFileError("NORM", f"vector norm {norm} deviates from 1 beyond 1e-6")
        return PureVec(lay, x / norm)
    tr = float(np.trace(x).real)
    if abs(tr - 1.0) > 1e-6:
        raise StateFileError("TRACE", f"trace {tr} deviates from 1 beyond 1e-6")
    try:
        return DensityOp(lay, x / tr)
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
