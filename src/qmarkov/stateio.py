"""Text format for states: versioned JSON with explicit (re, im) pairs.

Schema (version 1):
    {
      "version": 1,
      "kind": "pure" | "mixed",
      "layout": [["A", 2], ["B", 2], ["C", 2]],
      "data": [[re, im], ...]                     # pure: flat vector
              | [[[re, im], ...], ...]            # mixed: row-major matrix
    }

Parsing validates the schema and the physical invariants; normalization
is enforced within 1e-6 and then made exact.  Errors carry a stable code
for scripting.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .linalg import DensityOp, PureVec, SystemLayout

FORMAT_VERSION = 1


class StateFileError(ValueError):
    """Schema or invariant violation, with a stable error code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def _complex_pair(entry: Any, where: str) -> complex:
    if (not isinstance(entry, (list, tuple)) or len(entry) != 2
            or not all(type(x) in (int, float) for x in entry)):  # bool is an int
        raise StateFileError("SCHEMA_ENTRY", f"{where}: expected [re, im], got {entry!r}")
    return complex(entry[0], entry[1])


def _finite(data: np.ndarray) -> np.ndarray:
    """Reject NaN and infinite entries, which JSON parsing admits and which
    would pass every norm and trace comparison."""
    finite = np.isfinite(data)
    if not finite.all():
        where = "".join(f"[{i}]" for i in np.argwhere(~finite)[0])
        raise StateFileError("SCHEMA_ENTRY", f"data{where}: non-finite entry")
    return data


def _parse_layout(raw: Any) -> SystemLayout:
    if not isinstance(raw, list) or not raw:
        raise StateFileError("SCHEMA_LAYOUT", "layout must be a non-empty list")
    factors = []
    for item in raw:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not isinstance(item[0], str) or not isinstance(item[1], int)):
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
    if not isinstance(doc, dict):
        raise StateFileError("SCHEMA_JSON", "top level must be an object")
    for key in ("version", "kind", "layout", "data"):
        if key not in doc:
            raise StateFileError("SCHEMA_FIELD", f"missing field {key!r}")
    if doc["version"] != FORMAT_VERSION:
        raise StateFileError("SCHEMA_VERSION",
                             f"unsupported version {doc['version']!r}")
    kind = doc["kind"]
    if kind not in ("pure", "mixed"):
        raise StateFileError("SCHEMA_KIND", f"kind must be pure or mixed, got {kind!r}")
    lay = _parse_layout(doc["layout"])
    data = doc["data"]
    d = lay.dim
    if kind == "pure":
        if not isinstance(data, list) or len(data) != d:
            raise StateFileError("SCHEMA_LEN",
                                 f"pure data length {len(data) if isinstance(data, list) else '?'} != {d}")
        vec = _finite(np.array([_complex_pair(e, f"data[{i}]")
                                for i, e in enumerate(data)]))
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-6:
            raise StateFileError("NORM", f"vector norm {norm} deviates from 1 beyond 1e-6")
        return PureVec(lay, vec / norm)
    if not isinstance(data, list) or len(data) != d:
        raise StateFileError("SCHEMA_LEN",
                             f"mixed data has {len(data) if isinstance(data, list) else '?'} rows, expected {d}")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != d:
            raise StateFileError("SCHEMA_LEN", f"row {i} length != {d}")
        rows.append([_complex_pair(e, f"data[{i}][{j}]") for j, e in enumerate(row)])
    mat = _finite(np.array(rows))
    tr = float(np.trace(mat).real)
    if abs(tr - 1.0) > 1e-6:
        raise StateFileError("TRACE", f"trace {tr} deviates from 1 beyond 1e-6")
    try:
        return DensityOp(lay, mat / tr)
    except Exception as err:
        raise StateFileError("INVALID_STATE", str(err)) from err


def dumps(state: PureVec | DensityOp) -> str:
    lay = [[l, d] for l, d in state.layout.factors]
    if isinstance(state, PureVec):
        data = [[float(z.real), float(z.imag)] for z in state.vec]
        kind = "pure"
    else:
        data = [[[float(z.real), float(z.imag)] for z in row] for row in state.mat]
        kind = "mixed"
    return json.dumps({"version": FORMAT_VERSION, "kind": kind,
                       "layout": lay, "data": data}, separators=(",", ":"))


def dump(state: PureVec | DensityOp, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(state))
        fh.write("\n")
