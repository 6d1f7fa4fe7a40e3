"""Deterministic text output helpers (17-significant-digit floats)."""

from __future__ import annotations

import json
import math

import numpy as np

# write_csv formats at most this many rows at a time
_ROWS = 4096


def format_float(x) -> str:
    """Full-precision, run-independent rendering of a float."""
    x = float(x)
    # .17g already prints nan, inf and -inf; -0.0 == 0.0 prints "0" too
    return "0" if x == 0.0 else f"{x:.17g}"


def _jsonable(obj):
    if isinstance(obj, float):
        return float(format_float(obj)) if math.isfinite(obj) else format_float(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def dump_json(obj, path) -> None:
    """JSON with stable key order and full-precision floats."""
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=False)
        fh.write("\n")


def write_csv(path, header, columns) -> None:
    """Plain comma-joined CSV of equal-length columns (sequences or arrays).

    Floats print as `format_float` prints them, bools as true/false and
    anything else by str.  Each row is one %-format of its cells, _ROWS
    rows at a time, and a column of floats goes through "%.17g".
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]) if columns else 0, _ROWS):
            specs, cells = zip(*(_field(column[lo : lo + _ROWS]) for column in columns))
            fh.write("\n".join(map(",".join(specs).__mod__, zip(*cells))) + "\n")


def _field(column):
    """A column as one % conversion and the values it converts."""
    types = {float} if isinstance(column, np.ndarray) and column.dtype == np.float64 else set(map(type, column))
    if all(issubclass(t, float) for t in types):
        # adding 0.0 turns -0.0 into 0.0, which prints "0" as format_float does
        return "%.17g", (np.asarray(column, dtype=float) + 0.0).tolist()
    if any(issubclass(t, (bool, float)) for t in types):
        column = [
            ("true" if v else "false") if isinstance(v, bool) else format_float(v) if isinstance(v, float) else v
            for v in column
        ]
    return "%s", column
