"""Deterministic text output helpers (17-significant-digit floats)."""

from __future__ import annotations

import json
import math


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


def write_csv(path, header, rows) -> None:
    """Plain comma-joined CSV; floats formatted at 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, bool):
                    cells.append("true" if cell else "false")
                elif isinstance(cell, float):
                    cells.append(format_float(cell))
                else:
                    cells.append(str(cell))
            fh.write(",".join(cells) + "\n")
