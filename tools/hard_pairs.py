"""The d = 1 hard pairs on two checkouts: each (pair, kind) within tol, a silent miss or a raise.

    python tools/hard_pairs.py PARENT CHANGE [--tol TOL]

PARENT and CHANGE are the roots of two checkouts.  The corpus is
`HARD_PAIRS` of this checkout's `tests/reference.py`: the eps-family
(1 - eps) N(0, 1) + eps N(M, 1) against N(0, 1) at eps in {1e-6, 1e-8,
1e-10, 1e-12} and M in {1, 2}, and the moment-matched pairs at L in {12,
14, 16, 18}, M = 1 and L = 20, M = 2.  Each checkout runs in a worker
process that imports gmdiv from its own `src/`, builds every pair with
it, integrates KL, H^2, chi^2 and TV with `divergence` one kind at a time
(at `--tol`, or the d = 1 default), and returns each value or the error
it raised, its quadrature points and the pair's stored atoms and weights.
The reference of each stored pair is `reference.oracle`, mpmath at 60
digits.

Prints one line per (pair, kind): on each side `ok` (within tol
relative of the reference), `MISS` (outside it, without raising) or
`raise`, with the relative error (or the error) and the points, and
whether the two sides' statuses, value bits and points are equal; then
each side's count of each status.  Exits 1 when some (pair, kind) is a
silent miss on the change but not on the parent; 0 otherwise.  The
checkouts are only read.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = str(ROOT / "tests")


def serve(checkout: str, tol) -> int:
    """Integrate every (pair, kind) of the corpus with the checkout's gmdiv; print one JSON list."""
    src = os.path.join(checkout, "src")
    sys.path[:0] = [src, TESTS]
    import gmdiv
    from reference import HARD_PAIRS, KINDS, stored

    if os.path.dirname(os.path.dirname(os.path.abspath(gmdiv.__file__))) != src:
        raise RuntimeError(f"gmdiv imported from {gmdiv.__file__}, not {src}")
    out = []
    for name, (make, *args) in HARD_PAIRS.items():
        p, q = make(*args)
        for kind in KINDS:
            row = {"pair": name, "kind": kind.value, "atoms": [stored(p), stored(q)]}
            try:
                est = gmdiv.divergence(kind, p, q, tol=tol)
                row.update(value=est.value, points=est.quadrature_points)
            except Exception as exc:  # any error is a raise, named by its type
                row["error"] = f"{type(exc).__name__}: {exc}"
            out.append(row)
    print(json.dumps(out))
    return 0


def _run(checkout: str, tol) -> list[dict]:
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", checkout]
    if tol is not None:
        cmd += ["--tol", repr(tol)]
    return json.loads(subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout)


def _status(row: dict, ref, tol: float) -> tuple[str, str]:
    """The row's status and what it prints: the relative error and points, or the error."""
    if "error" in row:
        return "raise", row["error"]
    err = abs(row["value"] - ref) / abs(ref)
    return ("ok" if err <= tol else "MISS"), f"{float(err):.2e} {row['points']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", metavar="PARENT CHANGE")
    parser.add_argument("--tol", type=float, help="relative tolerance (default: the d = 1 default)")
    parser.add_argument("--worker", metavar="CHECKOUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return serve(os.path.abspath(args.worker), args.tol)
    if len(args.checkouts) != 2:
        parser.error("give two checkouts, PARENT and CHANGE")
    # the oracle and the kinds come from this checkout
    sys.path[:0] = [str(ROOT / "src"), TESTS]
    from gmdiv import DivergenceKind
    from gmdiv.divergences import default_tol
    from reference import oracle

    tol = default_tol(1) if args.tol is None else args.tol
    sides = [_run(os.path.abspath(c), args.tol) for c in args.checkouts]
    refs, counts, worse = {}, [{}, {}], 0
    for parent, change in zip(*sides):
        line = [f"{parent['pair']:<18} {parent['kind']:<4}"]
        statuses = []
        for row, count in zip((parent, change), counts):
            key = (row["kind"], json.dumps(row["atoms"]))
            if key not in refs:
                refs[key] = oracle(DivergenceKind(row["kind"]), *row["atoms"])
            status, shown = _status(row, refs[key], tol)
            count[status] = count.get(status, 0) + 1
            statuses.append(status)
            line.append(f"{status} {shown}")
        fields = ("atoms", "value", "points", "error")
        line.append("same" if all(parent.get(f) == change.get(f) for f in fields) else "DIFFERENT")
        worse += statuses[1] == "MISS" != statuses[0]
        print(" | ".join(line), flush=True)
    for label, count in zip(("parent", "change"), counts):
        print(f"{label}: " + ", ".join(f"{count.get(s, 0)} {s}" for s in ("ok", "MISS", "raise")))
    print(f"{worse} (pair, kind) became a silent miss")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
