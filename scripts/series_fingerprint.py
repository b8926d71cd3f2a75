#!/usr/bin/env python3
"""Fingerprint the series engine over seeded draws, as one sha256.

The series counterpart of ``scripts/sweep_fingerprint.py``.  Each draw
picks ``series_sum`` or ``difference_series``, a truncation mode, an order
k (integer, within 1e-15..1e-9 of an integer, real, complex or
non-positive), alpha and beta (inside [-1, 1], real outside it, or
complex), a*pi of modulus 1e-3..1e3 (real or complex) and a shell budget
(for an integer k: two below, one below, at and one above the bound, or
the default).  It records the value, error estimate, shells used,
termination, warnings and any exception, one line per draw, and prints
the sha256 over all lines.  Two checkouts whose digests match gave every
draw the same result to the bit.

``--dump FILE`` keeps the per-draw lines.  ``--against FILE`` reads such
a dump, made by another checkout with the same ``--seed`` and
``--draws``, and reports which draws moved and in which fields, how many
moved draws have a value or error estimate that moved from or to a
finite reading (0 when only non-finite readings moved), the largest
relative change of the value and of the error estimate over the moved
draws that read finite on both sides ("-" where none does), and each
moved draw's point and its old and new fields.  It exits with status 1
when any draw moved and 0 when none did.  The dump options and the rule
by which a draw moved are those of ``scripts/dumpdiff.py``.

Usage:
    python scripts/series_fingerprint.py
    python scripts/series_fingerprint.py --draws 20000 --dump /tmp/parent-series.txt
    python scripts/series_fingerprint.py --draws 20000 --against /tmp/parent-series.txt
"""

import argparse
import cmath
import hashlib
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import dumpdiff  # noqa: E402
from chebgamma import (  # noqa: E402
    SeriesParams, TruncationPolicy, difference_series, series_sum)

FUNCTIONS = {"series_sum": series_sum, "difference_series": difference_series}
POINT_FIELDS = ("fn", "mode", "max_shell", "rel_tol", "k", "a_pi", "alpha", "beta")
RESULT_FIELDS = ("value", "error", "shells", "termination", "warnings", "exception")
DEFAULT_BUDGET = TruncationPolicy().max_shell


def _order(rng: random.Random):
    """An order k and, where k sits at an integer >= 1, that integer."""
    kind = rng.choice(("integer", "integer", "near-integer", "real", "complex",
                       "non-positive"))
    if kind == "integer":
        n = rng.randint(1, 200)
        return float(n), n
    if kind == "near-integer":
        n = rng.randint(1, 200)
        k = n + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -9.0)
        return k, (n if abs(k - n) <= 1e-12 else None)
    if kind == "real":
        return rng.uniform(-5.0, 200.0), None
    if kind == "complex":
        return complex(rng.uniform(-5.0, 200.0), rng.uniform(-20.0, 20.0)), None
    if rng.random() < 0.5:
        return float(rng.randint(-10, 0)), None
    return -rng.uniform(0.0, 10.0), None


def _argument(rng: random.Random):
    kind = rng.choice(("inside", "inside", "outside", "complex"))
    if kind == "inside":
        return rng.uniform(-1.0, 1.0)
    if kind == "outside":
        return rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0)
    return complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))


def draw(rng: random.Random) -> dict:
    """One seeded evaluation point, as the text of its fields."""
    fn = rng.choice(tuple(FUNCTIONS))
    mode = rng.choice(("optimal", "fixed"))
    k, bound = _order(rng)
    a_pi = 10.0 ** rng.uniform(-3.0, 3.0)
    if rng.random() < 0.25:
        a_pi *= cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    if bound is not None:
        budget = rng.choice((bound - 2, bound - 1, bound, bound + 1, DEFAULT_BUDGET))
    else:
        budget = rng.choice((rng.randint(4, 64), DEFAULT_BUDGET))
    return {
        "fn": fn,
        "mode": mode,
        "max_shell": repr(max(4, budget)),
        "rel_tol": repr(rng.choice((1e-14, 1e-8))),
        "k": repr(k),
        "a_pi": repr(a_pi),
        "alpha": repr(_argument(rng)),
        "beta": repr(_argument(rng)),
    }


def evaluate(point: dict) -> dict:
    """The result fields of one draw; an exception fills only its own field."""
    out = dict.fromkeys(RESULT_FIELDS, "-")
    try:
        params = SeriesParams(a=complex(point["a_pi"]) / math.pi, k=complex(point["k"]),
                              alpha=complex(point["alpha"]), beta=complex(point["beta"]))
        policy = TruncationPolicy(mode=point["mode"], max_shell=int(point["max_shell"]),
                                  rel_tol=float(point["rel_tol"]))
        res = FUNCTIONS[point["fn"]](params, policy)
    except Exception as exc:  # a draw's exception is part of its fingerprint
        out["exception"] = f"{type(exc).__name__}: {exc}"
        return out
    out.update(value=repr(res.value), error=repr(res.error_estimate),
               shells=repr(res.shells_used), termination=res.termination,
               warnings=",".join(sorted(res.warnings)) or "-")
    return out


def lines(seed: int, draws: int):
    """One tab-separated line per draw: index, point fields, result fields."""
    rng = random.Random(seed)
    for i in range(draws):
        point = draw(rng)
        result = evaluate(point)
        yield "\t".join([str(i)] + [point[f] for f in POINT_FIELDS]
                        + [result[f] for f in RESULT_FIELDS])


def _number(cell: str):
    # a value or error cell; "-" (the draw raised) reads as None
    try:
        return complex(cell)
    except ValueError:
        return None


def _parse(line: str) -> dict:
    cells = line.rstrip("\n").split("\t")
    return dict(zip(("index",) + POINT_FIELDS + RESULT_FIELDS, cells))


def compare(old_lines, new_lines) -> tuple:
    """How the draws moved from ``old_lines`` to ``new_lines``.

    Returns the number of draws that moved and the report lines.  The
    largest relative changes are over the moved draws, both fields of each.
    """
    if len(old_lines) != len(new_lines):
        raise ValueError(f"draw counts differ: {len(old_lines)} against {len(new_lines)}")
    draws = dumpdiff.Moves()
    moved = []
    for old_line, new_line in zip(old_lines, new_lines):
        old, new = _parse(old_line), _parse(new_line)
        if any(old[f] != new[f] for f in ("index",) + POINT_FIELDS):
            raise ValueError(f"draw {new['index']} is another point in the dump; "
                             "use the --seed and --draws it was made with")
        changed = draws.compare(old, new)
        if changed:
            moved.append((new, changed, old))
            for f in ("value", "error"):
                draws.value(f, _number(old[f]), _number(new[f]))
    finite = sum(1 for new, changed, old in moved
                 if any(dumpdiff.finite(_number(side[f])) for side in (old, new)
                        for f in ("value", "error") if f in changed))
    report = [f"{len(moved)} of {len(new_lines)} draws moved",
              f"{finite} of them moved a finite value or error",
              *draws.summary("draws moved per field", ("value", "error"))]
    for new, changed, old in moved:
        point = " ".join(f"{f}={new[f]}" for f in POINT_FIELDS)
        report.append(f"draw {new['index']}: {point}")
        report.append(f"  now: value={new['value']} termination={new['termination']}")
        for f in changed:
            report.append(f"  {f}: {old[f]} -> {new[f]}")
    return len(moved), report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the draws")
    parser.add_argument("--draws", type=int, default=20000, help="number of draws")
    dumpdiff.add_dump_options(parser, "FILE", "keep the per-draw lines in FILE",
                              "report which draws moved against a --dump FILE")
    args = parser.parse_args(argv)
    if args.draws < 1:
        parser.error("--draws must be at least 1")
    if args.against is not None:
        dumpdiff.require_dumps(parser, [args.against])
    rows = list(lines(args.seed, args.draws))
    digest = hashlib.sha256("".join(row + "\n" for row in rows).encode())
    print(f"series seed {args.seed}, {args.draws} draws: {digest.hexdigest()}")
    if args.dump is not None:
        args.dump.write_text("".join(row + "\n" for row in rows))
    if args.against is not None:
        old = args.against.read_text().splitlines()
        try:
            moved, report = compare(old, rows)
        except ValueError as exc:
            parser.error(str(exc))
        for line in report:
            print(f"  {line}")
        return dumpdiff.exit_status(moved)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
