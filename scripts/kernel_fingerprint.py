#!/usr/bin/env python3
"""Fingerprint the incomplete-gamma kernels over seeded draws, as one sha256.

The kernel counterpart of ``scripts/series_fingerprint.py``.  Each draw
picks an order s (real, complex up to |s| = 600, a non-positive integer,
or a small positive integer, the terminating sum's orders; a zero
imaginary part may carry either sign) and an argument w whose modulus runs from 1e-2 to 1e3,
on both sides of |w| = 700, where the Kummer sum starts to test its
powers for overflow.  w lies at any angle, left of the imaginary axis
away from the cut, next to the cut, on it with an
imaginary part of +0.0 or -0.0, on the positive real axis, or on the
imaginary axis with a real part of +0.0 or -0.0, so that every outcome of
``complexfn._gamma_regime`` is drawn.  It records the regime
``upper_gamma`` dispatches on and, for ``upper_gamma(s, w)``,
``lower_gamma(s, w)``, ``exp_integral_e(1 - s, w)``,
``erfc_complex(sqrt(w))`` and ``gamma_fn(s)``, each value's ``repr`` and
the flags it raised, or the exception, one line per draw, and prints the
sha256 over all lines.  Two checkouts whose digests match gave every draw
the same result to the bit.

``--dump FILE`` keeps the per-draw lines.  ``--against FILE`` reads such
a dump, made by another checkout with the same ``--seed`` and
``--draws``, and reports which draws moved and in which kernels, the
largest relative change of each kernel's value over the moved draws that
read finite on both sides ("-" where none does), and each moved draw's
point and its old and new cells.  It exits with status 1 when any draw
moved and 0 when none did.  The dump options and the rule by which a
draw moved are those of ``scripts/dumpdiff.py``, whose ``Draws`` runs
this script from its draws and their evaluation.

Usage:
    python scripts/kernel_fingerprint.py
    python scripts/kernel_fingerprint.py --draws 20000 --dump /tmp/parent-kernels.txt
    python scripts/kernel_fingerprint.py --draws 20000 --against /tmp/parent-kernels.txt
"""

import cmath
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import dumpdiff  # noqa: E402
from chebgamma import (  # noqa: E402
    erfc_complex, exp_integral_e, gamma_fn, lower_gamma, upper_gamma)
from chebgamma._flags import collect  # noqa: E402
from chebgamma.complexfn import _gamma_regime  # noqa: E402

POINT_FIELDS = ("s", "w", "regime")
KERNELS = {
    "upper_gamma": upper_gamma,
    "lower_gamma": lower_gamma,
    "exp_integral_e": lambda s, w: exp_integral_e(1.0 - s, w),
    "erfc_complex": lambda s, w: erfc_complex(cmath.sqrt(w)),
    "gamma_fn": lambda s, w: gamma_fn(s),
}


def _order(rng: random.Random):
    kind = rng.choice(("real", "complex", "complex", "large", "non-positive", "terminating"))
    if kind == "real":
        return rng.uniform(-30.0, 1.0) if rng.random() < 0.3 else 10.0 ** rng.uniform(-1.0, 2.3)
    if kind == "complex":
        s = complex(rng.uniform(-30.0, 200.0), rng.uniform(-60.0, 60.0))
        if rng.random() < 0.1:
            return complex(s.real, rng.choice((0.0, -0.0)))
        return s
    if kind == "large":  # past (|w| - 40) / 2, so that the Kummer sum runs at |w| > 700
        return cmath.rect(rng.uniform(300.0, 600.0), rng.uniform(-math.pi, math.pi))
    if kind == "non-positive":
        m = rng.randint(0, 40) if rng.random() < 0.8 else rng.randint(300, 450)
        return rng.choice((float, complex))(-m)
    return float(rng.randint(1, 16))


def _argument(rng: random.Random):
    r = 10.0 ** rng.uniform(-2.0, 3.0)
    if rng.random() < 0.2:
        r = rng.uniform(600.0, 900.0)  # both sides of |w| = 700
    place = rng.choice(("any", "left", "next-to-cut", "next-to-cut", "on-cut", "positive",
                        "imaginary"))
    if place == "any":
        return cmath.rect(r, rng.uniform(-math.pi, math.pi))
    if place == "left":  # left of the imaginary axis, away from the cut
        return cmath.rect(r, rng.choice((-1.0, 1.0)) * rng.uniform(0.5 * math.pi, 0.8 * math.pi))
    if place == "next-to-cut":
        return complex(-r, rng.choice((-1.0, 1.0)) * rng.uniform(0.0, min(r, 8.0)))
    if place == "on-cut":
        return complex(-r, rng.choice((0.0, -0.0)))
    if place == "positive":
        return rng.choice((r, complex(r, -0.0)))
    return complex(rng.choice((0.0, -0.0)), rng.choice((-1.0, 1.0)) * r)


def _cell(kernel, s, w) -> str:
    """A kernel's value and the flags it raised, or its exception."""
    try:
        with collect() as flags:
            value = kernel(s, w)
    except Exception as exc:  # a draw's exception is part of its fingerprint
        return f"!{type(exc).__name__}: {exc}"
    return repr(value) + "".join(f" {name}" for name in sorted(flags))


def draw(rng: random.Random) -> tuple:
    """One seeded point (s, w)."""
    return _order(rng), _argument(rng)


def evaluate(point: tuple) -> dict:
    """The fields of one draw: s, w, the regime upper_gamma dispatches on,
    and one cell per kernel."""
    s, w = point
    cells = {"s": repr(s), "w": repr(w),
             "regime": _gamma_regime(complex(s), complex(w), upper=True)}
    cells.update((name, _cell(kernel, s, w)) for name, kernel in KERNELS.items())
    return cells


def _number(cell: str):
    # the value of a cell; an exception reads as None
    try:
        return complex(cell.split(" ", 1)[0])
    except ValueError:
        return None


main = dumpdiff.Draws(
    doc=__doc__, label="kernels", fields=POINT_FIELDS + tuple(KERNELS), point=("s", "w"),
    values=tuple(KERNELS), draw=draw, evaluate=evaluate, number=_number).main


if __name__ == "__main__":
    raise SystemExit(main())
