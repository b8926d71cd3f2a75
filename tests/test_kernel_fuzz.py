"""Seeded fuzz of Gamma(s, w) next to its cut against mpmath.

The band is the one the closed forms reach for arguments outside [-1, 1]:
|w| from 30 to 3000 within |w| + Re w <= 4 of the negative real axis,
the exact axis included, with real s in [-6, 60] (never a non-positive
integer) and complex s.  Two kernels share it: the large-|w| asymptotic
expansion and the reflected lower-gamma series below its threshold.
"""

import cmath
import math
import random

import pytest

from chebgamma import complexfn, upper_gamma

mpmath = pytest.importorskip("mpmath")

# (seed, draws): about two seconds of 30-digit mpmath in all
SEEDS = ((7, 150), (8, 150), (9, 150))


def rel(a, b):
    return abs(a - b) / abs(b)


def draw_s(rng, hi=60.0):
    """Re s in [-6, hi]: complex half the time, else real and off the poles."""
    if rng.random() < 0.5:
        return complex(rng.uniform(-6.0, hi), rng.uniform(-20.0, 20.0))
    while True:
        s = rng.uniform(-6.0, hi)
        if s > 0.0 or abs(s - round(s)) > 1e-6:
            return complex(s, 0.0)


def near_cut(rng, radius):
    """w with |w| = radius and |w| + Re w in [0, 4], a third on the axis."""
    gap = 0.0 if rng.random() < 1 / 3 else rng.uniform(0.0, 4.0)
    im = math.sqrt(gap * (2.0 * radius - gap))
    return complex(gap - radius, rng.choice((im, -im)))


def draws(seed, count):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 5 == 0:
            # e^-w alone overflows a double here, Gamma(s, w) need not
            s, radius = draw_s(rng, 0.0), rng.uniform(705.0, 760.0)
        else:
            s = draw_s(rng)
            radius = math.exp(rng.uniform(math.log(30.0), math.log(3000.0)))
        out.append((s, near_cut(rng, radius)))
    return out


def reference(s, w):
    with mpmath.workdps(30):
        return complex(mpmath.gammainc(mpmath.mpc(s), a=mpmath.mpc(w)))


@pytest.mark.parametrize("seed, count", SEEDS)
def test_near_cut_matches_mpmath(seed, count):
    checked = 0
    for s, w in draws(seed, count):
        want = reference(s, w)
        if not (cmath.isfinite(want) and abs(want) < 1e300):
            continue
        got = upper_gamma(s, w)
        assert cmath.isfinite(got), (s, w, want)
        assert rel(got, want) <= 1e-12, (s, w, got, want)
        checked += 1
    assert checked >= count // 2


def test_regimes_agree_at_the_threshold():
    rng = random.Random(11)
    compared = 0
    for _ in range(200):
        s = draw_s(rng)
        edge = complexfn._ASYMPTOTIC_MIN_Z + 2.0 * abs(s)
        for radius in (edge * (1.0 - 1e-12), edge * (1.0 + 1e-12)):
            w = near_cut(rng, radius)
            asymptotic = complexfn._upper_asymptotic(s, w)
            if asymptotic is None:
                continue
            reflected = complexfn.gamma_fn(s) - complexfn._lower_series_reflected(s, w)
            assert rel(asymptotic, reflected) <= 1e-13, (s, w, asymptotic, reflected)
            compared += 1
    assert compared >= 300
