"""Kernel-level checks: gamma family, exponential integral, erfc.

Example values fall into three groups: hand-checkable identities
(asserted directly), reference constants frozen from the quadrature
oracle in oracles.py (asserted against both the frozen literal and the
live oracle), and algebraic property suites over random draws.
"""

import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebgamma import (
    KernelDomainError,
    NonConvergenceError,
    PoleError,
    analytic_continuation_gamma,
    complexfn,
    erfc_complex,
    exp_integral_e,
    gamma_fn,
    log_gamma,
    lower_gamma,
    pochhammer_recip,
    upper_gamma,
)
from chebgamma._flags import collect
from chebgamma.complexfn import cpow
from oracles import erfc_quad, falling_recip_direct, gamma_upper_quad

# Frozen reference values (20 significant digits, arbitrary-precision run;
# each is re-checked against the in-tree quadrature oracle below).
UPPER_HALF_AT_ONE = 0.2788055852806619765
LOWER_HALF_AT_ONE = 1.4936482656248540508
E1_AT_ONE = 0.21938393439552027368
ERFC_AT_ONE = 0.15729920705028513066
CONT_HALF_ONE_M1 = 3.2661021165303700781
LOG_GAMMA_HALF = 0.57236494292470008707


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- log_gamma

def test_log_gamma_anchor_values():
    assert abs(log_gamma(1.0)) < 1e-14
    assert rel(log_gamma(5.0), math.log(24.0)) < 1e-13
    assert rel(log_gamma(0.5), LOG_GAMMA_HALF) < 1e-13


def test_log_gamma_pole():
    with pytest.raises(PoleError):
        log_gamma(0.0)
    with pytest.raises(PoleError):
        log_gamma(-3.0)


def test_kernels_take_complex_scalars_and_refuse_non_finite_ones():
    class Sub(complex):
        pass

    assert log_gamma(Sub(5.0)) == log_gamma(5.0 + 0j) == log_gamma(5)
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf), math.inf, "x", None):
        with pytest.raises(KernelDomainError):
            log_gamma(bad)
    # both incomplete gammas, in each argument position; w = -3-0i sits on
    # the cut, which a subclass must read from the same side
    for kernel in (upper_gamma, lower_gamma):
        for s, w in ((2.5, 1.5), (2.5 + 0.5j, 1.5 - 0.25j), (2.5, complex(-3.0, -0.0))):
            want = _bits(kernel(complex(s), complex(w)))
            assert _bits(kernel(Sub(s), w)) == _bits(kernel(s, Sub(w))) == want
            # the last has finite parts but a modulus past the largest double
            for bad in (math.nan, complex(math.nan, 0.0), complex(0.0, math.inf), math.inf,
                        "x", None, complex(1.5e308, 1.5e308)):
                for args in ((bad, w), (s, bad)):
                    with pytest.raises(KernelDomainError):
                        kernel(*args)


def test_gamma_fn_real_axis_is_real():
    assert gamma_fn(4.0) == pytest.approx(6.0, rel=1e-13)
    assert complex(gamma_fn(4.0)).imag == 0.0


def test_gamma_fn_stays_finite_up_to_the_double_limit():
    # log Gamma(171.6) = 709.66 is past the 709 at which exp saturates
    with collect() as seen:
        assert rel(gamma_fn(171.6), 1.5858969096672565e308) <= 1e-15
        assert rel(upper_gamma(171.5, 1.0), 9.4833675668247993e307) <= 1e-14
    assert not seen
    with collect() as seen:
        assert gamma_fn(172.0) == complex(math.inf, 0.0)
    assert seen == {"overflow-saturation"}


@pytest.mark.parametrize("x", (0.0, -0.0, -1.0, -3.0 + 1e-13, -170.0, -1e6))
def test_gamma_fn_keeps_its_poles_on_the_real_axis(x):
    with pytest.raises(PoleError):
        gamma_fn(x)


@pytest.mark.parametrize("s, expected", [
    (0j, 1.0 + 0.0j), (0.0, 1.0 + 0.0j), (0.5, 0j), (2.0 - 3.0j, 0j), (1e-300 + 5.0j, 0j),
    (5.0j, None), (-0.5, None), (-1.0 + 2.0j, None),
])
def test_cpow_at_a_zero_base(s, expected):
    # 0^0 = 1, 0^s = 0 for Re s > 0, and no value otherwise
    for zero in (0j, 0.0, -0.0, complex(-0.0, -0.0)):
        if expected is None:
            with pytest.raises(KernelDomainError):
                cpow(zero, s)
        else:
            got = cpow(zero, s)
            assert type(got) is complex and got == expected


# --------------------------------------------------------------- upper_gamma

def test_upper_gamma_exponential_case():
    assert rel(upper_gamma(1.0, 2.0), math.exp(-2.0)) < 1e-13


def test_upper_gamma_at_zero_is_complete():
    assert rel(upper_gamma(3.0, 0.0), 2.0) < 1e-13
    with pytest.raises(KernelDomainError):
        upper_gamma(-0.5, 0.0)


def test_upper_gamma_half_at_one_frozen_and_oracle():
    got = upper_gamma(0.5, 1.0)
    assert rel(got, UPPER_HALF_AT_ONE) < 1e-12
    assert rel(got, gamma_upper_quad(0.5, 1.0)) < 1e-11
    # Same constant through the erfc route.
    assert rel(got, math.sqrt(math.pi) * erfc_quad(1.0)) < 1e-11


def test_upper_gamma_complex_spot_checks_vs_quadrature():
    for s, z in [
        (2.5, 1.0 + 2.0j),
        (-1.75, 0.3 + 0.1j),
        (4.0 - 3.0j, 12.0 + 5.0j),
        (0.5, 54.598150033144236),  # e^4: the worked-example magnitude
        (-0.5 + 0.0j, 2.0 - 7.0j),
    ]:
        assert rel(upper_gamma(s, z), gamma_upper_quad(s, z)) < 1e-11


def test_upper_gamma_negative_axis_uses_upper_side():
    # Fixed convention: z on the negative real axis is read with arg z = +pi,
    # so the value agrees with the limit from Im(z) > 0.
    direct = upper_gamma(1.5, -3.0)
    above = upper_gamma(1.5, complex(-3.0, 1e-12))
    assert rel(direct, above) < 1e-9
    below = upper_gamma(1.5, complex(-3.0, -1e-12))
    assert rel(direct, below) > 1e-9 or abs(direct.imag) < 1e-14


# --------------------------------------------------------------- lower_gamma

def test_lower_gamma_examples():
    assert rel(lower_gamma(1.0, 2.0), 1.0 - math.exp(-2.0)) < 1e-13
    assert abs(lower_gamma(2.0, 0.0)) == 0.0
    assert rel(lower_gamma(0.5, 1.0), LOWER_HALF_AT_ONE) < 1e-12


def test_lower_gamma_pole_in_s():
    with pytest.raises(PoleError):
        lower_gamma(0.0, 1.0)
    with pytest.raises(PoleError):
        lower_gamma(-2.0, 1.0)


def test_lower_gamma_at_zero_needs_a_positive_real_order():
    with pytest.raises(KernelDomainError) as err:
        lower_gamma(-0.5, 0.0)
    assert str(err.value) == "lower_gamma(s, 0) requires Re(s) > 0"


# --------------------------------------------------------------- regime map

_NEAR_CUT_IM = math.sqrt(14.0 ** 2 - 10.0 ** 2)  # |z| + Re z = 4 at Re z = -10
_SMALL_S = 6.0 + 2.0j
_SMALL_RADIUS = 1.5 * (1.0 + abs(_SMALL_S))


@pytest.mark.parametrize("s, z, regime", [
    # far along the cut: either side of |z| = 40 + 2|s| = 51, at an order
    # upper_gamma takes no terminating sum at
    (5.5, complex(-51.0, 1.0), "asymptotic"),
    (5.5, complex(-50.9, 1.0), "kummer"),
    # next to the cut: either side of |z| + Re z = 4, on both halves
    (30.0, complex(-10.0, _NEAR_CUT_IM * (1.0 - 1e-9)), "kummer"),
    (30.0, complex(-10.0, _NEAR_CUT_IM * (1.0 + 1e-9)), "left-disc"),
    (-2.5, 1.99, "series"),
    (-2.5, 2.01, "fraction"),
    # inside the disc: either side of Re z = 0, with -0.0 on the right
    (30.0, 10j, "series"),
    (30.0, complex(-0.0, 10.0), "series"),
    (30.0, complex(-1e-9, 10.0), "left-disc"),
    # the disc's edge, 1.1 |s| = 33 here, on both halves
    (30.0, 33.0 * (1.0 - 1e-12), "series"),
    (30.0, 33.0, "fraction"),
    (30.0, cmath.rect(33.0 * (1.0 - 1e-12), 2.0), "left-disc"),
    (30.0, cmath.rect(33.0 * (1.0 + 1e-12), 2.0), "fraction"),
    # a small order's disc edge, 1.5 (1 + |s|) = 10.98 here, on both halves
    (_SMALL_S, cmath.rect(_SMALL_RADIUS * (1.0 - 1e-9), 1.2), "series"),
    (_SMALL_S, cmath.rect(_SMALL_RADIUS * (1.0 + 1e-9), 1.2), "fraction"),
    (_SMALL_S, cmath.rect(_SMALL_RADIUS * (1.0 - 1e-9), -2.0), "left-disc"),
    (_SMALL_S, cmath.rect(_SMALL_RADIUS * (1.0 + 1e-9), -2.0), "fraction"),
])
def test_one_regime_map_serves_both_kernels(s, z, regime):
    assert complexfn._gamma_regime(s, z) == regime
    direct = complexfn._lower_series_direct(s, z)
    reflected = complexfn._lower_series_reflected(s, z)
    upper = {
        "asymptotic": complexfn._upper_asymptotic(s, z),
        "kummer": gamma_fn(s) - reflected,
        "series": gamma_fn(s) - direct,
    }.get(regime, complexfn._upper_cf(s, z))
    lower = {
        "series": direct, "left-disc": direct, "kummer": reflected,
    }.get(regime, gamma_fn(s) - upper)
    assert upper_gamma(s, z) == upper
    assert lower_gamma(s, z) == lower


def _upper_by(s, z, regime):
    # Gamma(s, z) by the route one outcome of the map names
    if regime in ("terminating", "asymptotic"):
        return complexfn._upper_asymptotic(s, z)
    if regime == "series":
        return gamma_fn(s) - complexfn._lower_series_direct(s, z)
    if regime == "kummer":
        return gamma_fn(s) - complexfn._lower_series_reflected(s, z)
    return complexfn._upper_cf(s, z)


@pytest.mark.parametrize("s, z, shared, upper", [
    # the asymptotic regime keeps its ground, an integral order beside it
    # takes the sum where Kummer's series ran before
    (5.0, complex(-50.0, 1.0), "asymptotic", "asymptotic"),
    (5.0, complex(-49.9, 1.0), "kummer", "terminating"),
    # either side of |z| = s - 1, on both sides of the cut and on the
    # imaginary axis
    (5.0, -4.0, "kummer", "terminating"),
    (5.0, complex(-4.0, -0.0), "kummer", "terminating"),
    (5.0, -4.0 * (1.0 - 1e-12), "kummer", "kummer"),
    (9.0, 8j, "series", "terminating"),
    (9.0, 8j * (1.0 - 1e-12), "series", "series"),
    # order 1: every z != 0
    (1.0, 1e-3, "series", "terminating"),
    (1.0, complex(-1e-3, 0.0), "kummer", "terminating"),
    # either side of the cap
    (16.0, 30j, "fraction", "terminating"),
    (17.0, 30j, "fraction", "fraction"),
    # an exactly integral order, and orders 1e-13 off it
    (5.0, complex(10.0, 10.0), "fraction", "terminating"),
    (5.0 + 1e-13, complex(10.0, 10.0), "fraction", "fraction"),
    (complex(5.0, 1e-13), complex(10.0, 10.0), "fraction", "fraction"),
    # either side of kappa = 16: the terms 1 and 1/z have moduli adding up
    # to 21 times the modulus of their sum at z = -1.1 and to 11 times at
    # -1.2, and they cancel exactly at z = -1
    (2.0, -1.0, "kummer", "declined"),
    (2.0, -1.1, "kummer", "declined"),
    (2.0, -1.2, "kummer", "terminating"),
])
def test_small_integral_orders_take_the_terminating_sum(s, z, shared, upper):
    # shared: the map's outcome without the clause, which lower_gamma keeps
    # and a declined sum falls back to; upper: what upper_gamma takes
    assert complexfn._gamma_regime(s, z) == shared
    clause = complexfn._gamma_regime(s, z, upper=True)
    assert clause == ("terminating" if upper == "declined" else upper)
    if upper == "declined":
        assert complexfn._upper_asymptotic(s, z) is None
    got = upper_gamma(s, z)
    assert got == _upper_by(s, z, shared if upper == "declined" else upper)
    lower = {
        "series": complexfn._lower_series_direct, "left-disc": complexfn._lower_series_direct,
        "kummer": complexfn._lower_series_reflected,
    }.get(shared)
    assert lower_gamma(s, z) == (gamma_fn(s) - got if lower is None else lower(s, z))


# -------------------------------------------------- recurrence property suites

def _draw_recurrence_sample(rng):
    s = rng.uniform(0.1, 8.0)
    mod = math.exp(rng.uniform(math.log(0.1), math.log(30.0)))
    phase = rng.uniform(-math.pi / 2 + 0.02, math.pi / 2 - 0.02)
    z = complex(mod * math.cos(phase), mod * math.sin(phase))
    return s, z


def test_additive_recurrence_200_draws():
    # gamma(s,z) + Gamma(s,z) = Gamma(s), normalized by |Gamma(s)|.  Draws
    # where the two incomplete pieces are astronomically larger than the
    # complete gamma cannot carry 1e-11 of relative information in binary64
    # and are rejected up front (conditioning guard, not a result filter).
    rng = random.Random(101)
    checked = 0
    while checked < 200:
        s, z = _draw_recurrence_sample(rng)
        lo = lower_gamma(s, z)
        up = upper_gamma(s, z)
        whole = gamma_fn(s)
        cond = 2.22e-16 * (abs(lo) + abs(up) + abs(whole)) / abs(whole)
        if cond > 0.3e-11:
            continue
        assert abs(lo + up - whole) / abs(whole) <= 1e-11
        checked += 1


def test_shape_recurrence_200_draws():
    # Gamma(s+1,z) = s*Gamma(s,z) + z^s e^{-z} on the same sample family.
    rng = random.Random(102)
    checked = 0
    while checked < 200:
        s, z = _draw_recurrence_sample(rng)
        lhs = upper_gamma(s + 1.0, z)
        boundary = cmath.exp(s * cmath.log(z) - z)
        rhs = s * upper_gamma(s, z) + boundary
        scale = abs(lhs) + abs(s) * abs(upper_gamma(s, z)) + abs(boundary)
        if 2.22e-16 * scale / max(abs(lhs), 1e-300) > 0.3e-11:
            continue
        assert abs(lhs - rhs) / max(abs(lhs), 1e-300) <= 1e-11
        checked += 1


# ------------------------------------------------------ analytic continuation

def test_continuation_examples():
    assert analytic_continuation_gamma(0.8, 2.0 + 1.0j, 0) == upper_gamma(0.8, 2.0 + 1.0j)
    assert rel(analytic_continuation_gamma(1.0, 1.0, 1), math.exp(-1.0)) < 1e-12
    got = analytic_continuation_gamma(0.5, 1.0, 1)
    assert rel(got, CONT_HALF_ONE_M1) < 1e-12
    # Independent assembly of the same winding from oracle pieces.
    ref = 2.0 * math.sqrt(math.pi) - gamma_upper_quad(0.5, 1.0).real
    assert rel(got, ref) < 1e-11


def test_continuation_round_trip():
    rng = random.Random(103)
    checked = 0
    while checked < 200:
        s = rng.uniform(0.15, 6.0)
        z = complex(rng.uniform(0.2, 8.0), rng.uniform(-4.0, 4.0))
        base = upper_gamma(s, z)
        for m in (1, -1, 2, -3):
            once = analytic_continuation_gamma(s, z, m)
            phase = cmath.exp(2j * math.pi * m * s)
            spread = abs(once) + abs((1.0 - phase) * gamma_fn(s))
            if 2.22e-16 * spread / max(abs(base), 1e-300) > 0.3e-11:
                continue  # unwinding cancellation exceeds binary64 resolution
            # Undo the winding analytically and compare to the principal value.
            back = (once - (1.0 - phase) * gamma_fn(s)) / phase
            assert rel(back, base) < 1e-11
        checked += 1


def test_continuation_refuses_a_non_integer_winding():
    with pytest.raises(KernelDomainError):
        analytic_continuation_gamma(1.5, 2.0, 0.5)


# ------------------------------------------------------------ conjugate suite

@given(
    mod=st.floats(min_value=0.2, max_value=25.0),
    phase=st.floats(min_value=-1.45, max_value=1.45),
    s=st.floats(min_value=0.2, max_value=6.0),
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_conjugate_symmetry(mod, phase, s):
    z = complex(mod * math.cos(phase), mod * math.sin(phase))
    zc = z.conjugate()
    for f in (lambda w: upper_gamma(s, w),
              erfc_complex,
              lambda w: exp_integral_e(s, w)):
        a = f(zc)
        b = f(z).conjugate()
        scale = max(abs(a), abs(b), 1e-300)
        assert abs(a.real - b.real) <= 1e-12 * scale
        assert abs(a.imag - b.imag) <= 1e-12 * scale


# ----------------------------------------------------------- exp_integral_e

def test_exp_integral_examples():
    assert rel(exp_integral_e(0.0, 3.0), math.exp(-3.0) / 3.0) < 1e-13
    assert rel(exp_integral_e(-1.0, 2.0), math.exp(-2.0) * 3.0 / 4.0) < 1e-13
    assert rel(exp_integral_e(1.0, 1.0), E1_AT_ONE) < 1e-12
    with pytest.raises(KernelDomainError):
        exp_integral_e(1.0, 0.0)


@given(
    nu=st.floats(min_value=-3.0, max_value=3.0),
    x=st.floats(min_value=0.3, max_value=20.0),
    y=st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_exp_integral_bridge_is_bitwise(nu, x, y):
    # E_nu(z) must be literally z^{nu-1} * Gamma(1-nu, z) through the same
    # code path: bit-identical, no independent reimplementation allowed.
    z = complex(x, y)
    lhs = exp_integral_e(nu, z)
    rhs = cpow(z, nu - 1.0) * upper_gamma(1.0 - nu, z)
    assert lhs == rhs
    # And undoing the power analytically stays within a few roundings.
    assert rel(lhs * cmath.exp((1.0 - nu) * cmath.log(z)), upper_gamma(1.0 - nu, z)) < 1e-13


# ------------------------------------------------------------------- erfc

def test_erfc_examples():
    assert erfc_complex(0.0) == 1.0
    for x in (0.3, 1.7, 4.0):
        assert rel(erfc_complex(-x), 2.0 - erfc_complex(x)) < 1e-14
    assert rel(erfc_complex(1.0), ERFC_AT_ONE) < 1e-12
    assert rel(erfc_complex(1.0), erfc_quad(1.0)) < 1e-11


def test_erfc_saturation_flags_not_errors():
    with collect() as flags:
        lo = erfc_complex(30.0)
    assert lo == 0.0 or abs(lo) < 1e-300
    assert "overflow-saturation" in flags
    with collect() as flags:
        hi = erfc_complex(-30.0)
    assert abs(hi - 2.0) < 1e-300 or hi == 2.0
    assert "overflow-saturation" in flags
    # Moderate arguments must not trip the flag.
    with collect() as flags:
        erfc_complex(3.0 + 2.0j)
    assert not flags


@pytest.mark.parametrize("z, want", [
    (complex(800.0, math.inf), "(inf+nanj)"),
    (complex(800.0, -math.inf), "(inf+nanj)"),
    (complex(1.0, math.inf), "(nan+nanj)"),
    (complex(-800.0, -math.inf), "(nan+nanj)"),
])
def test_cexp_of_an_infinite_imaginary_part_is_flagged_not_raised(z, want):
    with collect() as flags:
        assert repr(complexfn.cexp(z)) == want
    assert flags == {"overflow-saturation"}


@pytest.mark.parametrize("call", [
    lambda: gamma_fn(1e308 + 1e308j),
    lambda: upper_gamma(1e308 + 1e308j, 1e308 + 1e308j),
], ids=["gamma_fn", "upper_gamma"])
def test_a_gamma_whose_log_has_an_infinite_imaginary_part_saturates(call):
    # log Gamma(1e308 + 1e308i) has an imaginary part past the double
    # range, so e^(log Gamma) has no angle
    with collect() as flags:
        value = call()
    assert not cmath.isfinite(value)
    assert flags == {"overflow-saturation"}


def test_nonpos_int_order_saturates_past_double_range():
    # Gamma(-2, -720) is about e^720 / 720^3, still a double: its value,
    # unflagged.  Gamma(-2, -800), about 1e341, is past the double range
    # and must saturate with the flag instead of stalling.
    with collect() as flags:
        v = upper_gamma(-2, -720)
    assert rel(v, -1.3238700685830825e304) < 1e-13
    assert "overflow-saturation" not in flags
    with collect() as flags:
        v = upper_gamma(-2, -800)
    assert not (math.isfinite(v.real) and math.isfinite(v.imag))
    assert "overflow-saturation" in flags


def test_reflected_series_saturates_when_its_sum_outgrows_a_double():
    # The reflected sum stays finite while its modulus passes the double
    # range (gamma(377, .) is far past it): flag, never a bare OverflowError.
    # lower_gamma runs the sum here; upper_gamma returns the saturated
    # Gamma(377) before any sum.
    with collect() as flags:
        v = lower_gamma(377.0635858689633, -711.5185012385867 - 2.21760898831898j)
    assert not cmath.isfinite(v)
    assert "overflow-saturation" in flags


def test_kummer_sum_saturates_when_a_power_outgrows_a_double():
    # Left of the axis the powers (750 - i)^n / n! of the Kummer sum pass
    # the double range near n = 750, and so does its value: gamma(400,
    # -750 + i) is about 1.9e1471 - 4.8e1472i.  The sum stops at the first
    # non-finite power and returns a flagged infinity in the quadrant of
    # the sum so far, which is the quadrant of the value.
    assert complexfn._gamma_regime(400.0, -750 + 1j) == "kummer"
    with collect() as flags:
        v = lower_gamma(400.0, -750 + 1j)
    assert repr(v) == "(inf-infj)"
    assert flags == {"overflow-saturation"}


@pytest.mark.xfail(strict=True, reason="the Kummer sum's powers pass the double range "
                   "while w^s underflows: a flagged infinity where Gamma(s, w) is 1.2e-56")
def test_kummer_sum_past_the_double_range_behind_a_tiny_power():
    # Gamma(50 + 400i, -800 + i) = -gamma(s, w) + Gamma(s), with |w^s| about
    # e^-922 and the sum about e^800 / 800: the value is a double.
    assert complexfn._gamma_regime(50 + 400j, -800 + 1j, upper=True) == "kummer"
    with collect() as flags:
        v = upper_gamma(50 + 400j, -800 + 1j)
    assert rel(v, 4.933068519083367e-57 - 1.109496193481063e-56j) < 1e-10
    assert not flags


def _sum_must_not_run(*args):
    raise AssertionError(f"a lower-gamma sum ran at {args}")


@pytest.mark.parametrize("s, z", [
    (180.0, complex(120.0, 60.0)),         # series
    (200.0, complex(-150.0, 0.5)),         # Kummer
    (complex(185.0, 20.0), complex(100.0, 30.0)),  # complex order, series
])
def test_upper_gamma_returns_a_saturated_gamma_without_summing(s, z, monkeypatch):
    # Past Gamma's overflow no gamma(s, z) brings Gamma(s) - gamma(s, z)
    # back into range, so the series regimes return the flagged Gamma(s).
    monkeypatch.setattr(complexfn, "_lower_series_direct", _sum_must_not_run)
    monkeypatch.setattr(complexfn, "_kummer_sum", _sum_must_not_run)
    with collect() as flags:
        v = upper_gamma(s, z)
    assert repr(v) == repr(gamma_fn(s))
    assert flags == {"overflow-saturation"}


@pytest.mark.parametrize("z", [1.0, complex(-3.0, 0.1)], ids=["series", "kummer"])
def test_upper_gamma_raises_a_stalled_sum_behind_a_finite_gamma(z, monkeypatch):
    def stalled(*args):
        raise NonConvergenceError("stalled")

    monkeypatch.setattr(complexfn, "_lower_series_direct", stalled)
    monkeypatch.setattr(complexfn, "_kummer_sum", stalled)
    with pytest.raises(NonConvergenceError):
        upper_gamma(2.5, z)


def test_continued_fraction_does_not_fold_a_wrong_value_into_range():
    # Left of the imaginary axis at |w| well below |s| the continued
    # fraction settles on a wrong value (module docstring of complexfn).
    # Gamma(212, -0.35 + 28.7i) is about 2.2e400, past the double range,
    # and the fraction's value there must end in a flagged non-finite
    # value, not come back finite (folded, it reads -5.3e306 + 5.8e306i).
    with collect() as flags:
        v = upper_gamma(212, -0.35169 + 28.698j)
    assert not cmath.isfinite(v)
    assert "overflow-saturation" in flags


# ------------------------------------------------------------- pochhammer

def test_pochhammer_recip_examples():
    assert pochhammer_recip(0.37 - 2.0j, 1) == 1.0
    assert rel(pochhammer_recip(2.0, 0), 0.5) < 1e-15
    assert rel(pochhammer_recip(5.0, 3), 12.0) < 1e-15
    assert pochhammer_recip(1.0, 3) == 0.0
    with pytest.raises(PoleError):
        pochhammer_recip(0.0, 0)
    with pytest.raises(KernelDomainError):
        pochhammer_recip(1.0, -1)


@given(
    kr=st.floats(min_value=-6.0, max_value=6.0),
    ki=st.floats(min_value=-3.0, max_value=3.0),
    q=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_pochhammer_recip_inverts_log_gamma_ratio(kr, ki, q):
    k = complex(kr, ki)
    assume(abs(k) > 1e-3 or q != 0)
    got = pochhammer_recip(k, q)
    direct = falling_recip_direct(k, q)
    if abs(direct) < 1e-12:
        assert abs(got) < 1e-9
        return
    # Independent route: the falling factorial equals Gamma(k+1-q)/Gamma(k)
    # via log_gamma.  The ratio oracle is ill-conditioned within ~1e-2 of a
    # gamma pole in either factor, so such draws are rejected, not asserted.
    shifted = k + 1.0 - q

    def pole_distance(w):
        n = round(w.real)
        return abs(w - n) if n <= 0 else math.inf

    assume(min(pole_distance(k), pole_distance(shifted)) > 1e-2)
    try:
        poch = cmath.exp(log_gamma(k + 1.0 - q) - log_gamma(k))
    except PoleError:
        assume(False)
    assert abs(got * poch - 1.0) <= 1e-10


# --------------------------------------------------------- real arithmetic

def _bits(x):
    # the real part's sign and bits, and the imaginary part's value (a
    # float reads as imaginary 0)
    x = complex(x)
    return (x.real.hex(), math.copysign(1.0, x.real), x.imag)


def _regime_draws(rng):
    # (regime, real arguments) over each regime's ground, w on the
    # negative real axis included
    s = lambda lo, hi: rng.uniform(lo, hi)
    for _ in range(40):
        yield complexfn._upper_cf, (s(-5.0, 60.0), s(20.0, 200.0))
        yield complexfn._upper_cf, (s(-40.0, -1.0), s(2.0, 200.0))
        yield complexfn._lower_series_direct, (s(0.5, 60.0), s(0.01, 40.0))
        yield complexfn._kummer_sum, (s(-30.0, 60.0), -s(0.01, 300.0))
        yield complexfn._kummer_sum, (s(0.5, 60.0), s(0.01, 5.0))
        yield complexfn._upper_asymptotic, (s(-20.0, 20.0), -s(80.0, 500.0))
        yield complexfn._upper_series_nonpos_int, (rng.randint(0, 40), -s(0.01, 300.0))
        yield complexfn._upper_series_nonpos_int, (rng.randint(0, 40), s(0.01, 3.0))
    for _ in range(40):
        # the terminating sum, at the orders upper_gamma takes it at
        order = float(rng.randint(1, complexfn._TERMINATING_CAP))
        yield complexfn._upper_asymptotic, (order, rng.choice((-1.0, 1.0)) * s(15.0, 300.0))


def test_regimes_give_real_arguments_the_bits_of_complex_ones():
    # upper_gamma narrows real s and w to floats; each regime must return
    # what it returns on complex(x, 0.0) operands, bit for bit
    rng = random.Random(41)
    seen = set()
    for regime, (s, w) in _regime_draws(rng):
        real = regime(s, w)
        if regime is complexfn._upper_series_nonpos_int:
            wide = regime(s, complex(w, 0.0))
        else:
            wide = regime(complex(s, 0.0), complex(w, 0.0))
        if regime is complexfn._kummer_sum:
            real, wide = real[0], wide[0]
        if real is None or wide is None:
            assert real is wide
            continue
        assert cmath.isfinite(wide), (regime.__name__, s, w)
        assert _bits(real) == _bits(wide), (regime.__name__, s, w)
        seen.add(regime)
    assert len(seen) == 5


@pytest.mark.parametrize("s, w", [
    (2.5, 0.75), (2.5, 40.0), (-3.5, -50.0), (-2.0, -500.0), (-2.0, 5.0), (0.5, -20.0),
])
def test_kernels_return_complex_at_real_arguments(s, w):
    assert type(upper_gamma(s, w)) is complex
    assert type(exp_integral_e(-s, w)) is complex
    if s != -2.0:  # a pole of lower_gamma
        assert type(lower_gamma(s, w)) is complex
