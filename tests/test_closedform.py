"""Closed-form routes: twelve-term decomposition, assembled formula,
cosine form, named reference values, difference identities, and limits
at the removable singularities.

The two closed-form code paths share no subexpressions by design, so
their agreement (and agreement with the enumeration oracle) is a real
cross-check rather than an echo.
"""

import cmath
import contextlib
import math
import random
from fractions import Fraction

import pytest

import chebgamma.closedform as cf
from chebgamma import (
    ConfigError,
    ContourTermSpec,
    KernelDomainError,
    NonConvergenceError,
    PoleError,
    SeriesParams,
    SingularParameterError,
    TWELVE_TERMS,
    TruncationPolicy,
    closed_form,
    closed_form_cos,
    contour_term,
    diff_closed_form,
    difference_series,
    erfc_product_value,
    golden_ratio_value,
    limit_eval,
    prop1_value,
    series_sum,
)
from chebgamma._flags import collect
from oracles import double_sum_direct, finite_series_exact, shell_values_exact

E4 = math.exp(4.0)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def params(alpha, beta, k, a_pi):
    return SeriesParams(a=a_pi / math.pi, k=k, alpha=alpha, beta=beta)


def draw_pair(rng, bound=0.9, gap=0.1):
    while True:
        alpha = rng.uniform(-bound, bound)
        beta = rng.uniform(-bound, bound)
        if abs(alpha - beta) >= gap:
            return alpha, beta


# ---------------------------------------------------------- twelve terms

def test_twelve_specs_tile_the_key_space():
    keys = {(s.variable, s.root_sign, s.order_shift) for s in TWELVE_TERMS}
    assert len(TWELVE_TERMS) == 12
    assert len(keys) == 12
    assert keys == {(v, r, d)
                    for v in ("alpha-side", "beta-side")
                    for r in ("+", "-")
                    for d in (-1, 0, 1)}


def test_term_sum_equals_assembled_form_200_draws():
    rng = random.Random(41)
    for _ in range(200):
        k = rng.choice([0.7, 1.3, 2.5, -0.5])
        z = rng.choice([5.0, 20.0])
        alpha, beta = draw_pair(rng)
        p = params(alpha, beta, k, z)
        total = sum(contour_term(s, p) for s in TWELVE_TERMS)
        assert rel(total, closed_form(p)) <= 1e-11


@pytest.mark.parametrize("k, want", ((-2, -0.48251336922771), (-3, -0.30321517550070)))
def test_term_sum_equals_assembled_form_at_negative_integer_k(k, want):
    # Gamma(k) has a pole here, but each term's ratio Gamma(k)/Gamma(k+1+shift)
    # is the finite Pochhammer ratio 1, 1/k or 1/(k(k+1))
    p = params(0.3, -0.55, k, 10.0)
    total = sum(contour_term(s, p) for s in TWELVE_TERMS)
    assert rel(total, closed_form(p)) <= 1e-12
    assert abs(total - want) <= 1e-13


def test_term_sum_equals_assembled_form_at_large_integer_k():
    # every root X has Re X > 0, so no continued fraction runs left of the
    # imaginary axis; the exact ratio keeps the gap near 2.5e-13, where a
    # ratio taken as exp(log Gamma(k) - log Gamma(k+1+shift)) reaches 3.6e-11
    rng = random.Random(44)
    compared = 0
    for _ in range(200):
        k = rng.randint(20, 160)
        alpha, beta = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        p = params(alpha, beta, k, rng.uniform(0.6 * k, 3.0 * k))
        if abs(alpha - beta) < 0.05 or not cmath.isfinite(closed := closed_form(p)):
            continue
        total = sum(contour_term(s, p) for s in TWELVE_TERMS)
        assert rel(total, closed) <= 1e-12, (p, total, closed)
        compared += 1
    assert compared >= 100


def test_root_sign_partners_are_conjugate():
    # For real parameters the +/- root pair of each (side, shift) cell is a
    # complex-conjugate pair; this is what makes the total real.
    rng = random.Random(42)
    by_key = {(s.variable, s.order_shift, s.root_sign): s for s in TWELVE_TERMS}
    for _ in range(20):
        alpha, beta = draw_pair(rng)
        p = params(alpha, beta, rng.choice([0.8, 2.2]), rng.uniform(6.0, 25.0))
        for side in ("alpha-side", "beta-side"):
            for shift in (-1, 0, 1):
                plus = contour_term(by_key[(side, shift, "+")], p)
                minus = contour_term(by_key[(side, shift, "-")], p)
                assert rel(plus, minus.conjugate()) < 1e-10


def _mp_roots(mpmath, x):
    """(s, x - i s, x + i s) with s = sqrt(1 - x^2), formed in mpmath with
    two more digits per decade of |x| than the working precision, which
    the difference of the two nearly equal numbers cancels."""
    with mpmath.extradps(2 * max(0, int(math.log10(abs(x)))) + 10):
        x = mpmath.mpc(x)
        s = mpmath.sqrt(1 - x * x)
        return +s, +(x - 1j * s), +(x + 1j * s)


def _mp_contour_term(mpmath, spec, z, k, alpha, beta):
    """contour_term's addend in mpmath."""
    s, minus, plus = _mp_roots(mpmath, alpha if spec.variable == "alpha-side" else beta)
    big_x = plus if spec.root_sign == "+" else minus
    alpha, beta, k = mpmath.mpc(alpha), mpmath.mpc(beta), mpmath.mpc(k)
    order = k + 1 + spec.order_shift
    pref, ratio = {1: (1, 1 / (k * (k + 1))), 0: (alpha + beta, 1 / k),
                   -1: (alpha * beta, 1)}[spec.order_shift]
    sign = ((1 if spec.variable == "alpha-side" else -1) * (1 if spec.root_sign == "+" else -1)
            * (-1 if spec.order_shift == 0 else 1))
    return (sign * 1j * pref / (4 * s * (alpha - beta)) * mpmath.exp(z * big_x)
            * big_x ** -order * mpmath.gammainc(order, z * big_x) * ratio * z ** -k)


def test_small_root_keeps_its_digits_outside_the_interval():
    # x outside [-1, 1]: real of either sign with |x| from 2 to 1e50, or
    # complex of modulus 2 to 1e6.  The smaller root, formed as x -+ i s,
    # would lose about 2 |x|^2 eps and read 0 from |x| ~ 1e8 on.  Each
    # route's small root is held against 40-digit mpmath: its seven factors
    # in _root_pair and its three alpha-side addends in contour_term.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2026)
    with mpmath.workdps(40):
        for i in range(40):
            if i % 4:
                x = complex(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.3, 50.0))
            else:
                x = cmath.rect(10.0 ** rng.uniform(0.3, 6.0), rng.uniform(-math.pi, math.pi))
            z = rng.uniform(0.5, 5.0)
            k = complex(rng.uniform(0.5, 3.0), rng.choice((0.0, rng.uniform(-1.0, 1.0))))
            _, minus, plus = _mp_roots(mpmath, x)
            small, sign = (minus, "-") if abs(minus) < abs(plus) else (plus, "+")
            w = z * small
            want = (mpmath.exp(w), small ** (-k - 2), mpmath.gammainc(k + 2, w),
                    small ** (-k - 1), mpmath.gammainc(k + 1, w),
                    small ** -k, mpmath.gammainc(k, w))
            got = cf._root_pair(complex(z), k, x)[1][0 if sign == "-" else 1]
            for g, m in zip(got, want):
                assert abs(g - complex(m)) <= 1e-12 * abs(complex(m)), (x, z, k, g, m)
            p = params(x, rng.uniform(-0.9, 0.9), k, z)
            for spec in TWELVE_TERMS:
                if spec.variable == "alpha-side" and spec.root_sign == sign:
                    m = complex(_mp_contour_term(mpmath, spec, z, k, p.alpha, p.beta))
                    assert rel(contour_term(spec, p), m) <= 1e-12, (x, z, k, spec)


def test_contour_term_rejects_singular_parameters():
    with pytest.raises(SingularParameterError):
        contour_term(TWELVE_TERMS[0], params(0.5, 0.5, 2.0, 10.0))


# ------------------------------------------------------------- closed form

def test_order_one_anchor():
    rng = random.Random(43)
    for _ in range(25):
        alpha, beta = draw_pair(rng)
        z = rng.uniform(3.0, 40.0)
        got = closed_form(params(alpha, beta, 1.0, z))
        assert rel(got, 1.0 + (alpha + beta) / z) < 1e-10


def test_order_two_half_points():
    # k = 2 at (0.5, -0.5): surviving shells are q = 0 (value 1/2), q = 1
    # (coefficient 0), q = 2 with unit weight and C_2 = -1.25, so the value
    # is 1/2 - 1.25/z^2.  Confirmed by the enumeration oracle.
    z = 10.0
    expect = 0.5 - 1.25 / z ** 2
    assert rel(finite_series_exact(0.5, -0.5, 2, z), expect) < 1e-14
    assert rel(closed_form(params(0.5, -0.5, 2.0, z)), expect) < 1e-10


def test_matches_enumeration_oracle_integer_orders():
    rng = random.Random(44)
    for _ in range(50):
        k = rng.choice([1, 2, 3, 5])
        z = rng.choice([2.0, 10.0])
        alpha, beta = draw_pair(rng)
        got = closed_form(params(alpha, beta, float(k), z))
        assert rel(got, finite_series_exact(alpha, beta, k, z)) <= 1e-9


def test_swap_symmetry():
    rng = random.Random(45)
    for _ in range(50):
        alpha, beta = draw_pair(rng)
        k = rng.choice([0.7, 1.3, 2.5, -0.5, 2.0])
        z = rng.uniform(5.0, 30.0)
        a_val = closed_form(params(alpha, beta, k, z))
        b_val = closed_form(params(beta, alpha, k, z))
        assert rel(a_val, b_val) <= 1e-10


def test_realness_for_real_parameters():
    rng = random.Random(46)
    for _ in range(50):
        alpha, beta = draw_pair(rng)
        k = rng.choice([0.6, 1.5, 2.0, 3.3, -0.4])
        z = rng.uniform(4.0, 50.0)
        got = closed_form(params(alpha, beta, k, z))
        assert abs(got.imag) <= 1e-10 * abs(got)


def test_closed_form_past_a_literal_bracket_overflow():
    # e^(z X) at the beta root 1.54 + 1.17 is near the top of the double
    # range here; multiplying it by an addend's coefficients before the
    # gamma factor overflows, and inf * 0 then gives nan.
    p = SeriesParams(a=83.05378253899715, k=20, alpha=0.16780911058382575,
                     beta=1.5420366731167683)
    got = closed_form(p)
    ref = series_sum(p).value
    assert cmath.isfinite(got)
    assert rel(got, ref) <= 1e-12
    assert rel(ref, 0.0576163646505162) <= 1e-12


def test_moat_rejections_name_the_limit_path():
    cases = [
        params(0.5, 0.5, 2.0, 10.0),        # alpha = beta
        params(0.5, 0.5 + 5e-7, 2.0, 10.0), # inside the moat
        params(1.0, 0.2, 2.0, 10.0),        # alpha = 1
        params(-1.0, 0.2, 2.0, 10.0),       # alpha = -1
        params(0.2, 1.0, 2.0, 10.0),        # beta = 1
        params(0.3, -0.2, 0.0, 10.0),       # k = 0
        params(0.3, -0.2, -1.0, 10.0),      # k = -1
    ]
    for p in cases:
        with pytest.raises(SingularParameterError) as err:
            closed_form(p)
        assert "limit_eval" in str(err.value)


def test_difference_consistency_integer_orders():
    rng = random.Random(47)
    for _ in range(30):
        k = float(rng.choice([1, 2, 3]))
        alpha, beta = draw_pair(rng, bound=0.85)
        z = rng.uniform(8.0, 40.0)
        lhs = (closed_form(params(-alpha, -beta, k, z))
               - closed_form(params(alpha, beta, k, z)))
        ref = difference_series(params(alpha, beta, k, z)).value
        scale = max(abs(ref), abs(lhs), 1e-3)
        assert abs(lhs - ref) <= 1e-9 * max(scale, 1.0)


# ------------------------------------------------------------- cosine form

def test_cosine_form_anchor():
    got = closed_form_cos(10.0 / math.pi, 1.0, math.pi / 2, math.pi / 3)
    assert rel(got, 1.05) < 1e-10


def test_cosine_form_swap_symmetry():
    a = closed_form_cos(12.0 / math.pi, 1.7, 1.1, 2.0)
    b = closed_form_cos(12.0 / math.pi, 1.7, 2.0, 1.1)
    assert rel(a, b) < 1e-10


def test_cosine_form_matches_coordinate_change():
    rng = random.Random(48)
    for _ in range(40):
        ta = rng.uniform(0.3, 2.8)
        tb = rng.uniform(0.3, 2.8)
        if abs(math.cos(ta) - math.cos(tb)) < 0.05:
            continue
        k = rng.choice([0.8, 1.4, 2.0, 2.6])
        z = rng.uniform(6.0, 30.0)
        via_cos = closed_form_cos(z / math.pi, k, ta, tb)
        direct = closed_form(params(math.cos(ta), math.cos(tb), k, z))
        assert rel(via_cos, direct) <= 1e-12


def test_cosine_form_rejects_angle_moat():
    with pytest.raises(SingularParameterError):
        closed_form_cos(10.0 / math.pi, 2.0, 1e-9, 1.2)
    with pytest.raises(SingularParameterError):
        closed_form_cos(10.0 / math.pi, 2.0, 1.2, 1.2)


def test_cosine_form_refuses_an_order_whose_modulus_overflows():
    with pytest.raises(KernelDomainError, match=r"\|k\| overflows a double"):
        closed_form_cos(3.0, 1.5e308 + 1.5e308j, 1.1, 2.0)


def test_closed_forms_refuse_an_argument_whose_modulus_overflows():
    huge = 1.5e308 + 1.5e308j
    p = params(huge, -0.55, 2.5, 3.0 * math.pi)
    with pytest.raises(KernelDomainError, match=r"\|alpha\| or \|beta\| overflows a double"):
        closed_form(p)
    for spec in TWELVE_TERMS:
        with pytest.raises(KernelDomainError, match="overflows a double"):
            contour_term(spec, p)
    # alpha - beta has a modulus here, alpha -+ 1 and beta -+ 1 do not
    near = 1.5e308 + 1.4999999999e308j
    with pytest.raises(KernelDomainError, match="overflows a double"):
        closed_form(params(huge, near, 2.5, 3.0 * math.pi))
    with pytest.raises(KernelDomainError, match="overflows a double"):
        contour_term(TWELVE_TERMS[-1], params(near, huge, 2.5, 3.0 * math.pi))
    # cos and sin of the angle overflow before any modulus is taken
    with pytest.raises(KernelDomainError, match="overflows a double"):
        closed_form_cos(3.0, 2.5, huge, 0.5)
    with pytest.raises(KernelDomainError, match="overflows a double"):
        closed_form_cos(3.0, 2.5, 0.5, huge)


def _cosine_points():
    rng = random.Random(23)
    return [(10 ** rng.uniform(-1.0, 2.5),
             rng.choice([float(rng.randint(1, 12)), rng.uniform(-3.5, 30.0)]),
             rng.uniform(-3.0, 6.0), rng.uniform(-3.0, 6.0)) for _ in range(8)]


# the four-root loop's values at _cosine_points(), which one root per
# side must keep bit for bit
_COSINE_VALUES = tuple(complex(re, im) for re, im in (
    (0.20003800131696875, 0.0), (0.14349584467338955, 0.0), (21.004530607159356, 0.0),
    (0.155702388710089, 0.0), (0.2591320942180281, -0.0), (0.052454979995213785, -0.0),
    (21327959015.259895, -0.0), (0.1047320635763445, 0.0),
))


def test_cosine_form_at_real_points_keeps_its_bits_with_one_root_per_side(monkeypatch):
    # The e^(+i theta) addend is minus the conjugate of the e^(-i theta)
    # one, so six incomplete gammas serve where twelve did, bit for bit.
    calls = count_kernel_calls(monkeypatch)
    for point, value in zip(_cosine_points(), _COSINE_VALUES):
        calls.clear()
        assert same_bits(closed_form_cos(*point), value)
        assert len(calls) == 6


@pytest.mark.parametrize("point", [
    (12.0 / math.pi, 1.7 + 0.2j, 1.1, 2.0),
    (12.0 / math.pi + 0.1j, 1.7, 1.1, 2.0),
    (12.0 / math.pi, 1.7, 1.1 + 0.05j, 2.0),
    (12.0 / math.pi, 1.7, 1.1, 2.0 - 0.05j),
])
def test_cosine_form_runs_all_four_roots_at_a_complex_input(monkeypatch, point):
    calls = count_kernel_calls(monkeypatch)
    closed_form_cos(*point)
    assert len(calls) == 12


# ------------------------------------------------------- named references

def test_coincident_unit_limit_reductions():
    for z in (7.0, 10.0, 31.4):
        assert rel(prop1_value(z / math.pi, 1.0), 1.0 + 2.0 / z) < 1e-12
        assert rel(prop1_value(z / math.pi, 2.0),
                   0.5 + 2.0 / z + 3.0 / z ** 2) < 1e-12


def test_coincident_unit_limit_vs_series_estimate():
    # Non-terminating order at the worked-example magnitude: the optimal
    # truncation estimate must cover the distance to the reference value.
    res = series_sum(params(1.0, 1.0, -0.5, E4), TruncationPolicy(mode="optimal"))
    ref = prop1_value(E4 / math.pi, -0.5)
    assert abs(res.value - ref) <= res.error_estimate


def test_golden_ratio_order_one_anchor():
    z = 17.0
    got = golden_ratio_value(z / math.pi, 1.0)
    expect = 1.0 + (math.sqrt(5.0) + math.sqrt(5.0) / 2.0) / z
    assert rel(got, expect) < 1e-9


def test_golden_ratio_matches_closed_form_and_series():
    z = 20.0
    s5 = math.sqrt(5.0)
    for k in (2, 3):
        named = golden_ratio_value(z / math.pi, float(k))
        assembled = closed_form(params(s5, s5 / 2.0, float(k), z))
        finite = finite_series_exact(s5, s5 / 2.0, k, z)
        assert rel(named, assembled) <= 1e-9
        assert rel(named, finite) <= 1e-9


def test_erfc_product_value_three_ways():
    printed = erfc_product_value()
    p = params(0.0, math.cos(math.pi / 4.0), -0.5, E4)
    series = series_sum(p, TruncationPolicy(mode="optimal")).value
    assembled = closed_form(p)
    via_cos = closed_form_cos(E4 / math.pi, -0.5, math.pi / 2.0, math.pi / 4.0)
    assert rel(printed, series) <= 1e-10
    assert rel(printed, assembled) <= 1e-10
    assert rel(printed, via_cos) <= 1e-10


@pytest.mark.xfail(strict=True, reason="closed_form is off by 420x against the exact sum, "
                   "from upper_gamma's continued fraction in the left half of the pocket "
                   "disc (module docstring of complexfn); the reference series_sum, "
                   "reported exact, is itself off by 7.4e-7")
def test_closed_form_at_large_k_small_a_pi():
    p = params(-0.614, -0.595, 39, 12.3)
    got = closed_form(p)
    ref = series_sum(p).value
    assert rel(ref, -0.0067938) <= 1e-4
    assert rel(got, ref) <= 1e-9


# --------------------------------------------------- difference identities

def test_difference_closed_form_order_one_anchors():
    z = 30.0
    assert rel(diff_closed_form(1, z / math.pi, 1.0), -4.0 / z) < 1e-10
    assert rel(diff_closed_form(5, z / math.pi, 1.0), -20.0 / z) < 1e-10


def test_difference_closed_form_vs_series_all_five():
    z = 30.0
    for c in range(1, 6):
        got = diff_closed_form(c, z / math.pi, 2.0)
        ref = difference_series(params(float(c), float(c), 2.0, z)).value
        assert rel(got, ref) <= 1e-6


def test_difference_identities_beyond_printed_range():
    points = [(4, 60.0), (4, 70.0), (4, 80.0), (2, 100.0)]
    rng = random.Random(49)
    for c in range(2, 6):
        for _ in range(20):
            points.append((c, cmath.rect(rng.uniform(15.0, 60.0),
                                         rng.uniform(-math.pi, math.pi))))
    for c, z in points:
        got = diff_closed_form(c, z / math.pi, 2.0)
        ref = difference_series(params(float(c), float(c), 2.0, z)).value
        assert rel(got, ref) <= 1e-6, (c, z, got, ref)


@pytest.mark.xfail(strict=True, reason="e^(2cz) and e^(2rz) overflow before the gamma "
                   "factors shrink them, giving nan+nanj")
@pytest.mark.parametrize("c, z", [(3, 150.0), (4, 100.0), (5, 80.0)])
def test_difference_identities_at_large_a_pi(c, z):
    got = diff_closed_form(c, z / math.pi, 2.0)
    ref = difference_series(params(float(c), float(c), 2.0, z)).value
    assert cmath.isfinite(got)
    assert rel(got, ref) <= 1e-6


def test_difference_branch_sensitivity_flags():
    z = 30.0
    for c in range(1, 6):
        with collect() as flags:
            diff_closed_form(c, z / math.pi, 2.0)
        if c in (3, 5):
            assert "branch-sensitive" in flags
        else:
            assert "branch-sensitive" not in flags


def test_difference_closed_form_validation():
    with pytest.raises(ConfigError):
        diff_closed_form(0, 3.0, 2.0)
    with pytest.raises(ConfigError):
        diff_closed_form(6, 3.0, 2.0)
    with pytest.raises(ConfigError):
        diff_closed_form(True, 3.0, 2.0)
    with pytest.raises(PoleError):
        diff_closed_form(2, 3.0, 0.0)
    with pytest.raises(SingularParameterError):
        diff_closed_form(2, 0.0, 2.0)


@pytest.mark.parametrize("call", (
    lambda: prop1_value("x", 2.0),
    lambda: prop1_value(float("nan"), 2.0),
    lambda: golden_ratio_value(1.0, float("nan")),
    lambda: diff_closed_form(2, float("nan"), 2.0),
    lambda: diff_closed_form(2, 3.0, None),
    lambda: closed_form_cos(None, 1.0, 1.0, 2.0),
    lambda: closed_form_cos(1.0, 1.0, float("inf"), 2.0),
), ids=("prop1-str-a", "prop1-nan-a", "golden-nan-k", "diff-nan-a", "diff-none-k",
        "cos-none-a", "cos-inf-theta"))
def test_reference_formulas_name_a_bad_argument(call):
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value).split()[0] in ("a", "k", "theta_alpha")


# Points where each evaluation overflows to a non-finite value (found by a
# seeded probe over k = 2..200 and a*pi = 1..1000).
@pytest.mark.parametrize("call", (
    lambda: closed_form(params(0.824005691760834, -0.21350265609041497, 167, 42.15523701676079)),
    lambda: closed_form(params(0.3895805336344542, 0.8900179623554934, 119, 117.85647518012253 * math.pi)),
    lambda: contour_term(TWELVE_TERMS[1], params(0.5254879084186188, -0.017281632669647773,
                                                 142, 107.165582208737 * math.pi)),
    lambda: closed_form_cos(117.85647518012253, 119, 1.1706202283977707, 0.47341176121650774),
    lambda: prop1_value(224.21593894556472, 141),
    lambda: golden_ratio_value(1.299498101739285 / math.pi, 164),
    lambda: diff_closed_form(3, 0.5559313005178816, 162.0263511139717),
), ids=("closed_form-k167", "closed_form-k119", "contour_term", "closed_form_cos",
        "prop1_value", "golden_ratio_value", "diff_closed_form"))
def test_non_finite_closed_forms_are_flagged(call):
    with collect() as flags:
        value = call()
    assert not cmath.isfinite(value)
    assert "overflow-saturation" in flags


def test_closed_form_on_a_wrong_continued_fraction_value_is_flagged_or_right():
    # The six beta-side gammas of this point sit left of the imaginary axis
    # at |w|/s of about 0.27, where the continued fraction settles on a
    # wrong value; their exponent is past the double range.  The closed
    # form is either right (the exact rational sum of the terminating
    # series is 3.06e19) or non-finite and flagged, never a wrong finite
    # number (folding the fraction's value gives 1.03e-4).
    alpha, beta = -0.13659550908205245, -0.78577828826091212
    point = SeriesParams(a=14.847161726479616, k=173, alpha=alpha, beta=beta)
    with collect() as flags:
        value = closed_form(point)
    if cmath.isfinite(value):
        z = Fraction(point.a_pi().real)
        shells, _ = shell_values_exact(173, alpha, beta)
        exact, weight = shells[0] / 173 + shells[1] / z, Fraction(1)
        for q in range(2, 174):
            weight *= 174 - q          # (k - 1)(k - 2)...(k - q + 1)
            exact += shells[q] * weight / z ** q
        assert rel(value, float(exact)) < 1e-8
    else:
        assert "overflow-saturation" in flags


# ------------------------------------------------------------------ limits

def test_limit_requires_singular_point():
    with pytest.raises(SingularParameterError):
        limit_eval(params(0.3, -0.2, 2.0, 10.0))


_HUGE = 1.5e308 + 1.5e308j


# Each point sits on, or next to, the singular set its id names, with a
# coordinate whose modulus overflows; the last sits on none of them.
@pytest.mark.parametrize("alpha, beta", [
    (_HUGE, _HUGE),
    (1.0, _HUGE),
    (-1.0, _HUGE),
    (_HUGE, 1.0),
    (_HUGE, -0.55),
], ids=["alpha-to-beta", "alpha-to-one", "alpha-to-minus-one", "both-to-one",
        "off-every-set"])
def test_limit_refuses_an_argument_whose_modulus_overflows(alpha, beta):
    with pytest.raises(KernelDomainError) as err:
        limit_eval(params(alpha, beta, 2.5, 3.0 * math.pi))
    message = str(err.value)
    assert message.startswith("|alpha - beta|, |alpha| or |beta| overflows a double at alpha=")
    assert message.endswith(f", beta={complex(beta)}")
    # at alpha = -1 the refusal comes from closed_form at the first
    # perturbed point, so the message names that alpha, not -1
    if alpha != -1.0:
        assert message == (
            "|alpha - beta|, |alpha| or |beta| overflows a double at "
            f"alpha={complex(alpha)}, beta={complex(beta)}")


def test_limit_both_to_one_order_one_anchor():
    got = limit_eval(params(1.0, 1.0, 1.0, 10.0))
    assert rel(got, 1.2) < 1e-8


def test_limit_alpha_to_beta_matches_finite_series():
    got = limit_eval(params(0.5, 0.5, 2.0, 10.0))
    ref = finite_series_exact(0.5, 0.5, 2, 10.0)
    assert rel(got, ref) <= 1e-7


def test_limit_edge_of_interval_kinds():
    # alpha at +1 and -1 with a regular beta; reference is the finite series.
    got = limit_eval(params(1.0, 0.25, 2.0, 12.0))
    assert rel(got, finite_series_exact(1.0, 0.25, 2, 12.0)) <= 1e-7
    got = limit_eval(params(-1.0, 0.25, 3.0, 12.0))
    assert rel(got, finite_series_exact(-1.0, 0.25, 3, 12.0)) <= 1e-7


def test_limit_both_to_one_worked_magnitude():
    got = limit_eval(params(1.0, 1.0, -0.5, E4))
    assert rel(got, prop1_value(E4 / math.pi, -0.5)) <= 1e-6


@pytest.mark.parametrize("beta", [1e-300, 1e-5, -2e-3])
def test_limit_alpha_to_beta_near_zero(beta):
    # beta steps off alpha by eps_j, not by eps_j |beta|: a step relative
    # to a tiny beta would land back inside the moat and raise
    got = limit_eval(params(beta, beta, 2.0, 10.0))
    assert rel(got, finite_series_exact(beta, beta, 2, 10.0)) <= 1e-10


@pytest.mark.parametrize("point, first_level, on_set", [
    ((1.0, 1.0, 1.0, 10.0), (0.99, 0.98), (1.0, 1.0)),             # both at 1
    ((1.0, 0.25, 2.0, 12.0), (0.99, 0.25), (1.0, 0.25)),           # alpha at +1
    ((-1.0, 0.25, 3.0, 12.0), (-0.99, 0.25), (-1.0, 0.25)),        # alpha at -1
    ((0.5, 0.5, 2.0, 10.0), (0.5, 0.51), (0.5, 0.5)),              # alpha = beta
    # alpha 0.8e-6 off 1 and beta 0.8e-6 off alpha: alpha at +1 comes
    # first, since moving beta off alpha would leave alpha in the moat of 1
    ((1.0 - 0.8e-6, 1.0 - 1.6e-6, 2.0, 10.0), (0.99, 1.0 - 1.6e-6), (1.0, 1.0 - 1.6e-6)),
])
def test_limit_reads_its_path_from_the_point(monkeypatch, point, first_level, on_set):
    levels = []
    closed = cf.closed_form

    def recording(p):
        levels.append((p.alpha, p.beta))
        return closed(p)

    monkeypatch.setattr(cf, "closed_form", recording)
    got = cf.limit_eval(params(*point))
    assert len(levels) == 6
    assert levels[0] == first_level
    k, a_pi = point[2:]
    assert rel(got, finite_series_exact(*on_set, int(k), a_pi)) <= 1e-9


def test_limit_non_convergence_is_detected(monkeypatch):
    # A perturbation response ~ sqrt(eps) violates the linear-error model:
    # extrapolants stop contracting and the evaluator must say so rather
    # than return a bad number.
    import chebgamma.closedform as cf

    def stubborn(p):
        return complex(1.0 + math.sqrt(abs(p.beta - p.alpha)))

    monkeypatch.setattr(cf, "closed_form", stubborn)
    with pytest.raises(NonConvergenceError):
        cf.limit_eval(params(0.5, 0.5, 2.0, 10.0))


# ------------------------------------------------------- root-pair scope


def count_kernel_calls(monkeypatch):
    calls = []
    kernel = cf.upper_gamma

    def counting(s, w):
        calls.append((s, w))
        return kernel(s, w)

    monkeypatch.setattr(cf, "upper_gamma", counting)
    return calls


def count_pairs(monkeypatch):
    computed = []
    root_pair = cf._root_pair

    def counting(z, k, x):
        computed.append(x)
        return root_pair(z, k, x)

    monkeypatch.setattr(cf, "_root_pair", counting)
    return computed


def same_bits(x, y):
    return all(u == v and math.copysign(1.0, u) == math.copysign(1.0, v)
               or math.isnan(u) and math.isnan(v)
               for u, v in ((x.real, y.real), (x.imag, y.imag)))


@pytest.mark.parametrize("point", [
    (0.5, 0.5, 2.0, 10.0),
    (1.0, 0.25, 2.0, 12.0),
    (-1.0, 0.25, 3.0, 12.0),
    (1.0, 1.0, -0.5, 10.0),
])
def test_limit_levels_share_their_root_pairs(monkeypatch, point):
    # Six levels, one variable fixed (or, with both at 1, beta at one
    # level equal to alpha at the level before): seven pairs, not twelve.
    computed = count_pairs(monkeypatch)
    shared = limit_eval(params(*point))
    assert len(computed) == len(set(computed)) == 7
    computed.clear()
    monkeypatch.setattr(cf, "_shared_root_pairs", contextlib.nullcontext)
    alone = limit_eval(params(*point))
    assert len(computed) == 12 and len(set(computed)) == 7
    assert same_bits(shared, alone)


def test_closed_form_outside_a_scope_computes_both_pairs(monkeypatch):
    computed = count_pairs(monkeypatch)
    p = params(0.3, -0.55, 2.5, 20.0)
    closed_form(p)
    closed_form(p)
    assert computed == [0.3, -0.55] * 2


def test_a_scope_keeps_points_of_other_a_and_k_apart(monkeypatch):
    # Same alpha and beta at three (a, k): nothing is shared, and every
    # value has the bits it has outside the scope.
    points = [params(0.3, -0.55, 2.5, 20.0), params(0.3, -0.55, 2.5, 21.0),
              params(0.3, -0.55, 3.5, 20.0)]
    alone = [closed_form(p) for p in points]
    computed = count_pairs(monkeypatch)
    with cf._shared_root_pairs():
        shared = [closed_form(p) for p in points]
    assert computed == [0.3, -0.55] * 3
    assert all(same_bits(x, y) for x, y in zip(shared, alone))


def outcome(p):
    """(value, error text, flags) of closed_form at p."""
    with collect() as seen:
        try:
            value, error = closed_form(p), None
        except Exception as exc:
            value, error = None, f"{type(exc).__name__}: {exc}"
    return value, error, sorted(seen)


@pytest.mark.parametrize("points, pairs, raises", [
    # At a*pi = 1.5e308, alpha = 2 the product z X overflows: the pair
    # saturates e^(z X), flags it, and then raises KernelDomainError
    # before the beta pair is needed.
    ([params(2.0, beta, 2.5, 1.5e308) for beta in (0.3, -0.2, 0.3)], 1, True),
    # At a*pi = 300, k = -2 the beta = -1.5 pair saturates and flags.
    ([params(alpha, -1.5, -2.0, 300.0) for alpha in (0.3, -0.6, 0.3)], 3, False),
])
def test_a_shared_pair_replays_its_flags_and_its_error(monkeypatch, points, pairs, raises):
    alone = [outcome(p) for p in points]
    assert all(flags == ["overflow-saturation"] for _, _, flags in alone)
    assert all((error is not None) == raises for _, error, _ in alone)
    computed = count_pairs(monkeypatch)
    with cf._shared_root_pairs():
        shared = [outcome(p) for p in points]
    assert len(computed) == pairs
    for (value, error, flags), (value0, error0, flags0) in zip(shared, alone):
        assert (error, flags) == (error0, flags0)
        assert value is value0 is None or same_bits(value, value0)


def test_a_shared_pair_replays_a_continued_fraction_that_failed(monkeypatch):
    # At a*pi = 1.5e308, alpha = -0.6 the first continued fraction of the
    # alpha pair does not converge: one failing kernel call for the block,
    # and every point raises what it raises alone.
    points = [params(-0.6, beta, 2.5, 1.5e308) for beta in (0.3, -0.2, 0.1, 0.3)]
    alone = [outcome(p) for p in points]
    assert all(error.startswith("NonConvergenceError: ") and not flags
               for _, error, flags in alone)
    calls = count_kernel_calls(monkeypatch)
    with cf._shared_root_pairs():
        shared = [outcome(p) for p in points]
    assert len(calls) == 1
    assert shared == alone


def test_a_scope_ends_with_its_block_and_restores_the_outer_one(monkeypatch):
    computed = count_pairs(monkeypatch)
    p = params(0.3, -0.55, 2.5, 20.0)
    with cf._shared_root_pairs():
        closed_form(p)
        assert len(computed) == 2
        with cf._shared_root_pairs():
            closed_form(p)              # an inner scope starts empty
            assert len(computed) == 4
        closed_form(p)                  # the outer scope's pairs are back
        assert len(computed) == 4
    closed_form(p)
    assert len(computed) == 6
    with pytest.raises(SingularParameterError):
        with cf._shared_root_pairs():
            closed_form(params(0.3, 0.3, 2.5, 20.0))
    closed_form(p)
    assert computed == [0.3, -0.55] * 4


@pytest.mark.parametrize("fields, message", [
    (("gamma-side", "+", 1), "bad variable 'gamma-side'"),
    (("alpha-side", "*", 1), "bad root_sign '*'"),
    (("alpha-side", "+", 2), "bad order_shift 2"),
])
def test_contour_term_spec_refuses_a_bad_field(fields, message):
    with pytest.raises(ConfigError) as err:
        ContourTermSpec(*fields)
    assert str(err.value) == message


def test_closed_form_refuses_a_zero_a():
    with pytest.raises(SingularParameterError, match=r"^a\*pi must be nonzero$"):
        closed_form(params(0.3, -0.55, 2.5, 0.0))
