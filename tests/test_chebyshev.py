"""Chebyshev evaluation and the shell convolution coefficients."""

import cmath
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebgamma import KernelDomainError, cheb_t, growth_radius, shell_coeff, shell_values
from chebgamma.chebyshev import _drive_key
from oracles import cheb_poly_direct, shell_values_exact


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_degree_zero_is_one_everywhere():
    for x in (0.0, 3.0, -17.2, 2.0 + 5.0j):
        assert cheb_t(0, x) == 1.0


def test_value_one_at_argument_one():
    for n in (1, 2, 7, 33, 100):
        assert rel(cheb_t(n, 1.0), 1.0) < 1e-12


def test_small_anchor_values():
    assert cheb_t(1, 0.37) == 0.37
    assert rel(cheb_t(2, 3.0), 17.0) < 1e-15


def test_index_validation():
    with pytest.raises(KernelDomainError):
        cheb_t(-1, 0.5)
    with pytest.raises(KernelDomainError):
        cheb_t(2.5, 0.5)


@given(
    n=st.integers(min_value=0, max_value=64),
    xr=st.floats(min_value=-3.0, max_value=3.0),
    xi=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_parity(n, xr, xi):
    x = complex(xr, xi)
    a = cheb_t(n, -x)
    b = (-1.0) ** n * cheb_t(n, x)
    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def test_trig_form_50_samples():
    rng = random.Random(21)
    for _ in range(50):
        theta = rng.uniform(1e-3, math.pi - 1e-3)
        n = rng.randrange(0, 101)
        assert abs(cheb_t(n, math.cos(theta)) - math.cos(n * theta)) <= 1e-10


@given(
    n=st.integers(min_value=0, max_value=40),
    xr=st.floats(min_value=-2.5, max_value=2.5),
    xi=st.floats(min_value=-2.5, max_value=2.5),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_recurrence_matches_acos_closed_form(n, xr, xi):
    # The recurrence must track the analytic value at complex and
    # beyond-unit-interval arguments, where naive use would be unstable
    # for the *decaying* solution but is stable for T_n (the growing one).
    x = complex(xr, xi)
    ref = cheb_poly_direct(n, x)
    scale = max(abs(ref), 1.0)
    assert abs(cheb_t(n, x) - ref) <= 1e-10 * scale


def test_beyond_unit_interval_example_magnitude():
    # sqrt(5) is the worked golden-ratio argument; check a high degree.
    x = math.sqrt(5.0)
    assert rel(cheb_t(30, x), cheb_poly_direct(30, x)) < 1e-12


# ----------------------------------------------------------------- shells

def test_shell_anchor_values():
    assert shell_coeff(0, 0.3, -0.8) == 1.0
    a, b = 0.42, -0.77
    assert abs(shell_coeff(1, a, b) - (a + b)) < 1e-15
    assert shell_coeff(2, 0.0, 0.0) == -2.0


def test_shell_swap_is_bit_identical():
    rng = random.Random(22)
    for _ in range(50):
        q = rng.randrange(0, 25)
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        beta = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        assert shell_coeff(q, alpha, beta) == shell_coeff(q, beta, alpha)


def test_shell_values_matches_single_calls():
    alpha, beta = 0.6 + 0.1j, -0.4
    vals = shell_values(12, alpha, beta)
    assert len(vals) == 13
    for q, v in enumerate(vals):
        assert v == shell_coeff(q, alpha, beta)


def test_shell_coeff_is_a_complex():
    # shells 0 and 1 start from float 1.0 and 0.0 + (alpha + beta), and real
    # floats run the whole stream in float arithmetic
    for q in (0, 1, 2, 9):
        for alpha, beta in ((0.3, -0.5), (0.6 + 0.1j, -0.4), (2, 3)):
            assert type(shell_coeff(q, alpha, beta)) is complex


def test_shell_enumeration_oracle():
    rng = random.Random(23)
    for _ in range(30):
        q = rng.randrange(0, 16)
        alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
        beta = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
        direct = sum(cheb_poly_direct(n, alpha) * cheb_poly_direct(q - n, beta)
                     for n in range(q + 1))
        got = shell_coeff(q, alpha, beta)
        assert abs(got - direct) <= 1e-10 * max(abs(direct), 1.0)


def test_generating_function_composition():
    # sum_q C_q t^q truncated at Q equals the product of the two truncated
    # single series up to degree Q, because the convolution is exact.
    rng = random.Random(24)
    t = 0.1
    big_q = 30
    for _ in range(5):
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
        beta = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
        lhs = sum(c * t ** q for q, c in enumerate(shell_values(big_q, alpha, beta)))
        prod_trunc = 0.0 + 0.0j
        for n in range(big_q + 1):
            for p in range(big_q + 1 - n):
                prod_trunc += cheb_t(n, alpha) * cheb_t(p, beta) * t ** (n + p)
        assert rel(lhs, prod_trunc) <= 1e-12


def _coincident_pair(rng):
    alpha = rng.uniform(-0.95, 0.95)
    return alpha, alpha + rng.choice([-1, 1]) * 10 ** rng.uniform(-6, -2)


def _near_one_pair(rng):
    sign = rng.choice([-1, 1])
    return tuple(sign * rng.uniform(0.97, 0.999) for _ in range(2))


def _outside_pair(rng):
    sign = rng.choice([-1, 1])
    return tuple(sign * rng.uniform(1.0, 2.2) for _ in range(2))


@pytest.mark.parametrize("draw", [_coincident_pair, _near_one_pair, _outside_pair])
def test_deep_shells_match_exact_oracle(draw):
    # Every C_q through q = 200 within 64 eps of sum_n |T_n T_{q-n}|: the
    # two-term recurrence measures up to ~25 eps here, the four-term
    # recurrence on C alone ~1e4 eps (near-coincident roots, arguments
    # near +-1 and outside [-1, 1] alike).
    rng = random.Random(26)
    q_max = 200
    for _ in range(2):
        alpha, beta = draw(rng)
        exact, scales = shell_values_exact(q_max, alpha, beta)
        got = shell_values(q_max, alpha, beta)
        for q in range(q_max + 1):
            assert got[q].imag == 0.0
            err = abs(Fraction(got[q].real) - exact[q])
            assert err <= 64 * sys.float_info.epsilon * scales[q], (alpha, beta, q)


def _inside(rng):
    return rng.uniform(-1.0, 1.0)


def _outside(rng):
    return rng.choice([-1, 1]) * rng.uniform(1.0, 2.2)


def _pair_beside(rng, x):
    return x, x + rng.choice([-1, 1]) * 10 ** rng.uniform(-6, -3)


@pytest.mark.parametrize("draw", [
    lambda rng: (_inside(rng), _inside(rng)),
    lambda rng: (_outside(rng), _outside(rng)),
    lambda rng: (_inside(rng), _outside(rng)),
    lambda rng: (_outside(rng), _inside(rng)),
    lambda rng: _pair_beside(rng, rng.uniform(-0.99, 0.99)),
    lambda rng: _pair_beside(rng, _outside(rng)),
], ids=["inside", "outside", "inside-outside", "outside-inside",
        "coincident-inside", "coincident-outside"])
def test_stream_past_the_direct_start_matches_exact_oracle(draw):
    # Shells 2..200 come from the two-term recurrence; whichever argument
    # drives it, each C_q stays within 64 eps of sum_n |T_n T_{q-n}|.
    alpha, beta = draw(random.Random(27))
    exact, scales = shell_values_exact(200, alpha, beta)
    got = shell_values(200, alpha, beta)
    for q in range(2, 201):
        err = abs(Fraction(got[q].real) - exact[q])
        assert err <= 64 * sys.float_info.epsilon * scales[q], (alpha, beta, q)


def test_shell_swap_is_bit_identical_through_shell_200():
    # Swapping alpha and beta picks the same recurrence driver, so every
    # shell keeps its bits, signed zeros included.
    rng = random.Random(28)
    pairs = [(complex(rng.uniform(-2, 2), rng.uniform(-1, 1)),
              complex(rng.uniform(-2, 2), rng.uniform(-1, 1))) for _ in range(30)]
    x = rng.uniform(-0.9, 0.9)
    # the last three pairs differ only in the signs of zero
    pairs += [(x, x), (x, x + 1e-9), (0.5, -0.5), (0j, complex(-0.0, -0.0)),
              (complex(0.3, 0.0), complex(0.3, -0.0)),
              (complex(0.0, -0.26), complex(-0.0, -0.26))]
    for alpha, beta in pairs:
        ab = shell_values(200, alpha, beta)
        ba = shell_values(200, beta, alpha)
        assert [(repr(v.real), repr(v.imag)) for v in ab] == \
               [(repr(v.real), repr(v.imag)) for v in ba], (alpha, beta)


# ---------------------------------------------------------- growth radius

def test_growth_radius_inside_interval_is_one():
    for x in (0.0, 0.5, -0.99, 1.0):
        assert growth_radius(x) == pytest.approx(1.0, rel=1e-12)


def test_growth_radius_outside_interval():
    # rho(x) = |x + sqrt(x^2-1)|; at x = sqrt(5) this is sqrt(5) + 2.
    assert growth_radius(math.sqrt(5.0)) == pytest.approx(math.sqrt(5.0) + 2.0, rel=1e-12)
    assert growth_radius(-3.0) == pytest.approx(3.0 + math.sqrt(8.0), rel=1e-12)


def test_growth_radius_bounds_polynomial_growth():
    rng = random.Random(25)
    for _ in range(30):
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        rho = growth_radius(x)
        n = rng.randrange(5, 40)
        assert abs(cheb_t(n, x)) <= 1.000001 * rho ** n


def test_growth_radius_matches_mpmath_far_outside_the_interval():
    # For Re x < 0 the root x + sqrt(x^2 - 1) is the small one, formed by
    # cancellation; the large root must not be read off its inverse.  The
    # oracle takes the larger modulus of both roots at 30 digits.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(41)
    points = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 150.0) for _ in range(300)]
    points += [complex(-1.0 - 10.0 ** rng.uniform(-3.0, 150.0),
                       rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 150.0))
               for _ in range(300)]
    points += [-1e3, -1e5, -1e7, -1e8, -1e150]
    with mpmath.workdps(30):
        for x in points:
            big = mpmath.mpc(x)
            root = mpmath.sqrt(big * big - 1)
            ref = max(abs(big + root), abs(big - root))
            assert abs(growth_radius(x) - ref) <= 4 * sys.float_info.epsilon * ref, x


def test_growth_radius_matches_mpmath_past_the_overflow_of_x_squared():
    # x^2 overflows from |x| of about 1.34e154, while the radius, about
    # 2|x|, stays finite up to |x| of about 9e307.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(43)
    points = [1.4e154, 1e160, -1e160, 1e200j, -8e307]
    points += [complex(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(154.2, 307.9),
                       rng.choice((0.0, 1.0, -1.0)) * 10.0 ** rng.uniform(-300.0, 307.9))
               for _ in range(200)]
    with mpmath.workdps(30):
        for x in points:
            big = mpmath.mpc(x)
            root = mpmath.sqrt(big * big - 1)
            ref = max(abs(big + root), abs(big - root))
            if ref > sys.float_info.max:
                continue
            assert abs(growth_radius(x) - ref) <= 4 * sys.float_info.epsilon * ref, x


def _near_unit(rng):
    side, d = rng.choice((-1.0, 1.0)), 10.0 ** rng.uniform(-16.0, -4.0)
    return rng.choice((side * (1.0 + d), side * (1.0 - d), side + 1j * d,
                       side + d * cmath.exp(1j * rng.uniform(-math.pi, math.pi))))


def _at_angle(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def test_drive_key_ranks_arguments_by_growth_radius():
    # The first entry of the key, |x - 1| + |x + 1|, is rho + 1/rho.  Near
    # rho = 1 it rises only by about 2 (rho - 1) per unit of rho, so radii
    # a relative 8 eps apart can round to the same sum and the tie-break
    # decides; either driver then grows alike, and such pairs are left
    # out.  So is |x| past about 9e307, where the sum overflows to inf:
    # the draws stop at 1e307, past the overflow of x^2 at 1.34e154.
    eps = sys.float_info.epsilon
    draws = [lambda rng: complex(rng.uniform(-1.0, 1.0)),
             lambda rng: complex(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 6.0)),
             lambda rng: _at_angle(rng, -3.0, 6.0),
             _near_unit,
             lambda rng: _at_angle(rng, 150.0, 307.0)]
    rng = random.Random(44)
    checked = 0
    for _ in range(20000):
        ranked = []
        for x in (rng.choice(draws)(rng), rng.choice(draws)(rng)):
            rho = growth_radius(x)
            key = _drive_key(x)
            assert abs(key[0] - (rho + 1.0 / rho)) <= 4 * eps * key[0], x
            ranked.append((rho, rho + 1.0 / rho, key, x))
        for (rx, sx, kx, x), (ry, sy, ky, y) in (ranked, ranked[::-1]):
            if rx > ry * (1 + 8 * eps) and sx > sy * (1 + 8 * eps):
                checked += 1
                assert kx > ky, (x, y)
    assert checked > 15000
