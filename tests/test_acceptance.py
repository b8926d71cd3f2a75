"""Acceptance gate: nine cross-verification criteria, one test each.

Every test prints a single pass/fail line (emitted with capture suspended
so it survives pytest's capture into piped logs) and then asserts.
Tolerances and runtime bounds are part of the acceptance statement, not
suggestions; nothing here may be loosened without a recorded decision.
"""

import cmath
import math
import random
import time

import pytest

from chebgamma import (
    SeriesParams,
    TWELVE_TERMS,
    TruncationPolicy,
    analytic_continuation_gamma,
    cheb_t,
    closed_form,
    closed_form_cos,
    contour_term,
    diff_closed_form,
    difference_series,
    erfc_product_value,
    gamma_fn,
    golden_ratio_value,
    limit_eval,
    lower_gamma,
    prop1_value,
    series_sum,
    upper_gamma,
)
from chebgamma._flags import collect
from oracles import gamma_upper_quad

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


@pytest.fixture(name="report")
def _report(capsys):
    def emit(number, ok, detail):
        line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}  {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def test_criterion_1_integer_order_exactness(report):
    start = time.perf_counter()
    rng = random.Random(1001)
    worst = 0.0
    for _ in range(50):
        k = rng.choice((1.0, 2.0, 3.0, 5.0))
        z = rng.choice((2.0, 10.0))
        alpha, beta = draw_pair(rng)
        p = params(alpha, beta, k, z)
        res = series_sum(p)
        assert res.termination == "terminated-exactly"
        worst = max(worst, rel(closed_form(p), res.value))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, ok, f"integer-order exactness: worst rel {worst:.2e} "
                  f"(tol 1e-09), 50 draws in {elapsed:.2f}s (< 1s)")


def test_criterion_2_order_one_anchor(report):
    rng = random.Random(1002)
    worst = 0.0
    for _ in range(100):
        alpha, beta = draw_pair(rng)
        z = rng.uniform(2.0, 50.0)
        got = closed_form(params(alpha, beta, 1.0, z))
        worst = max(worst, rel(got, 1.0 + (alpha + beta) / z))
    report(2, worst <= 1e-10,
           f"two-shell reduction at order one: worst rel {worst:.2e} (tol 1e-10), 100 draws")


def test_criterion_3_twelve_term_decomposition(report):
    rng = random.Random(1003)
    worst = 0.0
    for _ in range(200):
        k = rng.choice((0.7, 1.3, 2.5, -0.5))
        z = rng.choice((5.0, 20.0))
        alpha, beta = draw_pair(rng)
        p = params(alpha, beta, k, z)
        total = sum(contour_term(spec, p) for spec in TWELVE_TERMS)
        worst = max(worst, rel(total, closed_form(p)))
    report(3, worst <= 1e-11,
           f"twelve-addend sum vs assembled form: worst rel {worst:.2e} (tol 1e-11), 200 draws")


def test_criterion_4_coincident_unit_limit(report):
    worst_limit = 0.0
    for k in (1.0, 2.0, -0.5):
        for z in (10.0, E4):
            got = limit_eval(params(1.0, 1.0, k, z))
            worst_limit = max(worst_limit, rel(got, prop1_value(z / math.pi, k)))
    worst_red = 0.0
    for z in (4.0, 10.0, E4):
        worst_red = max(worst_red, rel(prop1_value(z / math.pi, 1.0), 1.0 + 2.0 / z))
        worst_red = max(worst_red, rel(prop1_value(z / math.pi, 2.0),
                                       0.5 + 2.0 / z + 3.0 / z ** 2))
    ok = worst_limit <= 1e-6 and worst_red <= 1e-12
    report(4, ok, f"extrapolated both-to-one limit: worst rel {worst_limit:.2e} (tol 1e-06); "
                  f"hand reductions worst rel {worst_red:.2e} (tol 1e-12)")


def test_criterion_5_error_function_reference(report):
    start = time.perf_counter()
    printed = erfc_product_value()
    p = params(0.0, math.cos(math.pi / 4.0), -0.5, E4)
    series = series_sum(p, TruncationPolicy(mode="optimal")).value
    via_cos = closed_form_cos(E4 / math.pi, -0.5, math.pi / 2.0, math.pi / 4.0)
    elapsed = time.perf_counter() - start
    worst = max(rel(printed, series), rel(printed, via_cos), rel(series, via_cos))
    ok = worst <= 1e-10 and elapsed < 0.1
    report(5, ok, f"error-function product reference: worst pairwise rel {worst:.2e} "
                  f"(tol 1e-10) in {elapsed:.3f}s (< 0.1s)")


def test_criterion_6_golden_ratio_reference(report):
    z = 20.0
    s5 = math.sqrt(5.0)
    worst = 0.0
    for k in (2.0, 3.0):
        named = golden_ratio_value(z / math.pi, k)
        p = params(s5, s5 / 2.0, k, z)
        worst = max(worst, rel(named, closed_form(p)))
        worst = max(worst, rel(named, series_sum(p).value))
    report(6, worst <= 1e-9,
           f"golden-ratio reference vs closed form and finite series: "
           f"worst rel {worst:.2e} (tol 1e-09)")


def test_criterion_7_coincident_difference_identities(report):
    z = 30.0
    worst = 0.0
    flagged = set()
    for c in range(1, 6):
        with collect() as seen:
            got = diff_closed_form(c, z / math.pi, 2.0)
        ref = difference_series(params(float(c), float(c), 2.0, z)).value
        worst = max(worst, rel(got, ref))
        if "branch-sensitive" in seen:
            flagged.add(c)
    ok = worst <= 1e-6 and flagged == {3, 5}
    report(7, ok, f"difference identities c=1..5: worst rel {worst:.2e} (tol 1e-06); "
                  f"branch-sensitive reported for c in {sorted(flagged)}")


def test_criterion_8_kernel_accuracy(report):
    rng = random.Random(1008)
    worst_quad = 0.0
    for _ in range(100):
        radius = 10.0 * math.sqrt(rng.random())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        s = complex(radius * math.cos(angle), radius * math.sin(angle))
        mod = math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
        phase = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05)
        z = complex(mod * math.cos(phase), mod * math.sin(phase))
        worst_quad = max(worst_quad, rel(upper_gamma(s, z), gamma_upper_quad(s, z)))

    worst_rec = 0.0
    checked = 0
    while checked < 200:
        s = rng.uniform(0.1, 8.0)
        mod = math.exp(rng.uniform(math.log(0.1), math.log(30.0)))
        phase = rng.uniform(-math.pi / 2 + 0.02, math.pi / 2 - 0.02)
        z = complex(mod * math.cos(phase), mod * math.sin(phase))
        lo, up, whole = lower_gamma(s, z), upper_gamma(s, z), gamma_fn(s)
        if 2.22e-16 * (abs(lo) + abs(up) + abs(whole)) / abs(whole) > 0.3e-11:
            continue  # cannot carry 1e-11 of information in binary64
        worst_rec = max(worst_rec, abs(lo + up - whole) / abs(whole))
        boundary = cmath.exp(s * cmath.log(z) - z)
        shape = s * up + boundary
        if 2.22e-16 * (abs(s * up) + abs(boundary)) / max(abs(shape), 1e-300) <= 0.3e-11:
            worst_rec = max(worst_rec, rel(upper_gamma(s + 1.0, z), shape))
        checked += 1

    worst_cont = 0.0
    checked = 0
    while checked < 200:
        s = rng.uniform(0.15, 6.0)
        z = complex(rng.uniform(0.2, 8.0), rng.uniform(-4.0, 4.0))
        m = rng.choice((1, -1, 2, -2, 3))
        base = upper_gamma(s, z)
        once = analytic_continuation_gamma(s, z, m)
        phase = cmath.exp(2j * math.pi * (-m) * s)
        spread = abs(once) + abs((1.0 - phase) * gamma_fn(s))
        if 2.22e-16 * spread / max(abs(base), 1e-300) > 0.3e-11:
            continue  # unwinding cancellation exceeds binary64 resolution
        undone = phase * once + (1.0 - phase) * gamma_fn(s)
        worst_cont = max(worst_cont, rel(undone, base))
        checked += 1

    ok = worst_quad <= 1e-10 and worst_rec <= 1e-11 and worst_cont <= 1e-11
    report(8, ok, f"kernel accuracy: quadrature worst rel {worst_quad:.2e} (tol 1e-10, "
                  f"100 draws); recurrences worst {worst_rec:.2e} (tol 1e-11); "
                  f"continuation worst {worst_cont:.2e} (tol 1e-11)")


def test_criterion_9_symmetry_and_realness_suite(report):
    start = time.perf_counter()
    rng = random.Random(1009)
    assertions = 0
    ok = True
    for _ in range(250):  # swap symmetry of the assembled form
        alpha, beta = draw_pair(rng)
        k = rng.choice((0.7, 1.3, 2.0, 2.5, -0.5))
        z = rng.uniform(5.0, 30.0)
        ok &= rel(closed_form(params(alpha, beta, k, z)),
                  closed_form(params(beta, alpha, k, z))) <= 1e-10
        assertions += 1
    for _ in range(250):  # conjugate realness for real parameters
        alpha, beta = draw_pair(rng)
        k = rng.choice((0.6, 1.5, 2.0, 3.3, -0.4))
        z = rng.uniform(4.0, 50.0)
        value = closed_form(params(alpha, beta, k, z))
        ok &= abs(value.imag) <= 1e-10 * abs(value)
        assertions += 1
    for _ in range(250):  # parity of the polynomial family
        n = rng.randrange(0, 65)
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        a_val = cheb_t(n, -x)
        b_val = (-1.0) ** n * cheb_t(n, x)
        ok &= abs(a_val - b_val) <= 1e-12 * max(abs(a_val), abs(b_val), 1.0)
        assertions += 1
    for _ in range(250):  # trigonometric form on the real interval
        n = rng.randrange(0, 101)
        theta = rng.uniform(1e-3, math.pi - 1e-3)
        ok &= abs(cheb_t(n, math.cos(theta)) - math.cos(n * theta)) <= 1e-10
        assertions += 1
    elapsed = time.perf_counter() - start
    ok = ok and assertions == 1000 and elapsed < 5.0
    report(9, ok, f"symmetry/realness suite: {assertions} assertions, "
                  f"zero failures, {elapsed:.2f}s (< 5s)")
