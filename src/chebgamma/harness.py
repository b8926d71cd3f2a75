"""Named verification cases with reproducible randomized draws.

Each registered case compares two independently computed routes to the
same number: a series or limit evaluation on one side and a closed-form
or reference expression on the other.  ``run_case`` evaluates the case
at its canonical parameters plus up to ten randomized draws and returns
the worst row, so a passing report means every probed point passed.

Determinism: draws come from a per-case RNG seeded by (seed, case_id)
through SHA-256, so reports are byte-identical for a fixed seed no
matter which subset of cases runs or in what order.  Serialized reports
deliberately omit wall-clock timing for the same reason; the timing
lives only on the in-memory CaseReport.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ._flags import collect
from .closedform import (
    TWELVE_TERMS,
    LimitSpec,
    closed_form,
    closed_form_cos,
    contour_term,
    diff_closed_form,
    erfc_product_value,
    golden_ratio_value,
    limit_eval,
    prop1_value,
)
from .complexfn import cexp, cpow, upper_gamma
from .errors import ConfigError
from .series import SeriesParams, TruncationPolicy, difference_series, series_sum

__all__ = [
    "DEFAULT_SEED",
    "CaseReport",
    "VerificationCase",
    "case_ids",
    "compare",
    "registered_cases",
    "render_report_json",
    "render_report_text",
    "run_all",
    "run_case",
]

DEFAULT_SEED = 20240901


def compare(lhs: complex, rhs: complex, tol: float):
    """(abs_err, rel_err, passed) with an absolute fallback near zero."""
    if not tol > 0.0:
        raise ConfigError(f"tolerance must be positive, got {tol!r}")
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(lhs), abs(rhs), 1e-300)
    if abs(rhs) < 1e-8:
        passed = abs_err <= tol or rel_err <= tol
    else:
        passed = rel_err <= tol
    return abs_err, rel_err, passed


@dataclass(frozen=True)
class CaseReport:
    case_id: str
    lhs_value: complex
    rhs_value: complex
    abs_err: float
    rel_err: float
    tolerance: float
    status: str                 # "pass" | "fail" | "skipped-with-warning"
    wall_time_ms: float
    warnings: frozenset


# A row is one (lhs, rhs) evaluation at concrete parameters; the runner
# yields the canonical row first, then the randomized draws.
_Row = tuple  # (lhs: complex, rhs: complex, warnings: frozenset)


@dataclass(frozen=True)
class VerificationCase:
    case_id: str
    description: str
    kind: str                   # "primary" | "derived-anchor"
    tolerance: float
    runner: Callable[[random.Random], Iterable[_Row]]


def _case_rng(seed: int, case_id: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{case_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw_pair(rng: random.Random, bound: float = 0.9, gap: float = 0.1):
    while True:
        alpha = rng.uniform(-bound, bound)
        beta = rng.uniform(-bound, bound)
        if abs(alpha - beta) >= gap:
            return alpha, beta


def _eval_row(lhs_fn, rhs_fn) -> _Row:
    with collect() as seen:
        lhs = lhs_fn()
        rhs = rhs_fn()
    return lhs, rhs, frozenset(seen)


def _theorem1_int_k(rng: random.Random):
    points = [(2.0, 10.0, 0.3, -0.4)]
    for _ in range(10):
        k = rng.choice((1.0, 2.0, 3.0, 5.0))
        z = rng.choice((2.0, 10.0))
        alpha, beta = _draw_pair(rng)
        points.append((k, z, alpha, beta))
    for k, z, alpha, beta in points:
        p = SeriesParams(a=z / math.pi, k=k, alpha=alpha, beta=beta)
        yield _eval_row(lambda p=p: series_sum(p).value, lambda p=p: closed_form(p))


def _twelve_terms(rng: random.Random):
    points = [(0.7, 5.0, 0.3, -0.55)]
    for _ in range(10):
        k = rng.choice((0.7, 1.3, 2.5, -0.5))
        z = rng.choice((5.0, 20.0))
        alpha, beta = _draw_pair(rng)
        points.append((k, z, alpha, beta))
    for k, z, alpha, beta in points:
        p = SeriesParams(a=z / math.pi, k=k, alpha=alpha, beta=beta)
        yield _eval_row(
            lambda p=p: sum(contour_term(s, p) for s in TWELVE_TERMS),
            lambda p=p: closed_form(p))


def _plain_double_sum(p: SeriesParams) -> complex:
    # Independent route: trigonometric Chebyshev values and an inline
    # falling-factorial reciprocal, summed term by term over (n, p).
    k = complex(p.k)
    z = p.a_pi()
    q_max = int(round(k.real)) + 1
    total = 0.0 + 0.0j
    for n in range(q_max + 1):
        tn = cmath.cos(n * cmath.acos(complex(p.alpha)))
        for m in range(q_max + 1 - n):
            tm = cmath.cos(m * cmath.acos(complex(p.beta)))
            q = n + m
            if q == 0:
                recip = 1.0 / k
            else:
                recip = 1.0 + 0.0j
                for j in range(1, q):
                    recip *= k - j
            total += tn * tm * z ** (-q) * recip
    return total


def _series_direct_sum(rng: random.Random):
    points = [(3.0, 10.0, 0.5, -0.3)]
    for _ in range(10):
        k = rng.choice((1.0, 2.0, 3.0, 5.0))
        z = rng.uniform(5.0, 30.0)
        alpha, beta = _draw_pair(rng)
        points.append((k, z, alpha, beta))
    for k, z, alpha, beta in points:
        p = SeriesParams(a=z / math.pi, k=k, alpha=alpha, beta=beta)
        yield _eval_row(lambda p=p: series_sum(p).value,
                        lambda p=p: _plain_double_sum(p))


def _series_vs_closed(rng: random.Random):
    policy = TruncationPolicy(mode="optimal")
    points = [(2.5, 30.0, 0.3, -0.55)]
    for _ in range(10):
        k = rng.choice((0.7, 1.3, 2.5, -0.5))
        z = rng.uniform(25.0, 40.0)
        alpha, beta = _draw_pair(rng)
        points.append((k, z, alpha, beta))
    for k, z, alpha, beta in points:
        p = SeriesParams(a=z / math.pi, k=k, alpha=alpha, beta=beta)
        yield _eval_row(lambda p=p: series_sum(p, policy).value,
                        lambda p=p: closed_form(p))


def _kernel_recurrence(rng: random.Random):
    points = [(2.5, 3.0 + 1.0j)]
    for _ in range(10):
        s = rng.uniform(0.5, 6.0)
        r = math.exp(rng.uniform(math.log(0.5), math.log(30.0)))
        phi = rng.uniform(-0.5 * math.pi + 0.1, 0.5 * math.pi - 0.1)
        points.append((s, r * cmath.exp(1j * phi)))
    for s, z in points:
        yield _eval_row(
            lambda s=s, z=z: upper_gamma(s + 1, z),
            lambda s=s, z=z: s * upper_gamma(s, z) + cpow(z, s) * cexp(-z))


def _prop1_limit(rng: random.Random):
    points = [(-0.5, 10.0)]
    for _ in range(10):
        k = rng.choice((1.0, 2.0, -0.5, rng.uniform(0.5, 3.0)))
        z = rng.uniform(8.0, 40.0)
        points.append((k, z))
    for k, z in points:
        p = SeriesParams(a=z / math.pi, k=k, alpha=1.0, beta=1.0)
        yield _eval_row(
            lambda p=p: limit_eval(p, LimitSpec(kind="both-to-one")),
            lambda k=k, z=z: prop1_value(z / math.pi, k))


def _prop1_k1(rng: random.Random):
    points = [10.0] + [rng.uniform(2.0, 60.0) for _ in range(10)]
    for z in points:
        yield _eval_row(lambda z=z: prop1_value(z / math.pi, 1.0),
                        lambda z=z: 1.0 + 2.0 / z)


def _prop2_cos(rng: random.Random):
    points = [(1.3, 10.0, 0.5 * math.pi, math.pi / 3.0)]
    while len(points) < 11:
        k = rng.choice((0.7, 1.3, 2.5, -0.5))
        z = rng.uniform(5.0, 25.0)
        ta = rng.uniform(0.35, 2.75)
        tb = rng.uniform(0.35, 2.75)
        if abs(math.cos(ta) - math.cos(tb)) >= 0.1:
            points.append((k, z, ta, tb))
    for k, z, ta, tb in points:
        a = z / math.pi
        p = SeriesParams(a=a, k=k, alpha=math.cos(ta), beta=math.cos(tb))
        yield _eval_row(lambda a=a, k=k, ta=ta, tb=tb: closed_form_cos(a, k, ta, tb),
                        lambda p=p: closed_form(p))


def _example1_erfc(rng: random.Random):
    # fixed-constant identity: no free parameters to draw
    a = math.exp(4.0) / math.pi
    yield _eval_row(lambda: closed_form_cos(a, -0.5, 0.5 * math.pi, 0.25 * math.pi),
                    erfc_product_value)


def _example2_golden(rng: random.Random):
    r5 = math.sqrt(5.0)
    points = [(2.0, 20.0), (3.0, 20.0)]
    for _ in range(9):
        points.append((rng.choice((2.0, 3.0)), rng.uniform(15.0, 25.0)))
    for k, z in points:
        p = SeriesParams(a=z / math.pi, k=k, alpha=r5, beta=0.5 * r5)
        yield _eval_row(lambda k=k, z=z: golden_ratio_value(z / math.pi, k),
                        lambda p=p: closed_form(p))


def _diff_case(c: int):
    def runner(rng: random.Random):
        points = [30.0] + [rng.uniform(20.0, 40.0) for _ in range(10)]
        for z in points:
            p = SeriesParams(a=z / math.pi, k=2.0, alpha=float(c), beta=float(c))
            yield _eval_row(lambda p=p: difference_series(p).value,
                            lambda c=c, z=z: diff_closed_form(c, z / math.pi, 2.0))
    return runner


_REGISTRY = (
    VerificationCase(
        "theorem1-int-k",
        "integer-k draws: exactly terminating series equals the closed form",
        "primary", 1e-9, _theorem1_int_k),
    VerificationCase(
        "twelve-terms",
        "sum of the twelve decomposition addends equals the closed form",
        "primary", 1e-11, _twelve_terms),
    VerificationCase(
        "series-direct-sum",
        "shell-ordered series engine equals a plain term-by-term double sum",
        "primary", 1e-12, _series_direct_sum),
    VerificationCase(
        "series-vs-closed",
        "optimally truncated series matches the closed form at non-integer k",
        "primary", 1e-9, _series_vs_closed),
    VerificationCase(
        "kernel-recurrence",
        "incomplete gamma order-raising recurrence holds for the kernel",
        "primary", 1e-11, _kernel_recurrence),
    VerificationCase(
        "prop1-limit",
        "extrapolated both-arguments-to-one limit matches the all-ones formula",
        "primary", 1e-6, _prop1_limit),
    VerificationCase(
        "prop1-k1",
        "all-ones formula at k=1 reduces to 1 + 2/(a pi)",
        "derived-anchor", 1e-12, _prop1_k1),
    VerificationCase(
        "prop2-cos",
        "angle-coordinate closed form matches the cartesian closed form",
        "primary", 1e-10, _prop2_cos),
    VerificationCase(
        "example1-erfc",
        "error-function reference constant matches the angle closed form",
        "primary", 1e-10, _example1_erfc),
    VerificationCase(
        "example2-golden",
        "golden-ratio reference formula matches the closed form",
        "primary", 1e-9, _example2_golden),
    VerificationCase(
        "diff-c1",
        "odd-shell difference identity at alpha = beta = 1",
        "primary", 1e-6, _diff_case(1)),
    VerificationCase(
        "diff-c2",
        "odd-shell difference identity at alpha = beta = 2",
        "primary", 1e-6, _diff_case(2)),
    VerificationCase(
        "diff-c3",
        "odd-shell difference identity at alpha = beta = 3 (branch-sensitive)",
        "primary", 1e-6, _diff_case(3)),
    VerificationCase(
        "diff-c4",
        "odd-shell difference identity at alpha = beta = 4",
        "primary", 1e-6, _diff_case(4)),
    VerificationCase(
        "diff-c5",
        "odd-shell difference identity at alpha = beta = 5 (branch-sensitive)",
        "primary", 1e-6, _diff_case(5)),
)

_BY_ID = {case.case_id: case for case in _REGISTRY}


def registered_cases():
    return _REGISTRY


def case_ids():
    return tuple(case.case_id for case in _REGISTRY)


def run_case(case_id: str, seed: int = DEFAULT_SEED) -> CaseReport:
    """Evaluate one case at canonical + randomized points; report the worst."""
    case = _BY_ID.get(case_id)
    if case is None:
        known = ", ".join(case_ids())
        raise ConfigError(f"unknown case id {case_id!r}; known: {known}")
    rng = _case_rng(seed, case_id)
    start = time.perf_counter()
    worst = None
    for lhs, rhs, warn in case.runner(rng):
        abs_err, rel_err, passed = compare(lhs, rhs, case.tolerance)
        row = (rel_err, lhs, rhs, abs_err, passed, warn)
        if worst is None or rel_err > worst[0]:
            worst = row
    elapsed_ms = (time.perf_counter() - start) * 1e3
    rel_err, lhs, rhs, abs_err, passed, warn = worst
    return CaseReport(
        case_id=case.case_id,
        lhs_value=lhs,
        rhs_value=rhs,
        abs_err=abs_err,
        rel_err=rel_err,
        tolerance=case.tolerance,
        status="pass" if passed else "fail",
        wall_time_ms=elapsed_ms,
        warnings=warn,
    )


def run_all(seed: int = DEFAULT_SEED, only: Optional[str] = None):
    ids = (only,) if only is not None else case_ids()
    return [run_case(case_id, seed=seed) for case_id in ids]


def render_report_text(reports, seed: int) -> str:
    """Fixed-width report table; timing is omitted so output is byte-stable."""
    lines = [f"seed = {seed}"]
    width = max(len(r.case_id) for r in reports)
    for r in reports:
        warn = ",".join(sorted(r.warnings)) if r.warnings else "-"
        lines.append(
            f"{r.case_id:<{width}}  {r.status:<4}  rel_err={r.rel_err:.3e}  "
            f"tol={r.tolerance:.1e}  warnings={warn}")
    passed = sum(1 for r in reports if r.status == "pass")
    failed = sum(1 for r in reports if r.status == "fail")
    lines.append(f"{len(reports)} cases: {passed} pass, {failed} fail")
    return "\n".join(lines) + "\n"


def render_report_json(reports, seed: int) -> str:
    payload = {
        "seed": seed,
        "cases": [
            {
                "case_id": r.case_id,
                "lhs_value": [r.lhs_value.real, r.lhs_value.imag],
                "rhs_value": [r.rhs_value.real, r.rhs_value.imag],
                "abs_err": r.abs_err,
                "rel_err": r.rel_err,
                "tolerance": r.tolerance,
                "status": r.status,
                "warnings": sorted(r.warnings),
            }
            for r in reports
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
