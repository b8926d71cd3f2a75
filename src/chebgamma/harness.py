"""Named verification cases with reproducible randomized draws.

Each registered case compares two independently computed routes to the
same number: a series or limit evaluation on one side and a closed-form
or reference expression on the other.  A case is one row of data: its
canonical points, a draw for randomized points, and the two routes.
``run_case`` evaluates 11 points per case (the canonical ones, then
draws; a case with no free parameters runs its canonical point alone).
A case fails if any point fails; the report shows the worst failing
point, or the worst point when all pass, and the JSON report names it
by its parameters.

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
from collections import namedtuple

from ._flags import collect
from .closedform import (
    _DIFF_BRANCH_SENSITIVE,
    TWELVE_TERMS,
    closed_form,
    closed_form_cos,
    contour_term,
    diff_closed_form,
    erfc_product_value,
    golden_ratio_value,
    limit_eval,
    prop1_value,
)
from .complexfn import _difference, cexp, cpow, upper_gamma
from .errors import ConfigError
from .series import SeriesParams, difference_series, series_sum

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
    abs_err, rel_err = _difference(lhs, rhs)
    # rel_err > tol >= abs_err > 0 puts both moduli below 1, so abs(rhs) is
    # read only where it has a double
    return abs_err, rel_err, rel_err <= tol or (abs_err <= tol and abs(rhs) < 1e-8)


CaseReport = namedtuple("CaseReport", (
    "case_id",
    "lhs_value",
    "rhs_value",
    "abs_err",
    "rel_err",
    "tolerance",
    "status",                   # "pass" | "fail"
    "wall_time_ms",
    "warnings",
    "point",                    # the parameters of the reported point
))


class VerificationCase(namedtuple("VerificationCase", (
        "case_id",
        "description",
        "kind",                 # "primary" | "derived-anchor"
        "tolerance",
        "points",
        "draw",
        "lhs",
        "rhs",
))):
    """One case as data: where to evaluate it and the two routes to compare.

    ``run_case`` takes ``points`` (canonical parameter tuples), then calls
    ``draw(rng)`` for one randomized point at a time until the case has
    eleven points; a case whose ``draw`` is None runs its canonical points
    only.  ``lhs(*point)`` and ``rhs(*point)`` are the two routes.
    """

    __slots__ = ()


_POINTS_PER_CASE = 11
_INT_K = (1.0, 2.0, 3.0, 5.0)
_REAL_K = (0.7, 1.3, 2.5, -0.5)
_R5 = math.sqrt(5.0)


def _case_rng(seed: int, case_id: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{case_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw_pair(rng: random.Random):
    while True:
        alpha = rng.uniform(-0.9, 0.9)
        beta = rng.uniform(-0.9, 0.9)
        if abs(alpha - beta) >= 0.1:
            return alpha, beta


def _params(k, z, alpha, beta) -> SeriesParams:
    # Points carry the series variable z = a*pi; the routes take a.
    return SeriesParams(a=z / math.pi, k=k, alpha=alpha, beta=beta)


def _series(k, z, alpha, beta) -> complex:
    return series_sum(_params(k, z, alpha, beta)).value


def _closed(k, z, alpha, beta) -> complex:
    return closed_form(_params(k, z, alpha, beta))


def _twelve_terms(k, z, alpha, beta) -> complex:
    p = _params(k, z, alpha, beta)
    return sum(contour_term(spec, p) for spec in TWELVE_TERMS)


def _cos_form(k, z, theta_a, theta_b) -> complex:
    return closed_form_cos(z / math.pi, k, theta_a, theta_b)


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


def _draw_kernel_point(rng: random.Random):
    s = rng.uniform(0.5, 6.0)
    r = math.exp(rng.uniform(math.log(0.5), math.log(30.0)))
    phi = rng.uniform(-0.5 * math.pi + 0.1, 0.5 * math.pi - 0.1)
    return s, r * cmath.exp(1j * phi)


def _draw_angles(rng: random.Random):
    while True:
        k = rng.choice(_REAL_K)
        z = rng.uniform(5.0, 25.0)
        ta = rng.uniform(0.35, 2.75)
        tb = rng.uniform(0.35, 2.75)
        if abs(math.cos(ta) - math.cos(tb)) >= 0.1:
            return k, z, ta, tb


def _diff_cases():
    """The five difference-identity rows, alpha = beta = c for c = 1..5."""
    for c in range(1, 6):
        note = " (branch-sensitive)" if c in _DIFF_BRANCH_SENSITIVE else ""
        yield VerificationCase(
            f"diff-c{c}",
            f"odd-shell difference identity at alpha = beta = {c}{note}",
            "primary", 1e-6,
            points=((30.0,),),
            draw=lambda rng: (rng.uniform(20.0, 40.0),),
            lhs=lambda z, c=c: difference_series(_params(2.0, z, float(c), float(c))).value,
            rhs=lambda z, c=c: diff_closed_form(c, z / math.pi, 2.0))


_REGISTRY = (
    VerificationCase(
        "theorem1-int-k",
        "integer-k draws: exactly terminating series equals the closed form",
        "primary", 1e-9,
        points=((2.0, 10.0, 0.3, -0.4),),
        draw=lambda rng: (rng.choice(_INT_K), rng.choice((2.0, 10.0)), *_draw_pair(rng)),
        lhs=_series,
        rhs=_closed),
    VerificationCase(
        "twelve-terms",
        "sum of the twelve decomposition addends equals the closed form",
        "primary", 1e-11,
        points=((0.7, 5.0, 0.3, -0.55),),
        draw=lambda rng: (rng.choice(_REAL_K), rng.choice((5.0, 20.0)), *_draw_pair(rng)),
        lhs=_twelve_terms,
        rhs=_closed),
    VerificationCase(
        "series-direct-sum",
        "shell-ordered series engine equals a plain term-by-term double sum",
        "primary", 1e-12,
        points=((3.0, 10.0, 0.5, -0.3),),
        draw=lambda rng: (rng.choice(_INT_K), rng.uniform(5.0, 30.0), *_draw_pair(rng)),
        lhs=_series,
        rhs=lambda *pt: _plain_double_sum(_params(*pt))),
    VerificationCase(
        "series-vs-closed",
        "optimally truncated series matches the closed form at non-integer k",
        "primary", 1e-9,
        points=((2.5, 30.0, 0.3, -0.55),),
        draw=lambda rng: (rng.choice(_REAL_K), rng.uniform(25.0, 40.0), *_draw_pair(rng)),
        lhs=_series,
        rhs=_closed),
    VerificationCase(
        "kernel-recurrence",
        "incomplete gamma order-raising recurrence holds for the kernel",
        "primary", 1e-11,
        points=((2.5, 3.0 + 1.0j),),
        draw=_draw_kernel_point,
        lhs=lambda s, z: upper_gamma(s + 1, z),
        rhs=lambda s, z: s * upper_gamma(s, z) + cpow(z, s) * cexp(-z)),
    VerificationCase(
        "prop1-limit",
        "extrapolated both-arguments-to-one limit matches the all-ones formula",
        "primary", 1e-6,
        points=((-0.5, 10.0),),
        # rng.uniform inside the choice tuple draws before rng.choice does
        draw=lambda rng: (rng.choice((1.0, 2.0, -0.5, rng.uniform(0.5, 3.0))),
                          rng.uniform(8.0, 40.0)),
        lhs=lambda k, z: limit_eval(_params(k, z, 1.0, 1.0)),
        rhs=lambda k, z: prop1_value(z / math.pi, k)),
    VerificationCase(
        "prop1-k1",
        "all-ones formula at k=1 reduces to 1 + 2/(a pi)",
        "derived-anchor", 1e-12,
        points=((10.0,),),
        draw=lambda rng: (rng.uniform(2.0, 60.0),),
        lhs=lambda z: prop1_value(z / math.pi, 1.0),
        rhs=lambda z: 1.0 + 2.0 / z),
    VerificationCase(
        "prop2-cos",
        "angle-coordinate closed form matches the cartesian closed form",
        "primary", 1e-10,
        points=((1.3, 10.0, 0.5 * math.pi, math.pi / 3.0),),
        draw=_draw_angles,
        lhs=_cos_form,
        rhs=lambda k, z, ta, tb: _closed(k, z, math.cos(ta), math.cos(tb))),
    VerificationCase(
        "example1-erfc",
        "error-function reference constant matches the angle closed form",
        "primary", 1e-10,
        # fixed-constant identity: no free parameters to draw
        points=((-0.5, math.exp(4.0), 0.5 * math.pi, 0.25 * math.pi),),
        draw=None,
        lhs=_cos_form,
        rhs=lambda *pt: erfc_product_value()),
    VerificationCase(
        "example2-golden",
        "golden-ratio reference formula matches the closed form",
        "primary", 1e-9,
        points=((2.0, 20.0), (3.0, 20.0)),
        draw=lambda rng: (rng.choice((2.0, 3.0)), rng.uniform(15.0, 25.0)),
        lhs=lambda k, z: golden_ratio_value(z / math.pi, k),
        rhs=lambda k, z: _closed(k, z, _R5, 0.5 * _R5)),
    *_diff_cases(),
)

_BY_ID = {case.case_id: case for case in _REGISTRY}


def registered_cases():
    return _REGISTRY


def case_ids():
    return tuple(case.case_id for case in _REGISTRY)


def _severity(row):
    # Failing rows outrank passing ones, and among them NaN ranks worst;
    # when every row passes, the largest rel_err is reported.
    rel_err, passed = row[3], row[4]
    nan = math.isnan(rel_err)
    return (not passed, nan, 0.0 if nan else rel_err)


def run_case(case_id: str, seed: int = DEFAULT_SEED) -> CaseReport:
    """Evaluate one case at canonical + randomized points; report the worst."""
    case = _BY_ID.get(case_id)
    if case is None:
        known = ", ".join(case_ids())
        raise ConfigError(f"unknown case id {case_id!r}; known: {known}")
    rng = _case_rng(seed, case_id)
    start = time.perf_counter()
    points = list(case.points)
    while case.draw is not None and len(points) < _POINTS_PER_CASE:
        points.append(case.draw(rng))
    rows = []
    for point in points:
        with collect() as seen:
            lhs = case.lhs(*point)
            rhs = case.rhs(*point)
        rows.append((lhs, rhs, *compare(lhs, rhs, case.tolerance), frozenset(seen), point))
    lhs, rhs, abs_err, rel_err, passed, warn, point = max(rows, key=_severity)
    elapsed_ms = (time.perf_counter() - start) * 1e3
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
        point=point,
    )


def run_all(seed: int = DEFAULT_SEED, only: str | None = None):
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
                "point": [[x.real, x.imag] if isinstance(x, complex) else x
                          for x in r.point],
            }
            for r in reports
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
