"""Direct summation of the double Chebyshev series, shell by shell.

The object evaluated here is

    sum_{n,p >= 0} T_n(alpha) T_p(beta) / ((a pi)^(n+p) (k)_{1-n-p})

regrouped over shells q = n + p, so each shell contributes
C_q * (a pi)^(-q) / (k)_{1-q} with C_q the Chebyshev convolution
coefficient.  For k at a non-negative integer the shell weights vanish
identically beyond q = k and the series is a finite sum.  For any other
k the weights eventually grow factorially, so the sum is an asymptotic
expansion in 1/(a pi): the engine then uses optimal truncation (stop at
the smallest shell of a smooth envelope bound and report that scale as
the error), which is the reading under which large-|a pi| evaluations
agree with the closed form to near machine precision.

Both loops below read C_q from the shell stream of the ``chebyshev``
module (C_0 = 1 and C_1 = alpha + beta, then one two-term recurrence
driven by the argument of larger growth radius, so that a swap of alpha
and beta keeps every bit) and step the weight and z^(-q) by one factor
each, so every shell costs O(1) work and a sum through Q shells costs
O(Q).

There are two truncation modes.  ``optimal``, the default, sums a
terminating k through shell k with no early stop, and stops any other k
at the tolerance or at the first upturn of the envelope.  ``fixed`` uses
the tolerance stop alone, for every k, so a terminating k may stop
before shell k.  Both modes stop at ``max_shell``.

Two loops do the summing.  A terminating k under ``optimal`` runs a
plain loop over shells 0..min(Q, max_shell), with Q the last shell of
non-zero weight (k itself, or k - 1 for the difference series at an even
k), that reads the term, the weight and z^(-q) and nothing else.  It
checks once after the loop that the sum stayed finite: a weight or power
of z that overflows at a summed shell leaves the sum non-finite, and
nothing past the last summed shell is formed or read.  So on an exact
sum ``overflow-saturation`` means the value or a term saturated, never
the envelope or a shell past the sum.  Only when the budget cuts that
sum short does it replay the envelope below to the next shell, for the
error estimate.  Every other sum runs the stop-rule loop, which also
steps the envelope and gives up once a shell overflows; at a terminating
k under ``fixed`` an overflowed envelope only ends the tolerance stop,
and the sum runs on to its bound.  Past the budget both sums take the
stop-rule loop's walk over zero-weight shells to the next contributing
shell, whose envelope the error reports; a walk that overflows before it
gets there ends on a zero-weight shell, and its error reads inf.

Real a, k, alpha and beta run both loops and the shell stream in float
arithmetic, through the same code as complex ones: every finite value
keeps its bits, results are returned as ``complex``, and a non-finite
real sum reads ``nan+0j`` or ``inf+0j``.

The envelope used for truncation decisions is

    B_q = (q+1) * rho_max^q * |a pi|^(-q) * |1/(k)_{1-q}|

with rho_max the larger Chebyshev growth radius of alpha and beta; it
bounds |shell q| and, unlike the raw shell moduli, never dips through
zero when C_q oscillates, so the first-increase stopping rule is robust.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from itertools import cycle, islice
from operator import mul

from ._flags import NOT_IN_ASYMPTOTIC_REGIME, OVERFLOW_SATURATION, flag
from .chebyshev import _shell_stream, growth_radius
from .complexfn import _narrow, _nearest_nonpos_int
from .errors import ConfigError, KernelDomainError, PoleError

__all__ = [
    "SeriesParams",
    "SeriesResult",
    "TruncationPolicy",
    "difference_series",
    "series_sum",
    "series_terminates",
]

_EPS = sys.float_info.epsilon
# Multiplier on the accumulated-roundoff floor folded into error_estimate.
# The series accumulation itself only loses a few epsilons; the factor is
# sized instead so the estimate stays an upper bound when the value is
# compared against the closed-form route in double precision, whose
# sixteen-addend bracket cancels ~1/|alpha-beta|^2 epsilons near
# coincident arguments (measured: 99th-percentile deviation ~5e4 eps of
# the term-modulus sum at a*pi = e^4 over uniform (-1,1) draws).
_ROUNDOFF_FACTOR = 65536.0
_MODES = ("optimal", "fixed")
# an earlier name of "optimal", still accepted
_MODE_ALIAS = "exact-if-terminating"


def _scalar(value, name: str) -> complex:
    try:
        z = complex(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a complex scalar, got {value!r}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConfigError(f"{name} must be finite, got {z!r}")
    return z


def _modulus(value: complex, name: str) -> float:
    """|value|, or KernelDomainError where the modulus overflows a double."""
    try:
        return abs(value)
    except OverflowError:
        raise KernelDomainError(f"|{name}| overflows a double at {name}={value}") from None


class SeriesParams(namedtuple("SeriesParams", "a k alpha beta")):
    """Evaluation point; the expansion variable is a*pi, not a itself."""

    __slots__ = ()

    def __new__(cls, a, k, alpha, beta):
        return super().__new__(cls, _scalar(a, "a"), _scalar(k, "k"),
                               _scalar(alpha, "alpha"), _scalar(beta, "beta"))

    def a_pi(self) -> complex:
        return self.a * math.pi


class TruncationPolicy(namedtuple("TruncationPolicy", "mode max_shell rel_tol")):
    """Where series_sum stops: mode ``optimal`` or ``fixed`` (module docstring).

    The name ``exact-if-terminating`` is read as ``optimal``.
    """

    __slots__ = ()

    def __new__(cls, mode="optimal", max_shell=512, rel_tol=1e-14):
        if mode == _MODE_ALIAS:
            mode = "optimal"
        if mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
        if not isinstance(max_shell, int) or max_shell < 4:
            raise ConfigError(f"max_shell must be an integer >= 4, got {max_shell!r}")
        try:
            in_range = 1e-16 < rel_tol < 1e-1
        except TypeError:  # a str or complex rel_tol does not compare
            in_range = False
        if not in_range:
            raise ConfigError(f"rel_tol must lie in (1e-16, 1e-1), got {rel_tol!r}")
        return super().__new__(cls, mode, max_shell, rel_tol)


SeriesResult = namedtuple(
    "SeriesResult", "value error_estimate shells_used termination warnings")


def series_terminates(k):
    """Shell bound Q = round(Re k) if k sits at a non-negative integer.

    All shells q > Q then vanish identically (the weight 1/(k)_{1-q}
    hits a zero factor).  k within 1e-12 of the integer counts; note the
    bound is structural: Q = 0 is reported for k = 0 even though the
    q = 0 weight 1/k makes that point a pole for the sum itself.
    """
    return _nearest_nonpos_int(-_scalar(k, "k"))


def _finish(acc, shells_used: int, termination: str,
            error_estimate: float, warnings: set) -> SeriesResult:
    # the loop's per-shell check has already flagged a non-finite sum
    for name in warnings:
        flag(name)
    return SeriesResult(
        value=complex(acc),
        error_estimate=error_estimate,
        shells_used=shells_used,
        termination=termination,
        warnings=frozenset(warnings),
    )


# Shell weights as data, indexed by the parity of q.  The series weighs
# every shell by 1; the difference series' (-1 + (-1)^(n+p)) collapses to
# 0 on even shells and -2 on odd shells.
_UNIT_WEIGHTS = (1.0, 1.0)
_DIFFERENCE_WEIGHTS = (0.0, -2.0)


def _sum_shells(params: SeriesParams, policy: TruncationPolicy, weights: tuple) -> SeriesResult:
    """Sum the shells at ``params``: the plain loop, or the stop-rule loop.

    ``weights[q % 2]`` scales shell q; shells of weight 0 are identically
    zero, not small, so they count as no shell used and truncation logic
    only ever sees contributing shells.

    A terminating k outside ``fixed`` takes the plain loop over shells
    0..min(top, max_shell), with top the last shell of non-zero weight.
    It reads the weighted shell (the shell itself under unit weights),
    the weight and z^(-q), and checks after the loop only that the sum
    stayed finite; the weight and z^(-q) left over belong to the next
    shell, which no exact sum reads.  Only when the budget cuts the sum
    short does it compute the growth radius and replay the envelope to
    the next shell, for the error estimate.

    Every other sum takes the stop-rule loop, which also steps the
    envelope and compares each shell's with the previous one: the
    tolerance stop applies, and a non-terminating k outside ``fixed``
    also stops at the envelope upturn.  Once the envelope overflows, a
    non-terminating sum ends there, saturated; a terminating one only
    loses its tolerance stop and runs on to its bound.

    Past the budget both sums share the stop-rule loop's walk: it steps
    over zero-weight shells to the next contributing one, whose envelope
    the error reports, unless none is left or the sum has overflowed.
    An error read at a zero-weight shell, where the walk overflowed
    before the next contributing one, is inf.

    Real z, k, alpha and beta are narrowed to floats first, so a real sum
    runs both loops in float arithmetic.
    """
    z = _narrow(params.a_pi())
    if z == 0:
        raise KernelDomainError("a*pi must be nonzero")
    k = _narrow(params.k)
    # the envelope steps by |k - q|, which has no double once |k| has none
    _modulus(k, "k")
    bound = series_terminates(k)
    if bound is not None:
        # Snap to the exact integer: the raw offset (< 1e-12) would
        # otherwise leave near-pole weight dust in shells past the
        # structural bound.
        if bound == 0:
            raise PoleError("series weight at shell 0 is 1/k; k = 0 is a pole")
        k = float(bound)
    alpha, beta = _narrow(params.alpha), _narrow(params.beta)
    fixed = policy.mode == "fixed"
    warnings = set()
    # the last shell of non-zero weight, so a sum that passes it is exact
    # (past the bound the weight is 0, nan once it has overflowed)
    top = math.inf if bound is None else bound if weights[bound % 2] else bound - 1
    last = min(top, policy.max_shell)
    shells = _shell_stream(alpha, beta)
    inv_z = 1.0 / z
    abs_inv_z = abs(inv_z)
    # running state at shell q: z^(-q), 1/(k)_{1-q} and the envelope
    # (q+1) rho^q |z|^-q |1/(k)_{1-q}|
    zpow = 1.0
    recip = 1.0 / k
    env = abs(recip)
    acc = 0.0
    abs_acc = 0.0
    used = 0
    q = 0
    if bound is not None and not fixed:
        # a zero-weight shell adds a zero term, and counts as no shell used
        terms = shells if weights is _UNIT_WEIGHTS else map(mul, cycle(weights), shells)
        for q, t in zip(range(last + 1), terms):
            t = t * recip * zpow
            acc += t
            try:
                abs_acc += abs(t)
            except OverflowError:
                # a finite term whose modulus outgrows a double
                warnings.add(OVERFLOW_SATURATION)
                abs_acc = math.inf
            recip *= k - q
            zpow *= inv_z
        used = sum(map(bool, islice(cycle(weights), last + 1)))
        # a weight or power of z that overflows at a summed shell leaves the
        # sum non-finite, so one check covers every shell; recip and zpow
        # are now shell last + 1's: no exact sum reads them, and the walk
        # past the budget checks them itself
        if not cmath.isfinite(acc):
            warnings.add(OVERFLOW_SATURATION)
        q = last + 1
        if q <= top:
            # the budget cut the sum short: replay the envelope to shell q,
            # then walk on in the stop-rule loop
            rho = max(growth_radius(alpha), growth_radius(beta))
            for j in range(q):
                env = env * ((j + 2) / (j + 1)) * rho * abs_inv_z * abs(k - j)
    else:
        rho = max(growth_radius(alpha), growth_radius(beta))
        if bound is None:
            # asymptotic-regime guard
            az = abs(z)
            if az < 1.05 * rho or az <= rho + abs(k.real):
                warnings.add(NOT_IN_ASYMPTOTIC_REGIME)
    rel_tol = policy.rel_tol
    prev_env = math.inf
    while q <= last or not (weights[q % 2] or q > top or OVERFLOW_SATURATION in warnings):
        c = next(shells)
        m = weights[q % 2]
        if m:
            t = m * c * recip * zpow
            try:
                shell_env = abs(m) * env
                if shell_env <= rel_tol * abs(acc) and used > 0:
                    err = abs(t) + _ROUNDOFF_FACTOR * _EPS * abs_acc
                    return _finish(acc, used, "tolerance-met", err, warnings)
                if not fixed and shell_env > prev_env:
                    # envelope upturn: shell q is the first of the
                    # divergent tail, leave it out and report its scale
                    if q < 3:
                        warnings.add(NOT_IN_ASYMPTOTIC_REGIME)
                    err = max(shell_env, abs(t)) + _ROUNDOFF_FACTOR * _EPS * abs_acc
                    return _finish(acc, used, "optimal-truncation", err, warnings)
                prev_env = shell_env
                acc += t
                used += 1
                abs_acc += abs(t)
            except OverflowError:
                # a finite shell or sum whose modulus outgrows a double
                warnings.add(OVERFLOW_SATURATION)
                abs_acc = math.inf
                break
        # step to shell q + 1; one check per shell covers the sum, the
        # weights and the envelope, but an infinite envelope only stops
        # the tolerance test of a terminating sum, and past the last shell
        # of non-zero weight, where the loop ends, only the sum is read
        kq = k - q
        recip = recip * kq
        zpow = zpow * inv_z
        env = env * ((q + 2) / (q + 1)) * rho * abs_inv_z * abs(kq)
        q += 1
        if not (cmath.isfinite(acc) and (q > top or (
                cmath.isfinite(zpow) and cmath.isfinite(recip)
                and (math.isfinite(env) or bound is not None)))):
            warnings.add(OVERFLOW_SATURATION)
            break
    if q > top:
        return _finish(acc, used, "terminated-exactly", 0.0, warnings)
    if not math.isfinite(env):
        # the error estimate of a sum cut short has saturated
        warnings.add(OVERFLOW_SATURATION)
    # the walk ends on a zero-weight shell only when it overflowed before
    # the next contributing one, whose scale it then cannot bound
    m = abs(weights[q % 2])
    err = (m * env if m else math.inf) + _ROUNDOFF_FACTOR * _EPS * abs_acc
    return _finish(acc, used, "budget-exhausted", err, warnings)


def series_sum(params: SeriesParams, policy: TruncationPolicy = TruncationPolicy()) -> SeriesResult:
    """Sum the double Chebyshev series at ``params`` under ``policy``."""
    return _sum_shells(params, policy, _UNIT_WEIGHTS)


def difference_series(params: SeriesParams, policy: TruncationPolicy = TruncationPolicy()) -> SeriesResult:
    """Odd-shell difference form: series at (-alpha, -beta) minus at (alpha, beta).

    Computed directly from the parity of the shell coefficients rather
    than by two subtractions, so even shells drop out exactly.
    """
    return _sum_shells(params, policy, _DIFFERENCE_WEIGHTS)
