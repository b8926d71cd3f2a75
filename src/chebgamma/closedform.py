"""Closed-form counterparts of the shell series, built from incomplete gammas.

Two independent routes to the same value are implemented on purpose:

* ``contour_term`` / the twelve-term table: each addend of the partial
  fraction decomposition, normalized so the twelve values sum directly
  to the series value;
* ``closed_form``: the assembled sixteen-addend bracket with its own
  prefactor, grouped by root: one loop over the four Chebyshev roots
  x -+ i sqrt(1 - x^2), three incomplete gammas each.  Those factors
  depend on one variable only, so they are computed as one root pair per
  variable.  Inside a ``_shared_root_pairs`` scope the calls share their
  pairs, keyed by the exact bits of (a*pi, k, x) and replaying the flags
  and errors each pair raised: a sweep opens one per (a, k) block, and
  ``limit_eval`` one around its six levels, so that they compute seven
  root pairs instead of twelve.

They share only the scalar kernels, so agreement between them is a real
cross-check on the transcription.  ``closed_form_cos`` is the same
identity in angle coordinates (alpha = cos theta), with its own loop
over the roots e^(-+i theta).  When a, k and both angles are real it
evaluates one root per side, e^(-i theta), and takes the other's addend
as minus its conjugate (Schwarz reflection of the incomplete gamma), bit
for bit what the second root gives; complex inputs run all four roots.
Each root keeps three incomplete gammas at the literal orders k, k + 1
and k + 2, with no recurrence between them, so that the route checks
any shortcut ``closed_form`` takes across orders.  ``limit_eval`` crosses
the removable singularities, alpha = beta and alpha = +-1, where the
bracket is 0/0: it reads the set from the point and extrapolates
closed forms along a path off it.  The remaining functions are fixed
reference formulas: the all-ones limit, the golden-ratio point, the
error-function point, and the odd-shell difference identities at
alpha = beta = c.  Those are the double-root formula at c = 1 and one
formula in c over the simple roots c +- sqrt(c^2 - 1) for c = 2..5.

Branch convention: principal everywhere, negative real axis read with
arg = +pi (see complexfn).  The source prints the difference identities
for c = 3 and c = 5 with several non-principal-safe powers; those two
are evaluated with principal powers and flagged branch-sensitive rather
than silently trusted.
"""

from __future__ import annotations

import cmath
import math
import struct
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar

from ._flags import BRANCH_SENSITIVE, checked, collect, flag
from .complexfn import (
    cexp,
    clog,
    cpow,
    csqrt,
    erfc_complex,
    exp_integral_e,
    upper_gamma,
)
from .errors import (
    ConfigError,
    KernelDomainError,
    NonConvergenceError,
    PoleError,
    SingularParameterError,
)
from .series import SeriesParams, _modulus, _scalar

__all__ = [
    "TWELVE_TERMS",
    "ContourTermSpec",
    "closed_form",
    "closed_form_cos",
    "contour_term",
    "diff_closed_form",
    "erfc_product_value",
    "golden_ratio_value",
    "limit_eval",
    "prop1_value",
]

# Within this distance of a removable singularity the formulas lose about
# six digits per decade of proximity; reject and point at limit_eval.
_MOAT = 1e-6


def _overflow_error(params: SeriesParams) -> KernelDomainError:
    # for an abs() of alpha, beta or their distance that overflowed
    return KernelDomainError(
        f"|alpha - beta|, |alpha| or |beta| overflows a double at alpha={params.alpha}, "
        f"beta={params.beta}")


def _check_regular(params: SeriesParams, alpha_side: bool = True, beta_side: bool = True):
    k, alpha, beta = params.k, params.alpha, params.beta
    # abs raises OverflowError where a modulus has no double; a try costs
    # nothing on the path that does not raise, unlike a call per modulus
    try:
        if abs(alpha - beta) <= _MOAT:
            raise SingularParameterError(
                "alpha and beta coincide (removable singularity); use limit_eval")
        if alpha_side and min(abs(alpha - 1.0), abs(alpha + 1.0)) <= _MOAT:
            raise SingularParameterError(
                "alpha sits at +-1 (removable singularity); use limit_eval")
        if beta_side and min(abs(beta - 1.0), abs(beta + 1.0)) <= _MOAT:
            raise SingularParameterError(
                "beta sits at +-1 (removable singularity); use limit_eval")
    except OverflowError:
        raise _overflow_error(params) from None
    if _modulus(k, "k") <= _MOAT or abs(k + 1.0) <= _MOAT:
        raise SingularParameterError(
            "k at 0 or -1 divides the prefactor to zero; use limit_eval "
            "on a nearby k or the series route")
    if params.a_pi() == 0:
        raise SingularParameterError("a*pi must be nonzero")


class ContourTermSpec(namedtuple("ContourTermSpec", "variable root_sign order_shift")):
    """One addend of the twelve-term decomposition.

    (variable, root_sign, order_shift) is a primary key: the twelve specs
    tile {alpha-side, beta-side} x {+, -} x {-1, 0, +1}.  The gamma order
    is k + 1 + order_shift, and the shift alone picks the prefactor: 1 at
    +1, alpha + beta at 0, alpha beta at -1.  ``variable`` is
    ``alpha-side`` or ``beta-side``, and ``root_sign`` is the sign, ``+``
    or ``-``, of i*sqrt(1 - x^2).
    """

    __slots__ = ()

    def __new__(cls, variable, root_sign, order_shift):
        if variable not in ("alpha-side", "beta-side"):
            raise ConfigError(f"bad variable {variable!r}")
        if root_sign not in ("+", "-"):
            raise ConfigError(f"bad root_sign {root_sign!r}")
        if order_shift not in (-1, 0, 1):
            raise ConfigError(f"bad order_shift {order_shift!r}")
        return super().__new__(cls, variable, root_sign, order_shift)


TWELVE_TERMS = (
    ContourTermSpec("alpha-side", "+", +1),
    ContourTermSpec("alpha-side", "+", 0),
    ContourTermSpec("alpha-side", "-", +1),
    ContourTermSpec("alpha-side", "-", 0),
    ContourTermSpec("alpha-side", "+", -1),
    ContourTermSpec("alpha-side", "-", -1),
    ContourTermSpec("beta-side", "+", +1),
    ContourTermSpec("beta-side", "+", 0),
    ContourTermSpec("beta-side", "+", -1),
    ContourTermSpec("beta-side", "-", +1),
    ContourTermSpec("beta-side", "-", 0),
    ContourTermSpec("beta-side", "-", -1),
)


def contour_term(spec: ContourTermSpec, params: SeriesParams) -> complex:
    """Value of one decomposition addend, series-normalized.

    Each addend is i * pref / (4 * sqrt(1-x^2) * (alpha-beta)) times
    e^(z X) X^(-(k+1+shift)) Gamma(k+1+shift, z X) / Gamma(k+1+shift)
    with X = x +- i sqrt(1-x^2) and z = a*pi; the sum of the twelve is
    the series value once the shared Gamma(k) z^(-k) factor from the
    generating-kernel side is folded in, which this function does.  The
    ratio Gamma(k) / Gamma(k+1+shift) is taken exactly, as the Pochhammer
    ratio 1, 1/k or 1/(k (k+1)) for shift -1, 0, +1, so the term stays
    finite at k = -2, -3, ..., where Gamma(k) alone has a pole.
    """
    _check_regular(params,
                   alpha_side=spec.variable == "alpha-side",
                   beta_side=spec.variable == "beta-side")
    z = params.a_pi()
    k, alpha, beta = params.k, params.alpha, params.beta
    x = alpha if spec.variable == "alpha-side" else beta
    root = csqrt(1.0 - x * x)
    big_x, other = x + 1j * root, x - 1j * root
    if spec.root_sign == "-":
        big_x, other = other, big_x
    # The two roots multiply to 1, and formed as x -+ i root the smaller
    # one cancels (x - sqrt(x^2 - 1) for real x > 1 loses about 2 x^2 eps,
    # and reads 0 from x ~ 1e8 on): take it as the reciprocal of the other.
    if abs(big_x) < abs(other):
        big_x = 1.0 / other
    order = k + 1.0 + spec.order_shift
    # pref, and ratio = Gamma(k) / Gamma(order)
    if spec.order_shift == 1:
        pref, ratio = 1.0 + 0.0j, 1.0 / (k * (k + 1.0))
    elif spec.order_shift == 0:
        # printed with a stray standalone token in two of the equations;
        # the multiplier used to build them is (alpha + beta)
        pref, ratio = alpha + beta, 1.0 / k
    else:
        pref, ratio = alpha * beta, 1.0
    side = 1.0 if spec.variable == "alpha-side" else -1.0
    rsgn = 1.0 if spec.root_sign == "+" else -1.0
    sign = side * rsgn * (-1.0 if spec.order_shift == 0 else 1.0)
    norm = ratio * cpow(z, -k)
    return checked(sign * 1j * pref / (4.0 * root * (alpha - beta))
                   * cexp(z * big_x) * cpow(big_x, -order)
                   * upper_gamma(order, z * big_x) * norm)


def _root_pair(z: complex, k: complex, x: complex) -> tuple:
    """The factors of closed_form that depend on one variable x alone.

    Returns (s, roots) with s = sqrt(1-x^2) and, for the roots X = x - i s
    and x + i s in that order, the factors (e^(z X), X^(-k-2), G(k+2),
    X^(-k-1), G(k+1), X^(-k), G(k)) with G(t) = Gamma(t, z X).  The three
    powers share one logarithm: X^t = cexp(t clog(X)), exactly what
    ``cpow`` computes, with clog(X) taken once per root.
    """
    s = csqrt(1.0 - x * x)
    x_minus, x_plus = x - 1j * s, x + 1j * s
    # The roots multiply to 1; where their moduli differ the smaller one is
    # the reciprocal of the larger, since formed as x -+ i s it cancels.
    if abs(x_minus) < abs(x_plus):
        x_minus = 1.0 / x_plus
    elif abs(x_plus) < abs(x_minus):
        x_plus = 1.0 / x_minus
    roots = []
    for big_x in (x_minus, x_plus):
        zx = z * big_x
        log_x = clog(big_x)
        roots.append((cexp(zx),
                      cexp((-k - 2) * log_x), upper_gamma(k + 2, zx),
                      cexp((-k - 1) * log_x), upper_gamma(k + 1, zx),
                      cexp(-k * log_x), upper_gamma(k, zx)))
    return s, tuple(roots)


# The open root-pair scope (_shared_root_pairs), or None: a dict from the
# exact bits of (z, k, x) to (pair, error, flags).
_pair_scope: ContextVar[dict | None] = ContextVar("chebgamma_root_pairs", default=None)


@contextmanager
def _shared_root_pairs():
    """Share root pairs among the closed_form calls of the block.

    Within the block each distinct (z, k, x) computes its root pair once.
    The flags the pair raised, and a KernelDomainError or
    NonConvergenceError it raised, are kept with it and raised again at
    every later point that uses it, so each value, flag and error is what
    closed_form gives outside the scope, and a failing kernel runs once
    per block (a pair that raised any other error is not kept).  Keys are
    exact bits:
    0.0 == -0.0, but the roots built from them can carry zeros of
    different sign into the kernels.  A nested scope starts empty and the
    outer one is back when it ends.
    """
    token = _pair_scope.set({})
    try:
        yield
    finally:
        _pair_scope.reset(token)


def _shared_pair(z: complex, k: complex, x: complex) -> tuple:
    """_root_pair(z, k, x), shared through the open scope if there is one."""
    pairs = _pair_scope.get()
    if pairs is None:
        return _root_pair(z, k, x)
    key = struct.pack("<6d", z.real, z.imag, k.real, k.imag, x.real, x.imag)
    if key in pairs:
        pair, error, raised = pairs[key]
        for name in raised:
            flag(name)
    else:
        pair = error = None
        with collect() as raised:
            try:
                pair = _root_pair(z, k, x)
            except (KernelDomainError, NonConvergenceError) as exc:
                error = exc
        pairs[key] = pair, error, raised
    if error is not None:
        raise error
    return pair


def closed_form(params: SeriesParams) -> complex:
    """The assembled bracket: one residue group per Chebyshev root.

    The roots alpha -+ i sa weigh +sb, -sb and beta -+ i sb weigh -sa, +sa
    (sa = sqrt(1-alpha^2), sb = sqrt(1-beta^2)).  Root X contributes
    e^(z X) [X^(-k-2) G(k+2) - (k+1)(alpha+beta) X^(-k-1) G(k+1)
    + k(k+1) alpha beta X^(-k) G(k)], with G(s) = Gamma(s, z X).

    Only the weights, the coefficients and the prefactor involve both
    variables.  The rest, six of the twelve incomplete gammas per
    variable, is one root pair per variable (``_root_pair``), shared
    with the other calls in an open ``_shared_root_pairs`` scope.
    """
    _check_regular(params)
    z = params.a_pi()
    k, alpha, beta = params.k, params.alpha, params.beta
    sa, alpha_roots = _shared_pair(z, k, alpha)
    sb, beta_roots = _shared_pair(z, k, beta)
    # the coefficients, multiplied left to right as the printed bracket reads
    c1 = (k + 1) * (alpha + beta)
    c0 = k * (k + 1) * alpha * beta
    bracket = 0j
    for weight, (e, p2, g2, p1, g1, p0, g0) in zip(
            (sb, -sb, -sa, sa), alpha_roots + beta_roots):
        bracket += weight * e * (p2 * g2 - c1 * p1 * g1 + c0 * p0 * g0)
    pref = 1.0 / (4j * k * (k + 1) * cpow(z, k) * sa * (alpha - beta) * sb)
    return checked(pref * bracket)


def closed_form_cos(a, k, theta_alpha, theta_beta) -> complex:
    """Angle-coordinate form of the closed expression (alpha = cos theta).

    The roots are e^(-+i theta).  Each carries its own power of the root,
    keeping the printed mixed pairings on the beta side (e^(-i theta_beta)
    goes with e^(+i k theta_beta) and vice versa), and the order shifts
    appear as e^(+-i theta) factors folded into the exponential.

    When a, k and both angles are real, the e^(+i theta) root of each side
    is the conjugate of the e^(-i theta) one, and so is every factor of
    its addend: the root power, the three shifted exponentials and,
    by Schwarz reflection (DLMF 8.2), the three Gamma(s, conj w) =
    conj Gamma(s, w) at real s.  Its addend enters the bracket with the
    opposite sign, so the bracket takes it as minus the conjugate of the
    other's: six incomplete gammas instead of twelve, and every bit kept.
    Any complex input runs all four roots.  The orders stay the literal k, k + 1 and k + 2,
    three kernels per root and no recurrence between them, so that this
    route stays independent of closed_form.  An angle whose cosine or
    sine overflows a double raises KernelDomainError.
    """
    a, k = _scalar(a, "a"), _scalar(k, "k")
    ta, tb = _scalar(theta_alpha, "theta_alpha"), _scalar(theta_beta, "theta_beta")
    try:
        ca, cb = cmath.cos(ta), cmath.cos(tb)
        sina, sinb = cmath.sin(ta), cmath.sin(tb)
    except OverflowError:
        raise KernelDomainError(
            f"cos or sin of an angle overflows a double at theta_alpha={ta}, "
            f"theta_beta={tb}") from None
    # cos theta lies within |sin theta|^2 of the nearer of +-1, so no sine
    # within the moat of 0 passes this check, and no cosecant below is 1/0
    _check_regular(SeriesParams(a=a, k=k, alpha=ca, beta=cb))
    z = a * math.pi
    mirrored = not (a.imag or k.imag or ta.imag or tb.imag)
    xm, ym = cexp(-1j * ta), cexp(-1j * tb)
    yp = ym.conjugate() if mirrored else cexp(1j * tb)
    cot_a, csc_a = ca / sina, 1.0 / sina
    cot_b, csc_b = cb / sinb, 1.0 / sinb
    # (root, angle shift, root power, sign, order-k weight, cosecant); a
    # mirrored run keeps the e^(-i theta) root of each side only
    roots = ((xm, ta, cpow(xm, -k), 1.0, cb * cot_a, csc_a),
             (ym, tb, cpow(yp, k), -1.0, ca * cot_b, csc_b))
    if not mirrored:
        xp = cexp(1j * ta)
        roots = (roots[0], (xp, -ta, cpow(xp, -k), -1.0, cb * cot_a, csc_a),
                 roots[1], (yp, -tb, cpow(ym, k), 1.0, ca * cot_b, csc_b))
    bracket = 0j
    for x, shift, power, sign, lead, csc in roots:
        zx = z * x
        addend = (
            cexp(zx) * power * k * (1 + k) * lead * upper_gamma(k, zx)
            - cexp(zx + 1j * shift) * power * (1 + k) * (ca + cb) * csc * upper_gamma(1 + k, zx)
            + cexp(zx + 2j * shift) * power * csc * upper_gamma(2 + k, zx))
        bracket += sign * addend
        if mirrored:
            bracket += -sign * addend.conjugate()
    return checked(bracket / (4.0 * k * 1j * (1 + k) * cpow(z, k) * (ca - cb)))


def _reference_args(a, k) -> tuple:
    """(a, k) as complex scalars for a reference formula; k = 0 and a = 0 refused."""
    a, k = _scalar(a, "a"), _scalar(k, "k")
    if k == 0:
        raise PoleError("k = 0 is a pole (1/k term)")
    if a * math.pi == 0:
        raise SingularParameterError("a*pi must be nonzero")
    return a, k


def prop1_value(a, k) -> complex:
    """All-ones limit of the series: 1 + 1/k + e^z (1+k-z) E_{1-k}(z), z = a pi."""
    a, k = _reference_args(a, k)
    z = a * math.pi
    return checked(1.0 + 1.0 / k + cexp(z) * (1.0 + k - z) * exp_integral_e(1.0 - k, z))


def golden_ratio_value(a, k) -> complex:
    """Series point alpha = sqrt5, beta = sqrt5/2: four E-function addends.

    The Chebyshev roots at these arguments are sqrt5 -+ 2 and
    (sqrt5 -+ 1)/2, so every exponential scale in the formula is a
    golden-ratio power.
    """
    a, k = _reference_args(a, k)
    z = a * math.pi
    r5 = math.sqrt(5.0)
    terms = (
        (4.0 + r5) * cexp((r5 - 2.0) * z) * exp_integral_e(1.0 - k, (r5 - 2.0) * z)
        + (r5 - 1.0) * cexp(0.5 * (r5 - 1.0) * z) * exp_integral_e(1.0 - k, 0.5 * (r5 - 1.0) * z)
        + (1.0 + r5) * cexp(0.5 * (1.0 + r5) * z) * exp_integral_e(1.0 - k, 0.5 * (1.0 + r5) * z)
        + (r5 - 4.0) * cexp((2.0 + r5) * z) * exp_integral_e(1.0 - k, (2.0 + r5) * z)
    )
    return checked(1.0 / k + terms / (4.0 * r5))


def erfc_product_value() -> complex:
    """Reference value of the cosine-product series at the error-function point.

    This is the fixed-constant expression (k = -1/2, a = e^4/pi, angles
    pi/2 and pi/4) assembled from erf/erfc; roots of -1 are principal
    powers.  The two erf(w) + 1 factors are carried out as erfc(-w),
    which is the same number: erf(w) here is -1 plus a residue of order
    1e-19, so the literal addition would round the residue away and the
    adjacent e^(+38.6...) exponential would amplify that rounding to a
    percent-level error.
    """
    e2 = math.exp(2.0)
    e4 = math.exp(4.0)
    minus1 = -1.0 + 0.0j

    def root(p: float) -> complex:
        return cpow(minus1, p)

    r2 = math.sqrt(2.0)
    bracket = (
        (2.0 + 1j * r2) * cexp(-1j * e4) * erfc_complex(-root(0.75) * e2)
        + 2.0 * root(7.0 / 8.0) * cexp(-root(0.75) * e4) * erfc_complex(-root(7.0 / 8.0) * e2)
        + 2.0 * root(5.0 / 8.0) * cexp(root(0.25) * e4) * erfc_complex(root(1.0 / 8.0) * e2)
        - (r2 + 2j) * cexp(1j * e4) * erfc_complex(root(0.25) * e2)
    )
    return (0.25 + 0.25j) * e2 * math.sqrt(math.pi) * bracket


def _branch_disc(a: complex, k: complex) -> complex:
    # (-a)^k - a^k e^(i k pi): identically zero for a > 0 real under the
    # upper-side reading of the cut, and the multi-branch residue
    # elsewhere
    return cpow(-a, k) - cpow(a, k) * cexp(1j * k * math.pi)


def _diff_c1(a: complex, k: complex) -> complex:
    z = a * math.pi
    pref = cexp(-(a + 1j * k) * math.pi) / (cpow(z, k) * k)
    return pref * (
        k * (1.0 + k + z) * upper_gamma(k, -z)
        + cexp(z) * (_branch_disc(a, k) * (1.0 + k) * cpow(math.pi + 0j, k)
                     - cexp((a + 1j * k) * math.pi) * k * (1.0 + k - z) * upper_gamma(k, z))
    )


def _diff_c(c: int, a: complex, k: complex) -> complex:
    # Simple roots s, t = c +- r of X^2 - 2cX + 1, with r = sqrt(c^2 - 1)
    # and m = -t; d = c^2 - 1 carries the constants that the source prints
    # per c (8, 4, 3 sqrt2 at c = 3; 24, 12, 5 sqrt6 at c = 5).
    z = a * math.pi
    d = c * c - 1.0
    r = math.sqrt(d)
    s, t, m = c + r, c - r, r - c
    h, q = 0.5 * d, 0.5 * c * r
    t2k, neg_a_k = cpow(t + 0j, 2 * k), cpow(-a, k)
    e2c = cexp(2.0 * c * z + 1j * k * math.pi)
    pref = (cpow(m + 0j, -2 * k) * cpow(a, -k) * cpow(m * a, -k)
            * cexp((-(s * a) + 2j * k) * math.pi) * cpow(-(s * math.pi) + 0j, -k)
            / (2.0 * d * k))
    return pref * (
        d * t2k * neg_a_k * cexp(s * z) * _branch_disc(a, k)
        * (2.0 + k) * cpow(math.pi + 0j, k)
        + cpow(t + 0j, 3 * k) * neg_a_k * k
        * (d - q + h * k + h * s * z) * upper_gamma(k, -(s * z))
        + cpow(m * a, k) * k * (
            -e2c * (d + q + h * k + h * m * z) * upper_gamma(k, t * z)
            + cexp(2.0 * r * z) * (
                (d + q + h * k + h * t * z) * upper_gamma(k, m * z)
                + t2k * e2c * (-d + q - h * k + h * s * z) * upper_gamma(k, s * z)
            )
        )
    )


# The source prints c = 3 and c = 5 with branch-open stacked powers such as
# (3-2 sqrt2)^(2k) (-a)^k ((-3+2 sqrt2) a)^(-k); principal powers are used
# and those two are flagged rather than trusted silently.
_DIFF_BRANCH_SENSITIVE = frozenset({3, 5})


def diff_closed_form(c: int, a, k) -> complex:
    """Odd-shell difference identity at alpha = beta = c, for c in 1..5."""
    if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= 5:
        raise ConfigError(f"c must be an integer in 1..5, got {c!r}")
    a, k = _reference_args(a, k)
    if c in _DIFF_BRANCH_SENSITIVE:
        flag(BRANCH_SENSITIVE)
    return checked(_diff_c1(a, k) if c == 1 else _diff_c(c, a, k))


def _limit_path(p: SeriesParams):
    """eps -> the point limit_eval evaluates at, off the set p sits on.

    The sets are tested in the order the limit_eval docstring lists.
    """
    a, k, alpha, beta = p.a, p.k, p.alpha, p.beta
    try:
        if abs(alpha - 1.0) <= _MOAT:
            if abs(beta - 1.0) <= _MOAT:
                # distinct rates keep alpha and beta separated while both
                # approach 1 along the real axis from inside
                return lambda eps: SeriesParams(a=a, k=k, alpha=1.0 - eps, beta=1.0 - 2.0 * eps)
            return lambda eps: SeriesParams(a=a, k=k, alpha=1.0 - eps, beta=beta)
        if abs(alpha + 1.0) <= _MOAT:
            return lambda eps: SeriesParams(a=a, k=k, alpha=-1.0 + eps, beta=beta)
        if abs(alpha - beta) <= _MOAT:
            # a step of eps, or of eps |beta| past |beta| = 1: a step
            # relative to a tiny beta would land back inside the moat
            step = max(1.0, abs(beta))
            return lambda eps: SeriesParams(a=a, k=k, alpha=alpha, beta=beta + eps * step)
    except OverflowError:
        raise _overflow_error(p) from None
    raise SingularParameterError(
        "params sit on no removable singular set (alpha = beta, or alpha at +-1)")


# limit_eval's perturbation ladder: eps_j = _LIMIT_EPS0 * 2^-j for j below
# _LIMIT_LEVELS.  Every path steps its moving variable by at least eps_j,
# so even the smallest level, 1e-2 * 2^-5 = 3.1e-4, lands about 300 moats
# (_MOAT = 1e-6) off the set the point sits on.
_LIMIT_EPS0 = 1e-2
_LIMIT_LEVELS = 6


def limit_eval(params: SeriesParams) -> complex:
    """closed_form at a removable singularity, by extrapolating in epsilon.

    The point picks its perturbation path (``_limit_path``), tested in
    this order, each within 1e-6 (``_MOAT``):

    * alpha and beta both at 1: alpha = 1 - eps, beta = 1 - 2 eps;
    * alpha at +1: alpha = 1 - eps;
    * alpha at -1: alpha = -1 + eps;
    * alpha = beta: beta = beta + eps max(1, |beta|);

    and a point on none of them raises SingularParameterError.  Evaluates
    on the six levels eps_j = 1e-2 * 2^-j, j = 0..5
    (``_LIMIT_EPS0``, ``_LIMIT_LEVELS``), and Richardson-extrapolates with an
    O(eps) leading-error model (the singular point is a 0/0 of functions
    even in each square root, so the value is analytic in eps along the
    perturbation path).  Raises when the extrapolants stop contracting
    by at least 2 per level above the rounding floor.

    The levels share their root pairs (``_shared_root_pairs``): each path
    holds one variable fixed, or, at alpha = beta = 1, takes beta at one
    level bit for bit equal to alpha at the level before (1 - 2 eps_j =
    1 - eps_(j-1)), so the six levels compute seven root pairs, not twelve.
    """
    perturbed = _limit_path(params)
    with _shared_root_pairs():
        values = [closed_form(perturbed(_LIMIT_EPS0 * 0.5 ** j))
                  for j in range(_LIMIT_LEVELS)]
    prev, diag = [], []
    for j, value in enumerate(values):
        # Neville update of the Richardson tableau, ratio 2, order 1 model
        row = [value]
        for m in range(1, j + 1):
            weight = 2.0 ** m
            row.append((weight * row[m - 1] - prev[m - 1]) / (weight - 1.0))
        diag.append(row[j])
        prev = row
    scale = max(abs(diag[-1]), 1e-300)
    # The perturbed evaluations sit in a 0/0 region and lose up to
    # eps^-2 ~ 1e7 machine epsilons to cancellation, so the tableau
    # corrections plateau around 1e-9 of scale; below this floor a
    # failed contraction is rounding noise, not divergence.
    floor = 3e-8 * scale
    diffs = [abs(diag[j] - diag[j - 1]) for j in range(1, _LIMIT_LEVELS)]
    for j in range(1, len(diffs)):
        if diffs[j] > floor and diffs[j] > 0.5 * diffs[j - 1]:
            raise NonConvergenceError(
                f"limit extrapolation stopped contracting at level {j + 1}: "
                f"consecutive corrections {diffs[j - 1]:.3e} -> {diffs[j]:.3e}")
    return diag[-1]
