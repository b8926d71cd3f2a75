"""Scalar special-function kernels on the complex plane.

Everything here works on plain ``complex`` values (finite components
required).  ``upper_gamma`` and ``lower_gamma`` narrow a real order and
a real argument to ``float`` on entry, so their regimes run the same
code in float arithmetic, which CPython runs faster than complex
arithmetic; every finite result keeps its bits and is still returned as
``complex``, and a non-finite one may read ``nan+0j`` or ``inf+0j``
where complex arithmetic gave ``nan+nanj``.  Branch convention
throughout: principal branch, with the negative real axis assigned
arg z = +pi (upper side), so results are reproducible for arguments that
land exactly on the cut.

Gamma(z) is the C library's ``math.gamma`` on the real axis, and
exp(log_gamma(z)) off it and past the C library's overflow at 171.62:
exp turns log Gamma's absolute error into a relative error of the value,
up to 2.7e-13 on the real axis, where ``math.gamma`` stays within about
1e-15 and stays finite up to the double limit, past the saturation of
``cexp`` at log Gamma = 709 (x = 171.4).

Regime map for the incomplete gamma function Gamma(s, z).  It is decided
once, by ``_gamma_regime``, for every order s, and both ``upper_gamma``
and ``lower_gamma`` (gamma(s, z) = Gamma(s) - Gamma(s, z)) dispatch on
it.  The pocket radius is 1.5 (1 + |s|) up to |s| = 9, then
``max(15, 1.1 |s|)``: past it the direct series soon loses digits, while
the continued fraction is sharp and cheaper (see ``_POCKET_RATIO``); it
is 1.5 once Re s < 0, where Gamma(s) - gamma(s, z) cancels as soon as
|z| is a little past 1.

* far along the cut, ``|z| + Re z <= 4`` with ``|z| >= 40 + 2|s|``: the
  large-|z| asymptotic expansion of Gamma(s, z) (DLMF 8.11.2), a few
  dozen terms at most; if it does not settle, Kummer's series
* for ``upper_gamma`` only, at an exactly integral order s = m with
  1 <= m <= 16 (``_TERMINATING_CAP``) and ``|z| >= m - 1``: the same
  expansion, which stops after m terms there, Gamma(m, z) =
  (m-1)! e^-z sum_{j<m} z^j / j! (DLMF 8.4.8); no term grows once
  ``|z| >= m - 1``.  It declines when the moduli of its terms add up to
  more than 16 (``_TERMINATING_KAPPA``) times the modulus of the sum,
  and the point goes to the regime below that it falls in
* next to the cut, ``|z| + Re z <= 4`` with Re z < 0: Kummer's series
  gamma(s, z) = z^s sum_n (-z)^n / (n! (s + n)), whose terms have one
  sign near the cut, so no exponential cancellation, but O(|z|) of them
* the right half of the pocket disc, Re z >= 0 with ``|z|`` below the
  radius (or ``|z| + Re z <= 4``, so ``|z| <= 2``): the power series
  gamma(s, z) = z^s e^-z sum_n z^n / (s (s+1) ... (s+n))
* the left half of that disc, Re z < 0 with ``|z|`` below the radius
* everywhere else: the Legendre continued fraction for Gamma(s, z)
  (modified Lentz, budget 10000, tolerance 1e-15 on successive
  convergents)

``upper_gamma`` takes Gamma(s) - gamma(s, z) from the series where the
map names one.  At a non-positive integer s = -m, where Gamma(s) has a
pole, it takes the s -> -m limit of Kummer's series instead (DLMF
8.4.15), summed by the same loop with the n = m term left out.  It sends
the left half of the disc to the continued fraction, as it does
everything else.  The two kernels part on that outcome and on the
terminating sum, which ``lower_gamma`` would have to subtract from
Gamma(s); ``lower_gamma`` takes the regime below it instead.  Left
of the imaginary axis the fraction is an open defect: below ``|z|/|s|``
of about 0.6 its Lentz iteration loses digits, below 0.5 it settles on
wrong values, and for complex s with ``|Im s| > |Re s|`` it can be wrong
past ``|s|`` as well.  ``lower_gamma`` sums the power series in the
whole disc, where no subtraction means no cancellation, Kummer's series
next to the cut, and takes Gamma(s) - Gamma(s, z) everywhere else, so
it inherits the fraction's defect outside the disc.

Every regime ends with one scaling step, e^a e^b sum, a the exponent of
the power of z and b = -z where e^-z is kept apart.  It multiplies the
factors while they stay in the double range, else folds the sum into one
exponent: a representable value comes back even where z^s or e^-z alone
is not, and any other saturates to a flagged inf.  The continued fraction
skips the fold in its defect region (Re z < 0, ``|z| < |s|``), so a wrong
value there still overflows to a flagged nan.
"""

from __future__ import annotations

import cmath
import math

from ._flags import OVERFLOW_SATURATION, flag
from .errors import KernelDomainError, NonConvergenceError, PoleError

__all__ = [
    "analytic_continuation_gamma",
    "erfc_complex",
    "exp_integral_e",
    "gamma_fn",
    "log_gamma",
    "lower_gamma",
    "pochhammer_recip",
    "upper_gamma",
]

_EULER_GAMMA = 0.5772156649015328606065120900824024
_LN_SQRT_TWO_PI = 0.9189385332046727417803297364056176
_LN_PI = 1.1447298858494001741434273513530587
_ITER_BUDGET = 10000
_CF_TOL = 1e-15
# The reflected lower-gamma series loses roughly (|z| + Re z)/ln 10 digits
# to cancellation, so it is used only within this budget of the negative
# real axis (where the continued fraction in turn degrades); the continued
# fraction covers the rest of the large-|z| plane.
_REFLECT_MAX_CANCEL = 4.0
_EXP_OVERFLOW = 709.0
# The asymptotic expansion runs near the cut once |z| >= _ASYMPTOTIC_MIN_Z
# + 2|s|.  The 2|s| keeps the term ratio |s - n|/|z| below 1/2 for n < 20,
# and at |z| = 40 the smallest term of the s = 0 expansion, about
# sqrt(2 pi |z|) e^-|z| = 7e-17, is already near round-off.  Points where
# it does not reach round-off within _ASYMPTOTIC_BUDGET terms fall back to
# the series pocket, so the constants trade speed, not accuracy.
_ASYMPTOTIC_MIN_Z = 40.0
_ASYMPTOTIC_BUDGET = 64
# For Re s >= 0 the right half-plane pocket ends at max(_POCKET_MIN_Z,
# _POCKET_RATIO |s|) once that is below 1.5 (1 + |s|), i.e. from |s| = 9
# on, so small orders keep their pocket.  A seeded probe against 30-digit
# mpmath (Re s in [10, 300], |Im s| <= Re s, Re z >= 0) set the ratio.
# The direct series loses digits as |z| grows past |s|: worst 1.3e-12 at
# 1.1 |s|, 7e-12 at 1.2 |s|, 1.5e-10 at 1.3 |s| and 1.2e-5 at 1.5 |s|.
# The continued fraction holds 2e-13 from 1.15 |s| on and costs a half to
# a third of the series there, but closer in it loses digits next to the
# imaginary axis on the side of Im s: worst 5.6e-8 at |s|, 6.1e-10 at
# 1.05 |s| and 1.2e-11 at 1.1 |s|.  So real orders could take the
# fraction from |s| on, and 1.1 |s| is where both routes stay near 1e-11
# for every order of the probe.
_POCKET_MIN_Z = 15.0
_POCKET_RATIO = 1.1
_SNAP = 1e-12
# upper_gamma sums Gamma(m, z) = (m-1)! e^-z sum_{j<m} z^j / j! (DLMF 8.4.8)
# at the exactly integral orders m = 1.._TERMINATING_CAP once |z| >= m - 1,
# where no term of the sum grows.  A seeded timing probe over |z| from
# m - 1 to 50(m - 1) at any angle set the cap: up to m = 12 the sum took
# 0.2-0.5 of the time of the regime it replaces below |z| = 5(m - 1) and
# 0.4-0.9 above; from m = 16 on, above 5(m - 1), where the continued
# fraction needs few steps, it took 0.83-1.05 of that time.
# The sum declines, and the map's other regimes take the point, when the
# moduli of its terms add up to more than _TERMINATING_KAPPA times the
# modulus of the sum.  In a probe against 40-digit mpmath next to the
# negative axis, the sum's own rounding error stayed below 3.2e-16 times
# that ratio, so at 16 it is at most 5e-15, close to the median error of
# the regimes it replaces there (2.8e-15 to 4.2e-15).  The near-cut
# asymptotic regime's sums never reached a ratio of 2.8, so the guard
# does not touch it.
_TERMINATING_CAP = 16
_TERMINATING_KAPPA = 16.0
_TERMINATING_ORDERS = frozenset(range(1, _TERMINATING_CAP + 1))
# The outcomes of _gamma_regime, one per regime of the module docstring.
_ASYMPTOTIC, _TERMINATING, _KUMMER, _SERIES, _LEFT_DISC, _FRACTION = (
    "asymptotic", "terminating", "kummer", "series", "left-disc", "fraction")
# log_gamma reflects below Re z = -_LOG_GAMMA_REFLECT, which must be at
# least 9 for Stirling's series to take Gamma(1 - z).  A seeded probe
# against 40-digit mpmath over Re z in [-300, -10], |Im z| up to 300,
# found the reflection within 4.1e-16 max(1, |log Gamma|) and the shift
# walk within 3.3e-16, and already at Re z = -10.5 the reflection took
# 3.4 us against 5.4 us for the walk; so the threshold sits at the floor.
_LOG_GAMMA_REFLECT = 10.0


def _as_complex(value, name: str) -> complex:
    if type(value) is not complex:
        try:
            value = complex(value)
        except (TypeError, ValueError):
            raise KernelDomainError(f"{name} must be a complex scalar, got {value!r}")
    if not cmath.isfinite(value):
        raise KernelDomainError(f"{name} must have finite components, got {value!r}")
    return value


def _narrow(x):
    # A real value as a float, so that the arithmetic on it runs on floats
    # (bit for bit the real part of the complex arithmetic wherever the
    # result is finite); any other value as it is.  A float reads as on the
    # upper side of the cut, whatever the sign of a zero imaginary part.
    return x.real if x.imag == 0.0 else x


def _narrow_arg(value, name: str):
    # _narrow(_as_complex(value, name)) in one step: one finiteness test for
    # a complex or float value, the full conversion for anything else.
    if type(value) is complex:
        if value.imag == 0.0:
            if math.isfinite(value.real):
                return value.real
        elif cmath.isfinite(value):
            return value
    elif type(value) is float and math.isfinite(value):
        return value
    return _narrow(_as_complex(value, name))


def clog(z: complex) -> complex:
    """Principal log with arg z = +pi on the negative real axis."""
    return cmath.log(_narrow(z))


def csqrt(z: complex) -> complex:
    """Principal square root with the same cut convention as :func:`clog`."""
    return cmath.sqrt(_narrow(z))


def cpow(z: complex, s: complex) -> complex:
    """Principal power exp(s log z) under the :func:`clog` convention."""
    if z == 0:
        if s == 0:
            return 1.0 + 0.0j
        if (complex(s)).real > 0:
            return 0.0 + 0.0j
        raise KernelDomainError("0 raised to a power with non-positive real part")
    return cexp(s * clog(z))


def cexp(z: complex) -> complex:
    """exp that saturates (and flags) instead of raising on overflow.

    An infinite imaginary part has no angle: the value is then inf+nan*i
    past the saturation threshold and nan+nan*i below it, as C99 gives
    for an infinite and a finite real part, and it is flagged too.
    """
    if z.real > _EXP_OVERFLOW:
        flag(OVERFLOW_SATURATION)
        return complex(math.inf, math.nan) if math.isinf(z.imag) else cmath.rect(math.inf, z.imag)
    try:
        return cmath.exp(z)
    except ValueError:
        flag(OVERFLOW_SATURATION)
        return complex(math.nan, math.nan)


def _difference(lhs: complex, rhs: complex):
    """(abs_err, rel_err): |lhs - rhs| and its ratio to max(|lhs|, |rhs|, 1e-300).

    Where a finite value's modulus has no double (abs() raises), both are
    read from the quartered values: quartering is exact, keeps the ratio
    and brings every modulus back in range.
    """
    try:
        abs_err = abs(lhs - rhs)
        return abs_err, abs_err / max(abs(lhs), abs(rhs), 1e-300)
    except OverflowError:
        lhs, rhs = 0.25 * lhs, 0.25 * rhs
        quarter_err = abs(lhs - rhs)
        return 4.0 * quarter_err, quarter_err / max(abs(lhs), abs(rhs))


# --- log gamma -------------------------------------------------------------

# B_{2m} / (2m (2m-1)) for the Stirling tail.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
)


def _nearest_nonpos_int(z: complex):
    """Return m >= 0 when z sits within _SNAP of -m, else None."""
    n = round(z.real)
    if n <= 0 and abs(z - n) <= _SNAP:
        return -n
    return None


def _log_sin_pi(z: complex) -> complex:
    # log sin(pi z) up to a multiple of 2 pi i, with the exact reduction
    # sin(pi z) = (-1)^n sin(pi t), t = z - n, n = round(Re z), and t moved
    # to Im t >= 0 by sin(-pi t) = -sin(pi t).  Past Im t = 1 the sine is
    # taken as e^(-i pi t) (e^(2 i pi t) - 1) / 2i, which cannot overflow.
    n = round(z.real)
    t = complex(z.real - n, z.imag)
    if t.imag < 0.0:
        t, n = -t, n + 1
    if t.imag < 1.0:
        w, extra = cmath.sin(math.pi * t), 0j
    else:
        w, extra = (cmath.exp(2j * math.pi * t) - 1.0) * -0.5j, -1j * math.pi * t
    return clog(-w if n % 2 else w) + extra


def _log_gamma_stirling(z: complex) -> complex:
    # Stirling's series, for Re z >= 10.  The Bernoulli tail stops at the
    # first term below 1e-17 of |value|, under half an ulp of its larger
    # part; past |z| = 10 each term is below 0.08 of the one before, so
    # the terms left out sum to less still.
    value = (z - 0.5) * clog(z) - z + _LN_SQRT_TWO_PI
    floor = 1e-17 * abs(value)
    zinv2 = 1.0 / (z * z)
    term = 1.0 / z
    for coeff in _STIRLING:
        add = coeff * term
        if abs(add) < floor:
            break
        value += add
        term *= zinv2
    return value


def log_gamma(z) -> complex:
    """log of the gamma function, accurate enough that exp() round-trips.

    Stirling's series once Re z >= 10.  Left of that, the upward recurrence
    log Gamma(z) = log Gamma(z + n) - log(z (z+1) ... (z+n-1)) (DLMF 5.5.1)
    multiplies the shift factors into one complex product and takes one
    log per run of factors.  A run holds at most 1000 / log2(|z| + n + 1)
    factors, so its product stays below 2^1000; no run can underflow,
    since at most two factors lie inside the unit circle and the pole
    check keeps them off zero.  Past Re z < -_LOG_GAMMA_REFLECT the walk
    would take |Re z| steps, so the reflection formula
    log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z) (DLMF 5.5.3)
    takes over, with sin(pi z) reduced exactly by the nearest integer.
    The imaginary part is whatever these steps produce, so it may differ
    from the principal branch by a multiple of 2 pi; only exp(log_gamma)
    is contractual.
    """
    z = _as_complex(z, "z")
    if _nearest_nonpos_int(z) is not None:
        raise PoleError(f"log_gamma pole at z = {z}")
    if z.real >= 10.0:
        return _log_gamma_stirling(z)
    if z.real < -_LOG_GAMMA_REFLECT:
        return _LN_PI - _log_sin_pi(z) - _log_gamma_stirling(1.0 - z)
    n = math.ceil(10.0 - z.real)
    run = int(1000.0 / math.log2(abs(z) + n + 1.0))
    shift = 0j
    for start in range(0, n, run):
        product = 1.0
        for _ in range(min(run, n - start)):
            product *= z
            z += 1.0
        shift += clog(product)
    return _log_gamma_stirling(z) - shift


def gamma_fn(z) -> complex:
    """Gamma(z): the C library's Gamma on the real axis, else exp(log_gamma(z)).

    exp turns the absolute error of log Gamma into a relative error of
    the value, up to 2.7e-13 on the real axis (log Gamma(171) is 706),
    while ``math.gamma`` stays within about 1e-15 relative; it is also
    sharp up to Gamma's own overflow at 171.62, past the 709 at which
    ``cexp`` saturates.  Where it overflows, and everywhere off the real
    axis, the value is exp(log_gamma(z)), a flagged inf once it saturates.
    Within 1e-12 of a non-positive integer this raises ``PoleError``.
    """
    z = _as_complex(z, "z")
    if z.imag == 0.0:
        if _nearest_nonpos_int(z) is not None:
            raise PoleError(f"gamma_fn pole at z = {z}")
        try:
            return complex(math.gamma(z.real), 0.0)
        except OverflowError:
            pass  # past 171.62, where exp(log_gamma) saturates to a flagged inf
    return cexp(log_gamma(z))


# --- pochhammer ------------------------------------------------------------


def pochhammer_recip(k, q: int) -> complex:
    """Reciprocal Pochhammer weight 1 / (k)_{1-q}.

    Equals 1/k at q = 0 and the finite product prod_{j=1}^{q-1} (k - j)
    for q >= 1 (empty product at q = 1).  The product form is the
    continuous continuation of Gamma(k) / Gamma(k + 1 - q), and it hits
    an exact zero precisely when k is an integer with 1 <= k <= q - 1,
    which is what makes the shell series terminate at integer k.
    """
    k = _as_complex(k, "k")
    if not isinstance(q, int) or q < 0:
        raise KernelDomainError(f"q must be a non-negative integer, got {q!r}")
    if q == 0:
        if k == 0:
            raise PoleError("pochhammer_recip(0, 0) is a pole (weight 1/k)")
        return 1.0 / k
    out = 1.0 + 0.0j
    for j in range(1, q):
        out *= k - j
    return out


# --- incomplete gamma ------------------------------------------------------


def _lower_series_direct(s: complex, z: complex) -> complex:
    # gamma(s,z) = z^s e^-z sum_n z^n / (s (s+1) ... (s+n)); good for Re z >= 0.
    term = 1.0 / s
    total = term
    for n in range(1, _ITER_BUDGET):
        term *= z / (s + n)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return _scaled(total, s * clog(z), -z)
    raise NonConvergenceError(f"lower-gamma series stalled at s={s}, z={z}")


def _kummer_sum(s: complex, z: complex, skip: int = -1):
    # sum_{n != skip} (-z)^n / (n! (s + n)), and (-z)^skip / skip! beside it.
    # For Re z < 0 the powers of -z do not alternate, so the sum is
    # cancellation-free near the negative real axis at any |z| the exp can
    # represent.  The stop waits for the skipped index, whose power the
    # integer-order caller needs.
    w = -z
    abs_w = abs(w)
    p = 1.0
    at_skip = p
    total = 0.0 if skip == 0 else 1.0 / s
    budget = _ITER_BUDGET + int(2 * abs_w) + skip
    for n in range(1, budget):
        p *= w / n
        if not cmath.isfinite(p):
            break
        if n == skip:
            at_skip = p
            continue
        term = p / (s + n)
        total += term
        try:
            done = n > abs_w and n > skip and abs(term) <= 1e-17 * abs(total)
        except OverflowError:
            # the sum is finite but its modulus outgrows a double
            break
        if done:
            return total, at_skip
    else:
        raise NonConvergenceError(f"Kummer series stalled at s={s}, z={z}")
    flag(OVERFLOW_SATURATION)
    return cmath.rect(math.inf, cmath.phase(total)), at_skip


def _scaled(total: complex, a: complex, b: complex = 0j) -> complex:
    # e^a e^b total, the step every regime ends with (module docstring).
    # A split b = -z keeps exp of the exact -z correctly rounded, while the
    # folded exponent carries an absolute rounding error of eps |a + b|.
    if abs(a.real) < _EXP_OVERFLOW and abs(b.real) < _EXP_OVERFLOW:
        g = (cmath.exp(a) * cmath.exp(b) if b else cmath.exp(a)) * total
        if cmath.isfinite(g):
            return g
    return cexp(a + b + clog(total))


def _lower_series_reflected(s: complex, z: complex) -> complex:
    # gamma(s,z) = z^s sum_n (-z)^n / (n! (s+n)), Kummer's series.
    return _scaled(_kummer_sum(s, z)[0], s * clog(z))


def _upper_series_nonpos_int(m: int, z: complex) -> complex:
    # DLMF 8.4.15, the s -> -m limit of Kummer's series:
    # Gamma(-m, z) = z^-m [p (psi(m+1) - log z) - sum_{n != m} (-z)^n / (n! (n-m))]
    # with p = (-z)^m / m!, so that z^-m p = (-1)^m / m! never needs m!.
    s = float(-m)
    total, p = _kummer_sum(s, z, m)
    psi = math.fsum(1.0 / j for j in range(1, m + 1)) - _EULER_GAMMA
    return _scaled(p * (psi - clog(z)) - total, s * clog(z))


def _upper_asymptotic(s: complex, z: complex):
    # Gamma(s,z) ~ z^(s-1) e^-z sum_n (s-1)(s-2)...(s-n) / z^n, DLMF 8.11.2;
    # at a positive integer s = m the term n = m is exactly 0, and the sum
    # is the terminating one of DLMF 8.4.8.  Returns None when a term grows,
    # when the budget runs out before the terms reach round-off, or when
    # the sum of the terms' moduli exceeds _TERMINATING_KAPPA times the
    # modulus of the sum: the caller then takes another regime.
    term = 1.0
    total = term
    size = mass = 1.0
    for n in range(1, _ASYMPTOTIC_BUDGET):
        term *= (s - n) / z
        prev, size = size, abs(term)
        if size > prev:
            return None
        total += term
        mass += size
        if size <= 1e-17 * abs(total):
            if mass > _TERMINATING_KAPPA * abs(total):
                return None
            return _scaled(total, (s - 1.0) * clog(z), -z)
    return None


def _upper_cf(s: complex, z: complex) -> complex:
    # Legendre continued fraction in the standard even form,
    # Gamma(s,z) = e^-z z^s / (z+1-s - 1(1-s)/(z+3-s - 2(2-s)/(...))),
    # evaluated by the modified Lentz method.
    tiny = 1e-300
    b = z + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, _ITER_BUDGET + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if d == 0:
            d = tiny
        c = b + an / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            # no fold where h can be wrong (module docstring)
            # z is already narrowed, so cmath.log is clog here
            a = s * cmath.log(z) - z
            return cexp(a) * h if z.real < 0.0 and abs(z) < abs(s) else _scaled(h, a)
    raise NonConvergenceError(
        f"continued fraction for upper gamma did not converge at s={s}, z={z}"
    )


def _gamma_regime(s: complex, z: complex, upper: bool = False) -> str:
    # The regime map of the module docstring, for z != 0.  Only upper=True
    # names the terminating sum: lower_gamma would take Gamma(s) minus it.
    try:
        abs_s, abs_z = abs(s), abs(z)
    except OverflowError:
        raise KernelDomainError(f"|s| or |z| overflows a double at s={s}, z={z}") from None
    near_cut = abs_z + z.real <= _REFLECT_MAX_CANCEL
    if near_cut and abs_z >= _ASYMPTOTIC_MIN_Z + 2.0 * abs_s:
        return _ASYMPTOTIC
    # the set holds exactly the integral orders 1..cap, real or complex(m, 0)
    if upper and s in _TERMINATING_ORDERS and abs_z >= s.real - 1.0:
        return _TERMINATING
    if near_cut:
        return _KUMMER if z.real < 0.0 else _SERIES
    radius = 1.5 * (1.0 + abs_s) if s.real >= 0.0 else 1.5
    if radius > _POCKET_MIN_Z:
        radius = max(_POCKET_MIN_Z, _POCKET_RATIO * abs_s)
    if abs_z < radius:
        return _SERIES if z.real >= 0.0 else _LEFT_DISC
    return _FRACTION


def upper_gamma(s, z) -> complex:
    """Upper incomplete gamma Gamma(s, z), principal branch.

    Entire in s; the cut in z runs along the negative real axis and is
    approached from above (arg z = +pi).  See the module docstring for
    the regime map.  At an exactly integral order m = 1..16
    (``_TERMINATING_CAP``) with |z| >= m - 1 it sums the terminating
    Gamma(m, z) = (m-1)! e^-z sum_{j<m} z^j / j! (DLMF 8.4.8), unless
    the sum cancels by more than a factor 16 (``_TERMINATING_KAPPA``);
    then, and at every other order, the map's other regimes serve.
    """
    s = _narrow_arg(s, "s")
    z = _narrow_arg(z, "z")
    if z == 0:
        if s.real > 0:
            return gamma_fn(s)
        raise KernelDomainError("upper_gamma(s, 0) requires Re(s) > 0")
    regime = _gamma_regime(s, z, upper=True)
    if regime == _ASYMPTOTIC or regime == _TERMINATING:
        g = _upper_asymptotic(s, z)
        if g is not None:
            return g
        regime = _KUMMER if regime == _ASYMPTOTIC else _gamma_regime(s, z)
    if regime == _SERIES or regime == _KUMMER:
        m = _nearest_nonpos_int(s)
        if m is not None:
            return _upper_series_nonpos_int(m, z)
        g = gamma_fn(s)
        lower = _lower_series_direct if regime == _SERIES else _lower_series_reflected
        try:
            return g - lower(s, z)
        except NonConvergenceError:
            if cmath.isfinite(g):
                raise
            # Gamma(s) saturated, and flagged: no gamma(s, z) brings the
            # difference back, so the series need not converge
            return g
    return _upper_cf(s, z)


def lower_gamma(s, z) -> complex:
    """Lower incomplete gamma gamma(s, z) = Gamma(s) - Gamma(s, z).

    See the module docstring for the regime map.
    """
    s = _narrow_arg(s, "s")
    z = _narrow_arg(z, "z")
    if _nearest_nonpos_int(s) is not None:
        raise PoleError(f"lower_gamma has a pole in s at {s}")
    if z == 0:
        if s.real > 0:
            return 0.0 + 0.0j
        raise KernelDomainError("lower_gamma(s, 0) requires Re(s) > 0")
    regime = _gamma_regime(s, z)
    if regime == _SERIES or regime == _LEFT_DISC:
        return _lower_series_direct(s, z)
    if regime == _KUMMER:
        return _lower_series_reflected(s, z)
    return gamma_fn(s) - upper_gamma(s, z)


def analytic_continuation_gamma(s, z, winding: int = 0) -> complex:
    """Gamma(s, z e^{2 pi i m}) continued off the principal sheet.

    The sheet is the one reached by carrying z around 0 m = ``winding``
    times, an integer.  Uses Gamma(s, z e^{2 pi i m}) = e^{2 pi i m s}
    Gamma(s, z) + (1 - e^{2 pi i m s}) Gamma(s).  winding 0 returns
    upper_gamma exactly (same code path, no phase factor applied).
    """
    s = _as_complex(s, "s")
    z = _as_complex(z, "z")
    if not isinstance(winding, int):
        raise KernelDomainError("branch winding must be an integer")
    if winding == 0:
        return upper_gamma(s, z)
    phase = cexp(2j * math.pi * winding * s)
    return phase * upper_gamma(s, z) + (1.0 - phase) * gamma_fn(s)


# --- derived kernels -------------------------------------------------------


def exp_integral_e(nu, z) -> complex:
    """Generalized exponential integral E_nu(z) = z^{nu-1} Gamma(1-nu, z)."""
    nu = _as_complex(nu, "nu")
    z = _as_complex(z, "z")
    if z == 0:
        raise KernelDomainError("exp_integral_e requires z != 0")
    return cpow(z, nu - 1.0) * upper_gamma(1.0 - nu, z)


def erfc_complex(z) -> complex:
    """Complementary error function on the whole plane.

    erfc(z) = Gamma(1/2, z^2) / sqrt(pi) for Re(z) >= 0, reflected through
    erfc(z) = 2 - erfc(-z) on the left half-plane.  Saturated results
    (underflow to 0, saturation to 2) are flagged, not raised.
    """
    z = _as_complex(z, "z")
    if z == 0:
        return 1.0 + 0.0j
    if z.real < 0.0:
        out = 2.0 - erfc_complex(-z)
        if out == 2.0:
            flag(OVERFLOW_SATURATION)
        return out
    out = upper_gamma(0.5, z * z) / math.sqrt(math.pi)
    if out == 0.0:
        flag(OVERFLOW_SATURATION)
    return out
