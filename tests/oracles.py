"""Independent reference implementations used to check the library.

Everything here is deliberately written from the defining formulas with
none of the library's algorithmic choices (no continued fractions, no
shell recurrence, no closed forms; the one oracle for shell coefficients
sums their definition in exact arithmetic), so agreement is evidence
rather than tautology.
"""

import cmath
import math
import warnings
from fractions import Fraction

from scipy.integrate import IntegrationWarning, quad


def gamma_upper_quad(s, z):
    """Upper incomplete gamma by adaptive quadrature, Re(z) > 0.

    Integrates along the horizontal ray t = z + u, u in [0, inf).  The
    analytic prefactor e^{-z} z^{s-1} is split off so the remaining
    integrand starts at exactly 1 and the quadrature works at relative
    rather than absolute precision even when the result underflows
    toward 1e-300.  Target relative error ~1e-12.
    """
    s = complex(s)
    z = complex(z)
    if z.real <= 0.0:
        raise ValueError("quadrature ray requires Re(z) > 0")

    def integrand(u):
        return cmath.exp((s - 1.0) * cmath.log(1.0 + u / z) - u)

    with warnings.catch_warnings():
        # The oscillatory tails trip scipy's roundoff heuristic long after
        # the requested accuracy is reached; measured worst-case error over
        # the verification domain is below 1e-12.
        warnings.simplefilter("ignore", IntegrationWarning)
        re_part, _ = quad(lambda u: integrand(u).real, 0.0, math.inf,
                          epsabs=1e-15, epsrel=1e-13, limit=800)
        im_part, _ = quad(lambda u: integrand(u).imag, 0.0, math.inf,
                          epsabs=1e-15, epsrel=1e-13, limit=800)
    return cmath.exp(-z + (s - 1.0) * cmath.log(z)) * complex(re_part, im_part)


def erfc_quad(x):
    """erfc on the real line straight from its defining integral."""
    val, _ = quad(lambda t: math.exp(-t * t), x, math.inf,
                  epsabs=1e-15, epsrel=1e-13, limit=400)
    return 2.0 / math.sqrt(math.pi) * val


def cheb_poly_direct(n, x):
    """T_n(x) from the trigonometric/hyperbolic closed form.

    Uses acos in the complex plane, which is valid for any x; completely
    independent of the three-term recurrence.
    """
    if n == 0:
        return complex(1.0)
    return cmath.cos(n * cmath.acos(complex(x)))


def falling_recip_direct(k, q):
    """Direct product form of the shell weight: 1/k at q=0, else
    prod_{j=1}^{q-1} (k - j)."""
    k = complex(k)
    if q == 0:
        return 1.0 / k
    acc = complex(1.0)
    for j in range(1, q):
        acc *= k - j
    return acc


def double_sum_direct(alpha, beta, k, a_pi, shells):
    """Plain double sum over (n, p) with n + p <= shells.

    No shell convolution, no recurrences for the weights: each term is
    built from scratch.  This is the most literal transcription of the
    series and serves as the enumeration oracle.
    """
    total = complex(0.0)
    for n in range(shells + 1):
        for p in range(shells + 1 - n):
            q = n + p
            term = (cheb_poly_direct(n, alpha) * cheb_poly_direct(p, beta)
                    * falling_recip_direct(k, q) / complex(a_pi) ** q)
            total += term
    return total


def finite_series_exact(alpha, beta, k_int, a_pi):
    """Exact value for positive integer k: the weight vanishes for every
    shell q >= k + 1, so the double sum is finite."""
    if not (isinstance(k_int, int) and k_int >= 1):
        raise ValueError("needs a positive integer order")
    return double_sum_direct(alpha, beta, k_int, a_pi, k_int)


def difference_sum_direct(alpha, k, a_pi, shells):
    """Enumeration oracle for the reflected-minus-direct series at
    alpha = beta: sum of ((-1)^q - 1) * C_q * weight_q / (a pi)^q."""
    total = complex(0.0)
    for n in range(shells + 1):
        for p in range(shells + 1 - n):
            q = n + p
            sign = (-1.0) ** q - 1.0
            if sign == 0.0:
                continue
            term = (sign * cheb_poly_direct(n, alpha) * cheb_poly_direct(p, alpha)
                    * falling_recip_direct(k, q) / complex(a_pi) ** q)
            total += term
    return total


def shell_values_exact(q_max, alpha, beta):
    """C_0..C_{q_max} for real float arguments, in exact arithmetic.

    Returns ``(values, scales)`` as Fractions: each C_q = sum_n T_n(alpha)
    T_{q-n}(beta) straight from its defining sum, and the matching
    sum_n |T_n(alpha) T_{q-n}(beta)|, the size that double-precision
    roundoff in C_q is measured against.  A float is m / 2^e exactly, so
    T_n(m / 2^e) 2^(e n) is an integer and every sum runs on integers.
    """
    rows = []
    for x in (alpha, beta):
        m, d = float(x).as_integer_ratio()
        row = [1, m]                       # T_n(x) d^n
        while len(row) <= q_max:
            row.append(2 * m * row[-1] - d * d * row[-2])
        rows.append((row, d.bit_length() - 1))
    (ta, ea), (tb, eb) = rows
    e = max(ea, eb)
    values, scales = [], []
    for q in range(q_max + 1):
        # term n carries 2^-(ea n + eb (q-n)); bring all to 2^-(e q)
        terms = [(ta[n] * tb[q - n]) << (e * q - ea * n - eb * (q - n)) for n in range(q + 1)]
        values.append(Fraction(sum(terms), 1 << (e * q)))
        scales.append(Fraction(sum(abs(t) for t in terms), 1 << (e * q)))
    return values, scales
