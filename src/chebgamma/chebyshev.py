"""Chebyshev polynomials of the first kind and shell convolution coefficients.

The double series this package evaluates couples two Chebyshev families
through the total degree q = n + p; collapsing the double sum to a single
sum needs the shell coefficients C_q = sum_{n=0}^{q} T_n(alpha)
T_{q-n}(beta).  One stream yields them in order at O(1) work per shell,
from a two-term recurrence (``_shell_stream``).  Everything here accepts
arbitrary complex argument: the three-term recurrence is forward-stable
for the growing branch, which is exactly what arguments outside [-1, 1]
need.  The stream starts from float ones and zeros, so real arguments
given as floats run it in float arithmetic, bit for bit the real part of
the complex run wherever a shell is finite, and a shell that overflows
reads ``inf+0j`` or ``nan+0j`` where complex arithmetic gave a nan
imaginary part; the public functions still return ``complex``.
"""

from __future__ import annotations

import cmath
import math
from itertools import islice

from .complexfn import csqrt
from .errors import KernelDomainError

__all__ = ["cheb_t", "growth_radius", "shell_coeff", "shell_values"]


def _as_index(n, name: str) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise KernelDomainError(f"{name} must be a non-negative integer, got {n!r}")
    return n


def cheb_t(n: int, x) -> complex:
    """T_n(x) by the three-term recurrence T_{n+1} = 2x T_n - T_{n-1}."""
    n = _as_index(n, "n")
    x = complex(x)
    two_x = 2.0 * x
    t0, t1 = 1.0 + 0.0j, x
    for _ in range(n):
        t0, t1 = t1, two_x * t1 - t0
    return t0


def _drive_key(x: complex) -> tuple:
    # Orders the two arguments by growth radius rho: x lies on the
    # Bernstein ellipse of radius rho with foci +-1, whose focal distances
    # sum to rho + 1/rho, rising with rho.  Ties (radii too close to part
    # that sum, as near rho = 1, where either driver grows alike) go by
    # (Re, Im) and then the signs of zero, so the pair picks the same
    # driver in either order.
    return (abs(x - 1.0) + abs(x + 1.0), x.real, x.imag,
            math.copysign(1.0, x.real), math.copysign(1.0, x.imag))


def _shell_stream(alpha: complex, beta: complex):
    """Yield C_0, C_1, C_2, ... at (alpha, beta), without end.

    The shells' generating function is the product of the two Chebyshev
    ones, so (1 - 2 h t + t^2) sum_q C_q t^q = (1 - h t) sum_n T_n(d) t^n
    for {d, h} = {alpha, beta}, and C obeys the two-term recurrence

        C_{q+1} = 2 h C_q - C_{q-1} + T_{q+1}(d) - h T_q(d).

    C_0 = 1 and C_1 = alpha + beta (added to a float zero, so that a zero
    part reads +0.0 whatever its sign in alpha and beta); from shell 2 on
    the recurrence runs with the argument of larger growth radius as the
    driver d (ties by ``_drive_key``): the homogeneous part then grows no
    faster than C itself, and swapping alpha and beta runs the same
    arithmetic, so C_q stays bit-identical under the swap.  Unlike the
    four-term recurrence on C alone, it does not lose accuracy where the
    roots of the two factors nearly coincide.
    """
    c0, c1 = 1.0, 0.0 + (alpha + beta)
    yield c0
    yield c1
    d, h = alpha, beta
    if _drive_key(beta) > _drive_key(alpha):
        d, h = beta, alpha
    two_d, two_h = 2.0 * d, 2.0 * h
    # T_{q-1} and T_q of the driver, for the next shell q
    t0, t1 = d, two_d * d - 1.0
    while True:
        c0, c1 = c1, two_h * c1 - c0 + t1 - h * t0
        yield c1
        t0, t1 = t1, two_d * t1 - t0


def shell_coeff(q: int, alpha, beta) -> complex:
    """C_q = sum_n T_n(alpha) T_{q-n}(beta) at (alpha, beta), read off the stream."""
    q = _as_index(q, "q")
    shells = _shell_stream(complex(alpha), complex(beta))
    return complex(next(islice(shells, q, None)))


def shell_values(q_max: int, alpha, beta) -> list:
    """All shell coefficients C_0..C_{q_max} from one pass of the stream.

    O(q_max) total; coefficients are never memoized across calls.
    """
    q_max = _as_index(q_max, "q_max")
    # shell 0 is the float 1.0 of the stream's start
    return list(map(complex, islice(_shell_stream(complex(alpha), complex(beta)), q_max + 1)))


def growth_radius(x) -> float:
    """rho(x) = modulus of the larger root of t^2 - 2xt + 1.

    |T_n(x)| grows like rho(x)^n; the series engine compares this against
    |a pi| to decide whether shells can decay at all.
    """
    x = complex(x)
    square = x * x
    if not cmath.isfinite(square):
        # From |x| of about 1.34e154 on, x^2 overflows.  The roots are then
        # x (1 +- sqrt(1 - 1/x^2)) with 1/x^2 far below the rounding of 1,
        # so the larger has modulus 2|x|, taken as 4|x/2| so that abs
        # cannot overflow at a finite x.
        return 4.0 * abs(0.5 * x)
    s = csqrt(square - 1.0)
    r, d = abs(x + s), abs(x - s)
    if d > 4.0 * r:
        # x + s is the small root (the roots' product is 1, so r < 1/2
        # unless r is a rounding residue), formed by cancellation: it
        # rounds to 0 for real x <= -1e8.  x - s is the large root, a sum
        # of two terms of like sign.
        return d
    return max(r, 1.0 / r)
