"""Chebyshev polynomials of the first kind and shell convolution coefficients.

The double series this package evaluates couples two Chebyshev families
through the total degree q = n + p; collapsing the double sum to a single
sum needs the shell coefficients C_q = sum_{n=0}^{q} T_n(alpha)
T_{q-n}(beta).  One stream yields them in order at O(1) work per shell
past a short direct start (``_shell_stream``).  Everything here accepts
arbitrary complex argument: the three-term recurrence is forward-stable
for the growing branch, which is exactly what arguments outside [-1, 1]
need.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .complexfn import csqrt
from .errors import KernelDomainError

__all__ = ["ShellCoefficient", "cheb_t", "growth_radius", "shell_coeff", "shell_values"]


def _as_index(n, name: str) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise KernelDomainError(f"{name} must be a non-negative integer, got {n!r}")
    return n


def cheb_t(n: int, x) -> complex:
    """T_n(x) by the three-term recurrence T_{n+1} = 2x T_n - T_{n-1}."""
    n = _as_index(n, "n")
    return _grow_row([1.0 + 0.0j], complex(x), n)[n]


def _grow_row(row: list, x: complex, n_max: int) -> list:
    """Extend ``row = [T_0(x), ..., T_m(x)]`` in place through T_{n_max}(x).

    ``row`` must hold at least T_0 = 1; it is returned for chaining.
    """
    while len(row) <= n_max:
        row.append(2.0 * x * row[-1] - row[-2] if len(row) > 1 else x)
    return row


@dataclass(frozen=True)
class ShellCoefficient:
    """One shell q of the convolution, C_q = sum_n T_n(alpha) T_{q-n}(beta)."""

    q: int
    value: complex


# Shells below this come from the pairwise convolution, so every sum that
# stops by shell 15 (exact orders up to 15 among them) keeps the
# convolution's values bit for bit; the recurrence starts from its last two.
_DIRECT_SHELLS = 16


def _shell_value(q: int, ta: list, tb: list) -> complex:
    # Pairs (n, q-n) and (q-n, n) are summed together so that swapping
    # alpha and beta permutes commutative operations only: the result is
    # bit-identical under the swap.
    total = 0.0 + 0.0j
    for n in range(q // 2 if q % 2 == 0 else (q + 1) // 2):
        total += ta[n] * tb[q - n] + ta[q - n] * tb[n]
    if q % 2 == 0:
        total += ta[q // 2] * tb[q // 2]
    return total


def _shell_stream(alpha: complex, beta: complex):
    """Yield C_0, C_1, C_2, ... at (alpha, beta), without end.

    The shells' generating function is the product of the two Chebyshev
    ones, so (1 - 2 beta t + t^2) sum_q C_q t^q = (1 - beta t) sum_n
    T_n(alpha) t^n, and C obeys

        u_{q+1} = 2 beta u_q - u_{q-1} + T_{q+1}(alpha) - beta T_q(alpha),

    as well as v, the same with alpha and beta exchanged.  Past the direct
    start both run from its last two shells and the stream yields
    (u + v) / 2: swapping alpha and beta exchanges u and v, so C_q stays
    bit-identical under the swap.  Unlike the four-term recurrence on C
    alone, neither loses accuracy where the roots of the two factors
    nearly coincide.
    """
    ta, tb = [1.0 + 0.0j], [1.0 + 0.0j]
    c0 = c1 = 0.0 + 0.0j
    for q in range(_DIRECT_SHELLS):
        c0, c1 = c1, _shell_value(q, _grow_row(ta, alpha, q), _grow_row(tb, beta, q))
        yield c1
    u0 = v0 = c0
    u1 = v1 = c1
    # T_{q-1} and T_q of each argument, for the next shell q
    a0, a1 = _grow_row(ta, alpha, _DIRECT_SHELLS)[-2:]
    b0, b1 = _grow_row(tb, beta, _DIRECT_SHELLS)[-2:]
    two_a, two_b = 2.0 * alpha, 2.0 * beta
    while True:
        u0, u1 = u1, two_b * u1 - u0 + a1 - beta * a0
        v0, v1 = v1, two_a * v1 - v0 + b1 - alpha * b0
        yield 0.5 * (u1 + v1)
        a0, a1 = a1, two_a * a1 - a0
        b0, b1 = b1, two_b * b1 - b0


def shell_coeff(q: int, alpha, beta) -> ShellCoefficient:
    """Convolution coefficient for shell q at (alpha, beta), read off the stream."""
    q = _as_index(q, "q")
    shells = _shell_stream(complex(alpha), complex(beta))
    return ShellCoefficient(q=q, value=next(islice(shells, q, None)))


def shell_values(q_max: int, alpha, beta) -> list:
    """All shell coefficients C_0..C_{q_max} from one pass of the stream.

    O(q_max) total; coefficients are never memoized across calls.
    """
    q_max = _as_index(q_max, "q_max")
    return list(islice(_shell_stream(complex(alpha), complex(beta)), q_max + 1))


def growth_radius(x) -> float:
    """rho(x) = modulus of the larger root of t^2 - 2xt + 1.

    |T_n(x)| grows like rho(x)^n; the series engine compares this against
    |a pi| to decide whether shells can decay at all.
    """
    x = complex(x)
    w = x + csqrt(x * x - 1.0)
    r = abs(w)
    if r == 0.0:  # x*x == 1 rounds the root to 0 only if x == 0; guard anyway
        return 1.0
    return max(r, 1.0 / r)
