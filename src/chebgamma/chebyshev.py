"""Chebyshev polynomials of the first kind and shell convolution coefficients.

The double series this package evaluates couples two Chebyshev families
through the total degree q = n + p; collapsing the double sum to a single
sum needs the per-shell convolution C_q = sum_{n=0}^{q} T_n(alpha)
T_{q-n}(beta).  Everything here accepts arbitrary complex argument: the
three-term recurrence is forward-stable for the growing branch, which is
exactly what arguments outside [-1, 1] need.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def shell_coeff(q: int, alpha, beta) -> ShellCoefficient:
    """Convolution coefficient for shell q at (alpha, beta)."""
    q = _as_index(q, "q")
    alpha = complex(alpha)
    beta = complex(beta)
    ta = _grow_row([1.0 + 0.0j], alpha, q)
    tb = _grow_row([1.0 + 0.0j], beta, q)
    return ShellCoefficient(q=q, value=_shell_value(q, ta, tb))


def shell_values(q_max: int, alpha, beta) -> list:
    """All shell coefficients C_0..C_{q_max} sharing one recurrence pass.

    O(q_max^2) total; coefficients are never memoized across calls.
    """
    q_max = _as_index(q_max, "q_max")
    alpha = complex(alpha)
    beta = complex(beta)
    ta = _grow_row([1.0 + 0.0j], alpha, q_max)
    tb = _grow_row([1.0 + 0.0j], beta, q_max)
    return [_shell_value(q, ta, tb) for q in range(q_max + 1)]


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
