"""Warning-flag plumbing.

Kernels never raise on exponent over/underflow; they saturate and record a
flag.  Callers that want to see flags (series engine, harness, sweep rows)
open a ``collect()`` scope; flags raised anywhere below land in every open
scope.  Scopes nest and are context-local (one ContextVar holds the tuple
of open sinks), so a flag raised in another thread or in a copied context
stays there, and a scope closes even when its block raises.
"""

from __future__ import annotations

import cmath
from contextvars import ContextVar

OVERFLOW_SATURATION = "overflow-saturation"
NOT_IN_ASYMPTOTIC_REGIME = "not-in-asymptotic-regime"
BRANCH_SENSITIVE = "branch-sensitive"

_scopes: ContextVar[tuple] = ContextVar("chebgamma_flag_scopes", default=())


def flag(name: str) -> None:
    """Record *name* in every currently open collect() scope."""
    for sink in _scopes.get():
        sink.add(name)


def checked(value: complex) -> complex:
    """Return *value*, flagging overflow-saturation when it is not finite."""
    if not cmath.isfinite(value):
        flag(OVERFLOW_SATURATION)
    return value


class collect:
    """A flag scope: ``with collect() as seen`` gathers in the set ``seen``
    every flag raised inside, until the block exits, normally or not.

    A slotted class, not a generator context manager: sweeps and the
    harness open one scope per point, so entering and leaving are kept to
    one ContextVar set and reset each.
    """

    __slots__ = ("_token",)

    def __enter__(self) -> set:
        sink: set = set()
        self._token = _scopes.set(_scopes.get() + (sink,))
        return sink

    def __exit__(self, *exc_info) -> None:
        _scopes.reset(self._token)
