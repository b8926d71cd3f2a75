"""Warning-flag plumbing.

Kernels never raise on exponent over/underflow; they saturate and record a
flag.  Callers that want to see flags (series engine, harness, sweep rows)
open a ``collect()`` scope; flags raised anywhere below land in every open
scope.  Scopes nest and are context-local, so threaded use stays isolated.
"""

from __future__ import annotations

import cmath
from contextlib import contextmanager
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


@contextmanager
def collect():
    """Open a scope; yields the set that accumulates flags raised inside."""
    sink: set = set()
    token = _scopes.set(_scopes.get() + (sink,))
    try:
        yield sink
    finally:
        _scopes.reset(token)
