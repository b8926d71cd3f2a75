"""Shell-ordered double Chebyshev series and its incomplete-gamma closed form.

The package computes one number three independent ways: a truncated or
exactly terminating series over Chebyshev shells, an assembled closed
form built from upper incomplete gamma functions, and the sum of the
twelve addends the closed form decomposes into.  Reference formulas for
the degenerate limits, the angle-coordinate variant, and several fixed
evaluation points round out the verification surface; the ``chebgamma``
console script drives batch checks and parameter sweeps.

The package exports every name that ``chebyshev``, ``closedform``,
``complexfn``, ``errors``, ``series`` and ``sweep`` list in their
``__all__``; that list is the only place a public name is written.
The verification harness (``chebgamma.harness``, with ``json`` and
``hashlib`` behind it) loads on first use: its six re-exported names
(``_HARNESS_NAMES``, listed here so that naming them imports nothing)
and the submodule itself resolve through the module ``__getattr__``, so
that importing the package, evaluating a point or running a sweep does
not pay for it.
"""

from . import chebyshev, closedform, complexfn, errors, series, sweep
from .chebyshev import *
from .closedform import *
from .complexfn import *
from .errors import *
from .series import *
from .sweep import *

__version__ = "0.1.0"

# Names re-exported from the verification harness, imported on first use.
_HARNESS_NAMES = frozenset(
    ("CaseReport", "VerificationCase", "case_ids", "compare", "run_all", "run_case"))

__all__ = sorted({
    *chebyshev.__all__, *closedform.__all__, *complexfn.__all__,
    *errors.__all__, *series.__all__, *sweep.__all__,
    *_HARNESS_NAMES, "__version__"})


def __getattr__(name):
    if name == "harness" or name in _HARNESS_NAMES:
        # import_module, not "from . import harness": that form looks the
        # name up on this package first and would land here again.
        from importlib import import_module
        harness = import_module(".harness", __name__)
        return harness if name == "harness" else getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HARNESS_NAMES, "harness"})
