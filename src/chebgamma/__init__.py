"""Shell-ordered double Chebyshev series and its incomplete-gamma closed form.

The package computes one number three independent ways: a truncated or
exactly terminating series over Chebyshev shells, an assembled closed
form built from upper incomplete gamma functions, and the sum of the
twelve addends the closed form decomposes into.  Reference formulas for
the degenerate limits, the angle-coordinate variant, and several fixed
evaluation points round out the verification surface; the ``chebgamma``
console script drives batch checks and parameter sweeps.

The verification harness (``chebgamma.harness``, with ``json`` and
``hashlib`` behind it) loads on first use: its six re-exported names and
the submodule itself resolve through the module ``__getattr__``, so that
importing the package, evaluating a point or running a sweep does not
pay for it.
"""

from .chebyshev import cheb_t, growth_radius, shell_coeff, shell_values
from .closedform import (
    TWELVE_TERMS,
    ContourTermSpec,
    LimitSpec,
    closed_form,
    closed_form_cos,
    contour_term,
    diff_closed_form,
    erfc_product_value,
    golden_ratio_value,
    limit_eval,
    prop1_value,
)
from .complexfn import (
    analytic_continuation_gamma,
    erfc_complex,
    exp_integral_e,
    gamma_fn,
    log_gamma,
    lower_gamma,
    pochhammer_recip,
    upper_gamma,
)
from .errors import (
    ConfigError,
    KernelDomainError,
    NonConvergenceError,
    PoleError,
    SingularParameterError,
)
from .series import (
    SeriesParams,
    SeriesResult,
    TruncationPolicy,
    difference_series,
    series_sum,
    series_terminates,
)
from .sweep import SweepConfig, SweepSummary, parse_sweep_config, run_sweep

__version__ = "0.1.0"

# Names re-exported from the verification harness, imported on first use.
_HARNESS_NAMES = frozenset(
    ("CaseReport", "VerificationCase", "case_ids", "compare", "run_all", "run_case"))

__all__ = [
    "CaseReport",
    "ConfigError",
    "ContourTermSpec",
    "KernelDomainError",
    "LimitSpec",
    "NonConvergenceError",
    "PoleError",
    "SeriesParams",
    "SeriesResult",
    "SingularParameterError",
    "SweepConfig",
    "SweepSummary",
    "TWELVE_TERMS",
    "TruncationPolicy",
    "VerificationCase",
    "analytic_continuation_gamma",
    "case_ids",
    "cheb_t",
    "closed_form",
    "closed_form_cos",
    "compare",
    "contour_term",
    "diff_closed_form",
    "difference_series",
    "erfc_complex",
    "erfc_product_value",
    "exp_integral_e",
    "gamma_fn",
    "golden_ratio_value",
    "growth_radius",
    "limit_eval",
    "log_gamma",
    "lower_gamma",
    "parse_sweep_config",
    "pochhammer_recip",
    "prop1_value",
    "run_all",
    "run_case",
    "run_sweep",
    "series_sum",
    "series_terminates",
    "shell_coeff",
    "shell_values",
    "upper_gamma",
    "__version__",
]


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
