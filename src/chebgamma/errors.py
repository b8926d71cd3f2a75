"""Exception types shared across the package."""

__all__ = ["ConfigError", "KernelDomainError", "NonConvergenceError", "PoleError",
           "SingularParameterError"]


class KernelDomainError(ValueError):
    """Input outside the domain a kernel accepts (non-finite, z = 0, ...)."""


class PoleError(KernelDomainError):
    """Evaluation requested at (or within snap distance of) a pole."""


class NonConvergenceError(RuntimeError):
    """An iterative scheme exhausted its budget without meeting tolerance."""


class SingularParameterError(ValueError):
    """Closed-form parameters inside the singular moat; use limit_eval instead."""


class ConfigError(ValueError):
    """A sweep configuration file failed to parse or validate."""
