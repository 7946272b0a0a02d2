"""Exception types shared across the package, and the key check of config blocks."""

from dataclasses import fields


class TrexlabError(Exception):
    """Base class for all package-specific errors."""


class ZeroColumnError(TrexlabError, ValueError):
    """A design-matrix column is identically zero and cannot be normalized."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} of the design matrix is identically zero")


class NotNormalizedError(TrexlabError, ValueError):
    """A solver received a problem whose columns are not sqrt(n)-normalized."""


class DimensionError(TrexlabError, ValueError):
    """Shapes of inputs do not agree."""


class DomainError(TrexlabError, ValueError):
    """A point lies outside the open domain of a quadratic-over-linear objective."""


class DegenerateResidualError(TrexlabError, ValueError):
    """The dual norm of the residual correlation vanished at the optimum.

    The ratio objective is undefined there; the constrained solver variant or a
    rescaled problem is the usual remedy.
    """


class ConfigError(TrexlabError, ValueError):
    """Invalid solver or experiment configuration."""


def config_block(d, cls, what: str, required=()) -> dict:
    """Return ``d`` after checking that it is a JSON object whose keys all name
    fields of the dataclass ``cls`` and include every key in ``required``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"{what} lacks required keys: {missing}")
    return d
