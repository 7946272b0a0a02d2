"""Exception types shared across the package."""


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
