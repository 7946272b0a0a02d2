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
    """An invalid setting or argument value: a solver or experiment
    configuration, a penalty level, a sample count, non-finite data."""


# the JSON values a dataclass field of each annotated type accepts
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool,
               "tuple": list}


def _json_kind(value, kinds) -> bool:
    """Whether a JSON value is of ``kinds``; a bool is no number, and an int
    field takes an integral float."""
    if isinstance(value, bool):
        return kinds is bool
    if kinds is int and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, kinds)


def config_block(d, cls, what: str, required=(), items=None) -> dict:
    """Return ``d`` after checking that it is a JSON object whose keys all name
    fields of the dataclass ``cls`` and include every key in ``required``.

    The value of a field annotated int, float, str, bool or tuple must be a
    JSON integer, number, string, boolean or array (None only where the
    field's default is None), and ``items`` maps array fields to the type of
    their elements.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"{what} lacks required keys: {missing}")
    for f in fields(cls):
        kinds = _JSON_TYPES.get(f.type)
        value = d.get(f.name)
        if kinds is None or value is None and (f.name not in d or f.default is None):
            continue
        if not _json_kind(value, kinds):
            expected = "an array" if kinds is list else f"of type {f.type}"
            raise ConfigError(f"{what} {f.name} must be {expected}, got {value!r}")
        inner = (items or {}).get(f.name)
        if inner is not None and not all(_json_kind(v, inner) for v in value):
            raise ConfigError(f"{what} {f.name} has an element of the wrong type: "
                              f"{value!r}")
    return d
