"""Exception taxonomy shared across the package.

Every error raised on a contract violation derives from EvlhtsError so that
callers (and the CLI runner) can separate usage errors from genuine bugs.
"""


class EvlhtsError(Exception):
    """Base class for all package-level errors."""


class DomainError(EvlhtsError):
    """A point left the valid domain, or an argument is out of domain."""


class UnsupportedCombination(EvlhtsError):
    """A (map, measure) or (map, target) pairing has no defined semantics."""


class NotAttained(EvlhtsError):
    """quantile_radius hit a flat spot: no radius attains the requested mass."""


class OutOfRange(EvlhtsError):
    """Argument outside the domain/range of a shape function."""


class ZeroMassCylinder(EvlhtsError):
    """A cylinder carries zero mass, so its log-mass is undefined."""


class CapTooSmall(EvlhtsError):
    """Requested normalized time exceeds the censoring cap of the simulation."""


class InsufficientSample(EvlhtsError):
    """Too few observations for the requested statistic."""


class GridMismatch(EvlhtsError):
    """Evaluation grid falls outside the hull of the data grid."""


class ConfigError(EvlhtsError):
    """Invalid, unknown, or inconsistent configuration input."""
