"""Exception taxonomy for beamphase, and the input rules every module shares.

Configuration problems (bad scenario files, bad CLI input) raise
:class:`ConfigError`, which the CLI maps to exit code 2.  Everything else
derives from :class:`BeamPhaseError` and maps to exit code 1.

:func:`check_positive`, :func:`check_finite` and :func:`check_count`
validate library inputs at the boundary; each raises its caller's error
type, so a grid refuses with :class:`GridError`, a plan with :class:`SolverError`.
"""

import math
from numbers import Integral, Real


class BeamPhaseError(Exception):
    """Base class for all beamphase errors."""


class GridError(BeamPhaseError, ValueError):
    """Invalid grid construction (point count, length, coverage)."""


class StateError(BeamPhaseError, ValueError):
    """Invalid state payload: shape, normalization, finiteness, positivity."""


class SamplingError(BeamPhaseError, ValueError):
    """Ray sampling refused (negative mass, wrong kind, bad count)."""


class SolverError(BeamPhaseError, RuntimeError):
    """A propagation step violated one of its guards."""


class TransformError(BeamPhaseError, ValueError):
    """A spectral transform could not meet its contract."""


class ConfigError(BeamPhaseError, ValueError):
    """Scenario file or CLI input failed validation."""


def check_positive(name: str, value, error: type[BeamPhaseError]) -> float:
    """``value`` as a float; raises ``error`` unless it is a positive, finite real number."""
    if not (isinstance(value, Real) and math.isfinite(value) and value > 0.0):
        raise error(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def check_finite(name: str, value, error: type[BeamPhaseError]) -> float:
    """``value`` as a float; raises ``error`` unless it is a finite real number."""
    if not (isinstance(value, Real) and math.isfinite(value)):
        raise error(f"{name} must be finite, got {value!r}")
    return float(value)


def check_count(value, name: str, minimum: int, error: type[BeamPhaseError]) -> int:
    """``value`` as an int; raises ``error`` unless it is an integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return int(value)
