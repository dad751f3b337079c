"""Uniform periodic axes and phase-space grids.

All solvers in this package work on FFT-ready axes: ``n`` a power of two,
points covering ``[center - length/2, center + length/2)`` with the right
edge open, and an implied spectral axis of spacing ``2*pi/length``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import GridError, check_count, check_positive

__all__ = ["AxisGrid", "PhaseGrid"]


def _is_point_count(n: int) -> bool:
    """Whether ``n`` is a power of two, at least 8: the axis sizes every solver takes."""
    return n >= 8 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class AxisGrid:
    """Uniform periodic axis.

    Parameters
    ----------
    n : int
        Number of points, a power of two, at least 8.
    length : float
        Domain length (positive). The grid covers
        ``[center - length/2, center + length/2)``.
    center : float, optional
        Domain midpoint.
    """

    n: int
    length: float
    center: float = 0.0

    def __post_init__(self):
        # No lower bound here: every integer that is not a power of two >= 8 gets one message.
        n = check_count(self.n, "axis point count", -math.inf, GridError)
        if not _is_point_count(n):
            raise GridError(f"axis point count must be a power of two >= 8, got {n}")
        length = check_positive("axis length", self.length, GridError)
        if not math.isfinite(self.center):
            raise GridError(f"axis center must be finite, got {self.center}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "center", float(self.center))

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def points(self) -> np.ndarray:
        """Grid points, ascending; the right domain edge is excluded."""
        return self.center - 0.5 * self.length + self.spacing * np.arange(self.n)

    def frequencies(self) -> np.ndarray:
        """Angular frequencies of the conjugate spectral axis, FFT order.

        Spacing is ``2*pi/length`` and the extreme value is ``-pi/spacing``.
        """
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)


@dataclass(frozen=True)
class PhaseGrid:
    """Tensor product of a position axis and a momentum axis.

    Grid functions are stored as arrays of shape ``(x_axis.n, p_axis.n)``
    with x along rows.
    """

    x_axis: AxisGrid
    p_axis: AxisGrid

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x_axis.n, self.p_axis.n)

    @property
    def cell_area(self) -> float:
        return self.x_axis.spacing * self.p_axis.spacing

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable (column x, row p) coordinate arrays."""
        return self.x_axis.points()[:, None], self.p_axis.points()[None, :]
