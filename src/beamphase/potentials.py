"""Polynomial potentials with z-dependent coefficients.

A potential is a finite sum ``U(x, z) = sum_k c_k(z) * x**k`` where each
coefficient follows a profile in z (constant, piecewise-constant lattice, or
harmonic modulation).  The Moyal kick generator

    G(x, y, z) = [U(x + eps*y/2, z) - U(x - eps*y/2, z)] / eps

is evaluated in closed form through the binomial shift expansion

    G = sum_{j odd} 2 * (eps/2)**j / eps * S_j(x, z) * y**j,
    S_j(x, z) = U^(j)(x, z) / j! = sum_k C(k, j) * c_k(z) * x**(k-j),

so no numerical differencing is involved, the series terminates at the
polynomial degree, and truncating at order 1 reproduces the classical
Liouville generator U'(x) * y with bit-identical arithmetic to
``eval_gradient(spec, x, z) * y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import BeamPhaseError, check_count, check_positive

__all__ = [
    "ConstantProfile",
    "PiecewiseProfile",
    "HarmonicProfile",
    "PotentialSpec",
    "free_space",
    "linear_lens",
    "quartic_channel",
    "eval_potential",
    "eval_gradient",
    "moyal_generator",
    "moyal_generator_truncated",
]


@dataclass(frozen=True)
class ConstantProfile:
    """Coefficient that does not depend on z."""

    value: float

    def __call__(self, z: float) -> float:
        return self.value


@dataclass(frozen=True)
class PiecewiseProfile:
    """Piecewise-constant coefficient, e.g. a lattice of discrete elements.

    ``breaks`` is a sorted tuple of (z_start, value) pairs; the value of the
    first pair also applies before its z_start, and the last value holds to
    infinity.
    """

    breaks: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.breaks:
            raise BeamPhaseError("piecewise profile needs at least one segment")
        zs = [z for z, _ in self.breaks]
        if any(b <= a for a, b in zip(zs, zs[1:])):
            raise BeamPhaseError("piecewise profile breakpoints must be strictly increasing")
        object.__setattr__(self, "breaks", tuple((float(z), float(v)) for z, v in self.breaks))

    def __call__(self, z: float) -> float:
        value = self.breaks[0][1]
        for z_start, v in self.breaks:
            if z < z_start:
                break
            value = v
        return value


@dataclass(frozen=True)
class HarmonicProfile:
    """Coefficient modulated as ``amplitude * cos(omega * z + phase)``."""

    amplitude: float
    omega: float
    phase: float = 0.0

    def __call__(self, z: float) -> float:
        return self.amplitude * math.cos(self.omega * z + self.phase)


@dataclass(frozen=True)
class PotentialSpec:
    """Polynomial potential: tuple of (power, coefficient profile) terms."""

    terms: tuple[tuple[int, object], ...]

    def __post_init__(self):
        cleaned = []
        seen = set()
        for power, profile in self.terms:
            power = check_count(power, "potential power", 0, BeamPhaseError)
            if power in seen:
                raise BeamPhaseError(f"duplicate potential power {power}")
            if not callable(profile):
                raise BeamPhaseError(f"coefficient profile for x**{power} is not callable")
            seen.add(power)
            cleaned.append((power, profile))
        cleaned.sort(key=lambda t: t[0])
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def is_static(self) -> bool:
        """True when no coefficient depends on z."""
        return all(isinstance(profile, ConstantProfile) for _, profile in self.terms)

    @property
    def kick_is_classical(self) -> bool:
        """True when the Moyal kick equals the classical (Liouville) kick bit for bit.

        The shift series of the generator holds odd orders up to the degree,
        so for a degree of at most 2 it holds only the order-1 term:
        ``moyal_generator`` is then ``moyal_generator_truncated(..., 1)``
        bit for bit, and the deformed and classical transport of a density
        are the same map.  This covers all of linear beam optics (drifts,
        quadrupole lenses, FODO cells).  The generator is then
        ``U'(x) y``, so the kick ``exp(i dz G)`` has rank one in y: the
        grid solver builds it from the gradient alone.
        """
        return self.degree <= 2

    @property
    def degree(self) -> int:
        """Highest power with a term; -1 for the empty (free-space) spec."""
        return self.terms[-1][0] if self.terms else -1

    def coefficients(self, z: float) -> np.ndarray:
        """Dense coefficient array c[0..degree] at a given z."""
        c = np.zeros(self.degree + 1)
        for power, profile in self.terms:
            c[power] = profile(z)
        return c


def free_space() -> PotentialSpec:
    """No potential at all."""
    return PotentialSpec(())


def linear_lens(k_strength: float) -> PotentialSpec:
    """Linear focusing channel, U = K * x**2 / 2."""
    if not math.isfinite(k_strength):
        raise BeamPhaseError(f"lens strength must be finite, got {k_strength}")
    return PotentialSpec(((2, ConstantProfile(k_strength / 2.0)),))


def quartic_channel(k_strength: float, lambda4: float) -> PotentialSpec:
    """Quartic anharmonic channel, U = K * x**2 / 2 + lambda4 * x**4."""
    if not (math.isfinite(k_strength) and math.isfinite(lambda4)):
        raise BeamPhaseError(
            f"channel coefficients must be finite, got K={k_strength}, lambda={lambda4}"
        )
    return PotentialSpec(
        ((2, ConstantProfile(k_strength / 2.0)), (4, ConstantProfile(lambda4)))
    )


def _horner(coeffs: np.ndarray, x):
    """Evaluate sum_k coeffs[k] * x**k by Horner's rule (vectorized in x).

    Each stage updates one fresh array in place (``r *= x; r += c``): the
    same floating-point operations as ``r = r * x + c`` without a temporary
    per stage.  ``x`` is never written to; a scalar ``x`` gives a numpy scalar.
    """
    x = np.asarray(x, dtype=float)
    result = np.full_like(x, coeffs[-1] if len(coeffs) else 0.0)
    for c in coeffs[-2::-1]:
        result *= x
        result += c
    return result[()] if result.ndim == 0 else result


def _divided_derivative_coeffs(coeffs: np.ndarray, j: int) -> np.ndarray:
    """Coefficients of U^(j)(x)/j! = sum_k C(k, j) c_k x**(k-j)."""
    k = np.arange(j, len(coeffs))
    return np.array([math.comb(int(kk), j) for kk in k]) * coeffs[j:]


def eval_potential(spec: PotentialSpec, x, z: float):
    """U(x, z) for scalar or array x."""
    return _horner(spec.coefficients(z), x)


def eval_gradient(spec: PotentialSpec, x, z: float):
    """dU/dx(x, z) for scalar or array x."""
    return _horner(_divided_derivative_coeffs(spec.coefficients(z), 1), x)


def _shift_series(spec, x, y, z, epsilon, max_order=None, min_order=1):
    """Sum of the shift expansion over odd orders ``min_order <= j <= max_order``.

    ``max_order = None`` runs to the polynomial degree, where the series
    ends; a range holding no order of the spec gives zeros.
    """
    epsilon = check_positive("epsilon", epsilon, BeamPhaseError)
    coeffs = spec.coefficients(z)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    top = spec.degree if max_order is None else min(spec.degree, max_order)
    half = 0.5 * epsilon
    y_sq = y * y
    y_pow = y.astype(float)
    for j in range(1, top + 1, 2):
        if j >= min_order:
            alpha = 2.0 * half**j / epsilon
            s_j = _horner(_divided_derivative_coeffs(coeffs, j), x)
            out = out + alpha * s_j * y_pow
        y_pow = y_pow * y_sq
    return out


def moyal_generator(spec: PotentialSpec, x, y, z: float, epsilon: float):
    """Full kick generator G(x, y, z) = [U(x+eps*y/2) - U(x-eps*y/2)]/eps.

    ``x`` and ``y`` may be broadcastable arrays (typically a column of
    positions against a row of spectral frequencies conjugate to p).  The
    shift expansion terminates at the polynomial degree, so the value is
    exact up to round-off.
    """
    return _shift_series(spec, x, y, z, epsilon)


def moyal_generator_truncated(
    spec: PotentialSpec, x, y, z: float, epsilon: float, max_order: int
):
    """Kick generator truncated at odd order ``max_order`` in the shift.

    ``max_order = 1`` is the classical Liouville generator and returns
    exactly ``eval_gradient(spec, x, z) * y``.
    """
    max_order = check_count(max_order, "max_order", 1, BeamPhaseError)
    if max_order % 2 == 0:
        raise BeamPhaseError(f"max_order must be odd, got {max_order}")
    return _shift_series(spec, x, y, z, epsilon, max_order)
