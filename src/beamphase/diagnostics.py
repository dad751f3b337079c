"""Beam moments, emittance, uncertainty and deformation diagnostics.

Second moments are always central; the means are recorded alongside.  The
rms emittance is

    emittance = 2 * sqrt(<x^2><p^2> - <xp>^2)

(central moments), which for a thermal beam equals ``2 * (v_th/c) * sigma0``
and bounds the uncertainty product through ``sigma_x sigma_p >= emittance/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import BeamPhaseError, StateError, check_positive
from .grids import AxisGrid
from .potentials import PotentialSpec, _shift_series, eval_gradient
from .states import QuasiDistribution, RayEnsemble, WaveField, _check_norm

__all__ = [
    "BeamMoments",
    "NegativityReport",
    "ThermalEmittance",
    "UncertaintyReport",
    "moments_of",
    "emittance_from_thermal",
    "uncertainty_check",
    "negativity",
    "truncation_ratio",
]


@dataclass(frozen=True)
class BeamMoments:
    """First and central second moments of a beam at a given z."""

    z: float
    mean_x: float
    mean_p: float
    sigma_x: float
    sigma_p: float
    sigma_xp: float
    emittance: float

    @property
    def uncertainty_product(self) -> float:
        return self.sigma_x * self.sigma_p


@dataclass(frozen=True)
class NegativityReport:
    """How far a quasi-density departs from a classical one."""

    min_value: float
    negative_mass: float
    negativity_volume: float


@dataclass(frozen=True)
class ThermalEmittance:
    """Emittance and deformation parameter of a thermal beam."""

    epsilon: float
    eta: float
    paraxial_warning: bool


@dataclass(frozen=True)
class UncertaintyReport:
    product: float
    bound: float
    satisfied: bool


def _beam_moments(z, mean_x, mean_p, var_x, var_p, cov_xp) -> BeamMoments:
    # Cauchy-Schwarz keeps the radicand >= 0 for any genuine density; only
    # round-off (about -1e-14 at worst in practice) can push it below, so
    # every negative radicand is clamped to 0.
    radicand = var_x * var_p - cov_xp * cov_xp
    if not all(map(math.isfinite, (mean_x, mean_p, var_x, var_p, cov_xp, radicand))):
        raise StateError("beam moments are not finite: the state holds values too large to measure")
    emittance = 2.0 * math.sqrt(max(radicand, 0.0))
    return BeamMoments(z, mean_x, mean_p, math.sqrt(var_x), math.sqrt(var_p), cov_xp, emittance)


def _grid_central(
    values: np.ndarray, x: np.ndarray, p: np.ndarray, cell_area: float
) -> tuple[float, ...]:
    """Central moments ``(mean_x, mean_p, var_x, var_p, cov_xp)`` of a density; checks its mass."""
    total = float(values.sum())
    _check_norm(total * cell_area, "density mass")
    w_x = values.sum(axis=1)
    w_p = values.sum(axis=0)
    # Axes past the float range overflow these; ``_beam_moments`` refuses the result.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_x = float(w_x @ x) / total
        mean_p = float(w_p @ p) / total
        dx = x - mean_x
        dp = p - mean_p
        var_x = float(w_x @ dx**2) / total
        var_p = float(w_p @ dp**2) / total
        cov_xp = float(dx @ values @ dp) / total
    return mean_x, mean_p, var_x, var_p, cov_xp


def _drifted(central: tuple, t: float) -> tuple[float, ...]:
    """Central moments carried by the free drift ``x <- x + t p``, the classical drift law."""
    mean_x, mean_p, var_x, var_p, cov_xp = central
    var_x += t * (2.0 * cov_xp + t * var_p)
    return mean_x + t * mean_p, mean_p, var_x, var_p, cov_xp + t * var_p


class _WavefieldMoments:
    """Moments of wavefield arrays on one grid at one epsilon; checks the norm.

    The grid points, spectral derivative factor and momenta are built once.
    ``central`` measures one field from its spectrum, so a caller that holds
    the spectrum already transforms only for the derivative.
    """

    def __init__(self, grid: AxisGrid, eps: float):
        self.spacing = grid.spacing
        self.eps = eps
        self.x = grid.points()
        k = grid.frequencies()
        self.ik = 1j * k
        # The momentum axis conjugate to a power-of-two grid, centred at 0, is
        # eps * k up to a cyclic shift, so |FFT|^2 in FFT order is the
        # momentum density up to a constant factor that the moments divide out.
        self.p = eps * k

    def __call__(self, values: np.ndarray, z: float) -> BeamMoments:
        return _beam_moments(z, *self.central(values, np.fft.fft(values)))

    def central(self, values: np.ndarray, spectrum: np.ndarray) -> tuple[float, ...]:
        """``(mean_x, mean_p, var_x, var_p, cov_xp)`` of ``values``, whose ``fft`` is ``spectrum``.

        The norm is checked first, so a non-finite field is refused without a warning.
        """
        x, p = self.x, self.p
        with np.errstate(over="ignore", invalid="ignore"):  # the norm check reports a bad field
            density = np.abs(values) ** 2
            norm = float(density.sum())
        _check_norm(norm * self.spacing, "wavefield norm")
        mean_x = float(density @ x) / norm
        var_x = float(density @ (x - mean_x) ** 2) / norm
        p_density = np.abs(spectrum) ** 2
        p_norm = float(p_density.sum())
        mean_p = float(p_density @ p) / p_norm
        var_p = float(p_density @ (p - mean_p) ** 2) / p_norm
        # <xp + px>/2 via the eps-scaled probability current J = eps*Im(Psi* Psi').
        derivative = np.fft.ifft(self.ik * spectrum)
        current = self.eps * np.multiply(np.conj(values), derivative, out=derivative).imag
        cov_xp = float(current @ x) / norm - mean_x * mean_p
        return mean_x, mean_p, var_x, var_p, cov_xp


def _ray_moments(x: np.ndarray, p: np.ndarray, z: float) -> BeamMoments:
    """Moments of position and momentum samples (at least two rays).

    Two scratch arrays hold the deviations, their squares and their product,
    each formed in place by the same ufunc as ``dx**2`` and ``dx * dp``.
    """
    if x.size < 2:
        raise StateError("ray moments need at least two rays")
    with np.errstate(over="ignore", invalid="ignore"):  # _beam_moments reports overflow
        mean_x = float(x.mean())
        mean_p = float(p.mean())
        dx = np.subtract(x, mean_x)
        scratch = np.square(dx)
        var_x = float(scratch.mean())
        dp = np.subtract(p, mean_p, out=scratch)
        cov_xp = float(np.multiply(dx, dp, out=dx).mean())
        var_p = float(np.square(dp, out=dp).mean())
    return _beam_moments(z, mean_x, mean_p, var_x, var_p, cov_xp)


def moments_of(state) -> BeamMoments:
    """Beam moments of any representation.

    For a :class:`WaveField`, ``sigma_p`` comes from the momentum
    representation and ``sigma_xp`` from the eps-scaled probability current,
    so all three representations of the same beam agree on every entry.
    """
    if isinstance(state, QuasiDistribution):
        x, p = state.grid.x_axis.points(), state.grid.p_axis.points()
        return _beam_moments(state.z, *_grid_central(state.values, x, p, state.grid.cell_area))
    if isinstance(state, WaveField):
        return _WavefieldMoments(state.grid, state.epsilon)(state.values, state.z)
    if isinstance(state, RayEnsemble):
        return _ray_moments(state.positions, state.momenta, state.z)
    raise TypeError(f"cannot take beam moments of {type(state).__name__}")


def emittance_from_thermal(vth_over_c: float, sigma0: float) -> ThermalEmittance:
    """Map a thermal speed ratio and source width to an rms emittance.

    ``emittance = 2 * vth_over_c * sigma0`` and ``eta = vth_over_c``; the
    paraxial flag warns when ``vth_over_c`` exceeds 0.1.
    """
    check_positive("vth_over_c", vth_over_c, StateError)
    check_positive("sigma0", sigma0, StateError)
    return ThermalEmittance(
        epsilon=2.0 * vth_over_c * sigma0,
        eta=vth_over_c,
        paraxial_warning=vth_over_c > 0.1,
    )


def uncertainty_check(moments: BeamMoments, epsilon: float) -> UncertaintyReport:
    """Check sigma_x * sigma_p >= epsilon / 2 (up to 1e-9 relative slack)."""
    product = moments.sigma_x * moments.sigma_p
    bound = 0.5 * check_positive("epsilon", epsilon, BeamPhaseError)
    return UncertaintyReport(product, bound, product >= bound * (1.0 - 1e-9))


def negativity(state: QuasiDistribution) -> NegativityReport:
    """Pointwise minimum, integrated negative mass, and negativity volume.

    ``negativity_volume = (integral |rho| - integral rho) / integral rho``,
    which is zero exactly when no cell is negative.
    """
    values = state.values
    cell = state.grid.cell_area
    total = float(values.sum()) * cell
    # Subtracting from 0.0 (rather than negating) avoids the negative zero
    # an all-positive density would otherwise report.
    negative = 0.0 - float(np.clip(values, None, 0.0).sum()) * cell
    return NegativityReport(
        min_value=float(values.min()),
        negative_mass=negative,
        negativity_volume=2.0 * negative / total,
    )


def _l2_norm(values: np.ndarray) -> float:
    # Elementwise, not np.linalg.norm: the BLAS call is sometimes 20x slower.
    return float(np.sqrt((np.abs(values) ** 2).sum()))


def truncation_ratio(
    state: QuasiDistribution, spec: PotentialSpec, epsilon: float
) -> float:
    """Size of the deformation beyond the classical generator.

    Returns ``||(G - G1) * rho_tilde||_2 / ||G1 * rho_tilde||_2`` over the
    (x, y) grid, y being the spectral conjugate of p.  For potentials of
    degree <= 2 the numerator vanishes identically and the ratio is exactly
    0; for a force-free state the denominator vanishes and the ratio is
    undefined, returned as ``nan``.  Scales as epsilon**2 for a quartic
    potential (the series terminates at the cubic shift term).
    """
    epsilon = check_positive("epsilon", epsilon, BeamPhaseError)
    if spec.degree < 1:
        # Free space or a constant potential: no force anywhere, so G1 = 0.
        return float("nan")
    x = state.grid.x_axis.points()[:, None]
    y = state.grid.p_axis.frequencies()[None, :]
    z = state.z
    if spec.kick_is_classical:
        # The numerator vanishes, so only a vanishing denominator (nan) is
        # left to find.  Its terms are non-negative, so it vanishes when
        # every term does; row by row, the first row with a nonzero term
        # settles it without the whole-grid temporaries.
        for slope, row in zip(eval_gradient(spec, x, z), state.values):
            if (np.abs(slope * y[0] * np.fft.fft(row)) ** 2).any():
                return 0.0
        return float("nan")
    rho_tilde = np.fft.fft(state.values, axis=1)
    g1 = eval_gradient(spec, x, z) * y
    denom = _l2_norm(g1 * rho_tilde)
    if denom == 0.0:
        return float("nan")
    # The classical part of the closed-form series is bit-identical to g1,
    # so G - G1 is formed directly as the partial sum from order 3 up; no
    # cancellation noise enters.
    residual = _shift_series(spec, x, y, z, epsilon, min_order=3)
    return _l2_norm(residual * rho_tilde) / denom
