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

from .exceptions import StateError, check_positive
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


def _grid_moments(
    values: np.ndarray, z: float, x: np.ndarray, p: np.ndarray, cell_area: float
) -> BeamMoments:
    """Moments of a density array on the grid with points ``x`` and ``p``; checks its mass."""
    total = float(values.sum())
    _check_norm(total * cell_area, "density mass")
    w_x = values.sum(axis=1)
    w_p = values.sum(axis=0)
    mean_x = float(w_x @ x) / total
    mean_p = float(w_p @ p) / total
    dx = x - mean_x
    dp = p - mean_p
    var_x = float(w_x @ dx**2) / total
    var_p = float(w_p @ dp**2) / total
    cov_xp = float(dx @ values @ dp) / total
    return _beam_moments(z, mean_x, mean_p, var_x, var_p, cov_xp)


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with ``b`` (one vector, or one per row).

    Stacked ``(B, 1, n) @ (n, 1)`` products equal each row's 1-D ``@`` bit
    for bit; the matrix-vector BLAS call of ``a @ b`` does not.
    """
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


class _WavefieldMoments:
    """Moments of wavefield arrays on one grid at one epsilon; checks the norm.

    The grid points, spectral derivative factor and momenta are built once.
    ``rows`` measures a block of fields at once from their spectra, with one
    batched inverse FFT for the derivative; ``finish`` checks one row's norm
    and builds its moments, so a caller that measures step by step still
    fails at the step whose field is bad.  Every row equals what the field
    alone gives, bit for bit.  A single field is a block of one.
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
        (row,) = self.rows(values[None], np.fft.fft(values)[None])
        return self.finish(row, z)

    def rows(self, values: np.ndarray, spectra: np.ndarray) -> list[tuple[float, ...]]:
        """``(norm, mean_x, mean_p, var_x, var_p, cov_xp)`` of each row of ``values``.

        ``spectra`` holds ``fft(values, axis=1)``.  Nothing is checked here:
        a non-finite row gives non-finite entries, which ``finish`` refuses.
        """
        x, p = self.x, self.p
        # A bad row must not warn before its own step is measured.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            density = np.abs(values) ** 2
            norm = density.sum(axis=1)
            mean_x = _dot_rows(density, x) / norm
            var_x = _dot_rows(density, (x - mean_x[:, None]) ** 2) / norm
            del density
            p_density = np.abs(spectra) ** 2
            p_norm = p_density.sum(axis=1)
            mean_p = _dot_rows(p_density, p) / p_norm
            var_p = _dot_rows(p_density, (p - mean_p[:, None]) ** 2) / p_norm
            del p_density
            # <xp + px>/2 via the eps-scaled probability current J = eps*Im(Psi* Psi').
            derivative = np.fft.ifft(self.ik * spectra, axis=1)
            current = self.eps * np.multiply(np.conj(values), derivative, out=derivative).imag
            del derivative
            cov_xp = _dot_rows(current, x) / norm - mean_x * mean_p
        columns = (norm, mean_x, mean_p, var_x, var_p, cov_xp)
        return list(zip(*(column.tolist() for column in columns)))

    def finish(self, row: tuple[float, ...], z: float) -> BeamMoments:
        """The moments at ``z`` of one entry of ``rows``, after its norm check."""
        norm, *moments = row
        _check_norm(norm * self.spacing, "wavefield norm")
        return _beam_moments(z, *moments)


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
        grid = state.grid
        return _grid_moments(
            state.values, state.z, grid.x_axis.points(), grid.p_axis.points(), grid.cell_area
        )
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
    bound = 0.5 * epsilon
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
    if spec.degree < 1:
        # Free space or a constant potential: no force anywhere, so G1 = 0.
        return float("nan")
    x = state.grid.x_axis.points()[:, None]
    y = state.grid.p_axis.frequencies()[None, :]
    z = state.z
    rho_tilde = np.fft.fft(state.values, axis=1)
    g1 = eval_gradient(spec, x, z) * y
    denom = _l2_norm(g1 * rho_tilde)
    if denom == 0.0:
        return float("nan")
    if spec.kick_is_classical:
        return 0.0
    # The classical part of the closed-form series is bit-identical to g1,
    # so G - G1 is formed directly as the partial sum from order 3 up; no
    # cancellation noise enters.
    residual = _shift_series(spec, x, y, z, epsilon, min_order=3)
    return _l2_norm(residual * rho_tilde) / denom
