"""Beam state containers and constructors.

Three representations of the same transverse beam:

* :class:`WaveField` -- complex envelope Psi(x) of the thermal wave model,
  normalized so that integral |Psi|^2 dx = 1.
* :class:`QuasiDistribution` -- real phase-space density rho(x, p) on a
  :class:`~beamphase.grids.PhaseGrid`, unit mass; ``kind`` records whether
  it is a genuine (non-negative) classical density or a Wigner-type
  quasi-density that may go negative.
* :class:`RayEnsemble` -- Monte-Carlo sample of phase-space points.

All solvers assume periodic grids, so the constructors refuse grids on
which the state's first or last sample exceeds 1e-12 of its largest
sample (for a density, along each axis).  ``load_scenario`` runs the same
constructors, so this is the one edge rule for scenarios too.
The builders make states at z = 0; ``dataclasses.replace`` moves one to
another z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .exceptions import GridError, SamplingError, StateError
from .exceptions import check_count, check_finite, check_positive
from .grids import AxisGrid, PhaseGrid

__all__ = [
    "WaveField",
    "QuasiDistribution",
    "RayEnsemble",
    "RNG_ALGORITHM",
    "gaussian_wavefield",
    "superposition_wavefield",
    "gaussian_quasidist",
    "superposition_quasidist",
    "sample_rays",
]

# Relative boundary decay demanded of freshly constructed states.
BOUNDARY_DECAY = 1e-12

# Mass / norm agreement demanded of any state payload.
NORM_TOL = 1e-6

# Most negative value (relative to the peak) tolerated in a classical density.
CLASSICAL_FLOOR = 1e-9

# Negative-mass fraction above which ray sampling refuses the input.
SAMPLING_NEGATIVE_TOL = 1e-6

RNG_ALGORITHM = "pcg64"


def _check_norm(norm: float, what: str) -> None:
    # A sum is non-finite exactly when some summand is, so the norm (or
    # mass) every state is checked for doubles as its finiteness check.
    if not math.isfinite(norm):
        raise StateError(f"{what} is {norm!r}: the state holds non-finite values")
    if abs(norm - 1.0) > NORM_TOL:
        raise StateError(f"{what} is {norm!r}, expected 1 within {NORM_TOL}")


def _check_classical(values: np.ndarray) -> None:
    floor = -CLASSICAL_FLOOR * max(1.0, float(values.max(initial=0.0)))
    if float(values.min()) < floor:
        raise StateError(
            f"classical density has negative values beyond round-off (min {values.min()!r})"
        )


def _frozen_array(obj, name, array):
    array.setflags(write=False)
    object.__setattr__(obj, name, array)


@dataclass(frozen=True)
class WaveField:
    """Complex beam envelope on an :class:`AxisGrid`.

    ``epsilon`` is the deformation scale (emittance-like, units of length)
    entering the transport equation
    ``i*eps*dPsi/dz = -(eps^2/2)*d2Psi/dx2 + U*Psi``.
    """

    grid: AxisGrid
    values: np.ndarray
    epsilon: float
    z: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex).copy()
        if values.shape != (self.grid.n,):
            raise StateError(
                f"wavefield shape {values.shape} does not match grid ({self.grid.n},)"
            )
        check_positive("epsilon", self.epsilon, StateError)
        check_finite("z", self.z, StateError)
        _check_norm(float(np.sum(np.abs(values) ** 2)) * self.grid.spacing, "wavefield norm")
        _frozen_array(self, "values", values)

    def density(self) -> np.ndarray:
        """|Psi(x)|^2 on the grid."""
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class QuasiDistribution:
    """Real phase-space density on a :class:`PhaseGrid`.

    ``kind`` is ``"classical"`` for genuine probability densities (checked
    non-negative up to round-off ringing) or ``"wigner"`` for quasi-densities
    that are allowed to go negative.
    """

    grid: PhaseGrid
    values: np.ndarray
    z: float = 0.0
    kind: str = "classical"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        if values.shape != self.grid.shape:
            raise StateError(
                f"density shape {values.shape} does not match grid {self.grid.shape}"
            )
        if self.kind not in ("classical", "wigner"):
            raise StateError(f"kind must be 'classical' or 'wigner', got {self.kind!r}")
        check_finite("z", self.z, StateError)
        _check_norm(float(np.sum(values)) * self.grid.cell_area, "density mass")
        if self.kind == "classical":
            _check_classical(values)
        _frozen_array(self, "values", values)

    @property
    def mass(self) -> float:
        return float(np.sum(self.values)) * self.grid.cell_area


@dataclass(frozen=True)
class RayEnsemble:
    """Monte-Carlo sample of (x, p) phase-space points at a common z.

    ``algorithm`` names the RNG for reproducibility.
    """

    positions: np.ndarray
    momenta: np.ndarray
    z: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float).copy()
        momenta = np.asarray(self.momenta, dtype=float).copy()
        if positions.ndim != 1 or positions.shape != momenta.shape:
            raise StateError("positions and momenta must be equal-length 1-d arrays")
        if positions.size < 1:
            raise StateError("ray ensemble must contain at least one ray")
        if not (np.all(np.isfinite(positions)) and np.all(np.isfinite(momenta))):
            raise StateError("ray ensemble contains non-finite values")
        check_finite("z", self.z, StateError)
        _frozen_array(self, "positions", positions)
        _frozen_array(self, "momenta", momenta)

    @property
    def count(self) -> int:
        return self.positions.size

    @property
    def algorithm(self) -> str:
        return RNG_ALGORITHM


class _OffGridError(StateError):
    """Every sample of a beam is zero: the box misses the beam, whatever its scales."""


def _check_boundary_decay(magnitudes: np.ndarray, what: str):
    peak = float(magnitudes.max())
    if peak <= 0.0:
        raise _OffGridError(f"{what} is identically zero")
    edge = max(float(magnitudes[0]), float(magnitudes[-1]))
    if edge > BOUNDARY_DECAY * peak:
        raise GridError(
            f"grid too narrow for {what}: boundary level {edge / peak:.3e} of the largest sample "
            f"exceeds {BOUNDARY_DECAY}"
        )


def _coherent_peaks(grid, sigma, epsilon, x0, p0, offsets, name) -> WaveField:
    """Coherent sum of Gaussian envelopes centred at ``x0 + offset``, unit norm, at z = 0."""
    check_positive("sigma", sigma, StateError)
    check_positive("epsilon", epsilon, StateError)
    check_finite("x0", x0, StateError)
    check_finite("p0", p0, StateError)
    try:
        scale = 4.0 * sigma**2
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise StateError(f"sigma**2 is out of floating-point range, got sigma={sigma!r}")
    dx = grid.points() - x0
    with np.errstate(over="ignore"):  # an overflowing exponent gives exp's limit, 0
        envelope = reduce(np.add, (np.exp(-((dx - c) ** 2) / scale) for c in offsets))
    _check_boundary_decay(envelope, f"{name} wavefield")
    values = envelope * np.exp(1j * p0 * dx / epsilon)
    values /= math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.spacing)
    return WaveField(grid, values, epsilon)


def gaussian_wavefield(
    grid: AxisGrid,
    sigma: float,
    epsilon: float,
    x0: float = 0.0,
    p0: float = 0.0,
) -> WaveField:
    """Coherent Gaussian envelope with rms width sigma and mean momentum p0.

    Psi(x) is proportional to
    ``exp(-(x - x0)**2 / (4 sigma**2) + i p0 (x - x0) / epsilon)``,
    normalized on the grid.  The implied momentum spread is
    ``epsilon / (2 sigma)``, i.e. the minimum-uncertainty value.
    """
    return _coherent_peaks(grid, sigma, epsilon, x0, p0, (0.0,), "gaussian")


def superposition_wavefield(
    grid: AxisGrid,
    sigma: float,
    separation: float,
    epsilon: float,
    x0: float = 0.0,
    p0: float = 0.0,
) -> WaveField:
    """Coherent superposition of two Gaussians with peak-to-peak separation."""
    half = 0.5 * check_positive("separation", separation, StateError)
    return _coherent_peaks(grid, sigma, epsilon, x0, p0, (half, -half), "superposition")


def _gaussian_peaks(grid, sigma_x, sigma_p, sigma_xp, x0, p0, offsets, name):
    """Classical sum of Gaussians centred at ``(x0 + offset, p0)``, unit mass, at z = 0."""
    scalars = {"sigma_x": sigma_x, "sigma_p": sigma_p, "sigma_xp": sigma_xp, "x0": x0, "p0": p0}
    for label, value in scalars.items():
        check_finite(label, value, StateError)
    try:
        det = sigma_x**2 * sigma_p**2 - sigma_xp**2
    except OverflowError:  # a square out of floating-point range
        det = math.nan
    if not (0.0 < det < math.inf and sigma_x > 0.0 and sigma_p > 0.0):
        raise StateError(
            "covariance matrix must be positive definite, its determinant in floating-point range "
            f"(sigma_x={sigma_x}, sigma_p={sigma_p}, sigma_xp={sigma_xp})"
        )
    x, p = grid.meshes()

    def peak(offset):
        dx = x - (x0 + offset)
        dp = p - p0
        quad = (sigma_p**2 * dx**2 - 2.0 * sigma_xp * dx * dp + sigma_x**2 * dp**2) / det
        return np.exp(-0.5 * quad)

    with np.errstate(over="ignore"):  # an overflowing exponent gives exp's limit, 0
        values = reduce(np.add, map(peak, offsets))
    _check_boundary_decay(values.max(axis=1), f"{name} quasi-distribution (x axis)")
    _check_boundary_decay(values.max(axis=0), f"{name} quasi-distribution (p axis)")
    values /= float(np.sum(values)) * grid.cell_area
    return QuasiDistribution(grid, values)


def gaussian_quasidist(
    grid: PhaseGrid,
    sigma_x: float,
    sigma_p: float,
    sigma_xp: float = 0.0,
    x0: float = 0.0,
    p0: float = 0.0,
) -> QuasiDistribution:
    """Bivariate Gaussian density, normalized to unit mass on the grid."""
    return _gaussian_peaks(grid, sigma_x, sigma_p, sigma_xp, x0, p0, (0.0,), "gaussian")


def superposition_quasidist(
    grid: PhaseGrid,
    sigma_x: float,
    sigma_p: float,
    separation: float,
    x0: float = 0.0,
    p0: float = 0.0,
) -> QuasiDistribution:
    """Equal-weight two-peak Gaussian mixture (a non-negative density).

    This is the classical analogue of :func:`superposition_wavefield`: same
    peak locations, no interference fringes.
    """
    half = 0.5 * check_positive("separation", separation, StateError)
    return _gaussian_peaks(grid, sigma_x, sigma_p, 0.0, x0, p0, (-half, half), "superposition")


def sample_rays(quasidist: QuasiDistribution, count: int, seed: int) -> RayEnsemble:
    """Draw a ray ensemble from a classical density.

    Negative grid values are clipped to zero before sampling; if the clipped
    mass exceeds 1e-6 of the total (a Wigner-type state in disguise) the draw
    is refused.
    Sampling is exact for the piecewise-constant grid density: inverse CDF
    over cell masses, then a uniform jitter inside the selected cell.
    """
    count = check_count(count, "ray count", 1, SamplingError)
    seed = check_count(seed, "seed", 0, SamplingError)
    if quasidist.kind != "classical":
        raise SamplingError(
            "refusing to sample a wigner-kind quasi-distribution; "
            "sample a classical density instead"
        )
    values = quasidist.values
    clipped = np.clip(values, 0.0, None)
    total = float(values.sum())
    negative = float(clipped.sum()) - total
    if negative > SAMPLING_NEGATIVE_TOL * total:
        raise SamplingError(
            f"refusing to sample: negative mass fraction {negative / total:.3e} "
            f"exceeds {SAMPLING_NEGATIVE_TOL}"
        )
    rng = np.random.default_rng(seed)
    masses = (clipped / clipped.sum()).ravel()
    cdf = np.cumsum(masses)
    cdf[-1] = 1.0
    flat = np.searchsorted(cdf, rng.random(count), side="right")
    ix, ip = np.unravel_index(flat, values.shape)
    x_axis = quasidist.grid.x_axis
    p_axis = quasidist.grid.p_axis
    x = x_axis.points()[ix] + (rng.random(count) - 0.5) * x_axis.spacing
    p = p_axis.points()[ip] + (rng.random(count) - 0.5) * p_axis.spacing
    return RayEnsemble(positions=x, momenta=p, z=quasidist.z, seed=seed)
