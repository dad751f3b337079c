"""Phase-space transport: spectral grid solver and symplectic ray tracing.

The grid solver advances the deformed von Neumann equation

    d rho/dz + p d rho/dx + (i/eps)[U(x + i eps/2 d/dp) - U(x - i eps/2 d/dp)] rho = 0

by Strang splitting with exact sub-flows: a half drift (per-p-row spectral
shift ``rho(x, p) <- rho(x - p dz/2, p)``), a full kick (multiplication by
``exp(i dz G(x, y, z_mid))`` in the spectral variable y conjugate to p),
and a second half drift.  With the generator truncated at first order the
kick is the exact classical Liouville map, so one code path serves both the
deformed and the classical engines.

z-dependent potential coefficients are sampled at the midpoint of each
step, which preserves the second-order accuracy of the splitting.

rho is real, so the state stays a real array between steps and every
sub-flow uses real-data transforms: the drifts ``rfft``/``irfft`` along x,
the kick along p.  Both multipliers are Hermitian (the drift phase is odd
in kx, and G is odd in y), so each is built only on the non-negative half
spectrum; the kick, rebuilt every step for z-dependent potentials, costs
half the generator evaluations and forms ``exp(i dz G)`` as
``cos(dz G) + i sin(dz G)`` of a real angle.

The one place a half spectrum loses information is the unpaired Nyquist
row (column): ``irfft`` drops the imaginary part that the multiplier
rotates into it, where a complex transform would leave it as an
imaginary residue of ``max|Im| / n``.  That residue signals a state whose
content reaches the edge of the spectral axis, so each step sums it over
its three sub-flows and refuses when the sum exceeds ``STEP_REALNESS_TOL``
of the state's peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import BeamMoments, moments_of
from .exceptions import SolverError
from .grids import AxisGrid, PhaseGrid
from .potentials import (
    ConstantProfile,
    PotentialSpec,
    eval_gradient,
    moyal_generator,
    moyal_generator_truncated,
)
from .states import QuasiDistribution, RayEnsemble

__all__ = [
    "StepPlan",
    "PhaseSpaceTrajectory",
    "RayTrajectory",
    "step_phase_space",
    "evolve_phase_space",
    "trace_rays",
]

# Imaginary residue (relative to the state peak) tolerated after a step.
STEP_REALNESS_TOL = 1e-8

GENERATOR_MODES = ("full_moyal", "truncated")


def _as_count(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SolverError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise SolverError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


@dataclass(frozen=True)
class StepPlan:
    """How to advance a state: step size, count, generator flavour.

    ``generator`` selects ``"full_moyal"`` (complete deformation series) or
    ``"truncated"`` with an odd ``max_order``; order 1 is the classical
    Liouville equation.  Splitting is always Strang.
    """

    dz: float
    n_steps: int
    generator: str = "full_moyal"
    max_order: int | None = None
    splitting: str = "strang"

    def __post_init__(self):
        if not (isinstance(self.dz, (int, float, np.floating)) and math.isfinite(self.dz) and self.dz > 0.0):
            raise SolverError(f"dz must be positive and finite, got {self.dz!r}")
        object.__setattr__(self, "dz", float(self.dz))
        object.__setattr__(self, "n_steps", _as_count(self.n_steps, "n_steps", 0))
        if self.generator not in GENERATOR_MODES:
            raise SolverError(
                f"generator must be one of {GENERATOR_MODES}, got {self.generator!r}"
            )
        if self.generator == "truncated":
            order = 1 if self.max_order is None else _as_count(self.max_order, "max_order", 1)
            if order % 2 == 0:
                raise SolverError(f"max_order must be odd, got {order}")
            object.__setattr__(self, "max_order", order)
        elif self.max_order is not None:
            raise SolverError("max_order applies only to the truncated generator")
        if self.splitting != "strang":
            raise SolverError(f"only Strang splitting is available, got {self.splitting!r}")

    @property
    def is_classical(self) -> bool:
        return self.generator == "truncated" and self.max_order == 1


@dataclass(frozen=True)
class PhaseSpaceTrajectory:
    """Grid evolution record: moments at every step, states at snapshots."""

    snapshots: tuple[QuasiDistribution, ...]
    snapshot_steps: tuple[int, ...]
    moments: tuple[BeamMoments, ...]

    @property
    def final(self) -> QuasiDistribution:
        return self.snapshots[-1]


@dataclass(frozen=True)
class RayTrajectory:
    """Ray-ensemble evolution record; ``lost`` counts non-finite rays."""

    moments: tuple[BeamMoments, ...]
    final: RayEnsemble
    lost: int


class _GridKernel:
    """Real-data spectral operators for repeated steps of one plan on one grid.

    The drift phase depends only on the grid and dz, so it is built once on
    the ``nx/2 + 1`` non-negative kx rows.  The kick is built on the
    ``np/2 + 1`` non-negative y columns, the Nyquist column at ``|y|``;
    for z-independent potentials it is also reused.
    """

    def __init__(self, grid: PhaseGrid, spec: PotentialSpec, epsilon: float, plan: StepPlan):
        self.spec = spec
        self.epsilon = epsilon
        self.plan = plan
        self.x_col = grid.x_axis.points()[:, None]
        self.y_row = _half_spectrum(grid.p_axis)[None, :]
        self.drift_phase = np.exp(
            -1j * np.outer(_half_spectrum(grid.x_axis), grid.p_axis.points()) * (0.5 * plan.dz)
        )
        self.static = all(isinstance(profile, ConstantProfile) for _, profile in spec.terms)
        self._cached_kick = None
        self._cached_guard = None

    def _generator_at(self, z_mid: float):
        if self.spec.degree < 1:
            return None
        if self.plan.generator == "full_moyal":
            return moyal_generator(self.spec, self.x_col, self.y_row, z_mid, self.epsilon)
        return moyal_generator_truncated(
            self.spec, self.x_col, self.y_row, z_mid, self.epsilon, self.plan.max_order
        )

    def _kick_multiplier(self, z_mid: float):
        if self.static and self._cached_kick is not None:
            return self._cached_kick, self._cached_guard
        g = self._generator_at(z_mid)
        if g is None:
            kick, guard = None, 0.0
        else:
            # G is odd in y, so max |G| over the half spectrum is the whole-box value.
            guard = float(np.abs(g).max()) * self.plan.dz
            angle = self.plan.dz * g
            kick = np.empty(angle.shape, dtype=complex)
            np.cos(angle, out=kick.real)
            np.sin(angle, out=kick.imag)
        if self.static:
            self._cached_kick, self._cached_guard = kick, guard
        return kick, guard

    def _drift(self, rho: np.ndarray) -> tuple[np.ndarray, float]:
        spectrum = np.fft.rfft(rho, axis=0)
        spectrum *= self.drift_phase
        n = rho.shape[0]
        return np.fft.irfft(spectrum, n=n, axis=0), _nyquist_residue(spectrum[-1], n)

    def apply(self, rho: np.ndarray, z: float) -> tuple[np.ndarray, float]:
        """One Strang step of a real array: the new array and its Nyquist residue."""
        kick, guard = self._kick_multiplier(z + 0.5 * self.plan.dz)
        if guard >= math.pi:
            raise SolverError(
                f"kick phase overflow: max |dz * G| = {guard:.3e} >= pi "
                "(the complex exponential would alias); reduce dz or the grid extents"
            )
        rho, residue = self._drift(rho)
        if kick is not None:
            n = rho.shape[1]
            spectrum = np.fft.rfft(rho, axis=1)
            spectrum *= kick
            residue += _nyquist_residue(spectrum[:, -1], n)
            rho = np.fft.irfft(spectrum, n=n, axis=1)
        rho, drift_residue = self._drift(rho)
        return rho, residue + drift_residue


def _half_spectrum(axis: AxisGrid) -> np.ndarray:
    """The ``n/2 + 1`` non-negative angular frequencies of ``rfft`` order."""
    return np.abs(axis.frequencies()[: axis.n // 2 + 1])


def _nyquist_residue(nyquist: np.ndarray, n: int) -> float:
    """Imaginary residue a complex inverse FFT of length ``n`` would leave.

    ``irfft`` keeps only the real part of the unpaired Nyquist coefficient;
    a complex transform would turn its imaginary part into an alternating
    ``(-1)**j * Im / n`` residue along the transformed axis.
    """
    return float(np.abs(nyquist.imag).max()) / n


def _check_residue(rho: np.ndarray, residue: float) -> None:
    peak = float(np.abs(rho).max())
    if residue > STEP_REALNESS_TOL * max(peak, 1e-300):
        raise SolverError(
            f"step produced imaginary residue {residue:.3e} above "
            f"{STEP_REALNESS_TOL:g} of the peak {peak:.3e}"
        )


def _output_kind(input_kind: str, plan: StepPlan) -> str:
    # Classical transport preserves positivity; deformed transport does not.
    return input_kind if plan.is_classical else "wigner"


def _check_epsilon(epsilon: float) -> float:
    if not (isinstance(epsilon, (int, float, np.floating)) and math.isfinite(epsilon) and epsilon > 0.0):
        raise SolverError(f"epsilon must be positive and finite, got {epsilon!r}")
    return float(epsilon)


def step_phase_space(
    state: QuasiDistribution, spec: PotentialSpec, epsilon: float, plan: StepPlan
) -> QuasiDistribution:
    """Advance a phase-space density by one step of size ``plan.dz``.

    The kick phase must stay below pi in magnitude everywhere on the (x, y)
    grid, else the step would alias and a :class:`SolverError` is raised.
    The output is real (the Nyquist residue, see the module docstring, is
    measured against the ``1e-8`` tolerance), keeps the grid, advances z by
    dz, and keeps the ``classical`` tag only under the order-1 truncated
    generator.
    """
    epsilon = _check_epsilon(epsilon)
    kernel = _GridKernel(state.grid, spec, epsilon, plan)
    values, residue = kernel.apply(state.values, state.z)
    _check_residue(values, residue)
    return QuasiDistribution(
        state.grid, values, state.z + plan.dz, _output_kind(state.kind, plan)
    )


def evolve_phase_space(
    state: QuasiDistribution,
    spec: PotentialSpec,
    epsilon: float,
    plan: StepPlan,
    snapshot_every: int | None = None,
) -> PhaseSpaceTrajectory:
    """Advance ``plan.n_steps`` steps, recording moments and snapshots.

    Moments are recorded at every step including the initial state.  Full
    states are kept every ``snapshot_every`` steps plus always the initial
    and final ones (default: only those two).  ``n_steps = 0`` returns the
    input unchanged.  The result is the exact composition of
    :func:`step_phase_space` steps.
    """
    epsilon = _check_epsilon(epsilon)
    if snapshot_every is None:
        snapshot_every = max(plan.n_steps, 1)
    snapshot_every = _as_count(snapshot_every, "snapshot_every", 1)
    kernel = _GridKernel(state.grid, spec, epsilon, plan)
    kind = _output_kind(state.kind, plan)
    values = state.values
    snapshots = [state]
    snapshot_steps = [0]
    moments = [moments_of(state)]
    for step in range(1, plan.n_steps + 1):
        try:
            values, residue = kernel.apply(values, state.z + (step - 1) * plan.dz)
            _check_residue(values, residue)
        except SolverError as exc:
            raise SolverError(f"step {step}/{plan.n_steps}: {exc}") from None
        z = state.z + step * plan.dz
        current = QuasiDistribution(state.grid, values, z, kind)
        moments.append(moments_of(current))
        if step % snapshot_every == 0 or step == plan.n_steps:
            snapshots.append(current)
            snapshot_steps.append(step)
    return PhaseSpaceTrajectory(tuple(snapshots), tuple(snapshot_steps), tuple(moments))


def trace_rays(
    ensemble: RayEnsemble, spec: PotentialSpec, plan: StepPlan
) -> RayTrajectory:
    """Trace rays through dx/dz = p, dp/dz = -dU/dx by leapfrog.

    Each step is kick-drift-kick with the potential coefficients sampled at
    the step midpoint, so the map is symplectic and second-order accurate
    for z-dependent potentials.  Rays that reach non-finite coordinates
    (diverging anharmonic orbits) are excluded from the moments and from
    the final ensemble; ``lost`` reports how many.
    """
    x = np.array(ensemble.positions, dtype=float)
    p = np.array(ensemble.momenta, dtype=float)
    alive = np.ones(x.size, dtype=bool)
    z = ensemble.z
    final = ensemble
    moments = [moments_of(ensemble)]
    for _ in range(plan.n_steps):
        z_mid = z + 0.5 * plan.dz
        # Diverging anharmonic orbits overflow to inf before being pruned;
        # that is the intended loss mechanism, not an arithmetic error.
        with np.errstate(over="ignore", invalid="ignore"):
            p[alive] -= 0.5 * plan.dz * eval_gradient(spec, x[alive], z_mid)
            x[alive] += plan.dz * p[alive]
            p[alive] -= 0.5 * plan.dz * eval_gradient(spec, x[alive], z_mid)
            z += plan.dz
            alive &= np.isfinite(x) & np.isfinite(p)
        if not alive.any():
            raise SolverError("all rays diverged to non-finite phase-space values")
        final = RayEnsemble(
            positions=x[alive],
            momenta=p[alive],
            z=z,
            seed=ensemble.seed,
            clipped_mass=ensemble.clipped_mass,
        )
        moments.append(moments_of(final))
    return RayTrajectory(tuple(moments), final, int(x.size - int(alive.sum())))
