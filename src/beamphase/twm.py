"""Split-step spectral solver for the thermal wave model.

Advances i eps dPsi/dz = -(eps^2/2) d^2Psi/dx^2 + U(x, z) Psi by Strang
splitting: a half potential phase, the exact kinetic flow in the spectral
variable k conjugate to x, and a second half potential phase.  The scaled
emittance eps plays the role hbar has in quantum mechanics and is read from
the wavefield itself, never from configuration.

Without a potential the flow is diagonal in k, so the run is not stepped:
the field at z is the initial spectrum times ``exp(-i eps k^2 (z - z0) / 2)``
and its moments follow the classical drift law from the measured initial
ones.  Only the snapshots are built, each checked against that law (see
:class:`_FreeKernel`): one forward FFT a run, two inverse ones a snapshot.

The potential ordering here is the mirror image of the drift ordering in
the phase-space grid solver; both are second order in dz, so cross-solver
disagreement is pure splitting error and shrinks by four when dz is halved.
Stepped or closed-form, a run goes through the step loop of the phase-space
engines and returns their :class:`~beamphase.phasespace.Trajectory` record.
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import BeamMoments, _beam_moments, _drifted, _WavefieldMoments
from .exceptions import BeamPhaseError, SolverError, check_finite, check_positive
from .grids import AxisGrid
from .phasespace import (
    StepPlan,
    Trajectory,
    _evolve,
    _step_boundaries,
)
from .potentials import ConstantProfile, PotentialSpec, eval_potential
from .states import WaveField

__all__ = [
    "evolve_twm",
    "matched_width",
    "free_gaussian_sigma",
]


def _kinetic_phase(grid: AxisGrid, epsilon: float, dz: float) -> np.ndarray:
    """``exp(-i eps k^2 dz / 2)`` on the grid's wavenumbers, refused when it would alias.

    The guard depends only on the grid, epsilon and dz, so a caller can
    check it before any engine starts.
    """
    kinetic_angle = 0.5 * epsilon * grid.frequencies() ** 2 * dz
    guard = float(kinetic_angle.max())
    if guard >= math.pi:
        raise SolverError(
            f"kinetic phase overflow: max |eps k^2 dz / 2| = {guard:.3e} >= pi "
            "(the complex exponential would alias); reduce dz or refine the grid"
        )
    return np.exp(-1j * kinetic_angle)


def _half_phase(spec: PotentialSpec, x: np.ndarray, scale: float, z_mid: float) -> np.ndarray:
    """``exp(-i U(x, z_mid) scale)``, the half potential phase."""
    return np.exp(-1j * eval_potential(spec, x, z_mid) * scale)


class _TwmKernel:
    """Strang steps of one plan on one grid, from spectral phases and moment constants.

    For a plan with steps, construction builds and guards the kinetic phase and
    builds a z-independent half potential phase; ``advance`` builds a z-dependent one.
    """

    lost = 0

    def __init__(self, psi: WaveField, spec: PotentialSpec, plan: StepPlan):
        self.dz, self.psi = plan.dz, psi
        if plan.n_steps:
            self.kinetic_phase = _kinetic_phase(psi.grid, psi.epsilon, plan.dz)
        self.half_args = (spec, psi.grid.points(), 0.5 * plan.dz / psi.epsilon)
        self.half = _half_phase(*self.half_args, psi.z) if spec.is_static and plan.n_steps else None
        self.moments = _WavefieldMoments(psi.grid, psi.epsilon)

    def advance(self, psi: np.ndarray, z: float) -> np.ndarray:
        half = _half_phase(*self.half_args, z + 0.5 * self.dz) if self.half is None else self.half
        spectrum = np.fft.fft(psi * half)
        spectrum *= self.kinetic_phase
        psi = np.fft.ifft(spectrum)
        psi *= half
        return psi

    def measure(self, psi: np.ndarray, z: float) -> BeamMoments:
        return self.moments(psi, z)

    def wrap(self, psi: np.ndarray, z: float) -> WaveField:
        return WaveField(self.psi.grid, psi, self.psi.epsilon, z)


# Largest departure of a free-space snapshot's moments from the drift law, of each moment's scale.
FREE_LAW_TOL = 1e-9


class _FreeKernel:
    """Free space in closed form, a ``phasespace._evolve`` kernel whose values are step numbers.

    The moments of step k are the drift law at ``t = zs[k] - zs[0]`` from the
    measured initial ones: ``<x> + t <p>``, ``var_x + 2 t cov_xp + t^2
    var_p`` and ``cov_xp + t var_p``, the p moments constant.  A snapshot is
    the initial spectrum times ``exp(-i eps k^2 t / 2)``, inverted; it is
    measured and refused when a moment departs from its closed-form row by
    more than ``FREE_LAW_TOL`` of its scale (a mean against the width on its
    axis, ``sigma_xp`` against ``sigma_x sigma_p``), which on the periodic
    grid means the field has reached the edge of the box.
    """

    lost = 0

    def __init__(self, psi: WaveField, plan: StepPlan, zs: list[float]):
        # No step is taken, but a plan with steps is held to a step's kinetic guard.
        if plan.n_steps:
            _kinetic_phase(psi.grid, psi.epsilon, plan.dz)
        self.psi, self.zs = psi, zs
        self.moments = _WavefieldMoments(psi.grid, psi.epsilon)
        self.spectrum = np.fft.fft(psi.values)
        self.angle = 0.5 * psi.epsilon * psi.grid.frequencies() ** 2  # per unit of z
        self.start = self.moments.central(psi.values, self.spectrum)

    def field(self, z: float) -> tuple[np.ndarray, np.ndarray]:
        """The field at ``z`` and its spectrum."""
        spectrum = self.spectrum * np.exp(-1j * (self.angle * (z - self.zs[0])))
        return np.fft.ifft(spectrum), spectrum

    def advance(self, step: int, z: float) -> int:
        return step + 1

    def measure(self, step: int, z: float) -> BeamMoments:
        central = _drifted(self.start, z - self.zs[0]) if step else self.start
        return _beam_moments(z, *central)

    def wrap(self, step: int, z: float) -> WaveField:
        values, spectrum = self.field(z)
        got = _beam_moments(z, *self.moments.central(values, spectrum))
        want = self.measure(step, z)
        sx, sp = want.sigma_x, want.sigma_p
        scales = {"mean_x": sx, "mean_p": sp, "sigma_x": sx, "sigma_p": sp, "sigma_xp": sx * sp}
        for name, scale in scales.items():
            deviation = abs(getattr(got, name) - getattr(want, name)) / scale
            if deviation > FREE_LAW_TOL:
                raise SolverError(
                    f"grid.x_length: the field's {name} departs from the free drift law by "
                    f"{deviation:.3e} of its scale, above {FREE_LAW_TOL:g}: it has reached the "
                    "edge of the periodic box; raise grid.x_length or shorten the run"
                )
        return WaveField(self.psi.grid, values, self.psi.epsilon, z)


def evolve_twm(
    psi: WaveField,
    spec: PotentialSpec,
    plan: StepPlan,
    snapshot_every: int | None = None,
) -> Trajectory:
    """Advance ``plan.n_steps`` steps, recording moments and snapshots.

    Same recording contract as the phase-space solver: moments at every
    step including the initial one, full fields at the snapshot cadence
    plus the initial and final states, ``n_steps = 0`` is the identity.
    Each stepped field, or in free space each snapshot (also against the drift
    law), is checked for finite values and unit norm; :class:`SolverError` names the step.
    """
    zs = _step_boundaries(psi.z, plan)
    if spec.degree < 0:
        kernel, values = _FreeKernel(psi, plan, zs), 0
    else:
        kernel, values = _TwmKernel(psi, spec, plan), psi.values
    return _evolve(kernel, psi, values, zs, snapshot_every)


def matched_width(spec: PotentialSpec, epsilon: float) -> float:
    """Equilibrium width sqrt(eps / (2 sqrt(K))) of a linear lens U = K x^2 / 2.

    Requires a z-independent focusing term: the x^2 coefficient must be a
    positive constant and no higher power may be present.
    """
    epsilon = check_positive("epsilon", epsilon, BeamPhaseError)
    if spec.degree > 2:
        raise BeamPhaseError("matched width is defined only for a linear lens (degree 2)")
    term = {power: profile for power, profile in spec.terms}.get(2)
    if term is None or not isinstance(term, ConstantProfile):
        raise BeamPhaseError("matched width needs a constant x^2 focusing term")
    k_strength = 2.0 * term(0.0)
    if k_strength <= 0.0:
        raise BeamPhaseError(f"lens is not focusing: K = {k_strength!r}")
    return math.sqrt(epsilon / (2.0 * math.sqrt(k_strength)))


def free_gaussian_sigma(sigma0: float, epsilon: float, z: float) -> float:
    """Width of a free coherent Gaussian: sigma0 sqrt(1 + (eps z / 2 sigma0^2)^2)."""
    sigma0 = check_positive("sigma0", sigma0, BeamPhaseError)
    epsilon = check_finite("epsilon", epsilon, BeamPhaseError)
    if epsilon < 0.0:
        raise BeamPhaseError(f"epsilon must be >= 0, got {epsilon!r}")
    z = check_finite("z", z, BeamPhaseError)
    spread = epsilon * z / (2.0 * sigma0**2)
    return sigma0 * math.sqrt(1.0 + spread * spread)
