"""Split-step spectral solver for the thermal wave model.

Advances i eps dPsi/dz = -(eps^2/2) d^2Psi/dx^2 + U(x, z) Psi by Strang
splitting: a half potential phase, the exact kinetic flow in the spectral
variable k conjugate to x, and a second half potential phase.  The scaled
emittance eps plays the role hbar has in quantum mechanics and is read from
the wavefield itself, never from configuration.

Without a potential the step is diagonal in k, so the solver keeps the
spectrum of the field it returns: the per-step moments and the next step
read it instead of transforming the field again, two FFTs a step instead
of four.  With a potential the step ends with a half phase in x and takes
four.

The potential ordering here is the mirror image of the drift ordering in
the phase-space grid solver; both are second order in dz, so cross-solver
disagreement is pure splitting error and shrinks by four when dz is halved.
The step loop and the :class:`~beamphase.phasespace.Trajectory` record are
shared with the phase-space engines.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np

from .diagnostics import BeamMoments, _WavefieldMoments
from .exceptions import BeamPhaseError, SolverError, check_positive
from .grids import AxisGrid
from .phasespace import StepPlan, Trajectory, _evolve, _static_once, _step_boundaries
from .potentials import ConstantProfile, PotentialSpec, eval_potential
from .states import WaveField

__all__ = [
    "step_twm",
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


def _half_phase(spec: PotentialSpec, x: np.ndarray, scale: float, z_mid: float):
    """``exp(-i U(x, z_mid) scale)``, the half potential phase (None without a potential)."""
    if spec.degree < 0:
        return None
    return np.exp(-1j * eval_potential(spec, x, z_mid) * scale)


class _TwmKernel:
    """Spectral phases and moment constants for repeated steps of one plan on one grid.

    Without a potential, ``held`` pairs the field a step returned with its
    spectrum.  The moments of that very array read the spectrum; the next
    step handed it multiplies the spectrum in place and drops it.
    """

    lost = 0
    held = None

    def __init__(self, psi: WaveField, spec: PotentialSpec, plan: StepPlan):
        self.plan = plan
        self.grid = psi.grid
        self.epsilon = psi.epsilon
        # A plan without steps applies no kinetic phase, so it is neither built nor guarded.
        if plan.n_steps:
            self.kinetic_phase = _kinetic_phase(psi.grid, psi.epsilon, plan.dz)
        # Not a bound method, so the kernel is freed as soon as its run returns.
        self.half_at = _static_once(
            partial(_half_phase, spec, psi.grid.points(), 0.5 * plan.dz / psi.epsilon), spec
        )
        self.moments = _WavefieldMoments(psi.grid, psi.epsilon)

    def _held_spectrum(self, psi: np.ndarray) -> np.ndarray | None:
        """The spectrum held for ``psi`` if it is the array last returned, else None."""
        if self.held is not None and self.held[0] is psi:
            return self.held[1]
        return None

    def advance(self, psi: np.ndarray, z: float) -> np.ndarray:
        half = self.half_at(z + 0.5 * self.plan.dz)
        if half is not None:
            psi = psi * half
        spectrum = self._held_spectrum(psi)
        self.held = None
        if spectrum is None:
            spectrum = np.fft.fft(psi)
        spectrum *= self.kinetic_phase
        psi = np.fft.ifft(spectrum)
        if half is not None:
            psi *= half
        else:
            self.held = (psi, spectrum)
        return psi

    def measure(self, psi: np.ndarray, z: float) -> BeamMoments:
        return self.moments(psi, z, self._held_spectrum(psi))

    def wrap(self, psi: np.ndarray, z: float) -> WaveField:
        return WaveField(self.grid, psi, self.epsilon, z)


def step_twm(psi: WaveField, spec: PotentialSpec, plan: StepPlan) -> WaveField:
    """Advance a wavefield by one Strang step of size ``plan.dz``.

    The potential is sampled at the step midpoint for both half phases.
    The kinetic phase at the largest wavenumber must stay below pi, else a
    :class:`SolverError` is raised.  The norm is preserved to round-off.
    """
    return evolve_twm(psi, spec, replace(plan, n_steps=1)).final


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
    Every step checks the field for finite values and unit norm and raises
    :class:`SolverError` naming the step.
    """
    kernel = _TwmKernel(psi, spec, plan)
    return _evolve(kernel, psi, psi.values, _step_boundaries(psi.z, plan), snapshot_every)


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
    spread = epsilon * z / (2.0 * sigma0**2)
    return sigma0 * math.sqrt(1.0 + spread * spread)
