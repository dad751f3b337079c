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
spectrum.  The kick, rebuilt every step for z-dependent potentials, forms
``exp(i dz G)`` as ``cos(dz G) + i sin(dz G)`` of a real angle.  For a
potential of degree at most 2 (all of linear optics) ``G = U'(x) y`` has
rank one in y, so the kick is built from the gradient alone: with
``y_j = j dy`` and ``j = w q + r``, ``exp(i dz U'_i y_j)`` is the product of
``exp(i dz dy U'_i w q)`` and ``exp(i dz dy U'_i r)``, which takes cos and
sin of about ``2 sqrt(np/2)`` columns instead of ``np/2 + 1``.  A potential
of higher degree builds its generator on the whole ``nx x (np/2 + 1)``
half spectrum.

The one place a half spectrum loses information is the unpaired Nyquist
row (column): ``irfft`` drops the imaginary part that the multiplier
rotates into it, where a complex transform would leave it as an
imaginary residue of ``max|Im| / n``.  That residue signals a state whose
content reaches the edge of the spectral axis, so each step sums it over
its three sub-flows and refuses when the sum exceeds ``STEP_REALNESS_TOL``
of the state's peak.

A step ends with the ``irfft`` of the closing drift, and the next step
would open with the ``rfft`` of that array.  The kernel keeps the closing
drift's spectrum instead and opens the next step from it, with its Nyquist
row made real, which is what that ``rfft`` gives in exact arithmetic: five
transforms a step instead of six.

Every engine -- this grid solver, the ray tracer and the wavefield solver
of :mod:`beamphase.twm` -- runs through one step loop, ``_evolve``, and
returns a :class:`Trajectory`.  Raw arrays pass between steps; moments and
state checks are taken from the arrays, and state objects are built only
at snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate, repeat

import numpy as np

from .diagnostics import BeamMoments, _grid_moments, _ray_moments
from .exceptions import SolverError, StateError, check_count, check_positive
from .grids import AxisGrid, PhaseGrid
from .potentials import (
    PotentialSpec,
    eval_gradient,
    moyal_generator,
    moyal_generator_truncated,
)
from .states import QuasiDistribution, RayEnsemble, _check_classical

__all__ = [
    "StepPlan",
    "Trajectory",
    "step_phase_space",
    "evolve_phase_space",
    "trace_rays",
]

# Imaginary residue (relative to the state peak) tolerated after a step.
STEP_REALNESS_TOL = 1e-8

GENERATOR_MODES = ("full_moyal", "truncated")


@dataclass(frozen=True)
class StepPlan:
    """How to advance a state: step size, count, generator flavour.

    ``generator`` selects ``"full_moyal"`` (complete deformation series) or
    ``"truncated"`` with an odd ``max_order``; order 1 is the classical
    Liouville equation.  Every engine steps by Strang (or leapfrog) splitting.
    """

    dz: float
    n_steps: int
    generator: str = "full_moyal"
    max_order: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "dz", check_positive("dz", self.dz, SolverError))
        object.__setattr__(self, "n_steps", check_count(self.n_steps, "n_steps", 0, SolverError))
        if self.generator not in GENERATOR_MODES:
            raise SolverError(
                f"generator must be one of {GENERATOR_MODES}, got {self.generator!r}"
            )
        if self.generator == "truncated":
            order = self.max_order
            order = 1 if order is None else check_count(order, "max_order", 1, SolverError)
            if order % 2 == 0:
                raise SolverError(f"max_order must be odd, got {order}")
            object.__setattr__(self, "max_order", order)
        elif self.max_order is not None:
            raise SolverError("max_order applies only to the truncated generator")

    @property
    def is_classical(self) -> bool:
        return self.generator == "truncated" and self.max_order == 1


@dataclass(frozen=True)
class Trajectory:
    """Evolution record of any engine: moments every step, states at snapshots.

    ``moments[k]`` belongs to step k (step 0 is the initial state).  The
    states in ``snapshots`` (a :class:`~beamphase.states.WaveField`,
    :class:`QuasiDistribution` or :class:`RayEnsemble` per engine) are
    aligned with ``snapshot_steps`` and always include the initial and the
    final state; the ray tracer keeps only those two.  ``lost`` counts rays
    that left the representable range (0 for the other engines).
    """

    snapshots: tuple
    snapshot_steps: tuple[int, ...]
    moments: tuple[BeamMoments, ...]
    lost: int = 0

    @property
    def final(self):
        return self.snapshots[-1]


def _step_boundaries(z0: float, plan: StepPlan) -> list[float]:
    """``z0 + k dz`` for k = 0..n_steps: the z of every state a plan visits."""
    return (z0 + plan.dz * np.arange(plan.n_steps + 1)).tolist()


def _static_once(build, spec: PotentialSpec):
    """``build`` itself, or for a z-independent ``spec`` its first result at every z.

    The one build happens at the first call, inside the step loop, so an
    error it raises names step 1.
    """
    if not spec.is_static:
        return build
    built = []

    def once(z: float):
        if not built:
            built.append(build(z))
        return built[0]

    return once


def _step_error(step: int, n_steps: int, exc: Exception) -> SolverError:
    return SolverError(f"step {step}/{n_steps}: {exc}")


def _evolve(kernel, initial, values, zs: list[float], snapshot_every: int | None) -> Trajectory:
    """Advance ``values`` from ``zs[0]`` through every step boundary in ``zs``.

    The step loop of every engine.  ``kernel`` supplies ``advance(values,
    z)`` (one step starting at z), ``measure(values, z)`` (moments plus the
    per-step state checks) and ``wrap(values, z)`` (a state object); arrays
    pass between steps and state objects are built only at snapshots.
    Moments are recorded at every step including the initial state; full
    states every ``snapshot_every`` steps plus always ``initial`` and the
    final one (default: only those two).  Step errors carry ``step k/n``.
    """
    n_steps = len(zs) - 1
    if snapshot_every is None:
        snapshot_every = max(n_steps, 1)
    snapshot_every = check_count(snapshot_every, "snapshot_every", 1, SolverError)
    snapshots = [initial]
    snapshot_steps = [0]
    moments = [kernel.measure(values, zs[0])]
    for step in range(1, n_steps + 1):
        try:
            values = kernel.advance(values, zs[step - 1])
            moments.append(kernel.measure(values, zs[step]))
        except (SolverError, StateError) as exc:
            raise _step_error(step, n_steps, exc) from None
        if step % snapshot_every == 0 or step == n_steps:
            snapshots.append(kernel.wrap(values, zs[step]))
            snapshot_steps.append(step)
    return Trajectory(tuple(snapshots), tuple(snapshot_steps), tuple(moments), kernel.lost)


class _GridKernel:
    """Real-data spectral operators for repeated steps of one plan on one grid.

    The drift phase depends only on the grid and dz, so it is built once on
    the ``nx/2 + 1`` non-negative kx rows.  The kick is built on the
    ``np/2 + 1`` non-negative y columns, the Nyquist column at ``|y|``;
    for z-independent potentials it is also reused.  ``kind`` tags the
    evolved states; a ``"classical"`` state is checked for negative values
    every step.

    ``held`` pairs the array a step returned with its closing x spectrum; a
    step handed that very array opens from the spectrum (see the module
    docstring), multiplies it in place and drops it.
    """

    lost = 0
    held = None

    def __init__(
        self, grid: PhaseGrid, spec: PotentialSpec, epsilon: float, plan: StepPlan,
        kind: str = "wigner",
    ):
        self.grid = grid
        self.plan = plan
        self.kind = kind
        x_col, y_row = _kick_operands(grid)
        self.x = x_col[:, 0]
        self.p = grid.p_axis.points()
        self.drift_phase = np.exp(
            -1j * np.outer(_half_spectrum(grid.x_axis), self.p) * (0.5 * plan.dz)
        )
        # Not a bound method: a kernel that referred to itself would outlive
        # its run, held arrays included, until the next garbage collection.
        self.kick_at = _static_once(
            partial(_kick_multiplier, spec, x_col, y_row, epsilon, plan), spec
        )

    def _x_spectrum(self, rho: np.ndarray) -> np.ndarray:
        """``rfft(rho, axis=0)``, from the held spectrum when ``rho`` is the array last returned."""
        held, self.held = self.held, None
        if held is None or held[0] is not rho:
            return np.fft.rfft(rho, axis=0)
        spectrum = held[1]
        spectrum.imag[-1] = 0.0  # irfft dropped it, so rfft(rho) has none
        return spectrum

    def apply(self, rho: np.ndarray, z: float) -> tuple[np.ndarray, float]:
        """One Strang step of a real array: the new array and its Nyquist residue."""
        kick = self.kick_at(z + 0.5 * self.plan.dz)
        rho, residue = _spectral_flow(self._x_spectrum(rho), self.drift_phase, 0)
        if kick is not None:
            rho, kick_residue = _spectral_flow(np.fft.rfft(rho, axis=1), kick, 1)
            residue += kick_residue
        spectrum = np.fft.rfft(rho, axis=0)
        rho, drift_residue = _spectral_flow(spectrum, self.drift_phase, 0)
        self.held = (rho, spectrum)
        return rho, residue + drift_residue

    def advance(self, rho: np.ndarray, z: float) -> np.ndarray:
        rho, residue = self.apply(rho, z)
        _check_residue(rho, residue)
        return rho

    def measure(self, rho: np.ndarray, z: float) -> BeamMoments:
        if self.kind == "classical":
            _check_classical(rho)
        return _grid_moments(rho, z, self.x, self.p, self.grid.cell_area)

    def wrap(self, rho: np.ndarray, z: float) -> QuasiDistribution:
        return QuasiDistribution(self.grid, rho, z, self.kind)


def _kick_multiplier(
    spec: PotentialSpec, x_col, y_row, epsilon: float, plan: StepPlan, z_mid: float
):
    """``exp(i dz G)`` on ``x_col`` x ``y_row`` as ``cos + i sin`` (None without a force).

    When ``spec.kick_is_classical`` the generator is ``U'(x) y`` bit for bit
    under either plan (the order-1 shift coefficient ``2 (eps/2) / eps`` is
    1.0), so the kick has rank one in y and is built from the gradient
    alone by :func:`_rank_one_kick`; otherwise the generator is built on the
    whole grid.  Raises when the kick phase ``max |dz G|`` reaches pi; both
    builds give that phase the same value.
    """
    if spec.degree < 1:
        return None
    if spec.kick_is_classical:
        slope = eval_gradient(spec, x_col[:, 0], z_mid)
        # Rounding is monotone, so max_ij |U'_i y_j| = max_j (max_i |U'_i|) y_j
        # (a non-finite U' gives nan, as the 0 * inf of the y = 0 column does).
        _check_kick_phase(float(np.max(np.abs(slope).max() * y_row)) * plan.dz)
        return _rank_one_kick(slope, y_row[0], plan.dz)
    if plan.generator == "full_moyal":
        g = moyal_generator(spec, x_col, y_row, z_mid, epsilon)
    else:
        g = moyal_generator_truncated(spec, x_col, y_row, z_mid, epsilon, plan.max_order)
    # G is odd in y, so max |G| over the half spectrum is the whole-box value.
    _check_kick_phase(float(np.abs(g).max()) * plan.dz)
    return _unit_phase(plan.dz * g)


def _check_kick_phase(guard: float) -> None:
    if guard >= math.pi:
        raise SolverError(
            f"kick phase overflow: max |dz * G| = {guard:.3e} >= pi "
            "(the complex exponential would alias); reduce dz or the grid extents"
        )


def _unit_phase(angle: np.ndarray) -> np.ndarray:
    """``exp(i angle)`` of a real array, as ``cos + i sin``."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _rank_one_kick(slope: np.ndarray, y: np.ndarray, dz: float) -> np.ndarray:
    """``exp(i dz slope_i y_j)`` on the half-spectrum row ``y_j = j dy`` from few cos and sin.

    With ``theta_i = dz dy slope_i``, each ``j = w q + r`` (``w = ceil(sqrt(n))``
    for the row's n entries) gives ``exp(i theta_i j) = exp(i theta_i w q)
    exp(i theta_i r)``: cos and sin of ``n/w + w`` columns instead of n.
    Returns a view of the first n columns of the product.
    """
    n = len(y)
    width = math.ceil(math.sqrt(n))
    theta = (dz * y[1]) * slope
    coarse = _unit_phase(np.multiply.outer(theta, np.arange(0, n, width)))
    fine = _unit_phase(np.multiply.outer(theta, np.arange(width)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(slope), -1)[:, :n]


def _preflight_kick(grid: PhaseGrid, spec: PotentialSpec, epsilon: float, plan: StepPlan) -> None:
    """Raise the kick-guard error that step 1 of a grid run from z = 0 would raise.

    It needs no state, so a caller can refuse a plan with steps before any
    engine starts; the step loop still checks every later step.
    """
    try:
        _kick_multiplier(spec, *_kick_operands(grid), epsilon, plan, 0.5 * plan.dz)
    except SolverError as exc:
        raise _step_error(1, plan.n_steps, exc) from None


def _half_spectrum(axis: AxisGrid) -> np.ndarray:
    """The ``n/2 + 1`` non-negative angular frequencies of ``rfft`` order."""
    return np.abs(axis.frequencies()[: axis.n // 2 + 1])


def _kick_operands(grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """The kick generator's arguments: an x column against the half-spectrum y row."""
    return grid.x_axis.points()[:, None], _half_spectrum(grid.p_axis)[None, :]


def _spectral_flow(
    spectrum: np.ndarray, multiplier: np.ndarray, axis: int
) -> tuple[np.ndarray, float]:
    """One exact sub-flow along ``axis`` from a half spectrum: the new real array and its residue.

    ``spectrum`` (the ``rfft`` along ``axis`` of an even-length real array)
    is multiplied in place.  ``irfft`` keeps only the real part of the
    unpaired Nyquist coefficient; the residue is the alternating
    ``(-1)**j * Im / n`` that a complex inverse FFT of length ``n`` would
    have left from its imaginary part.
    """
    n = 2 * (spectrum.shape[axis] - 1)
    spectrum *= multiplier
    nyquist = np.take(spectrum, -1, axis=axis)
    return np.fft.irfft(spectrum, n=n, axis=axis), float(np.abs(nyquist.imag).max()) / n


def _check_residue(rho: np.ndarray, residue: float) -> None:
    peak = float(np.abs(rho).max())
    if residue > STEP_REALNESS_TOL * max(peak, 1e-300):
        raise SolverError(
            f"step produced imaginary residue {residue:.3e} above "
            f"{STEP_REALNESS_TOL:g} of the peak {peak:.3e}"
        )


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
    return evolve_phase_space(state, spec, epsilon, replace(plan, n_steps=1)).final


def evolve_phase_space(
    state: QuasiDistribution,
    spec: PotentialSpec,
    epsilon: float,
    plan: StepPlan,
    snapshot_every: int | None = None,
) -> Trajectory:
    """Advance ``plan.n_steps`` steps, recording moments and snapshots.

    Moments are recorded at every step including the initial state.  Full
    states are kept every ``snapshot_every`` steps plus always the initial
    and final ones (default: only those two).  ``n_steps = 0`` returns the
    input unchanged.  The result equals the composition of
    :func:`step_phase_space` steps within round-off (a single step
    transforms its input afresh; later steps of one run open from the
    spectrum the previous step kept).  Every step checks the evolved density
    for finite values and unit mass (and, when it stays classical, for
    negative values) and raises :class:`SolverError` naming the step.
    """
    epsilon = check_positive("epsilon", epsilon, SolverError)
    # Classical transport preserves positivity; deformed transport does not.
    kind = state.kind if plan.is_classical else "wigner"
    kernel = _GridKernel(state.grid, spec, epsilon, plan, kind)
    return _evolve(kernel, state, state.values, _step_boundaries(state.z, plan), snapshot_every)


class _RayKernel:
    """Leapfrog on the position and momentum arrays of the rays still live.

    The arrays are updated in place; a step that loses rays compacts them
    to the finite ones.  Kick-drift-kick is first-same-as-last: for a
    z-independent potential the closing half-kick of one step is the
    opening half-kick of the next, so it is kept in ``kick`` and each step
    evaluates the gradient once.  A step that loses rays drops it; the next
    step recomputes it on the survivors.
    """

    def __init__(self, ensemble: RayEnsemble, spec: PotentialSpec, plan: StepPlan):
        self.ensemble = ensemble
        self.spec = spec
        self.dz = plan.dz
        self.lost = 0
        self.kick = None

    def _half_kick(self, x: np.ndarray, z_mid: float) -> np.ndarray:
        kick = eval_gradient(self.spec, x, z_mid)
        kick *= 0.5 * self.dz
        return kick

    def advance(self, values, z: float):
        x, p = values
        z_mid = z + 0.5 * self.dz
        # Diverging anharmonic orbits overflow to inf before being pruned;
        # that is the intended loss mechanism, not an arithmetic error.
        with np.errstate(over="ignore", invalid="ignore"):
            kick = self.kick if self.kick is not None else self._half_kick(x, z_mid)
            p -= kick
            x += self.dz * p
            kick = self._half_kick(x, z_mid)
            p -= kick
            finite = np.isfinite(x) & np.isfinite(p)
        self.kick = kick if self.spec.is_static else None
        if not finite.all():
            x, p = x[finite], p[finite]
            self.lost += finite.size - x.size
            self.kick = None
            if x.size == 0:
                raise SolverError("all rays diverged to non-finite phase-space values")
        return x, p

    def measure(self, values, z: float) -> BeamMoments:
        return _ray_moments(*values, z)

    def wrap(self, values, z: float) -> RayEnsemble:
        return RayEnsemble(*values, z, self.ensemble.seed)


def trace_rays(ensemble: RayEnsemble, spec: PotentialSpec, plan: StepPlan) -> Trajectory:
    """Trace rays through dx/dz = p, dp/dz = -dU/dx by leapfrog.

    Each step is kick-drift-kick with the potential coefficients sampled at
    the step midpoint, so the map is symplectic and second-order accurate
    for z-dependent potentials.  For a z-independent potential the map is
    first-same-as-last: the closing half-kick of a step is reused as the
    opening half-kick of the next, so a step evaluates the gradient once,
    with results bitwise equal to two evaluations.  Rays that reach
    non-finite coordinates (diverging anharmonic orbits) are excluded from
    the moments and from the final ensemble; ``lost`` reports how many.  The
    snapshots are the initial and the final ensemble.
    """
    values = (np.array(ensemble.positions, dtype=float), np.array(ensemble.momenta, dtype=float))
    # Rays advance z by repeated addition of dz (the grids use z0 + k dz); keeping
    # that keeps their z column, and so their artifacts, bit-identical.
    zs = list(accumulate(repeat(plan.dz, plan.n_steps), initial=ensemble.z))
    return _evolve(_RayKernel(ensemble, spec, plan), ensemble, values, zs, None)
