"""Phase-space transport: spectral grid solver and symplectic ray tracing.

The grid solver advances the deformed von Neumann equation

    d rho/dz + p d rho/dx + (i/eps)[U(x + i eps/2 d/dp) - U(x - i eps/2 d/dp)] rho = 0

by Strang splitting with exact sub-flows: a half drift (per-p-row spectral
shift ``rho(x, p) <- rho(x - p dz/2, p)``), a full kick (multiplication by
``exp(i dz G(x, y, z_mid))`` in the spectral variable y conjugate to p),
and a second half drift.  With the generator truncated at first order the
kick is the exact classical Liouville map, so one code path serves both the
deformed and the classical engines.

Adjacent half drifts are one drift, so N steps are ``D(dz/2) [K D(dz)]^(N-1)
K D(dz/2)`` (Strang, SIAM J. Numer. Anal. 5 (1968) 506).  Between steps the
kernel holds post-kick arrays, half a drift behind their step boundary: a
run enters by a backward half drift of its initial array, a step's moments
are its post-kick ones carried half a drift in closed form, and a snapshot
takes the closing half drift.

z-dependent potential coefficients are sampled at the midpoint of each
step, which preserves the second-order accuracy of the splitting.

rho is real, so the state stays a real array between steps and every
sub-flow uses real-data transforms: the drifts ``rfft``/``irfft`` along x,
the kick along p.  Both multipliers are Hermitian (the drift phase is odd
in kx, and G is odd in y), so each is built only on the non-negative half
spectrum.  The kick, rebuilt every step for z-dependent potentials, forms
``exp(i dz G)`` as ``cos(dz G) + i sin(dz G)`` of a real angle.

The one place a half spectrum loses information is the unpaired Nyquist
row (column): ``irfft`` drops the imaginary part that the multiplier
rotates into it, where a complex transform would leave it as an
imaginary residue of ``max|Im| / n``.  That residue signals a state whose
content reaches the edge of the spectral axis, so each step sums it over
its two sub-flows, and the entry and each snapshot's closing half drift
check their own; each refuses when the residue exceeds
``STEP_REALNESS_TOL`` of the state's peak.  A step takes four transforms:
``rfft``/``irfft`` along x for the drift, and along p for the kick.

Every engine runs through one step loop, ``_evolve``, and returns a
:class:`Trajectory`: this grid solver, the ray tracer, the wavefield solver
of :mod:`beamphase.twm`, and for a potential of degree at most 2 the closed
form of :mod:`beamphase.linear_map`, which does not step the grid at all.
Each engine's kernel chooses the values that pass between steps (raw
arrays, or the closed form's step numbers); moments and state checks are
taken from them, and state objects are built only at snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import BeamMoments, _beam_moments, _drifted, _grid_central, _ray_moments
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
    "evolve_phase_space",
    "trace_rays",
]

# Imaginary residue (relative to the state peak) tolerated after a step.
STEP_REALNESS_TOL = 1e-8

# Largest |x| or |p| a ray keeps once its ensemble's moments overflow.  With
# every coordinate within it a deviation is at most 2 RAY_CAP, so a variance
# or covariance is at most 4 RAY_CAP**2 and the emittance radicand's products
# at most 16 RAY_CAP**4 = 1.6e301: the moments of the rays kept are finite.
RAY_CAP = 1e75


@dataclass(frozen=True)
class StepPlan:
    """How to advance a state: step size, count, and the order of the Moyal series.

    ``max_order = None`` keeps the complete deformation series; an odd
    ``max_order`` truncates it there, and order 1 is the classical Liouville
    equation.  Every engine steps by Strang (or leapfrog) splitting.
    """

    dz: float
    n_steps: int
    max_order: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "dz", check_positive("dz", self.dz, SolverError))
        object.__setattr__(self, "n_steps", check_count(self.n_steps, "n_steps", 0, SolverError))
        if self.max_order is not None:
            order = check_count(self.max_order, "max_order", 1, SolverError)
            if order % 2 == 0:
                raise SolverError(f"max_order must be odd, got {order}")
            object.__setattr__(self, "max_order", order)

    @property
    def is_classical(self) -> bool:
        return self.max_order == 1


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


def _step_error(step: int, n_steps: int, exc: Exception) -> SolverError:
    return SolverError(f"step {step}/{n_steps}: {exc}")


def _evolve(kernel, initial, values, zs: list[float], snapshot_every: int | None) -> Trajectory:
    """Advance ``values`` from ``zs[0]`` through every step boundary in ``zs``.

    The step loop of every engine.  ``kernel`` supplies ``advance(values,
    z)`` (one step starting at z), ``measure(values, z)`` (moments plus the
    per-step state checks) and ``wrap(values, z)`` (a state object); the
    values are the kernel's own (arrays, or the closed form's step numbers).
    Moments are recorded at every step including the initial state; full
    states every ``snapshot_every`` steps plus always the initial and the
    final one (default: only those two).  The initial one is ``initial``,
    or the state measured when measuring it dropped rays.  Step errors,
    step 0's and snapshots' included, carry ``step k/n``.
    """
    n_steps = len(zs) - 1
    if snapshot_every is None:
        snapshot_every = max(n_steps, 1)
    snapshot_every = check_count(snapshot_every, "snapshot_every", 1, SolverError)
    step = 0
    try:
        moments = [kernel.measure(values, zs[0])]
        snapshots = [kernel.wrap(values, zs[0]) if kernel.lost else initial]
        snapshot_steps = [0]
        for step in range(1, n_steps + 1):
            values = kernel.advance(values, zs[step - 1])
            moments.append(kernel.measure(values, zs[step]))
            if step % snapshot_every == 0 or step == n_steps:
                snapshots.append(kernel.wrap(values, zs[step]))
                snapshot_steps.append(step)
    except (SolverError, StateError) as exc:
        raise _step_error(step, n_steps, exc) from None
    return Trajectory(tuple(snapshots), tuple(snapshot_steps), tuple(moments), kernel.lost)


class _GridKernel:
    """Real-data spectral operators for repeated steps of one plan on one grid.

    Its values are post-kick arrays (see the module docstring), and a step
    depends only on its input and z.  Construction builds the drift phases
    on the ``nx/2 + 1`` non-negative kx rows and step 1's kick of a run
    from ``z0`` (its guard names step 1), every step's kick for a
    z-independent potential; ``advance`` builds a z-dependent one at each
    later midpoint.  A kick covers the ``np/2 + 1`` non-negative y columns,
    the Nyquist column at ``|y|``.  ``kind`` tags the evolved states; a
    ``"classical"`` state is checked for negative values every step.
    """

    lost = 0

    def __init__(
        self, grid: PhaseGrid, spec: PotentialSpec, epsilon: float, plan: StepPlan,
        kind: str = "wigner", z0: float = 0.0,
    ):
        self.grid = grid
        self.kind = kind
        self.half = 0.5 * plan.dz
        x_col, y_row = _kick_operands(grid)
        self.x = x_col[:, 0]
        self.p = grid.p_axis.points()
        kx_p = np.outer(_half_spectrum(grid.x_axis), self.p)
        self.half_drift = np.exp(-1j * kx_p * self.half)
        self.drift = np.exp(-1j * kx_p * plan.dz)
        self.static = spec.is_static
        self.kick_args = (spec, x_col, y_row, epsilon, plan)
        self.mid = z0 + self.half  # step 1's midpoint
        try:
            self.kick = _kick_multiplier(*self.kick_args, self.mid) if plan.n_steps else None
        except SolverError as exc:
            raise _step_error(1, plan.n_steps, exc) from None

    def enter(self, rho: np.ndarray) -> np.ndarray:
        """The post-kick form of a step-boundary array: its backward half drift."""
        return _drift(rho, np.conj(self.half_drift))

    def advance(self, rho: np.ndarray, z: float) -> np.ndarray:
        """One step from z: the full drift, then the kick at the step midpoint."""
        mid = z + self.half
        kick = (
            self.kick if self.static or mid == self.mid else _kick_multiplier(*self.kick_args, mid)
        )
        rho, residue = _spectral_flow(np.fft.rfft(rho, axis=0), self.drift, 0)
        if kick is not None:
            rho, kick_residue = _spectral_flow(np.fft.rfft(rho, axis=1), kick, 1)
            residue += kick_residue
        _check_residue(rho, residue)
        return rho

    def measure(self, rho: np.ndarray, z: float) -> BeamMoments:
        if self.kind == "classical":
            _check_classical(rho)
        central = _grid_central(rho, self.x, self.p, self.grid.cell_area)
        return _beam_moments(z, *_drifted(central, self.half))

    def wrap(self, rho: np.ndarray, z: float) -> QuasiDistribution:
        return QuasiDistribution(self.grid, _drift(rho, self.half_drift), z, self.kind)


def _drift(rho: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """``rho`` drifted by the x-spectral ``phase``, its Nyquist residue checked."""
    rho, residue = _spectral_flow(np.fft.rfft(rho, axis=0), phase, 0)
    _check_residue(rho, residue)
    return rho


def _kick_multiplier(
    spec: PotentialSpec, x_col, y_row, epsilon: float, plan: StepPlan, z_mid: float
):
    """``exp(i dz G)`` on ``x_col`` x ``y_row`` as ``cos + i sin`` (None without a force).

    Raises when the kick phase ``max |dz G|``, non-finite if G overflows, is not below pi.
    """
    if spec.degree < 1:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        if plan.max_order is None:
            g = moyal_generator(spec, x_col, y_row, z_mid, epsilon)
        else:
            g = moyal_generator_truncated(spec, x_col, y_row, z_mid, epsilon, plan.max_order)
    # G is odd in y, so max |G| over the half spectrum is the whole-box value.
    _check_kick_phase(float(np.abs(g).max()) * plan.dz)
    return _unit_phase(plan.dz * g)


def _check_kick_phase(guard: float) -> None:
    """Refuse a kick phase ``max |dz G|`` that is not below pi, NaN and inf included."""
    if not guard < math.pi:
        raise SolverError(
            f"kick phase overflow: max |dz * G| = {guard:.3e} >= pi (the complex exponential "
            "would alias); reduce dz or the grid extents" if math.isfinite(guard) else
            f"kick phase is non-finite: max |dz * G| = {guard}; a potential coefficient is "
            "non-finite or the generator overflows on the grid"
        )


def _unit_phase(angle: np.ndarray) -> np.ndarray:
    """``exp(i angle)`` of a real array, as ``cos + i sin``."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


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
    input unchanged.  A stepped run fuses the half drifts of adjacent steps
    (see the module docstring): four transforms a step, plus one drift to
    enter the run and one to close each snapshot.  Its moments are those of
    the post-kick states carried half a drift forward in closed form, and
    it equals the composition of one-step runs within round-off.  Every
    step checks its post-kick density for finite values and unit mass (and,
    when it stays classical, for negative values) and raises
    :class:`SolverError` naming the step; every snapshot is checked too.

    For a potential of degree at most 2 the run is mapped in closed form
    (``linear_map``), alike for either plan: the moments come from the
    composed step matrices, and only the snapshots are computed on the grid,
    with the density checks; every step gets the coefficient check, the kick
    guard and the support check, which refuses a beam carried to the box
    edge (``grid.x_length``, ``grid.p_length``) or to a Nyquist line.  A
    refused run raises when this function starts, before any snapshot.
    """
    epsilon = check_positive("epsilon", epsilon, SolverError)
    zs = _step_boundaries(state.z, plan)
    kernel = _grid_kernel(state, spec, epsilon, plan, zs)
    return _evolve(kernel, state, kernel.enter(state.values), zs, snapshot_every)


def _grid_kernel(
    state: QuasiDistribution, spec: PotentialSpec, epsilon: float, plan: StepPlan, zs: list[float]
):
    """The kernel of a grid run of ``state`` over ``zs``; it takes no step, so it refuses early.

    ``linear_map._LinearKernel`` for a potential of degree at most 2 runs
    every step's kick guard and support check, a :class:`_GridKernel` step
    1's kick guard at ``zs[0] + dz/2``; either names the step it refuses.
    """
    # Classical transport preserves positivity; deformed transport does not.
    kind = state.kind if plan.is_classical else "wigner"
    if spec.kick_is_classical:
        from .linear_map import _LinearKernel  # loaded by the runs that take it

        return _LinearKernel(state, spec, plan, kind, zs)
    return _GridKernel(state.grid, spec, epsilon, plan, kind, zs[0])


class _RayKernel:
    """Leapfrog on the position and momentum arrays of the rays still live.

    The values are the list ``[x, p]``, whose arrays ``advance`` updates in
    place.  Losses are taken where the moments are measured: a ray that
    turns non-finite always fails its step's moments (a finite sum has only
    finite summands), and a ray can stay finite and still overflow them
    (``x**2``, or the product of two variances, past the float range).  So
    when a step's moments fail, ``measure`` drops the non-finite rays,
    replacing both arrays in the list, counts them as lost and measures
    again; if that fails too, it does the same with the rays beyond
    ``RAY_CAP``.  Other moment errors (fewer than two rays left) are raised
    as they are.  Kick-drift-kick is first-same-as-last: for a
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
        # Diverging anharmonic orbits overflow to inf before ``measure`` drops
        # them; that is the intended loss mechanism, not an arithmetic error.
        with np.errstate(over="ignore", invalid="ignore"):
            kick = self.kick if self.kick is not None else self._half_kick(x, z_mid)
            p -= kick
            x += self.dz * p
            kick = self._half_kick(x, z_mid)
            p -= kick
        self.kick = kick if self.spec.is_static else None
        return values

    def _drop(self, x: np.ndarray, p: np.ndarray, kept: np.ndarray):
        """The rays ``kept`` marks; the others count as lost."""
        x, p = x[kept], p[kept]
        self.lost += kept.size - x.size
        self.kick = None
        if x.size == 0:
            raise SolverError("all rays diverged to non-finite phase-space values")
        return x, p

    def measure(self, values: list, z: float) -> BeamMoments:
        for inside in (np.isfinite, lambda a: np.abs(a) <= RAY_CAP, None):
            try:
                return _ray_moments(*values, z)
            except StateError:
                if inside is None:
                    raise
                x, p = values
                kept = inside(x) & inside(p)
                if not kept.all():
                    values[:] = self._drop(x, p, kept)

    def wrap(self, values, z: float) -> RayEnsemble:
        return RayEnsemble(*values, z, self.ensemble.seed)


def trace_rays(ensemble: RayEnsemble, spec: PotentialSpec, plan: StepPlan) -> Trajectory:
    """Trace rays through dx/dz = p, dp/dz = -dU/dx by leapfrog.

    Each step is kick-drift-kick with the potential coefficients sampled at
    the step midpoint, so the map is symplectic and second-order accurate
    for z-dependent potentials.  For a z-independent potential the map is
    first-same-as-last: the closing half-kick of a step is reused as the
    opening half-kick of the next, so a step evaluates the gradient once,
    with results bitwise equal to two evaluations.  Losses are taken where
    the moments are measured: at a step whose moments fail, the rays with
    non-finite coordinates (diverging anharmonic orbits), and if the
    moments still fail the rays beyond ``RAY_CAP``, are excluded from the
    moments and from the final ensemble; ``lost`` reports how many.  The
    snapshots are the initial ensemble whose moments were measured (without
    the rays those moments dropped) and the final one.
    """
    values = [np.array(ensemble.positions, dtype=float), np.array(ensemble.momenta, dtype=float)]
    zs = _step_boundaries(ensemble.z, plan)
    return _evolve(_RayKernel(ensemble, spec, plan), ensemble, values, zs, None)
