"""Scenario execution: build states, dispatch engines, compare, report.

``run_scenario`` evolves every requested engine from a common initial beam,
records moments at every step and full states at the snapshot cadence,
computes cross-engine distances where the representations are comparable
(grid engines directly, the wavefield engine through its Wigner transform)
and emits the configured artifacts.  Each engine's outcome, its
trajectory and wall time or the error it raised, is taken in one place
(``_outcome``).  A run with rays and a grid engine evolves its grid
engines on one worker thread while the rays are traced, and reports as if
the engines had run one after another.  Everything is deterministic for a
fixed config and seed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    BeamMoments,
    NegativityReport,
    emittance_from_thermal,
    negativity,
    truncation_ratio,
)
from .exceptions import SolverError, StateError, TransformError
from .phasespace import StepPlan, _first_kick, _step_boundaries, evolve_phase_space, trace_rays
from .scenario import ScenarioConfig
from .states import sample_rays
from .transforms import _WignerMap
from .twm import _kinetic_phase, evolve_twm

__all__ = [
    "EngineResult",
    "PairDistances",
    "RunReport",
    "run_scenario",
    "build_initial_states",
]

# Marginal-identity slack used when transforming wavefield snapshots for
# cross-engine comparison; evolved fields sit closer to the grid edges than
# freshly constructed ones, so the constructor-grade 1e-10 is too strict.
COMPARISON_MARGINAL_TOL = 1e-9

GRID_ENGINES = ("moyal", "liouville")
# The engines that start from ``config.initial_density()``.
DENSITY_ENGINES = (*GRID_ENGINES, "rays")


@dataclass(frozen=True)
class EngineResult:
    """One engine's run record.

    ``moments[k]`` belongs to step k (step 0 is the initial state).  The
    snapshot arrays are aligned with ``snapshot_steps``; they are empty for
    engines without a grid representation.
    """

    name: str
    moments: tuple[BeamMoments, ...]
    snapshot_steps: tuple[int, ...]
    snapshot_negativity: tuple[float, ...]
    snapshot_r3: tuple[float, ...]
    seconds: float
    lost_rays: int = 0


@dataclass(frozen=True)
class PairDistances:
    """L-infinity distance between two engines' states at each snapshot."""

    engine_a: str
    engine_b: str
    snapshot_steps: tuple[int, ...]
    linf: tuple[float, ...]


@dataclass(frozen=True)
class RunReport:
    config: ScenarioConfig
    engines: tuple[EngineResult, ...]
    distances: tuple[PairDistances, ...]
    final_negativity: NegativityReport | None
    warnings: tuple[str, ...]

    def engine(self, name: str) -> EngineResult:
        for result in self.engines:
            if result.name == name:
                return result
        raise KeyError(f"engine {name!r} was not part of this run")


def build_initial_states(config: ScenarioConfig, rho=None):
    """Construct the initial state for every requested engine.

    The wavefield engine gets ``config.initial_wavefield()``, the grid and
    ray engines ``config.initial_density()``: the builders that
    ``load_scenario`` already ran to check the box.  ``rho`` is that
    density when the caller has built it.  Returns a dict with keys
    ``psi``, ``rho`` and ``rays`` (values may be None when the
    corresponding engine was not requested).
    """
    engines = config.run.engines
    psi = config.initial_wavefield() if "twm" in engines else None
    if rho is None and set(DENSITY_ENGINES) & set(engines):
        rho = config.initial_density()
    rays = sample_rays(rho, config.run.ray_count, config.run.seed) if "rays" in engines else None
    return {"psi": psi, "rho": rho, "rays": rays}


def _initial_wigner(config: ScenarioConfig, psi):
    """The run's one Wigner map and the density of the initial twm field ``psi``.

    That transform depends only on the grid, the beam and epsilon, so its
    failure raises a :class:`TransformError` naming the grid keys, which
    ``run`` reports and ``validate`` raises as a configuration error.
    """
    try:
        wigner = _WignerMap(psi.grid, psi.epsilon, config.grid.p_axis())
        return wigner, wigner(psi, COMPARISON_MARGINAL_TOL)
    except (TransformError, StateError) as exc:
        raise TransformError(
            "grid.x_length, grid.np, grid.p_length: the Wigner transform of the "
            f"initial twm field fails its check ({exc}); the shifts it correlates "
            "stop at x_length / 4 in steps of pi epsilon / p_length"
        ) from None


def _engine_plan(name: str, config: ScenarioConfig) -> StepPlan:
    return StepPlan(config.run.dz, config.run.n_steps, 1 if name == "liouville" else None)


def _guard_failures(config: ScenarioConfig, spec, rho=None) -> dict[str, str]:
    """The guard errors of the requested engines that need no evolved state, by engine.

    Maps each refused engine, in run order, to the text ``run`` reports:
    ``run_scenario`` refuses the first one before any engine starts and
    ``validate`` prints each as a warning.  The twm kinetic guard and the
    grid kick guard of step 1 depend only on the grid, the potential, dz and
    epsilon.  For a potential of degree at most 2 the grid engines map the
    run in closed form, and building that map (``linear_map._LinearKernel``
    on the initial density ``rho``, built from ``config`` when None) runs
    every step's coefficient check, kick guard and support check, which
    keeps the beam in the box and short of the Nyquist lines
    (``grid.x_length``, ``grid.p_length``, ``grid.nx``, ``grid.np``).
    Guards at later steps of a z-dependent potential of higher degree stay
    in the step loop.  A run without steps takes none, so it checks none.
    """
    failures = {}
    run = config.run
    if run.n_steps == 0:
        return failures
    linear = None  # both grid engines map a degree <= 2 run alike, so it is checked once
    if spec.kick_is_classical and set(GRID_ENGINES) & set(run.engines):
        from .linear_map import _LinearKernel  # loaded by the runs that take it

        rho = config.initial_density() if rho is None else rho
        plan = _engine_plan("moyal", config)
        try:
            _LinearKernel(rho, spec, plan, rho.kind, _step_boundaries(rho.z, plan))
        except SolverError as exc:
            linear = exc
    for name in run.engines:
        plan = _engine_plan(name, config)
        try:
            if name == "twm":
                _kinetic_phase(config.grid.x_axis(), config.epsilon, plan.dz)
            elif name in GRID_ENGINES and linear is not None:
                raise linear
            elif name in GRID_ENGINES and not spec.kick_is_classical:
                _first_kick(config.grid.phase_grid(), spec, config.epsilon, plan)
        except SolverError as exc:
            failures[name] = f"engine {name}: {exc}"
    return failures


def _linf(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def _evolve_engine(name: str, states: dict, spec, config: ScenarioConfig):
    """One engine's trajectory."""
    plan = _engine_plan(name, config)
    every = config.run.snapshot_every
    if name == "twm":
        return evolve_twm(states["psi"], spec, plan, every)
    if name == "rays":
        return trace_rays(states["rays"], spec, plan)
    return evolve_phase_space(states["rho"], spec, config.epsilon, plan, every)


def _outcome(name: str, states: dict, spec, config: ScenarioConfig):
    """One engine's ``(traj, seconds)``, or the exception it raised.

    ``seconds`` is the engine's own wall time; a solver error is renamed
    ``engine <name>: ...``.
    """
    started = time.perf_counter()
    try:
        traj = _evolve_engine(name, states, spec, config)
    except SolverError as exc:
        return SolverError(f"engine {name}: {exc}")
    except Exception as exc:
        return exc
    return traj, time.perf_counter() - started


def _trajectories(states: dict, spec, config: ScenarioConfig):
    """Every engine's ``(name, traj, seconds)`` in run order.

    Run order is ``scenario.ENGINES`` order, whatever order the file lists
    the engines in: twm, moyal, liouville, rays.  In a run with rays, the
    first grid engine's turn starts one worker thread that evolves the grid
    engines in run order, stopping at its first failure, while this thread
    traces the rays; twm and its Wigner snapshots are done by then.  The
    grid kernel's FFTs and the rays' ufunc loops release the GIL and share
    no state, and the grid moments are the only BLAS caller while both run.
    The worker is joined before any outcome is read.  Each outcome is
    raised or yielded at its engine's turn, so the first engine in run
    order that fails is the one reported, as when the engines run one
    after another.
    """
    engines = config.run.engines
    grid = [name for name in engines if name in GRID_ENGINES]
    outcomes: dict = {}

    def lane():
        for name in grid:
            outcomes[name] = _outcome(name, states, spec, config)
            if isinstance(outcomes[name], Exception):
                return

    for name in engines:
        if name in grid[:1] and "rays" in engines:
            worker = threading.Thread(target=lane, name="beamphase-grid")
            worker.start()
            try:
                outcomes["rays"] = _outcome("rays", states, spec, config)
            finally:
                worker.join()
        outcome = outcomes.pop(name) if name in outcomes else _outcome(name, states, spec, config)
        if isinstance(outcome, Exception):
            raise outcome
        yield name, *outcome


def _phase_space_snapshots(name: str, traj, spec, config: ScenarioConfig, warnings: list[str]):
    """An engine's snapshot diagnostics and the phase-space densities the run keeps.

    Returns ``(steps, densities, reports, ratios)``: the snapshot steps, the
    densities, and each snapshot's :class:`NegativityReport` and truncation
    ratio.  All four are empty for an engine without a phase-space
    representation.

    Wavefield snapshots go through one reused Wigner map, one at a time: each
    density is taken for its diagnostics and then dropped, unless a grid
    engine in the run needs them all for the distances.  Otherwise only the
    final one is kept, for the artifacts and the final negativity, so a
    twm-only run holds one density however many snapshots it takes.  When an
    evolved snapshot fails its marginal or momentum-norm check, the engine
    is recorded without any (its moments stay valid) and a warning names the
    snapshot.  :func:`_initial_wigner` raises a failure on the initial
    field, which no evolution caused.
    """
    if name not in GRID_ENGINES and name != "twm":
        return (), (), (), ()
    keep_all = any(engine in GRID_ENGINES for engine in config.run.engines)
    if name == "twm":
        wigner, first = _initial_wigner(config, traj.snapshots[0])
    densities, reports, ratios = [], [], []
    for step, state in zip(traj.snapshot_steps, traj.snapshots):
        if name == "twm" and step == 0:
            state, first = first, None  # held by the loop alone, so it goes with the next state
        elif name == "twm":
            try:
                state = wigner(state, COMPARISON_MARGINAL_TOL)
            except (TransformError, StateError) as exc:
                warnings.append(
                    f"twm: Wigner transform of the step {step} snapshot failed ({exc}); "
                    "twm is left out of the distances, the final negativity and the grid "
                    "artifacts"
                )
                return (), (), (), ()
        reports.append(negativity(state))
        ratios.append(truncation_ratio(state, spec, config.epsilon))
        if keep_all:
            densities.append(state)
    if not keep_all:
        densities.append(state)
    return traj.snapshot_steps, tuple(densities), reports, ratios


def run_scenario(config: ScenarioConfig, emit: bool = True) -> RunReport:
    """Run every requested engine and return the comparison report.

    Artifacts (CSV series, grid dumps, heatmaps) are written to the
    configured output directory unless ``emit`` is false.  Solver errors
    carry the engine name and step context; a guard error that needs no
    evolved state (see ``_guard_failures``) is raised before any engine
    starts, and otherwise the first engine in run order that fails is
    reported (see ``_trajectories``).
    """
    spec = config.potential.build()
    run = config.run
    # The density before the guards, which map it for a degree <= 2 grid run;
    # the other states after them, so a refused run samples no rays.
    rho = config.initial_density() if set(DENSITY_ENGINES) & set(run.engines) else None
    failures = _guard_failures(config, spec, rho)
    if failures:
        raise SolverError(next(iter(failures.values())))
    states = build_initial_states(config, rho)
    warnings: list[str] = []

    if config.physics.from_thermal:
        thermal = emittance_from_thermal(config.physics.vth_over_c, config.physics.sigma0)
        if thermal.paraxial_warning:
            warnings.append(
                f"physics: vth_over_c = {config.physics.vth_over_c:g} strains the "
                "paraxial small-angle assumption (> 0.1)"
            )

    results: list[EngineResult] = []
    # name -> (snapshot steps, phase-space densities, final NegativityReport)
    # for every engine with a phase-space representation; twm keeps only its
    # final density unless a grid engine needs them all for the distances.
    phase_space: dict[str, tuple] = {}

    for name, traj, seconds in _trajectories(states, spec, config):
        steps, densities, reports, ratios = _phase_space_snapshots(
            name, traj, spec, config, warnings
        )
        if densities:
            phase_space[name] = (steps, densities, reports[-1])
        volumes = tuple(report.negativity_volume for report in reports)
        results.append(
            EngineResult(name, traj.moments, steps, volumes, tuple(ratios), seconds, traj.lost)
        )
        if traj.lost:
            warnings.append(f"rays: {traj.lost} rays left the representable range")

    distances = []
    for a, b in (("moyal", "liouville"), ("twm", "moyal"), ("twm", "liouville")):
        if a in phase_space and b in phase_space:
            (steps, states_a, _), (_, states_b, _) = phase_space[a], phase_space[b]
            # strict: a twm entry holds every density only when a grid engine runs.
            pairs = zip(steps, states_a, states_b, strict=True)
            linf = tuple(_linf(sa.values, sb.values) for _, sa, sb in pairs)
            distances.append(PairDistances(a, b, steps, linf))

    final_negativity = next(
        (phase_space[name][2] for name in ("moyal", "liouville", "twm") if name in phase_space),
        None,
    )
    report = RunReport(config, tuple(results), tuple(distances), final_negativity, tuple(warnings))
    if emit:
        from .outputs import emit_outputs

        final_states = {name: densities[-1] for name, (_, densities, _) in phase_space.items()}
        emit_outputs(report, final_states)
    return report
