"""Scenario execution: build states, dispatch engines, compare, report.

``run_scenario`` evolves every requested engine from a common initial beam,
records moments at every step and full states at the snapshot cadence,
computes cross-engine distances where the representations are comparable
(grid engines directly, the wavefield engine through its Wigner transform)
and emits the configured artifacts.  Everything is deterministic for a
fixed config and seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import (
    BeamMoments,
    NegativityReport,
    emittance_from_thermal,
    negativity,
    truncation_ratio,
)
from .exceptions import BeamPhaseError, ConfigError, SolverError, StateError, TransformError
from .phasespace import StepPlan, _preflight_kick, evolve_phase_space, trace_rays
from .scenario import ScenarioConfig
from .states import (
    gaussian_quasidist,
    gaussian_wavefield,
    sample_rays,
    superposition_quasidist,
    superposition_wavefield,
)
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


def build_initial_states(config: ScenarioConfig):
    """Construct the initial state for every requested engine.

    The wavefield engine gets a coherent Gaussian (or coherent two-peak
    superposition); the grid and ray engines get the matching classical
    density: same widths, momentum spread epsilon / (2 sigma0), and for
    superposition beams the positive two-peak mixture without fringes.
    Returns a dict with keys ``psi``, ``rho`` and ``rays`` (values may be
    None when the corresponding engine was not requested).
    """
    engines = config.run.engines
    beam = config.beam
    epsilon = config.epsilon
    psi = _initial_wavefield(config) if "twm" in engines else None
    rho = None
    if {"moyal", "liouville", "rays"} & set(engines):
        grid = config.grid.phase_grid()
        sigma_p = epsilon / (2.0 * beam.sigma0)
        if beam.kind == "gaussian":
            rho = gaussian_quasidist(grid, beam.sigma0, sigma_p, 0.0, beam.x0, beam.p0)
        else:
            rho = superposition_quasidist(
                grid, beam.sigma0, sigma_p, beam.separation, beam.x0, beam.p0
            )
    rays = None
    if "rays" in engines:
        rays = sample_rays(rho, config.run.ray_count, config.run.seed)
    return {"psi": psi, "rho": rho, "rays": rays}


def _initial_wavefield(config: ScenarioConfig):
    beam = config.beam
    x_axis = config.grid.x_axis()
    if beam.kind == "gaussian":
        return gaussian_wavefield(x_axis, beam.sigma0, config.epsilon, beam.x0, beam.p0)
    return superposition_wavefield(
        x_axis, beam.sigma0, beam.separation, config.epsilon, beam.x0, beam.p0
    )


def _preflight_wigner(config: ScenarioConfig) -> None:
    """Raise :class:`ConfigError` if a twm run would fail its step-0 Wigner transform.

    The comparison transform of the initial field depends only on the grid,
    the beam and epsilon, so it is checked here without evolving anything
    (and without building the grid or ray states).  A no-op without twm.
    """
    if "twm" not in config.run.engines:
        return
    psi = _initial_wavefield(config)
    try:
        _WignerMap(psi.grid, psi.epsilon, config.grid.p_axis())(psi, COMPARISON_MARGINAL_TOL)
    except (TransformError, StateError) as exc:
        raise ConfigError(
            "grid.x_length, grid.np, grid.p_length: the Wigner transform of the "
            f"initial twm field fails its check ({exc}); the shifts it correlates "
            "stop at x_length / 4 in steps of pi epsilon / p_length"
        ) from None


def _engine_plan(name: str, config: ScenarioConfig) -> StepPlan:
    run = config.run
    if name == "liouville":
        return StepPlan(run.dz, run.n_steps, "truncated", 1)
    return StepPlan(run.dz, run.n_steps, "full_moyal")


def _guard_failures(config: ScenarioConfig, spec) -> list[str]:
    """The step-1 guard errors of the requested engines, in run order, as ``run`` reports them.

    The twm kinetic guard and the grid kick guard depend only on the grid,
    the potential, dz and epsilon, so ``run_scenario`` refuses the first one
    before any engine starts and ``validate`` reports each as a warning.
    Guards at later steps of a z-dependent potential stay in the step loop.
    A run without steps takes none, so it checks no guard.
    """
    failures = []
    if config.run.n_steps == 0:
        return failures
    for name in config.run.engines:
        plan = _engine_plan(name, config)
        try:
            if name == "twm":
                _kinetic_phase(config.grid.x_axis(), config.epsilon, plan.dz)
            elif name in GRID_ENGINES:
                _preflight_kick(config.grid.phase_grid(), spec, config.epsilon, plan)
        except SolverError as exc:
            failures.append(f"engine {name}: {exc}")
    return failures


def _linf(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def _evolve_engine(name: str, states: dict, spec, config: ScenarioConfig, shared: dict):
    """One engine's trajectory.

    When moyal and liouville are both requested and the potential's kick is
    classical (``PotentialSpec.kick_is_classical``), the two engines are the
    same map: moyal's turn evolves the grid once under liouville's plan, so
    liouville's per-step non-negativity check still runs, keeps that
    trajectory in ``shared`` for liouville's turn, and returns it with the
    evolved snapshots tagged ``"wigner"``.  If that pass raises, moyal runs
    alone and liouville later runs alone, so each raises what its own pass
    raises.
    """
    plan = _engine_plan(name, config)
    every = config.run.snapshot_every
    if name == "twm":
        return evolve_twm(states["psi"], spec, plan, every)
    if name == "rays":
        return trace_rays(states["rays"], spec, plan)
    if name in shared:
        return shared.pop(name)
    rho = states["rho"]
    if name == "moyal" and "liouville" in config.run.engines and spec.kick_is_classical:
        classical = _engine_plan("liouville", config)
        try:
            traj = evolve_phase_space(rho, spec, config.epsilon, classical, every)
        except BeamPhaseError:
            pass  # each engine's own pass below raises it again under its own name
        else:
            shared["liouville"] = traj
            evolved = tuple(replace(state, kind="wigner") for state in traj.snapshots[1:])
            return replace(traj, snapshots=traj.snapshots[:1] + evolved)
    return evolve_phase_space(rho, spec, config.epsilon, plan, every)


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
    snapshot.  A failure on the initial field is raised: the configured
    momentum axis cannot hold the beam at all, which no evolution caused.
    """
    if name not in GRID_ENGINES and name != "twm":
        return (), (), (), ()
    keep_all = any(engine in GRID_ENGINES for engine in config.run.engines)
    if name == "twm":
        first = traj.snapshots[0]
        wigner = _WignerMap(first.grid, first.epsilon, config.grid.p_axis())
    densities, reports, ratios = [], [], []
    for step, state in zip(traj.snapshot_steps, traj.snapshots):
        if name == "twm":
            try:
                state = wigner(state, COMPARISON_MARGINAL_TOL)
            except (TransformError, StateError) as exc:
                if step == 0:
                    message = f"engine twm: Wigner transform of the initial field: {exc}"
                    raise TransformError(message) from None
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
    carry the engine name and step context; a step-1 guard error (see
    ``_guard_failures``) is raised before any engine starts.

    moyal and liouville coincide for a potential of degree <= 2, so a run
    with both evolves the grid once (see ``_evolve_engine``): moyal's
    ``seconds`` then holds that pass and liouville's only its own share.
    Results and artifacts are those of two separate passes, bit for bit.
    """
    spec = config.potential.build()
    run = config.run
    failures = _guard_failures(config, spec)
    if failures:
        raise SolverError(failures[0])
    states = build_initial_states(config)
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
    shared: dict = {}  # a trajectory one engine's pass made for a later engine

    for name in run.engines:
        started = time.perf_counter()
        try:
            traj = _evolve_engine(name, states, spec, config, shared)
        except SolverError as exc:
            raise SolverError(f"engine {name}: {exc}") from None
        seconds = time.perf_counter() - started
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
