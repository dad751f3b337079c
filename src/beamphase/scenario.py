"""Scenario files: INI-style configuration for reproducible runs.

A scenario is a sectioned key-value file (configparser syntax) with the
sections ``[grid]``, ``[beam]``, ``[physics]``, ``[potential]``, ``[run]``
and ``[output]``.  :func:`load_scenario` parses and validates one file and
returns a :class:`ScenarioConfig` in which every defaulted value has been
made explicit, so the returned object is the complete record of what a run
will do.  Validation failures raise :class:`ConfigError` naming the
offending ``section.key``.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, replace

from .diagnostics import emittance_from_thermal
from .exceptions import ConfigError, GridError, StateError
from .grids import AxisGrid, PhaseGrid, _is_point_count
from .potentials import (
    ConstantProfile,
    HarmonicProfile,
    PotentialSpec,
    free_space,
    linear_lens,
    quartic_channel,
)
from .states import (
    QuasiDistribution,
    WaveField,
    gaussian_quasidist,
    gaussian_wavefield,
    superposition_quasidist,
    superposition_wavefield,
)

__all__ = [
    "GridSection",
    "BeamSection",
    "PhysicsSection",
    "PotentialSection",
    "RunSection",
    "OutputSection",
    "ScenarioConfig",
    "load_scenario",
]

OUTPUT_DIR_ENV = "BEAMPHASE_OUTPUT_DIR"
DEFAULT_OUTPUT_DIR = "beamphase-out"

ENGINES = ("twm", "moyal", "liouville", "rays")
FORMATS = ("csv", "grid-dump", "heatmap")
BEAM_KINDS = ("gaussian", "superposition")
PRESETS = ("free_space", "linear_lens", "quartic_channel")
PROFILES = ("constant", "harmonic")

DEFAULT_NX = 256
DEFAULT_NP = 256
DEFAULT_RAY_COUNT = 10_000
DEFAULT_SEED = 0


@dataclass(frozen=True)
class GridSection:
    nx: int
    np: int
    x_length: float
    p_length: float
    x_center: float
    p_center: float

    def x_axis(self) -> AxisGrid:
        return AxisGrid(self.nx, self.x_length, self.x_center)

    def p_axis(self) -> AxisGrid:
        return AxisGrid(self.np, self.p_length, self.p_center)

    def phase_grid(self) -> PhaseGrid:
        return PhaseGrid(self.x_axis(), self.p_axis())


@dataclass(frozen=True)
class BeamSection:
    kind: str
    sigma0: float
    x0: float
    p0: float
    separation: float


@dataclass(frozen=True)
class PhysicsSection:
    """Either a direct epsilon or the thermal pair it derives from."""

    epsilon: float
    vth_over_c: float | None = None
    sigma0: float | None = None

    @property
    def from_thermal(self) -> bool:
        return self.vth_over_c is not None


@dataclass(frozen=True)
class PotentialSection:
    preset: str
    k: float
    lambda4: float
    profile: str
    omega: float
    phase: float

    def build(self) -> PotentialSpec:
        if self.preset == "free_space":
            spec = free_space()
        elif self.preset == "linear_lens":
            spec = linear_lens(self.k)
        else:
            spec = quartic_channel(self.k, self.lambda4)
        if self.profile == "constant":
            return spec
        # Harmonic modulation scales every preset coefficient by cos(omega z + phase).
        terms = tuple(
            (power, HarmonicProfile(prof(0.0), self.omega, self.phase))
            for power, prof in spec.terms
        )
        return PotentialSpec(terms)


@dataclass(frozen=True)
class RunSection:
    dz: float
    n_steps: int
    snapshot_every: int
    engines: tuple[str, ...]
    ray_count: int
    seed: int


@dataclass(frozen=True)
class OutputSection:
    directory: str
    formats: tuple[str, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    grid: GridSection
    beam: BeamSection
    physics: PhysicsSection
    potential: PotentialSection
    run: RunSection
    output: OutputSection

    @property
    def epsilon(self) -> float:
        return self.physics.epsilon

    def with_output_dir(self, directory: str) -> "ScenarioConfig":
        return replace(self, output=replace(self.output, directory=directory))

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, run=replace(self.run, seed=seed))

    def with_engines(self, engines: tuple[str, ...]) -> "ScenarioConfig":
        """This config with other engines, checked again: twm adds its wavefield to the box."""
        config = replace(self, run=replace(self.run, engines=_canonical_engines(engines)))
        _cross_validate(config)
        return config

    def initial_wavefield(self) -> WaveField:
        """The twm engine's initial state: the coherent one- or two-peak beam on the x axis."""
        beam = self.beam
        x_axis = self.grid.x_axis()
        if beam.kind == "gaussian":
            return gaussian_wavefield(x_axis, beam.sigma0, self.epsilon, beam.x0, beam.p0)
        return superposition_wavefield(
            x_axis, beam.sigma0, beam.separation, self.epsilon, beam.x0, beam.p0
        )

    def initial_density(self) -> QuasiDistribution:
        """The grid and ray engines' initial state: the classical density of the same beam.

        Same widths, momentum spread epsilon / (2 sigma0), and for
        superposition beams the positive two-peak mixture without fringes.
        """
        beam = self.beam
        grid = self.grid.phase_grid()
        sigma_p = self.epsilon / (2.0 * beam.sigma0)
        if beam.kind == "gaussian":
            return gaussian_quasidist(grid, beam.sigma0, sigma_p, 0.0, beam.x0, beam.p0)
        return superposition_quasidist(
            grid, beam.sigma0, sigma_p, beam.separation, beam.x0, beam.p0
        )


class _Section:
    """One config section with typed getters that name section.key on error."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = items
        self.seen: set[str] = set()

    def _raw(self, key: str):
        self.seen.add(key)
        return self.items.get(key)

    def get_float(self, key: str, default: float | None = None) -> float | None:
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: not a number: {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{self.name}.{key}: must be finite, got {raw!r}")
        return value

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: not an integer: {raw!r}") from None

    def get_str(self, key: str, default: str | None = None) -> str | None:
        raw = self._raw(key)
        if raw is None:
            return default
        return raw.strip()

    def get_list(self, key: str, default: tuple[str, ...] | None = None):
        raw = self._raw(key)
        if raw is None:
            return default
        parts = tuple(part for part in raw.replace(",", " ").split() if part)
        if not parts:
            raise ConfigError(f"{self.name}.{key}: empty list")
        return parts

    def check_unknown(self):
        unknown = set(self.items) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"{self.name}.{key}: unknown key")


def _require(section: _Section, key: str, value):
    if value is None:
        raise ConfigError(f"{section.name}.{key}: required key is missing")
    return value


def _canonical_engines(engines) -> tuple[str, ...]:
    requested = set(engines)
    unknown = requested - set(ENGINES)
    if unknown:
        raise ConfigError(
            f"run.engines: unknown engine {sorted(unknown)[0]!r} "
            f"(choose from {', '.join(ENGINES)})"
        )
    if not requested:
        raise ConfigError("run.engines: at least one engine is required")
    return tuple(name for name in ENGINES if name in requested)


def _positive(section: str, key: str, value: float) -> float:
    if not value > 0.0:
        raise ConfigError(f"{section}.{key}: must be positive, got {value}")
    return value


def _power_of_two(section: str, key: str, value: int) -> int:
    if not _is_point_count(value):
        raise ConfigError(f"{section}.{key}: must be a power of two >= 8, got {value}")
    return value


def _parse_grid(sec: _Section) -> GridSection:
    nx = _power_of_two(sec.name, "nx", sec.get_int("nx", DEFAULT_NX))
    n_p = _power_of_two(sec.name, "np", sec.get_int("np", DEFAULT_NP))
    x_length = _positive(sec.name, "x_length", _require(sec, "x_length", sec.get_float("x_length")))
    p_length = _positive(sec.name, "p_length", _require(sec, "p_length", sec.get_float("p_length")))
    x_center = sec.get_float("x_center", 0.0)
    p_center = sec.get_float("p_center", 0.0)
    return GridSection(nx, n_p, x_length, p_length, x_center, p_center)


def _parse_beam(sec: _Section) -> BeamSection:
    kind = sec.get_str("kind", "gaussian")
    if kind not in BEAM_KINDS:
        raise ConfigError(f"beam.kind: must be one of {', '.join(BEAM_KINDS)}, got {kind!r}")
    sigma0 = _positive(sec.name, "sigma0", _require(sec, "sigma0", sec.get_float("sigma0")))
    x0 = sec.get_float("x0", 0.0)
    p0 = sec.get_float("p0", 0.0)
    separation = sec.get_float("separation", 0.0)
    if kind == "superposition":
        _positive(sec.name, "separation", separation)
    elif separation:
        raise ConfigError("beam.separation: only meaningful for kind = superposition")
    return BeamSection(kind, sigma0, x0, p0, separation)


def _parse_physics(sec: _Section) -> PhysicsSection:
    epsilon = sec.get_float("epsilon")
    vth = sec.get_float("vth_over_c")
    sigma0 = sec.get_float("sigma0")
    thermal = vth is not None or sigma0 is not None
    if epsilon is not None and thermal:
        raise ConfigError(
            "physics.epsilon: give either epsilon or the pair vth_over_c + sigma0, not both"
        )
    if epsilon is not None:
        return PhysicsSection(_positive(sec.name, "epsilon", epsilon))
    if vth is None or sigma0 is None:
        raise ConfigError(
            "physics: either epsilon or both of vth_over_c and sigma0 are required"
        )
    _positive(sec.name, "vth_over_c", vth)
    _positive(sec.name, "sigma0", sigma0)
    return PhysicsSection(emittance_from_thermal(vth, sigma0).epsilon, vth, sigma0)


def _parse_potential(sec: _Section) -> PotentialSection:
    preset = sec.get_str("preset", "free_space")
    if preset not in PRESETS:
        raise ConfigError(
            f"potential.preset: must be one of {', '.join(PRESETS)}, got {preset!r}"
        )
    k = sec.get_float("k")
    lambda4 = sec.get_float("lambda4")
    if preset == "free_space":
        if k is not None or lambda4 is not None:
            raise ConfigError("potential.k: free_space takes no coefficients")
        k, lambda4 = 0.0, 0.0
    elif preset == "linear_lens":
        k = _require(sec, "k", k)
        if lambda4 is not None:
            raise ConfigError("potential.lambda4: only meaningful for quartic_channel")
        lambda4 = 0.0
    else:
        k = _require(sec, "k", k)
        lambda4 = _require(sec, "lambda4", lambda4)
    profile = sec.get_str("profile", "constant")
    if profile not in PROFILES:
        raise ConfigError(
            f"potential.profile: must be one of {', '.join(PROFILES)}, got {profile!r}"
        )
    omega = sec.get_float("omega")
    phase = sec.get_float("phase")
    if profile == "harmonic":
        omega = _require(sec, "omega", omega)
        phase = 0.0 if phase is None else phase
    else:
        for key, value in (("omega", omega), ("phase", phase)):
            if value is not None:
                raise ConfigError(f"potential.{key}: only meaningful for profile = harmonic")
        omega, phase = 0.0, 0.0
    section = PotentialSection(preset, k, lambda4, profile, omega, phase)
    section.build()  # surfaces coefficient problems at load time
    return section


def _parse_run(sec: _Section) -> RunSection:
    dz = _positive(sec.name, "dz", _require(sec, "dz", sec.get_float("dz")))
    n_steps = _require(sec, "n_steps", sec.get_int("n_steps"))
    if n_steps < 0:
        raise ConfigError(f"run.n_steps: must be >= 0, got {n_steps}")
    snapshot_every = sec.get_int("snapshot_every", max(n_steps, 1))
    if snapshot_every < 1:
        raise ConfigError(f"run.snapshot_every: must be >= 1, got {snapshot_every}")
    engines = _canonical_engines(sec.get_list("engines", ("moyal",)))
    ray_count = sec.get_int("ray_count", DEFAULT_RAY_COUNT)
    if ray_count < 2:
        raise ConfigError(f"run.ray_count: moments need at least two rays, got {ray_count}")
    seed = sec.get_int("seed", DEFAULT_SEED)
    if seed < 0:
        raise ConfigError(f"run.seed: must be >= 0, got {seed}")
    return RunSection(dz, n_steps, snapshot_every, engines, ray_count, seed)


def _parse_output(sec: _Section) -> OutputSection:
    directory = sec.get_str("directory")
    if directory is None:
        directory = os.environ.get(OUTPUT_DIR_ENV, DEFAULT_OUTPUT_DIR)
    if not directory:
        raise ConfigError("output.directory: must not be empty")
    formats = sec.get_list("formats", ("csv",))
    unknown = set(formats) - set(FORMATS)
    if unknown:
        raise ConfigError(
            f"output.formats: unknown format {sorted(unknown)[0]!r} "
            f"(choose from {', '.join(FORMATS)})"
        )
    return OutputSection(directory, tuple(name for name in FORMATS if name in set(formats)))


_PARSERS = {
    "grid": _parse_grid,
    "beam": _parse_beam,
    "physics": _parse_physics,
    "potential": _parse_potential,
    "run": _parse_run,
    "output": _parse_output,
}
_REQUIRED_SECTIONS = ("grid", "beam", "physics", "run")


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file.

    Every default is resolved into the returned config, so two configs that
    compare equal describe identical runs.  Errors are :class:`ConfigError`
    with the failing ``section.key`` in the message.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"scenario file {path} does not parse: {exc}") from None

    unknown = set(parser.sections()) - set(_PARSERS)
    if unknown:
        raise ConfigError(f"unknown section [{sorted(unknown)[0]}]")
    for name in _REQUIRED_SECTIONS:
        if name not in parser:
            raise ConfigError(f"missing required section [{name}]")

    parsed = {}
    for name, parse in _PARSERS.items():
        items = dict(parser[name]) if name in parser else {}
        section = _Section(name, items)
        parsed[name] = parse(section)
        section.check_unknown()

    config = ScenarioConfig(
        grid=parsed["grid"],
        beam=parsed["beam"],
        physics=parsed["physics"],
        potential=parsed["potential"],
        run=parsed["run"],
        output=parsed["output"],
    )
    _cross_validate(config)
    return config


def _cross_validate(config: ScenarioConfig):
    # Solver preconditions that span sections are checked here so a config
    # that loads is a config that can start running.  The box is checked by
    # building the initial states with the builders ``build_initial_states``
    # calls, so the constructors' sampled edge check is the only edge rule:
    # the density for every config (its p axis bounds every engine), the
    # wavefield, whose envelope decays half as fast in x, when twm runs.
    try:
        config.initial_density()
        if "twm" in config.run.engines:
            config.initial_wavefield()
    except StateError as exc:
        # A beam that misses the box altogether samples to zero everywhere.
        raise ConfigError(
            f"grid.x_length, grid.p_length: {exc}; the box must hold the beam"
        ) from None
    except GridError as exc:
        if "(p axis)" in str(exc):
            raise ConfigError(
                "grid.p_length: momentum spread epsilon / (2 sigma0) does not decay at "
                f"the grid edges ({exc})"
            ) from None
        raise ConfigError(
            f"grid.x_length: beam does not decay at the grid edges ({exc}); enlarge the "
            "grid or shrink the beam"
        ) from None
