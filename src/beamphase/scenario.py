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
from .exceptions import ConfigError, GridError, StateError, check_count
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


_REQUIRED = object()  # the default of a key that every scenario must give


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"not an integer: {raw!r}") from None


def _words(raw: str) -> tuple[str, ...]:
    words = tuple(raw.replace(",", " ").split())
    if not words:
        raise ValueError("empty list")
    return words


class _Section:
    """One config section; :meth:`get` reads every key and names section.key on error."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = items
        self.seen: set[str] = set()

    def get(self, key: str, parse, default=None):
        """``parse`` of the key's text; ``default`` if absent, refused if that is ``_REQUIRED``."""
        self.seen.add(key)
        raw = self.items.get(key)
        if raw is None:
            if default is _REQUIRED:
                raise self.missing(key)
            return default
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{self.name}.{key}: {exc}") from None

    def missing(self, key: str) -> ConfigError:
        return ConfigError(f"{self.name}.{key}: required key is missing")

    def check_unknown(self):
        unknown = set(self.items) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"{self.name}.{key}: unknown key")


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


def _positive(sec: _Section, key: str, value: float) -> float:
    if not value > 0.0:
        raise ConfigError(f"{sec.name}.{key}: must be positive, got {value}")
    return value


def _at_least(sec: _Section, key: str, minimum: int, default) -> int:
    value = sec.get(key, _integer, default)
    return check_count(value, f"{sec.name}.{key}:", minimum, ConfigError)


def _point_count(sec: _Section, key: str, default: int) -> int:
    count = sec.get(key, _integer, default)
    if not _is_point_count(count):
        raise ConfigError(f"{sec.name}.{key}: must be a power of two >= 8, got {count}")
    return count


def _choice(sec: _Section, key: str, choices: tuple[str, ...], default: str) -> str:
    word = sec.get(key, str.strip, default)
    if word not in choices:
        raise ConfigError(f"{sec.name}.{key}: must be one of {', '.join(choices)}, got {word!r}")
    return word


def _parse_grid(sec: _Section) -> GridSection:
    return GridSection(
        _point_count(sec, "nx", DEFAULT_NX),
        _point_count(sec, "np", DEFAULT_NP),
        _positive(sec, "x_length", sec.get("x_length", _number, _REQUIRED)),
        _positive(sec, "p_length", sec.get("p_length", _number, _REQUIRED)),
        sec.get("x_center", _number, 0.0),
        sec.get("p_center", _number, 0.0),
    )


def _parse_beam(sec: _Section) -> BeamSection:
    kind = _choice(sec, "kind", BEAM_KINDS, "gaussian")
    sigma0 = _positive(sec, "sigma0", sec.get("sigma0", _number, _REQUIRED))
    x0, p0, separation = (sec.get(key, _number, 0.0) for key in ("x0", "p0", "separation"))
    if kind == "superposition":
        _positive(sec, "separation", separation)
    elif separation:
        raise ConfigError("beam.separation: only meaningful for kind = superposition")
    return BeamSection(kind, sigma0, x0, p0, separation)


def _parse_physics(sec: _Section) -> PhysicsSection:
    epsilon, vth, sigma0 = (sec.get(key, _number) for key in ("epsilon", "vth_over_c", "sigma0"))
    if epsilon is not None and (vth is not None or sigma0 is not None):
        raise ConfigError(
            "physics.epsilon: give either epsilon or the pair vth_over_c + sigma0, not both"
        )
    if epsilon is not None:
        return PhysicsSection(_positive(sec, "epsilon", epsilon))
    if vth is None or sigma0 is None:
        raise ConfigError("physics: either epsilon or both of vth_over_c and sigma0 are required")
    _positive(sec, "vth_over_c", vth)
    _positive(sec, "sigma0", sigma0)
    return PhysicsSection(emittance_from_thermal(vth, sigma0).epsilon, vth, sigma0)


def _parse_potential(sec: _Section) -> PotentialSection:
    # Each coefficient is parsed before the preset or profile says whether it
    # is required, so a malformed one is reported ahead of a missing one.
    preset = _choice(sec, "preset", PRESETS, "free_space")
    k, lambda4 = (sec.get(key, _number) for key in ("k", "lambda4"))
    if preset == "free_space":
        if k is not None or lambda4 is not None:
            raise ConfigError("potential.k: free_space takes no coefficients")
    elif k is None:
        raise sec.missing("k")
    elif preset == "linear_lens":
        if lambda4 is not None:
            raise ConfigError("potential.lambda4: only meaningful for quartic_channel")
    elif lambda4 is None:
        raise sec.missing("lambda4")
    profile = _choice(sec, "profile", PROFILES, "constant")
    omega, phase = (sec.get(key, _number) for key in ("omega", "phase"))
    if profile == "harmonic":
        if omega is None:
            raise sec.missing("omega")
    else:
        for key, value in (("omega", omega), ("phase", phase)):
            if value is not None:
                raise ConfigError(f"potential.{key}: only meaningful for profile = harmonic")
    # An absent coefficient is 0.0; ``is None`` keeps a given -0.0.
    k, lambda4, omega, phase = (0.0 if v is None else v for v in (k, lambda4, omega, phase))
    section = PotentialSection(preset, k, lambda4, profile, omega, phase)
    section.build()  # surfaces coefficient problems at load time
    return section


def _parse_run(sec: _Section) -> RunSection:
    dz = _positive(sec, "dz", sec.get("dz", _number, _REQUIRED))
    n_steps = _at_least(sec, "n_steps", 0, _REQUIRED)
    snapshot_every = _at_least(sec, "snapshot_every", 1, max(n_steps, 1))
    engines = _canonical_engines(sec.get("engines", _words, ("moyal",)))
    ray_count = sec.get("ray_count", _integer, DEFAULT_RAY_COUNT)
    if ray_count < 2:
        raise ConfigError(f"run.ray_count: moments need at least two rays, got {ray_count}")
    seed = _at_least(sec, "seed", 0, DEFAULT_SEED)
    return RunSection(dz, n_steps, snapshot_every, engines, ray_count, seed)


def _parse_output(sec: _Section) -> OutputSection:
    directory = sec.get("directory", str.strip)
    if directory is None:
        directory = os.environ.get(OUTPUT_DIR_ENV, DEFAULT_OUTPUT_DIR)
    if not directory:
        raise ConfigError("output.directory: must not be empty")
    formats = sec.get("formats", _words, ("csv",))
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

    config = ScenarioConfig(**parsed)
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
