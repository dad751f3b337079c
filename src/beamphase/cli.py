"""Command-line driver.

Verbs:

* ``run <scenario>``: execute a scenario file and write its artifacts.
* ``compare <scenario>``: same, with engines forced to twm + moyal +
  liouville so the cross-engine distances are always recorded.
* ``validate <scenario>``: parse, validate and echo the resolved config.
  Step-1 phase guards that ``run`` would refuse, for a potential of degree
  <= 2 the grid engines' closed-form guards and support check, and in free
  space the twm engine's own closed-form run (when no guard refuses twm),
  are printed as ``warning:`` lines, one per engine; a beam carried to the
  box edge is named by ``grid.x_length`` or ``grid.p_length``.  When none
  of these refuses, a twm initial field that fails the Wigner transform the
  run compares it through is refused with ``run``'s text (exit 2 here, 1
  from ``run``): ``validate`` reports the fault that ``run`` stops at.
* ``info <grid-dump>``: print the header and value statistics of a dump.

Exit codes: 0 success, 2 configuration or validation problem, 1 runtime
failure.  ``--output-dir`` and ``--seed`` override the scenario file;
``--quiet`` suppresses informational output.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .exceptions import BeamPhaseError, ConfigError, SolverError, TransformError
from .outputs import read_grid_dump
from .runner import RunReport, _engine_plan, _guard_failures, _initial_wigner, run_scenario
from .scenario import ScenarioConfig, load_scenario
from .twm import evolve_twm

__all__ = ["main"]


def _echo_config(config: ScenarioConfig) -> list[str]:
    lines = []
    for section in ("grid", "beam", "physics", "potential", "run", "output"):
        fields = dataclasses.asdict(getattr(config, section))
        pairs = " ".join(f"{key}={_show(value)}" for key, value in fields.items())
        lines.append(f"[{section}] {pairs}")
    return lines


def _show(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(item) for item in value)
    return str(value)


def _describe_run(report: RunReport) -> list[str]:
    lines = _echo_config(report.config)
    for result in report.engines:
        final = result.moments[-1]
        lines.append(
            f"engine {result.name}: {len(result.moments) - 1} steps to z={final.z:g}, "
            f"sigma_x={final.sigma_x:.6g}, emittance={final.emittance:.6g}, "
            f"{result.seconds:.3f} s"
            + (f", {result.lost_rays} rays lost" if result.lost_rays else "")
        )
    for pair in report.distances:
        worst = max(pair.linf)  # every pair holds step 0, so linf is never empty
        lines.append(f"distance {pair.engine_a} vs {pair.engine_b}: max L_inf = {worst:.6e}")
    if report.final_negativity is not None:
        neg = report.final_negativity
        lines.append(
            f"final negativity: min = {neg.min_value:.6e}, volume = {neg.negativity_volume:.6e}"
        )
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    return lines


def _load_with_overrides(args) -> ScenarioConfig:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        config = config.with_seed(args.seed)
    if args.output_dir is not None:
        if not args.output_dir:
            raise ConfigError("--output-dir must not be empty")
        config = config.with_output_dir(args.output_dir)
    return config


def _cmd_run(args) -> int:
    config = _load_with_overrides(args)
    if args.force_compare:
        config = config.with_engines(("twm", "moyal", "liouville"))
    report = run_scenario(config)
    if not args.quiet:
        for line in _describe_run(report):
            print(line)
    return 0


def _cmd_validate(args) -> int:
    config = load_scenario(args.scenario)
    spec = config.potential.build()
    failures = _guard_failures(config, spec)
    if "twm" in config.run.engines:
        psi = config.initial_wavefield()
        if "twm" not in failures and spec.degree < 0:
            # Free space maps the run in closed form (twm._FreeKernel), so the engine's
            # own check of the box edge is cheap enough to run here.
            try:
                evolve_twm(psi, spec, _engine_plan("twm", config), config.run.snapshot_every)
            except SolverError as exc:
                failures["twm"] = f"engine twm: {exc}"
        # ``run`` reaches the initial field's Wigner transform only when no
        # engine is refused and twm's own run passes.
        if not failures:
            try:
                _initial_wigner(config, psi)
            except TransformError as exc:
                raise ConfigError(str(exc)) from None
    if not args.quiet:
        print(f"scenario {args.scenario} is valid")
        for line in _echo_config(config):
            print(line)
        for failure in failures.values():
            print(f"warning: {failure}")
    return 0


def _cmd_info(args) -> int:
    state, epsilon = read_grid_dump(args.dump)
    if not args.quiet:
        grid = state.grid
        print(f"grid dump {args.dump}")
        print(
            f"  grid: {grid.x_axis.n} x {grid.p_axis.n}, "
            f"x_length={grid.x_axis.length:g} (center {grid.x_axis.center:g}), "
            f"p_length={grid.p_axis.length:g} (center {grid.p_axis.center:g})"
        )
        print(f"  z={state.z:.17g} epsilon={epsilon:.17g}")
        print(
            f"  values: min={state.values.min():.6e} max={state.values.max():.6e} "
            f"mass={state.mass:.12g}"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamphase",
        description="Beam phase-space transport: wavefield, deformed and classical engines.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    def scenario_verb(name: str, help_text: str, force_compare: bool):
        sub = verbs.add_parser(name, help=help_text)
        sub.add_argument("scenario", help="path to a scenario file")
        sub.add_argument("--output-dir", default=None, help="override output.directory")
        sub.add_argument("--seed", type=int, default=None, help="override run.seed")
        sub.add_argument("--quiet", action="store_true", help="suppress informational output")
        sub.set_defaults(func=_cmd_run, force_compare=force_compare)

    scenario_verb("run", "run a scenario and write its artifacts", False)
    scenario_verb("compare", "run with engines forced to twm+moyal+liouville", True)

    validate = verbs.add_parser("validate", help="check a scenario file and echo the config")
    validate.add_argument("scenario", help="path to a scenario file")
    validate.add_argument("--quiet", action="store_true", help="suppress informational output")
    validate.set_defaults(func=_cmd_validate)

    info = verbs.add_parser("info", help="describe a binary grid dump")
    info.add_argument("dump", help="path to a .mbgd file")
    info.add_argument("--quiet", action="store_true", help="suppress informational output")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BeamPhaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
