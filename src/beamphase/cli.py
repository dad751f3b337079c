"""Command-line driver.

Verbs:

* ``run <scenario>``: execute a scenario file and write its artifacts.
* ``compare <scenario>``: same, with engines forced to twm + moyal +
  liouville so the cross-engine distances are always recorded.
* ``validate <scenario>``: parse, validate and echo the resolved config,
  then print each refusal that ``runner.preflight`` finds, in run order, as
  a ``warning:`` line with ``run``'s text.  A twm initial field that fails
  its Wigner transform is refused with ``run``'s text (exit 2 here, 1 from
  ``run``): ``validate`` reports the fault that ``run`` stops at.
* ``info <grid-dump>``: print the header and value statistics of a dump.

Exit codes: 0 success, 2 configuration or validation problem, 1 runtime
failure.  ``--output-dir`` and ``--seed`` override the scenario file;
``--quiet`` suppresses informational output.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .exceptions import BeamPhaseError, ConfigError, TransformError, check_count
from .outputs import read_grid_dump
from .runner import RunReport, preflight, run_scenario
from .scenario import ScenarioConfig, load_scenario

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
        config = config.with_seed(check_count(args.seed, "--seed", 0, ConfigError))
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
    try:
        failures = preflight(config)
    except TransformError as exc:
        raise ConfigError(str(exc)) from None
    if not args.quiet:
        print(f"scenario {args.scenario} is valid")
        for line in _echo_config(config):
            print(line)
        for failure in failures:
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

    def verb(name, help_text, func, target="scenario", target_help="path to a scenario file",
             overrides=False, **defaults):
        sub = verbs.add_parser(name, help=help_text)
        sub.add_argument(target, help=target_help)
        if overrides:
            sub.add_argument("--output-dir", default=None, help="override output.directory")
            sub.add_argument("--seed", type=int, default=None, help="override run.seed")
        sub.add_argument("--quiet", action="store_true", help="suppress informational output")
        sub.set_defaults(func=func, **defaults)

    for name, help_text in (("run", "run a scenario and write its artifacts"),
                            ("compare", "run with engines forced to twm+moyal+liouville")):
        verb(name, help_text, _cmd_run, overrides=True, force_compare=name == "compare")
    verb("validate", "check a scenario file and echo the config", _cmd_validate)
    verb("info", "describe a binary grid dump", _cmd_info, "dump", "path to a .mbgd file")
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
