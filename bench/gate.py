"""Correctness gate for one ``beamphase run`` process.

``check_run`` returns a list of failure messages; an empty list is a pass.
Every workload must exit 0, write every configured artifact, write CSVs of
``n_steps + 1`` rows with finite moments, and write grid dumps that read
back through ``read_grid_dump`` with unit mass.  Each workload then has its
own physics check (``WORKLOAD_CHECKS``).

Tolerances admit a reordered floating-point sum (an ``rfft`` kernel moves
the states by about 3e-13) and reject a wrong answer: the final ``sigma_p``
of moyal and liouville differ by 2e-7 relative in ``quartic_mixed``, far
outside the 1e-8 reference tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from beamphase import BeamPhaseError, free_gaussian_sigma, read_grid_dump
from beamphase.outputs import CSV_COLUMNS

MOMENT_COLUMNS = ("z", "mean_x", "mean_p", "sigma_x", "sigma_p", "sigma_xp", "emittance")
FINITE_COLUMNS = CSV_COLUMNS[:8]  # negativity_volume and r3 are nan between snapshots
MASS_TOL = 1e-10
REFERENCE_REL_TOL = 1e-8
REFERENCE_ABS_TOL = 1e-10
SPREADING_REL_TOL = 1e-8
EMITTANCE_REL_TOL = 1e-8
# Rays against liouville, in Monte-Carlo standard errors.  Over 12 seeds the
# largest deviation was 3.2, of which about 2 is a seed-independent bias of
# sigma_p (rays are sampled from the grid's cells).
RAY_STANDARD_ERRORS = 6.0

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def expected_artifacts(config) -> list[str]:
    names = []
    formats = config.output.formats
    for engine in config.run.engines:
        if "csv" in formats:
            names.append(f"moments_{engine}.csv")
        if engine == "rays":
            continue
        if "grid-dump" in formats:
            names.append(f"state_{engine}.mbgd")
        if "heatmap" in formats:
            names += [f"heatmap_{engine}.pgm", f"heatmap_{engine}.minmax.txt"]
    return names


def read_csv(path: Path) -> tuple[tuple[str, ...], list[dict[str, float]]]:
    """Header and float rows; ValueError on a malformed file."""
    lines = path.read_text(encoding="ascii").splitlines()
    header = tuple(lines[0].split(","))
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row with {len(cells)} cells under {len(header)} columns")
        rows.append(dict(zip(header, map(float, cells))))
    return header, rows


def _close(value: float, reference: float, rel: float, absolute: float = 0.0) -> bool:
    return abs(value - reference) <= absolute + rel * abs(reference)


def check_twm_free(config, series, out_dir) -> list[str]:
    """Coherent Gaussian in free space: exact spreading law, constant emittance."""
    rows = series["twm"]
    final = rows[-1]
    beam = config.beam
    expected = free_gaussian_sigma(beam.sigma0, config.epsilon, final["z"])
    failures = []
    if not _close(final["sigma_x"], expected, SPREADING_REL_TOL):
        failures.append(
            f"twm final sigma_x {final['sigma_x']!r} != spreading law {expected!r} at z={final['z']}"
        )
    worst = max(abs(row["emittance"] - config.epsilon) for row in rows)
    if worst > EMITTANCE_REL_TOL * config.epsilon:
        failures.append(f"twm emittance departs from {config.epsilon} by {worst:.3e}")
    return failures


def check_lens_harmonic(config, series, out_dir) -> list[str]:
    """Quadratic potential: the full and truncated brackets agree bit for bit."""
    moyal = (out_dir / "moments_moyal.csv").read_bytes()
    liouville = (out_dir / "moments_liouville.csv").read_bytes()
    if moyal != liouville:
        return ["moments_moyal.csv and moments_liouville.csv differ (quadratic potential)"]
    return []


def check_quartic_mixed(config, series, out_dir) -> list[str]:
    """Seed-free engines match the committed reference; rays match liouville."""
    reference = json.loads((REFERENCE_DIR / "quartic_mixed.json").read_text(encoding="utf-8"))
    failures = []
    for engine, expected in reference["final"].items():
        final = series[engine][-1]
        for column in MOMENT_COLUMNS:
            if not _close(final[column], expected[column], REFERENCE_REL_TOL, REFERENCE_ABS_TOL):
                failures.append(
                    f"{engine} final {column} {final[column]!r} != reference {expected[column]!r}"
                )
    failures += check_rays_against_grid(series["rays"][-1], series["liouville"][-1], config.run.ray_count)
    return failures


def check_rays_against_grid(rays: dict, grid: dict, count: int) -> list[str]:
    """Monte-Carlo agreement of the ray moments with the liouville grid.

    Standard errors for ``count`` independent rays: sigma / sqrt(n) for a
    mean, and sigma / sqrt(2 n) for a width or an emittance relative to its
    size (the Gaussian value; the two-peak beam has lighter tails, so this
    is conservative).
    """
    root_n = math.sqrt(count)
    sigma_x, sigma_p = grid["sigma_x"], grid["sigma_p"]
    allowed = {
        "mean_x": sigma_x / root_n,
        "mean_p": sigma_p / root_n,
        "sigma_x": sigma_x / math.sqrt(2) / root_n,
        "sigma_p": sigma_p / math.sqrt(2) / root_n,
        "sigma_xp": sigma_x * sigma_p / root_n,
        "emittance": grid["emittance"] * math.sqrt(2) / root_n,
    }
    failures = []
    for column, standard_error in allowed.items():
        limit = RAY_STANDARD_ERRORS * standard_error
        if abs(rays[column] - grid[column]) > limit:
            failures.append(
                f"rays final {column} {rays[column]!r} differs from liouville "
                f"{grid[column]!r} by more than {limit:.3e}"
            )
    return failures


WORKLOAD_CHECKS = {
    "twm_free": check_twm_free,
    "lens_harmonic": check_lens_harmonic,
    "quartic_mixed": check_quartic_mixed,
}


def check_run(workload: str, config, exit_code: int, out_dir: Path) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [name for name in expected_artifacts(config) if not (out_dir / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    failures = []
    series = {}
    if "csv" in config.output.formats:
        for engine in config.run.engines:
            try:
                header, rows = read_csv(out_dir / f"moments_{engine}.csv")
            except (UnicodeDecodeError, ValueError) as exc:
                failures.append(f"moments_{engine}.csv does not parse: {exc}")
                continue
            if header != CSV_COLUMNS:
                failures.append(f"moments_{engine}.csv header {header}")
                continue
            if len(rows) != config.run.n_steps + 1:
                failures.append(
                    f"moments_{engine}.csv has {len(rows)} rows, expected {config.run.n_steps + 1}"
                )
            bad = sum(1 for row in rows for c in FINITE_COLUMNS if not math.isfinite(row[c]))
            if bad:
                failures.append(f"moments_{engine}.csv has {bad} non-finite moment cells")
            series[engine] = rows
    for name in expected_artifacts(config):
        if name.endswith(".mbgd"):
            try:
                state, _ = read_grid_dump(out_dir / name)
            except BeamPhaseError as exc:
                failures.append(f"{name} does not read back: {exc}")
                continue
            if abs(state.mass - 1.0) > MASS_TOL:
                failures.append(f"{name} mass {state.mass!r} is not 1")
    if failures:
        return failures
    return WORKLOAD_CHECKS[workload](config, series, out_dir)
