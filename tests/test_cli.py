"""Command-line driver, artifact emission, and the comparison runner."""

import dataclasses
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import textwrap
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import beamphase
from beamphase import (
    AxisGrid,
    BeamMoments,
    BeamPhaseError,
    ConfigError,
    HarmonicProfile,
    PhaseGrid,
    PotentialSpec,
    SolverError,
    StepPlan,
    evolve_phase_space,
    gaussian_quasidist,
    load_scenario,
    negativity,
    read_grid_dump,
    run_scenario,
    truncation_ratio,
    write_grid_dump,
    write_heatmap,
)
from beamphase import phasespace, runner, scenario, twm
from beamphase.cli import main
from beamphase.outputs import CSV_COLUMNS, MBGD_HEADER, MBGD_MAGIC, MBGD_VERSION, write_moments_csv

FREE_SCENARIO = """
[grid]
nx = 128
np = 64
x_length = 32.0
p_length = 0.8

[beam]
sigma0 = 1.0

[physics]
epsilon = 0.1

[run]
dz = 0.05
n_steps = 4
snapshot_every = 2
engines = twm, moyal, liouville, rays
ray_count = 2000

[output]
directory = {outdir}
formats = csv, grid-dump, heatmap
"""


# The quartic superposition at 10x the benchmark step: the evolved twm field
# outgrows the 128-point momentum axis, so the step-250 Wigner transform fails
# its marginal check while the initial one passes.
OUTGROWN_WIGNER_SCENARIO = """
[grid]
nx = 256
np = 128
x_length = 12.8
p_length = 6.4

[beam]
kind = superposition
sigma0 = 0.4
separation = 1.2

[physics]
epsilon = 0.1

[potential]
preset = quartic_channel
k = 1.0
lambda4 = 0.1

[run]
dz = 2e-3
n_steps = 500
snapshot_every = 250
engines = twm

[output]
directory = {outdir}
formats = csv, grid-dump
"""


# A mismatched beam focused by a constant lens: the evolved twm field passes
# its step checks, but its momentum density on the 256-point axis misses unit
# norm, so the step-1000 Wigner transform fails the WaveField norm check.
MOMENTUM_NORM_SCENARIO = """
[grid]
nx = 512
np = 256
x_length = 48.0
p_length = 4.0

[beam]
sigma0 = 1.0

[physics]
epsilon = 0.1

[potential]
preset = linear_lens
k = 1.0

[run]
dz = 0.01
n_steps = 1000
engines = twm, rays

[output]
directory = {outdir}
formats = csv
"""


# Constant-lens runs that the grid cannot resolve to their end: stepping
# refuses the superposition at step 331 (liouville) and the coarse-x
# Gaussian at step 84 (liouville); the closed-form prediction refuses both
# grid engines earlier, before any engine starts.
UNRESOLVED_LENS_SCENARIOS = {
    "superposition": (
        "nx = 256", "kind = superposition\nsigma0 = 0.4\nseparation = 1.2", 1300, 322
    ),
    "coarse_x": ("nx = 128", "sigma0 = 0.4\nx0 = 0.5", 100, 46),
}
UNRESOLVED_LENS_SCENARIO = """
[grid]
{nx}
np = 128
x_length = 25.6
p_length = 6.4

[beam]
{beam}

[physics]
epsilon = 0.1

[potential]
preset = linear_lens
k = 1.0

[run]
dz = 2e-3
n_steps = {n_steps}
engines = moyal, liouville

[output]
directory = {outdir}
formats = csv
"""


# twm_free's physics with the beam moving at p0 = 0.5 (the momentum axis
# centred on it): by z = 26 the free beam reaches the edge of the 48-long box.
# Stepped, it wrapped silently to mean_x 18.15 at z = 40, where the free law
# gives 20.0.
WRAPPING_TWM_SCENARIO = """
[grid]
nx = 512
np = 128
x_length = 48.0
p_length = 1.6
p_center = 0.5

[beam]
sigma0 = 1.0
p0 = 0.5

[physics]
epsilon = 0.1

[run]
dz = 4e-3
n_steps = 10000
snapshot_every = 100
engines = twm

[output]
directory = {outdir}
formats = csv
"""


# Free space with the beam moving at p0 = 1: the grid engines map the run in
# closed form, which carries the beam to the x edge of the box (12.7) near
# step 348.  Stepped, the beam wrapped around the box without an error.
WRAPPING_GRID_SCENARIO = """
[grid]
nx = 256
np = 128
x_length = 25.6
p_length = 6.4

[beam]
sigma0 = 0.4
p0 = 1.0

[physics]
epsilon = 0.1

[run]
dz = 0.02
n_steps = 1000
snapshot_every = 100
engines = moyal, rays

[output]
directory = {outdir}
formats = csv, grid-dump
"""

# A defocusing quartic: rays escape, and some overflow the moments while
# still finite before they turn non-finite.
DIVERGING_RAYS_SCENARIO = """
[grid]
nx = 256
np = 128
x_length = 32.0
p_length = 0.8

[beam]
sigma0 = 1.0

[physics]
epsilon = 0.1

[potential]
preset = quartic_channel
k = 1.0
lambda4 = -1.0

[run]
dz = 0.05
n_steps = 40
engines = rays
ray_count = 2000

[output]
directory = {outdir}
formats = csv
"""


# quartic_mixed's physics cut to 20 steps and 2000 rays; {engines} is the
# file's engine list.
QUARTIC_SIDE_SCENARIO = """
[grid]
nx = 256
np = 128
x_length = 12.8
p_length = 6.4

[beam]
kind = superposition
sigma0 = 0.4
separation = 1.2

[physics]
epsilon = 0.1

[potential]
preset = quartic_channel
k = 1.0
lambda4 = 0.1

[run]
dz = 2e-4
n_steps = 20
snapshot_every = 10
engines = {engines}
ray_count = 2000

[output]
directory = {outdir}
formats = csv, grid-dump
"""


# lens_harmonic's grid, beam and step, cut to 40 steps; {potential} is a
# [potential] section or empty (free space).
LENS_SCENARIO = """
[grid]
nx = 256
np = 128
x_length = 25.6
p_length = 6.4

[beam]
sigma0 = 0.4
x0 = 0.5

[physics]
epsilon = 0.1
{potential}
[run]
dz = 2e-3
n_steps = 40
snapshot_every = 20
engines = {engines}

[output]
directory = {outdir}
formats = csv
"""

HARMONIC_LENS = "[potential]\npreset = linear_lens\nk = 1.0\nprofile = harmonic\nomega = 3.0\n"
CONSTANT_LENS = "[potential]\npreset = linear_lens\nk = 1.0\n"
QUARTIC = "[potential]\npreset = quartic_channel\nk = 1.0\nlambda4 = 0.1\n"


def lens_ini(tmp_path, potential=HARMONIC_LENS, engines="moyal, liouville"):
    text = LENS_SCENARIO
    if potential == QUARTIC:
        # quartic_mixed's box and step keep the quartic kick below its guard.
        text = text.replace("x_length = 25.6", "x_length = 12.8").replace("2e-3", "2e-4")
    return write_ini(
        tmp_path, text, potential=potential, engines=engines, outdir=tmp_path / "out"
    )


def count_grid_passes(monkeypatch) -> list:
    """Record the plan of every ``evolve_phase_space`` call the runner makes."""
    plans = []
    evolve = runner.evolve_phase_space

    def counting(*args):
        plans.append(args[3])
        return evolve(*args)

    monkeypatch.setattr(runner, "evolve_phase_space", counting)
    return plans


def fail_classical_check_at(monkeypatch, step: int) -> list:
    """Make every grid pass's per-step non-negativity check fail at ``step``.

    The check sees the negated density at that step, so the real check
    raises its own message.  Returns the plans of the grid passes.
    """
    plans = count_grid_passes(monkeypatch)
    passes_checked = []  # the pass number of every check call
    check = phasespace._check_classical

    def failing(values):
        passes_checked.append(len(plans))
        at_step = passes_checked.count(len(plans)) - 1  # a pass checks step 0 first
        check(-values if at_step == step else values)

    monkeypatch.setattr(phasespace, "_check_classical", failing)
    return plans


def write_ini(tmp_path, text, name="scenario.ini", **fmt):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text).format(**fmt))
    return path


@pytest.fixture
def free_run(tmp_path):
    outdir = tmp_path / "out"
    ini = write_ini(tmp_path, FREE_SCENARIO, outdir=outdir)
    assert main(["run", str(ini), "--quiet"]) == 0
    return outdir


class TestRunArtifacts:
    def test_configured_artifacts_written(self, free_run):
        for engine in ("twm", "moyal", "liouville", "rays"):
            assert (free_run / f"moments_{engine}.csv").is_file()
        for engine in ("twm", "moyal", "liouville"):
            assert (free_run / f"state_{engine}.mbgd").is_file()
            assert (free_run / f"heatmap_{engine}.pgm").is_file()
            assert (free_run / f"heatmap_{engine}.minmax.txt").is_file()
        assert not (free_run / "state_rays.mbgd").exists()
        assert not (free_run / "heatmap_rays.pgm").exists()

    def test_grid_dump_size_arithmetic(self, free_run):
        size = (free_run / "state_moyal.mbgd").stat().st_size
        assert size == 64 + 128 * 64 * 8

    def test_csv_round_trip_and_format(self, free_run):
        lines = (free_run / "moments_moyal.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 5  # header + steps 0..4
        for line in lines[1:]:
            for cell in line.split(","):
                assert f"{float(cell):.17g}" == cell
        rows = [line.split(",") for line in lines[1:]]
        z = [float(r[0]) for r in rows]
        assert z == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2], abs=1e-12)
        volume_col = CSV_COLUMNS.index("negativity_volume")
        volumes = [float(r[volume_col]) for r in rows]
        assert not any(math.isnan(volumes[k]) for k in (0, 2, 4))
        assert all(math.isnan(volumes[k]) for k in (1, 3))

    def test_csv_cells_of_special_values(self, tmp_path):
        # Each cell is format(value, ".17g"), also for nan, infinities,
        # signed zeros and subnormals.
        rows = [
            (0.0, -0.0, 1e-320, float("inf"), 0.1, -float("inf"), 1.0 / 3.0),
            (2.5e-17, float("nan"), -5e-324, 1.7976931348623157e308, 1.0, -0.0, 3.0),
        ]
        moments = tuple(BeamMoments(*row) for row in rows)
        result = runner.EngineResult("twm", moments, (1,), (-0.0,), (float("nan"),), 0.0)
        text = write_moments_csv(tmp_path / "m.csv", result).read_bytes().decode("ascii")
        expected = [",".join(CSV_COLUMNS)]
        for step, m in enumerate(moments):
            volume, r3 = (-0.0, float("nan")) if step == 1 else (float("nan"),) * 2
            cells = (*dataclasses.astuple(m), m.uncertainty_product, volume, r3)
            expected.append(",".join(format(cell, ".17g") for cell in cells))
        assert text == "\n".join(expected) + "\n"

    def test_ray_series_has_no_grid_diagnostics(self, free_run):
        lines = (free_run / "moments_rays.csv").read_text().splitlines()
        volume_col = CSV_COLUMNS.index("negativity_volume")
        r3_col = CSV_COLUMNS.index("r3")
        for line in lines[1:]:
            cells = line.split(",")
            assert math.isnan(float(cells[volume_col]))
            assert math.isnan(float(cells[r3_col]))

    def test_heatmap_layout_and_peak(self, free_run):
        blob = (free_run / "heatmap_moyal.pgm").read_bytes()
        header, image = blob.split(b"255\n", 1)
        assert header == b"P5\n128 64\n"
        pixels = np.frombuffer(image, dtype=np.uint8).reshape(64, 128)
        state, _ = read_grid_dump(free_run / "state_moyal.mbgd")
        i0, j0 = np.unravel_index(np.argmax(state.values), state.values.shape)
        assert pixels[64 - 1 - j0, i0] == 255
        assert pixels.max() == 255
        sidecar = (free_run / "heatmap_moyal.minmax.txt").read_text().splitlines()
        assert float(sidecar[0].split()[1]) == state.values.min()
        assert float(sidecar[1].split()[1]) == state.values.max()

    def test_grid_dump_round_trip_bitwise(self, free_run, tmp_path):
        source = free_run / "state_moyal.mbgd"
        state, epsilon = read_grid_dump(source)
        assert epsilon == 0.1
        copy = write_grid_dump(tmp_path / "copy.mbgd", state, epsilon)
        assert copy.read_bytes() == source.read_bytes()


class TestGridDumpContract:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mbgd"
        path.write_bytes(b"JUNK" + bytes(60) + bytes(64))
        with pytest.raises(ConfigError, match="not a grid dump"):
            read_grid_dump(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.mbgd"
        path.write_bytes(b"MBGD" + bytes(16))
        with pytest.raises(ConfigError, match="too short"):
            read_grid_dump(path)

    def test_wrong_version_rejected(self, tmp_path):
        grid = PhaseGrid(AxisGrid(16, 12.0), AxisGrid(16, 12.0))
        rho = gaussian_quasidist(grid, 0.5, 0.5)
        path = write_grid_dump(tmp_path / "state.mbgd", rho, 0.1)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigError, match="version 99"):
            read_grid_dump(path)

    def test_size_mismatch_rejected(self, tmp_path):
        grid = PhaseGrid(AxisGrid(16, 12.0), AxisGrid(16, 12.0))
        rho = gaussian_quasidist(grid, 0.5, 0.5)
        path = write_grid_dump(tmp_path / "state.mbgd", rho, 0.1)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError, match="expected"):
            read_grid_dump(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            read_grid_dump(tmp_path / "absent.mbgd")

    def test_invalid_grid_rejected(self, tmp_path):
        # nx = 3 with a payload of 3 x 16 values passes the size check; the grid refuses it.
        grid = PhaseGrid(AxisGrid(16, 12.0), AxisGrid(16, 12.0))
        path = write_grid_dump(tmp_path / "state.mbgd", gaussian_quasidist(grid, 0.5, 0.5), 0.1)
        blob = bytearray(path.read_bytes()[: -13 * 16 * 8])
        blob[8:12] = struct.pack("<I", 3)
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigError, match="invalid grid-dump contents: axis point count"):
            read_grid_dump(path)

    def test_non_finite_z_rejected(self, tmp_path):
        # No state holds a NaN z, so the header is packed by hand around a valid payload.
        grid = PhaseGrid(AxisGrid(16, 12.0), AxisGrid(16, 12.0))
        rho = gaussian_quasidist(grid, 0.5, 0.5)
        header = MBGD_HEADER.pack(
            MBGD_MAGIC, MBGD_VERSION, 16, 16, 12.0, 12.0, 0.0, 0.0, math.nan, 0.1
        )
        path = tmp_path / "state.mbgd"
        path.write_bytes(header + rho.values.astype("<f8").tobytes())
        with pytest.raises(ConfigError, match="invalid grid-dump contents: z must be finite"):
            read_grid_dump(path)

    @pytest.mark.parametrize("epsilon", ["a", math.nan, 0.0, -0.1])
    def test_write_refuses_a_bad_epsilon(self, tmp_path, epsilon):
        rho = gaussian_quasidist(PhaseGrid(AxisGrid(16, 12.0), AxisGrid(16, 12.0)), 0.5, 0.5)
        path = tmp_path / "state.mbgd"
        with pytest.raises(BeamPhaseError, match="^epsilon must be positive and finite"):
            write_grid_dump(path, rho, epsilon)
        assert not path.exists()

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -0.1])
    def test_bad_epsilon_rejected(self, tmp_path, epsilon):
        # No writer stores such an epsilon, so the header is packed by hand.
        grid = PhaseGrid(AxisGrid(16, 12.0), AxisGrid(16, 12.0))
        rho = gaussian_quasidist(grid, 0.5, 0.5)
        header = MBGD_HEADER.pack(
            MBGD_MAGIC, MBGD_VERSION, 16, 16, 12.0, 12.0, 0.0, 0.0, 0.0, epsilon
        )
        path = tmp_path / "state.mbgd"
        path.write_bytes(header + rho.values.astype("<f8").tobytes())
        pattern = "invalid grid-dump contents: epsilon must be positive and finite"
        with pytest.raises(ConfigError, match=pattern):
            read_grid_dump(path)

    def test_heatmap_of_offcenter_peak(self, tmp_path):
        grid = PhaseGrid(AxisGrid(64, 32.0), AxisGrid(32, 1.6))
        rho = gaussian_quasidist(grid, 1.0, 0.05, x0=2.0, p0=0.1)
        path = write_heatmap(tmp_path / "beam.pgm", rho)
        blob = path.read_bytes()
        header, image = blob.split(b"255\n", 1)
        pixels = np.frombuffer(image, dtype=np.uint8).reshape(32, 64)
        i0, j0 = np.unravel_index(np.argmax(rho.values), rho.values.shape)
        assert pixels[32 - 1 - j0, i0] == 255

    def test_heatmap_sidecar_failure_names_the_sidecar(self, tmp_path):
        grid = PhaseGrid(AxisGrid(16, 12.0), AxisGrid(16, 12.0))
        rho = gaussian_quasidist(grid, 0.5, 0.5)
        (tmp_path / "beam.minmax.txt").mkdir()
        with pytest.raises(BeamPhaseError, match=r"cannot write .*beam\.minmax\.txt: "):
            write_heatmap(tmp_path / "beam.pgm", rho)

    @pytest.mark.parametrize("name", ["beam.pgm", "beam.mbgd", "moments.csv"])
    def test_write_failure_names_the_file(self, tmp_path, name):
        grid = PhaseGrid(AxisGrid(16, 12.0), AxisGrid(16, 12.0))
        rho = gaussian_quasidist(grid, 0.5, 0.5)
        result = runner.EngineResult("moyal", (), (), (), (), 0.0)
        writers = {
            "beam.pgm": lambda path: write_heatmap(path, rho),
            "beam.mbgd": lambda path: write_grid_dump(path, rho, 0.1),
            "moments.csv": lambda path: write_moments_csv(path, result),
        }
        (tmp_path / name).mkdir()
        with pytest.raises(BeamPhaseError, match=rf"^cannot write .*{name}: "):
            writers[name](tmp_path / name)


class TestVerbs:
    def test_validate_echoes_resolved_config(self, tmp_path, capsys):
        ini = write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "out")
        assert main(["validate", str(ini)]) == 0
        out = capsys.readouterr().out
        assert "is valid" in out
        assert "engines=twm,moyal,liouville,rays" in out
        assert "seed=0" in out

    def test_validate_rejects_broken_file(self, tmp_path, capsys):
        path = tmp_path / "broken.ini"
        path.write_text("[grid]\nx_length = 16.0\np_length = 0.8\n")
        assert main(["validate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_refuses_a_beam_whose_spread_overflows(self, tmp_path, capsys):
        # sigma0 = 1e-300 makes the momentum spread epsilon / (2 sigma0) overflow when squared.
        bench = Path(__file__).parents[1] / "bench" / "scenarios" / "quartic_mixed.ini"
        path = tmp_path / "tiny.ini"
        path.write_text(bench.read_text().replace("sigma0 = 0.4", "sigma0 = 1e-300"))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "covariance matrix must be positive definite" in err
        # The beam's own scale is at fault, not the box.
        assert err.startswith("error: beam.sigma0, physics.epsilon: ")

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("engines", ["twm, moyal, liouville, rays", "moyal, liouville, rays"])
    def test_a_box_whose_phase_products_overflow_is_refused_at_load(
        self, tmp_path, capsys, verb, engines
    ):
        # p_length = 1e308 leaves the float range when squared, and overflows x p / epsilon.
        bench = Path(__file__).parents[1] / "bench" / "scenarios" / "quartic_mixed.ini"
        text = bench.read_text().replace("p_length = 6.4", "p_length = 1e308")
        path = tmp_path / "huge.ini"
        path.write_text(re.sub(r"(?m)^engines = .*$", f"engines = {engines}", text))
        argv = [verb, str(path), "--quiet"]
        if verb == "run":
            argv += ["--output-dir", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid.p_length: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("x_length", ["1e200", "1e308"])
    def test_a_box_whose_squared_reach_overflows_names_its_axis(
        self, tmp_path, capsys, verb, x_length
    ):
        # x**2 overflows at the edge of these boxes, so would every moment of a
        # state on them; at 1e308 x p / epsilon overflows too, through x.
        bench = Path(__file__).parents[1] / "bench" / "scenarios" / "quartic_mixed.ini"
        path = tmp_path / "wide.ini"
        path.write_text(bench.read_text().replace("x_length = 12.8", f"x_length = {x_length}"))
        argv = [verb, str(path), "--quiet"]
        if verb == "run":
            argv += ["--output-dir", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid.x_length: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "profile", ["", "profile = harmonic\nomega = 3.0\n"], ids=["constant", "harmonic"]
    )
    def test_a_potential_that_overflows_refuses_twm_at_step_1(self, tmp_path, capsys, profile):
        # x**4 overflows on this box: twm's half potential phase is not finite
        # at step 1's midpoint, whether or not it depends on z.  Both verbs
        # report that refusal, without a warning.
        bench = Path(__file__).parents[1] / "bench" / "scenarios" / "quartic_mixed.ini"
        text = bench.read_text().replace("x_length = 12.8", "x_length = 1e120")
        text = text.replace("lambda4 = 0.1\n", "lambda4 = 0.1\n" + profile)
        path = tmp_path / "wide.ini"
        path.write_text(re.sub(r"(?m)^engines = .*$", "engines = twm", text))
        outdir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["validate", str(path)]) == 0
            out, validate_err = capsys.readouterr()
            assert main(["run", str(path), "--quiet", "--output-dir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert validate_err == ""
        assert err.startswith("error: engine twm: step 1/300: potential phase is non-finite")
        assert err.count("\n") == 1
        warned = [line for line in out.splitlines() if line.startswith("warning:")]
        assert warned == ["warning: " + err.removeprefix("error: ").rstrip("\n")]
        assert not outdir.exists()

    def test_missing_scenario_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.ini")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_compare_forces_the_three_grid_capable_engines(self, tmp_path):
        outdir = tmp_path / "out"
        text = FREE_SCENARIO.replace(
            "engines = twm, moyal, liouville, rays\nray_count = 2000\n", "engines = moyal\n"
        )
        ini = write_ini(tmp_path, text, outdir=outdir)
        assert main(["compare", str(ini), "--quiet"]) == 0
        for engine in ("twm", "moyal", "liouville"):
            assert (outdir / f"moments_{engine}.csv").is_file()
        assert not (outdir / "moments_rays.csv").exists()

    def test_unknown_verb_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "frobnicate" in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: beamphase" in capsys.readouterr().out

    def test_run_reports_the_largest_distance(self, tmp_path, capsys):
        ini = lens_ini(tmp_path, QUARTIC)
        assert main(["run", str(ini)]) == 0
        out = capsys.readouterr().out
        (pair,) = run_scenario(load_scenario(ini), emit=False).distances
        assert max(pair.linf) > 0.0
        assert f"distance moyal vs liouville: max L_inf = {max(pair.linf):.6e}\n" in out

    def test_info_describes_dump(self, free_run, capsys):
        assert main(["info", str(free_run / "state_twm.mbgd")]) == 0
        out = capsys.readouterr().out
        assert "128 x 64" in out
        assert "epsilon=0.1" in out

    def test_info_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "junk.mbgd"
        path.write_bytes(b"JUNK" + bytes(100))
        assert main(["info", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        ini = write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "out")
        assert main(["validate", str(ini), "--quiet"]) == 0
        assert capsys.readouterr() == ("", "")  # the twm pre-flight passes silently

    def test_validate_preflights_initial_wigner_transform(self, tmp_path, capsys):
        # The configuration of test_runtime_failure_exits_1: its initial twm
        # field fails the Wigner marginal check that run applies at step 0.
        text = FREE_SCENARIO.replace("x_length = 32.0", "x_length = 24.0")
        ini = write_ini(tmp_path, text, outdir=tmp_path / "out")
        assert main(["validate", str(ini), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "grid.x_length, grid.np, grid.p_length" in err
        assert "marginal identity defect" in err

    def test_validate_preflight_needs_twm(self, tmp_path):
        text = FREE_SCENARIO.replace("x_length = 32.0", "x_length = 24.0").replace(
            "engines = twm, moyal, liouville, rays", "engines = moyal, liouville, rays"
        )
        ini = write_ini(tmp_path, text, outdir=tmp_path / "out")
        assert main(["validate", str(ini), "--quiet"]) == 0

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # x_length = 24 clears the beam itself but leaves the wavefield's
        # correlation tail no room, so the run fails after loading.
        text = FREE_SCENARIO.replace("x_length = 32.0", "x_length = 24.0")
        ini = write_ini(tmp_path, text, outdir=tmp_path / "out")
        assert main(["run", str(ini), "--quiet"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_and_validate_refuse_a_failing_initial_wigner_alike(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        text = FREE_SCENARIO.replace("x_length = 32.0", "x_length = 24.0")
        ini = write_ini(tmp_path, text, outdir=outdir)
        assert main(["run", str(ini), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: grid.x_length, grid.np, grid.p_length: the Wigner transform of the "
            "initial twm field fails its check ("
        )
        assert not outdir.exists()
        assert main(["validate", str(ini), "--quiet"]) == 2
        assert capsys.readouterr().err == err

    def test_validate_warns_of_the_twm_refusal_that_run_stops_at(self, tmp_path, capsys):
        # The initial field fails its Wigner check, but run stops first, at
        # the step where the free-space twm beam reaches the box edge; so
        # validate warns of that refusal and does not reach the check.
        text = FREE_SCENARIO.replace("x_length = 32.0", "x_length = 24.0")
        text = text.replace("n_steps = 4", "n_steps = 1000")
        text = text.replace("snapshot_every = 2", "snapshot_every = 100")
        text = text.replace("engines = twm, moyal, liouville, rays", "engines = twm, rays")
        ini = write_ini(tmp_path, text, outdir=tmp_path / "out")
        assert main(["run", str(ini), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: engine twm: step 600/1000: grid.x_length: ")
        assert main(["validate", str(ini)]) == 0
        out = capsys.readouterr().out
        warnings = [line for line in out.splitlines() if line.startswith("warning:")]
        assert warnings == ["warning:" + err.removeprefix("error:").rstrip("\n")]


    def test_run_refuses_a_kick_guard_before_any_engine(self, tmp_path, capsys, monkeypatch):
        # dz = 2e-3 on the quartic channel trips moyal's kick guard at step
        # 1; twm runs first and would otherwise evolve all 500 steps for
        # nothing.
        entered = []
        monkeypatch.setattr(runner, "evolve_twm", lambda *args: entered.append("twm"))
        outdir = tmp_path / "out"
        text = OUTGROWN_WIGNER_SCENARIO.replace("engines = twm", "engines = twm, moyal")
        ini = write_ini(tmp_path, text, outdir=outdir)
        assert main(["run", str(ini), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: engine moyal: step 1/500: kick phase overflow: max |dz * G| = 1.716e+01 >= pi"
        )
        assert entered == []
        assert not outdir.exists()

    def test_run_refuses_a_kinetic_guard_before_any_engine(self, tmp_path, capsys, monkeypatch):
        entered = []
        monkeypatch.setattr(runner, "trace_rays", lambda *args: entered.append("rays"))
        text = FREE_SCENARIO.replace("dz = 0.05", "dz = 0.5").replace(
            "engines = twm, moyal, liouville, rays", "engines = rays, twm"
        )
        ini = write_ini(tmp_path, text, outdir=tmp_path / "out")
        assert main(["run", str(ini), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: engine twm: kinetic phase overflow")
        assert entered == []

    def test_validate_warns_of_step_guards(self, tmp_path, capsys):
        text = OUTGROWN_WIGNER_SCENARIO.replace("engines = twm", "engines = twm, moyal, liouville")
        ini = write_ini(tmp_path, text, outdir=tmp_path / "out")
        assert main(["validate", str(ini)]) == 0
        warnings = [line for line in capsys.readouterr().out.splitlines() if "warning" in line]
        assert len(warnings) == 2
        assert warnings[0].startswith(
            "warning: engine moyal: step 1/500: kick phase overflow: max |dz * G| = 1.716e+01"
        )
        assert warnings[1].startswith("warning: engine liouville: step 1/500: kick phase overflow")

    def test_z_dependent_quartic_kick_guard_refused_before_any_engine(
        self, tmp_path, capsys, monkeypatch
    ):
        # The pre-flight of a z-dependent potential of degree > 2 checks step
        # 1's kick; the step loop checks the later ones.
        entered = []
        monkeypatch.setattr(runner, "evolve_twm", lambda *args: entered.append("twm"))
        outdir = tmp_path / "out"
        text = OUTGROWN_WIGNER_SCENARIO.replace(
            "lambda4 = 0.1", "lambda4 = 0.1\nprofile = harmonic\nomega = 3.0"
        ).replace("engines = twm", "engines = twm, moyal, liouville")
        ini = write_ini(tmp_path, text, outdir=outdir)
        assert main(["run", str(ini), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: engine moyal: step 1/500: kick phase overflow: max |dz * G| = 1.716e+01 >= pi"
        )
        assert entered == []
        assert not outdir.exists()
        assert main(["validate", str(ini)]) == 0
        warnings = [line for line in capsys.readouterr().out.splitlines() if "warning" in line]
        assert len(warnings) == 2
        assert warnings[0].startswith(
            "warning: engine moyal: step 1/500: kick phase overflow: max |dz * G| = 1.716e+01"
        )
        assert warnings[1].startswith(
            "warning: engine liouville: step 1/500: kick phase overflow: max |dz * G| = 1.398e+01"
        )

    def test_validate_warns_once_of_a_guarded_free_twm_run(self, tmp_path, capsys):
        # dz = 0.5 trips twm's kinetic guard, which its free-space run would raise again.
        text = FREE_SCENARIO.replace("dz = 0.05", "dz = 0.5")
        ini = write_ini(tmp_path, text, outdir=tmp_path / "out")
        assert main(["validate", str(ini)]) == 0
        lines = capsys.readouterr().out.splitlines()
        (warning,) = [line for line in lines if line.startswith("warning: engine twm:")]
        assert warning.startswith("warning: engine twm: kinetic phase overflow")

    def test_zero_steps_check_no_step_guard(self, tmp_path, capsys):
        # dz = 0.5 trips twm's kinetic guard (see above); without steps no
        # engine takes one, so neither run nor validate checks it.
        outdir = tmp_path / "out"
        text = FREE_SCENARIO.replace("dz = 0.05\nn_steps = 4", "dz = 0.5\nn_steps = 0")
        ini = write_ini(tmp_path, text, outdir=outdir)
        assert main(["validate", str(ini)]) == 0
        assert "warning" not in capsys.readouterr().out
        assert main(["run", str(ini), "--quiet"]) == 0
        rows = (outdir / "moments_twm.csv").read_text().splitlines()
        assert len(rows) == 1 + 1

    def test_compare_checks_the_box_for_the_engines_it_forces(self, tmp_path, capsys):
        # x_length = 18 clears a moyal-only density but not the twm envelope
        # that compare adds, so compare refuses it the way run refuses the
        # same file with twm listed.
        text = (
            FREE_SCENARIO.replace("nx = 128\nnp = 64\nx_length = 32.0\np_length = 0.8",
                                  "nx = 256\nnp = 64\nx_length = 18.0\np_length = 1.6")
            .replace("dz = 0.05", "dz = 0.01")
            .replace("engines = twm, moyal, liouville, rays\nray_count = 2000\n",
                     "engines = moyal\n")
        )
        ini = write_ini(tmp_path, text, outdir=tmp_path / "out")
        assert main(["run", str(ini), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["compare", str(ini), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error: grid.x_length: beam does not decay")

    def test_validate_and_run_refuse_a_peak_between_samples_alike(self, tmp_path, capsys):
        # x0 = 7.56 puts the largest sample 0.44 from the centre, so the edge
        # sample at 15 is 1.05e-12 of it: the density constructor refuses the
        # grid, and load time applies the same check.
        text = (
            FREE_SCENARIO.replace("nx = 128\nnp = 64", "nx = 32\nnp = 256")
            .replace("sigma0 = 1.0", "sigma0 = 1.0\nx0 = 7.56")
            .replace("engines = twm, moyal, liouville, rays\nray_count = 2000\n",
                     "engines = liouville\n")
        )
        ini = write_ini(tmp_path, text, outdir=tmp_path / "out")
        with pytest.raises(ConfigError, match="grid.x_length"):
            load_scenario(ini)
        for verb in ("validate", "run"):
            assert main([verb, str(ini)]) == 2
            assert capsys.readouterr().err.startswith("error: grid.x_length: ")
        assert not (tmp_path / "out").exists()


class TestFlags:
    def test_output_dir_flag_beats_config(self, tmp_path):
        ini = write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "configured")
        elsewhere = tmp_path / "elsewhere"
        assert main(["run", str(ini), "--output-dir", str(elsewhere), "--quiet"]) == 0
        assert (elsewhere / "moments_moyal.csv").is_file()
        assert not (tmp_path / "configured").exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        ini = write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "out")
        assert main(["run", str(ini), "--seed", "-3", "--quiet"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_empty_output_dir_flag_rejected(self, tmp_path, capsys):
        ini = write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "out")
        assert main(["run", str(ini), "--output-dir", "", "--quiet"]) == 2
        assert "--output-dir" in capsys.readouterr().err

    def test_output_dir_below_a_file_is_a_runtime_failure(self, tmp_path, capsys):
        ini = write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "out")
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", str(ini), "--output-dir", str(blocker / "out"), "--quiet"]) == 1
        assert "cannot create output directory" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_seed_gives_identical_bytes(self, tmp_path):
        ini = write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "a")
        assert main(["run", str(ini), "--quiet"]) == 0
        assert main(["run", str(ini), "--output-dir", str(tmp_path / "b"), "--quiet"]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_changes_only_the_ray_series(self, tmp_path):
        ini = write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "a")
        assert main(["run", str(ini), "--quiet"]) == 0
        assert main(
            ["run", str(ini), "--seed", "99", "--output-dir", str(tmp_path / "c"), "--quiet"]
        ) == 0
        ray_a = (tmp_path / "a" / "moments_rays.csv").read_bytes()
        ray_c = (tmp_path / "c" / "moments_rays.csv").read_bytes()
        assert ray_a != ray_c
        moyal_a = (tmp_path / "a" / "moments_moyal.csv").read_bytes()
        moyal_c = (tmp_path / "c" / "moments_moyal.csv").read_bytes()
        assert moyal_a == moyal_c


class TestRunnerReport:
    def test_free_space_distances(self, tmp_path):
        ini = write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "out")
        report = run_scenario(load_scenario(ini), emit=False)
        assert tuple(r.name for r in report.engines) == ("twm", "moyal", "liouville", "rays")
        pairs = {(d.engine_a, d.engine_b): d for d in report.distances}
        grid_pair = pairs[("moyal", "liouville")]
        assert grid_pair.snapshot_steps == (0, 2, 4)
        assert all(value == 0.0 for value in grid_pair.linf)
        assert max(pairs[("twm", "moyal")].linf) <= 1e-12
        assert max(pairs[("twm", "liouville")].linf) <= 1e-12
        assert report.final_negativity is not None
        assert report.final_negativity.negativity_volume <= 1e-12

    def test_engine_accessor(self, tmp_path):
        ini = write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "out")
        report = run_scenario(load_scenario(ini), emit=False)
        assert report.engine("moyal").name == "moyal"
        with pytest.raises(KeyError):
            report.engine("wkb")

    def test_rays_only_run_has_no_grid_artifacts(self, tmp_path):
        outdir = tmp_path / "out"
        text = FREE_SCENARIO.replace(
            "engines = twm, moyal, liouville, rays\nray_count = 2000\n",
            "engines = rays\nray_count = 2000\n",
        )
        report = run_scenario(load_scenario(write_ini(tmp_path, text, outdir=outdir)))
        assert report.final_negativity is None
        assert report.distances == ()
        assert sorted(p.name for p in outdir.iterdir()) == ["moments_rays.csv"]

    def test_evolved_wigner_failure_keeps_engine_results(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        ini = write_ini(tmp_path, OUTGROWN_WIGNER_SCENARIO, outdir=outdir)
        assert main(["run", str(ini)]) == 0
        out = capsys.readouterr().out
        assert "warning: twm: Wigner transform of the step 250 snapshot failed" in out
        assert "final negativity:" not in out
        rows = (outdir / "moments_twm.csv").read_text().splitlines()
        assert len(rows) == 1 + 501
        assert sorted(p.name for p in outdir.iterdir()) == ["moments_twm.csv"]

    def test_evolved_momentum_norm_failure_is_a_warning(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        ini = write_ini(tmp_path, MOMENTUM_NORM_SCENARIO, outdir=outdir)
        assert main(["run", str(ini)]) == 0
        out = capsys.readouterr().out
        assert (
            "warning: twm: Wigner transform of the step 1000 snapshot failed (wavefield norm"
            in out
        )
        assert sorted(p.name for p in outdir.iterdir()) == ["moments_rays.csv", "moments_twm.csv"]
        assert len((outdir / "moments_twm.csv").read_text().splitlines()) == 1 + 1001

    def test_paraxial_warning_reaches_report_and_stdout(self, tmp_path, capsys):
        text = FREE_SCENARIO.replace(
            "epsilon = 0.1", "vth_over_c = 0.5\nsigma0 = 0.1"
        ).replace("engines = twm, moyal, liouville, rays\nray_count = 2000\n", "engines = moyal\n")
        ini = write_ini(tmp_path, text, outdir=tmp_path / "out")
        report = run_scenario(load_scenario(ini), emit=False)
        assert any("paraxial" in w for w in report.warnings)
        assert main(["run", str(ini)]) == 0
        assert "warning: physics" in capsys.readouterr().out

    def test_superposition_beam_reaches_grid_and_ray_engines(self, tmp_path):
        # The grid and ray engines start from the positive two-peak mixture:
        # each peak keeps sigma0 and the peaks sit at +-separation / 2.
        text = FREE_SCENARIO.replace(
            "sigma0 = 1.0", "kind = superposition\nsigma0 = 1.0\nseparation = 2.0"
        ).replace("engines = twm, moyal, liouville, rays", "engines = moyal, liouville, rays")
        report = run_scenario(load_scenario(write_ini(tmp_path, text, outdir=tmp_path / "out")))
        mixture_sigma_x = math.sqrt(1.0**2 + (2.0 / 2) ** 2)
        for name in ("moyal", "liouville"):
            initial = report.engine(name).moments[0]
            assert initial.sigma_x == pytest.approx(mixture_sigma_x, rel=1e-9)
            assert initial.mean_x == pytest.approx(0.0, abs=1e-12)
        assert report.engine("rays").moments[0].sigma_x == pytest.approx(mixture_sigma_x, rel=0.05)
        assert report.final_negativity.negativity_volume <= 1e-12

    def test_engine_solver_error_names_the_engine(self, tmp_path, capsys, monkeypatch):
        def failing(*args):
            raise SolverError("step 3/4: density mass drifted")

        monkeypatch.setattr(runner, "evolve_phase_space", failing)
        ini = write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "out")
        assert main(["run", str(ini), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: engine moyal: step 3/4: density mass drifted\n"

    def test_lost_rays_reach_report_and_stdout(self, tmp_path, capsys, monkeypatch):
        trace_rays = runner.trace_rays
        monkeypatch.setattr(
            runner, "trace_rays", lambda *args: dataclasses.replace(trace_rays(*args), lost=7)
        )
        text = FREE_SCENARIO.replace("engines = twm, moyal, liouville, rays", "engines = rays")
        ini = write_ini(tmp_path, text, outdir=tmp_path / "out")
        assert main(["run", str(ini)]) == 0
        out = capsys.readouterr().out
        assert "warning: rays: 7 rays left the representable range" in out
        assert [line for line in out.splitlines() if line.startswith("engine rays:")][0].endswith(
            " s, 7 rays lost"
        )


class TestEnginePlans:
    def test_only_liouville_truncates_the_moyal_series(self, tmp_path):
        # bench/child.py labels a grid run liouville by max_order == 1, else moyal.
        config = load_scenario(write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "out"))
        orders = {name: runner._engine_plan(name, config).max_order for name in config.run.engines}
        assert orders == {"twm": None, "moyal": None, "liouville": 1, "rays": None}


class TestSharedGridPass:
    """A run with both grid engines gives what two separate passes give."""

    @pytest.mark.parametrize(
        "potential, engines, passes",
        [
            (HARMONIC_LENS, "moyal, liouville", 2),
            (CONSTANT_LENS, "moyal, liouville", 2),
            ("", "moyal, liouville", 2),
            (QUARTIC, "moyal, liouville", 2),
            (HARMONIC_LENS, "moyal", 1),
            (HARMONIC_LENS, "liouville", 1),
        ],
        ids=["harmonic", "constant", "free", "quartic", "moyal-only", "liouville-only"],
    )
    def test_grid_passes(self, tmp_path, monkeypatch, potential, engines, passes):
        # Each grid engine makes its own pass under its own plan.
        plans = count_grid_passes(monkeypatch)
        run_scenario(load_scenario(lens_ini(tmp_path, potential, engines)), emit=False)
        assert len(plans) == passes
        names = [name.strip() for name in engines.split(",")]
        assert [plan.is_classical for plan in plans] == [name == "liouville" for name in names]

    @pytest.mark.parametrize(
        "potential", [HARMONIC_LENS, CONSTANT_LENS, ""], ids=["harmonic", "constant", "free"]
    )
    def test_matches_two_separate_passes(self, tmp_path, monkeypatch, potential):
        config = load_scenario(lens_ini(tmp_path, potential))
        spec, eps, run = config.potential.build(), config.epsilon, config.run
        rho = runner.build_initial_states(config)["rho"]
        separate = {
            "moyal": evolve_phase_space(rho, spec, eps, StepPlan(run.dz, run.n_steps), 20),
            "liouville": evolve_phase_space(
                rho, spec, eps, StepPlan(run.dz, run.n_steps, max_order=1), 20
            ),
        }
        diagnosed = []  # every snapshot the run diagnoses, moyal's first
        diagnose = runner.negativity

        def recording(state):
            diagnosed.append(state)
            return diagnose(state)

        monkeypatch.setattr(runner, "negativity", recording)
        report = run_scenario(config, emit=False)

        expected = separate["moyal"].snapshots + separate["liouville"].snapshots
        assert [s.kind for s in diagnosed] == [s.kind for s in expected]
        assert [s.kind for s in diagnosed] == ["classical", "wigner", "wigner"] + ["classical"] * 3
        for got, want in zip(diagnosed, expected, strict=True):
            assert got.values.tobytes() == want.values.tobytes()
            assert got.z == want.z
        for name, traj in separate.items():
            result = report.engine(name)
            assert result.moments == traj.moments
            assert result.snapshot_steps == traj.snapshot_steps == (0, 20, 40)
            volumes = [negativity(s).negativity_volume for s in traj.snapshots]
            ratios = [truncation_ratio(s, spec, eps) for s in traj.snapshots]
            assert np.array(result.snapshot_negativity).tobytes() == np.array(volumes).tobytes()
            assert np.array(result.snapshot_r3).tobytes() == np.array(ratios).tobytes()
        (pair,) = report.distances
        moyal, liouville = separate["moyal"].snapshots, separate["liouville"].snapshots
        assert pair.linf == tuple(
            float(np.abs(a.values - b.values).max()) for a, b in zip(moyal, liouville)
        )


class TestGridErrorParity:
    """A run with both grid engines fails as two separate passes would."""

    def test_liouville_check_names_liouville_and_the_step(self, tmp_path, capsys, monkeypatch):
        # The quartic channel steps, so liouville's per-step check runs; a
        # degree <= 2 run is mapped in closed form.
        fail_classical_check_at(monkeypatch, 3)
        outdir = tmp_path / "out"
        assert main(["run", str(lens_ini(tmp_path, QUARTIC)), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: engine liouville: step 3/40: classical density has negative values"
        )
        assert err.count("\n") == 1
        assert not outdir.exists()

    def test_failure_of_both_engines_names_moyal(self, tmp_path, capsys, monkeypatch):
        # A NaN coefficient makes the kick phase non-finite, which the kick
        # guard refuses for either engine; moyal is first in run order.
        nan_lens = PotentialSpec(((2, HarmonicProfile(math.nan, 3.0)),))
        monkeypatch.setattr(scenario.PotentialSection, "build", lambda self: nan_lens)
        assert main(["run", str(lens_ini(tmp_path)), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: engine moyal: step 1/40: ")
        assert "non-finite" in err

    def test_validate_warns_once_per_grid_engine(self, tmp_path, capsys):
        # dz = 5e-3 takes the harmonic lens's step-1 kick phase past pi.
        ini = lens_ini(tmp_path)
        ini.write_text(ini.read_text().replace("dz = 2e-3", "dz = 5e-3"))
        assert main(["validate", str(ini)]) == 0
        warnings = [line for line in capsys.readouterr().out.splitlines() if "warning" in line]
        assert [w.split(":")[1] for w in warnings] == [" engine moyal", " engine liouville"]
        assert all("step 1/40: kick phase overflow" in w for w in warnings)


class TestLinearPreflight:
    """A degree <= 2 run the grid cannot resolve is refused before any engine starts."""

    @pytest.mark.parametrize("case", sorted(UNRESOLVED_LENS_SCENARIOS))
    def test_validate_warns_and_run_refuses(self, tmp_path, capsys, monkeypatch, case):
        nx, beam, n_steps, step = UNRESOLVED_LENS_SCENARIOS[case]
        outdir = tmp_path / "out"
        ini = write_ini(
            tmp_path, UNRESOLVED_LENS_SCENARIO, nx=nx, beam=beam, n_steps=n_steps, outdir=outdir
        )
        assert main(["validate", str(ini)]) == 0
        warnings = [line for line in capsys.readouterr().out.splitlines() if "warning" in line]
        prefix = f"step {step}/{n_steps}: grid.nx: the linear map carries the beam's spectrum"
        assert [w.split(": step")[0] for w in warnings] == [
            "warning: engine moyal", "warning: engine liouville"
        ]
        assert all(f": {prefix}" in w for w in warnings)
        plans = count_grid_passes(monkeypatch)
        assert main(["run", str(ini), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"error: engine moyal: {prefix}")
        assert plans == []
        assert not outdir.exists()

    def test_run_builds_the_density_once(self, tmp_path, monkeypatch):
        # The pre-flight maps the density the grid engines start from;
        # the load-time box check built one before.
        ini = write_ini(
            tmp_path, UNRESOLVED_LENS_SCENARIO, nx="nx = 128", beam="sigma0 = 0.4\nx0 = 0.5",
            n_steps=20, outdir=tmp_path / "out",
        )
        config = load_scenario(ini)
        built = []
        density = scenario.ScenarioConfig.initial_density

        def counted(config):
            built.append(config)
            return density(config)

        monkeypatch.setattr(scenario.ScenarioConfig, "initial_density", counted)
        run_scenario(config, emit=False)
        assert len(built) == 1


class TestGridKernelBuilds:
    """The pre-flight builds the kernels the engines build, without entering or stepping."""

    def test_linear_map_built_at_most_three_times(self, tmp_path, monkeypatch):
        # Once by the pre-flight for both grid engines, once by each engine.
        from beamphase import linear_map

        builds = []

        class Counted(linear_map._LinearKernel):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(linear_map, "_LinearKernel", Counted)
        run_scenario(load_scenario(lens_ini(tmp_path)), emit=False)
        assert 0 < len(builds) <= 3

    def test_static_quartic_kick_built_at_most_four_times(self, tmp_path, monkeypatch):
        # Each grid engine's kick, once by the pre-flight and once by the engine.
        builds = []
        for name in ("moyal_generator", "moyal_generator_truncated"):
            build = getattr(phasespace, name)
            monkeypatch.setattr(
                phasespace, name, lambda *args, build=build: builds.append(args) or build(*args)
            )
        run_scenario(load_scenario(lens_ini(tmp_path, QUARTIC)), emit=False)
        assert 0 < len(builds) <= 4

    @pytest.mark.parametrize(
        "potential, kernel", [(QUARTIC, "_TwmKernel"), ("", "_FreeKernel")], ids=["stepped", "free"]
    )
    def test_twm_kernel_built_at_most_twice(self, tmp_path, monkeypatch, potential, kernel):
        # Once by the pre-flight and once by the engine.
        builds = []
        for name in ("_TwmKernel", "_FreeKernel"):
            base = getattr(twm, name)

            class Counted(base):
                def __init__(self, *args, name=name, base=base):
                    builds.append(name)
                    base.__init__(self, *args)

            monkeypatch.setattr(twm, name, Counted)
        run_scenario(load_scenario(lens_ini(tmp_path, potential, "twm")), emit=False)
        assert set(builds) == {kernel} and len(builds) <= 2

    def test_run_without_steps_builds_every_kernel_and_refuses_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        # At dz = 1 the kinetic phase and the quartic kick alias, which only a step meets.
        text = lens_ini(tmp_path, QUARTIC, "twm, moyal, liouville, rays").read_text()
        ini = tmp_path / "stepless.ini"
        ini.write_text(text.replace("dz = 2e-4", "dz = 1.0").replace("n_steps = 40", "n_steps = 0"))
        built = []
        build = runner._build_kernel
        monkeypatch.setattr(
            runner, "_build_kernel", lambda name, *args: built.append(name) or build(name, *args)
        )
        assert main(["validate", str(ini)]) == 0
        assert "warning" not in capsys.readouterr().out
        assert built == ["twm", "moyal", "liouville"]
        report = run_scenario(load_scenario(ini), emit=False)
        assert built == ["twm", "moyal", "liouville"] * 2
        assert [len(result.moments) for result in report.engines] == [1, 1, 1, 1]
        ini.write_text(ini.read_text().replace("n_steps = 0", "n_steps = 1"))
        assert main(["validate", str(ini)]) == 0
        warned = [line for line in capsys.readouterr().out.splitlines() if "warning" in line]
        assert [line.split(":")[1] for line in warned] == [" engine twm", " engine moyal",
                                                          " engine liouville"]


class TestStepZeroRefusal:
    """A refusal of the initial state names the engine and step 0."""

    @pytest.mark.parametrize(
        "potential, text",
        [("", "beam moments are not finite"), (QUARTIC, "density mass is nan")],
        ids=["closed_form", "stepped"],
    )
    def test_step_0_refusal_names_the_engine(self, tmp_path, potential, text):
        # load_scenario refuses such a box, so the density is built by hand.
        config = load_scenario(lens_ini(tmp_path, potential))
        rho = gaussian_quasidist(PhaseGrid(AxisGrid(256, 12.8), AxisGrid(128, 1e308)), 0.4, 0.25)
        outcome = runner._outcome("moyal", {"rho": rho}, config.potential.build(), config)
        assert isinstance(outcome, SolverError)
        assert str(outcome).startswith(f"engine moyal: step 0/40: {text}")


class TestLazyLinearMap:
    """Only a run with a grid engine on a potential of degree <= 2 loads ``linear_map``."""

    @pytest.mark.parametrize(
        "potential, engines, loaded",
        [
            (QUARTIC, "moyal, liouville", False),
            (HARMONIC_LENS, "twm", False),
            (HARMONIC_LENS, "moyal, liouville", True),
        ],
        ids=["quartic", "twm-only", "lens"],
    )
    def test_run_loads_linear_map_only_for_linear_grid_runs(
        self, tmp_path, potential, engines, loaded
    ):
        ini = lens_ini(tmp_path, potential, engines)
        script = (
            "import sys\n"
            "from beamphase.cli import main\n"
            f"assert main(['run', {str(ini)!r}, '--quiet']) == 0\n"
            "print('beamphase.linear_map' in sys.modules)\n"
        )
        src = str(Path(beamphase.__file__).parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{loaded}\n"


class TestDivergingRays:
    def test_rays_overflowing_the_moments_are_lost_not_fatal(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        ini = write_ini(tmp_path, DIVERGING_RAYS_SCENARIO, outdir=outdir)
        assert main(["run", str(ini)]) == 0
        out = capsys.readouterr().out
        (warning,) = [line for line in out.splitlines() if line.startswith("warning:")]
        assert warning.startswith("warning: rays: ")
        assert warning.endswith(" rays left the representable range")
        lost = int(warning.split()[2])
        assert 0 < lost < 2000
        rows = (outdir / "moments_rays.csv").read_text().splitlines()
        assert len(rows) == 1 + 41


class TestFreeSpaceWrap:
    def test_run_refuses_a_beam_reaching_the_box_edge(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        ini = write_ini(tmp_path, WRAPPING_TWM_SCENARIO, outdir=outdir)
        assert main(["run", str(ini), "--quiet"]) == 1
        err = capsys.readouterr().err
        found = re.match(r"error: engine twm: step (\d+)/10000: grid\.x_length: ", err)
        assert found, err
        assert int(found.group(1)) <= 6500
        assert not outdir.exists()

    def test_validate_warns_with_the_text_run_refuses_with(self, tmp_path, capsys):
        ini = write_ini(tmp_path, WRAPPING_TWM_SCENARIO, outdir=tmp_path / "out")
        assert main(["validate", str(ini)]) == 0
        warnings = [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("warning:")
        ]
        assert len(warnings) == 1
        assert re.match(r"warning: engine twm: step \d+/10000: grid\.x_length: ", warnings[0])
        assert main(["run", str(ini), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: " + warnings[0].removeprefix("warning: ") + "\n"


class TestLinearMapWrap:
    def test_run_refuses_the_beam_before_any_engine(self, tmp_path, capsys, monkeypatch):
        outdir = tmp_path / "out"
        ini = write_ini(tmp_path, WRAPPING_GRID_SCENARIO, outdir=outdir)
        monkeypatch.setattr(runner, "_evolve_engine", lambda *args: pytest.fail("engine ran"))
        assert main(["run", str(ini), "--quiet"]) == 1
        err = capsys.readouterr().err
        found = re.match(r"error: engine moyal: step (\d+)/1000: grid\.x_length: ", err)
        assert found, err
        assert int(found.group(1)) < 380  # stepped, the emittance moves from about step 380
        assert not outdir.exists()

    def test_validate_warns_with_the_text_run_refuses_with(self, tmp_path, capsys):
        ini = write_ini(tmp_path, WRAPPING_GRID_SCENARIO, outdir=tmp_path / "out")
        assert main(["validate", str(ini)]) == 0
        warnings = [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("warning:")
        ]
        assert len(warnings) == 1
        assert re.match(r"warning: engine moyal: step \d+/1000: grid\.x_length: ", warnings[0])
        assert main(["run", str(ini), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: " + warnings[0].removeprefix("warning: ") + "\n"


# One fixture per refusal that ``validate`` reports: the scenario, its format
# fields, the start of the text that ``run`` exits 1 with, and validate's exit
# code (0 with the refusal as a warning, 2 with it as the error).
VALIDATE_REFUSALS = {
    "kinetic-guard": (
        FREE_SCENARIO.replace("dz = 0.05", "dz = 0.5"), {}, "engine twm: kinetic phase overflow", 0
    ),
    "kick-guard": (
        OUTGROWN_WIGNER_SCENARIO.replace("engines = twm", "engines = twm, moyal, liouville"), {},
        "engine moyal: step 1/500: kick phase overflow", 0,
    ),
    "closed-form-support": (
        UNRESOLVED_LENS_SCENARIO,
        dict(zip(("nx", "beam", "n_steps"), UNRESOLVED_LENS_SCENARIOS["coarse_x"])),
        "engine moyal: step 46/100: grid.nx: ", 0,
    ),
    "free-twm-box-edge": (WRAPPING_TWM_SCENARIO, {}, "engine twm: step ", 0),
    "initial-wigner": (
        FREE_SCENARIO.replace("x_length = 32.0", "x_length = 24.0"), {},
        "grid.x_length, grid.np, grid.p_length: the Wigner transform of the initial twm field", 2,
    ),
}


class TestValidateReportsWhatRunRefuses:
    @pytest.mark.parametrize("case", VALIDATE_REFUSALS.values(), ids=VALIDATE_REFUSALS.keys())
    def test_validate_line_equals_the_run_error(self, tmp_path, capsys, case):
        text, fields, start, validate_code = case
        outdir = tmp_path / "out"
        ini = write_ini(tmp_path, text, outdir=outdir, **fields)
        assert main(["run", str(ini), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {start}") and err.count("\n") == 1
        assert not outdir.exists()
        assert main(["validate", str(ini)]) == validate_code
        out, validate_err = capsys.readouterr()
        if validate_code == 2:
            assert validate_err == err
        else:
            assert validate_err == ""
            first = next(line for line in out.splitlines() if line.startswith("warning:"))
            assert first == "warning: " + err.removeprefix("error: ").rstrip("\n")


class TestWignerSnapshotStream:
    """twm snapshots are transformed one at a time; only the densities a run needs stay alive."""

    @pytest.fixture
    def tracked_maps(self, monkeypatch):
        """The Wigner maps the runner builds; each counts its live results at every call."""
        maps = []

        class TrackedWignerMap(runner._WignerMap):
            def __init__(self, *args):
                super().__init__(*args)
                self.results, self.alive_at_call = [], []
                maps.append(self)

            def __call__(self, psi, marginal_tol):
                self.alive_at_call.append(sum(ref() is not None for ref in self.results))
                state = super().__call__(psi, marginal_tol)
                self.results.append(weakref.ref(state))
                return state

        monkeypatch.setattr(runner, "_WignerMap", TrackedWignerMap)
        return maps

    def stream_ini(self, tmp_path, engines):
        text = FREE_SCENARIO.replace(
            "engines = twm, moyal, liouville, rays\nray_count = 2000\n", f"engines = {engines}\n"
        ).replace("n_steps = 4\nsnapshot_every = 2", "n_steps = 40\nsnapshot_every = 2")
        return write_ini(tmp_path, text, outdir=tmp_path / "out")

    def test_twm_only_run_holds_at_most_two_densities(self, tmp_path, tracked_maps):
        report = run_scenario(load_scenario(self.stream_ini(tmp_path, "twm")), emit=False)
        (wigner,) = tracked_maps
        assert len(wigner.alive_at_call) == 21
        assert max(wigner.alive_at_call) <= 2
        result = report.engine("twm")
        assert result.snapshot_steps == tuple(range(0, 41, 2))
        assert len(result.snapshot_negativity) == len(result.snapshot_r3) == 21
        assert report.final_negativity is not None

    def test_twm_only_run_holds_no_density_across_transforms(self, tmp_path, tracked_maps):
        run_scenario(load_scenario(self.stream_ini(tmp_path, "twm")), emit=False)
        (wigner,) = tracked_maps
        assert wigner.alive_at_call == [0] * 21

    def test_grid_engine_in_the_run_keeps_every_density(self, tmp_path, tracked_maps):
        report = run_scenario(
            load_scenario(self.stream_ini(tmp_path, "twm, liouville")), emit=False
        )
        (wigner,) = tracked_maps
        assert wigner.alive_at_call == list(range(21))
        (pair,) = report.distances
        assert (pair.engine_a, pair.engine_b) == ("twm", "liouville")
        assert pair.snapshot_steps == tuple(range(0, 41, 2))
        assert len(pair.linf) == 21

    @pytest.mark.parametrize(
        "every, failing_step, error",
        [(18, 36, "momentum axis too coarse"), (25, 50, "wavefield norm")],
        ids=["marginal", "momentum-norm"],
    )
    def test_failed_snapshot_after_passing_ones_leaves_no_partial_report(
        self, tmp_path, tracked_maps, every, failing_step, error
    ):
        # Snapshots of MOMENTUM_NORM_SCENARIO pass up to step 31, fail the
        # marginal check from step 32 and the momentum norm from step 42.
        outdir = tmp_path / "out"
        text = MOMENTUM_NORM_SCENARIO.replace("engines = twm, rays", "engines = twm").replace(
            "n_steps = 1000\n", f"n_steps = 1000\nsnapshot_every = {every}\n"
        ).replace("formats = csv", "formats = csv, grid-dump, heatmap")
        report = run_scenario(load_scenario(write_ini(tmp_path, text, outdir=outdir)))
        (wigner,) = tracked_maps
        assert len(wigner.alive_at_call) == 3  # two passing snapshots, then the failing one
        (warning,) = report.warnings
        assert warning.startswith(
            f"twm: Wigner transform of the step {failing_step} snapshot failed ({error}"
        )
        result = report.engine("twm")
        assert result.snapshot_steps == ()
        assert result.snapshot_negativity == result.snapshot_r3 == ()
        assert report.final_negativity is None
        assert report.distances == ()
        assert sorted(p.name for p in outdir.iterdir()) == ["moments_twm.csv"]
        rows = (outdir / "moments_twm.csv").read_text().splitlines()
        assert len(rows) == 1 + 1001
        for row in rows[1:]:
            assert row.split(",")[-2:] == ["nan", "nan"]


class TestGridLaneBesideRays:
    """A run with rays and a grid engine evolves its grid engines on one
    worker thread beside the rays and reports as if they ran one by one."""

    @staticmethod
    def ini(tmp_path, engines, name="scenario.ini"):
        outdir = tmp_path / name.replace(".ini", "")
        return write_ini(tmp_path, QUARTIC_SIDE_SCENARIO, name, engines=engines, outdir=outdir)

    @pytest.fixture(scope="class")
    def alone(self, tmp_path_factory):
        """Each engine's artifacts from a run of that engine alone."""
        tmp_path = tmp_path_factory.mktemp("alone")
        for engine in scenario.ENGINES:
            ini = self.ini(tmp_path, engine, f"{engine}.ini")
            assert main(["run", str(ini), "--quiet"]) == 0
        return tmp_path

    @pytest.mark.parametrize(
        "engines", ["twm, moyal, liouville, rays", "rays, moyal", "moyal, twm, rays"]
    )
    def test_each_engine_writes_what_it_writes_alone(self, tmp_path, capsys, alone, engines):
        ini = self.ini(tmp_path, engines)
        assert main(["run", str(ini)]) == 0
        names = [name for name in scenario.ENGINES if name in engines]
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("engine ")]
        assert [line.split(":")[0] for line in lines] == [f"engine {name}" for name in names]
        for name in names:
            files = [f"moments_{name}.csv"] + ([f"state_{name}.mbgd"] if name != "rays" else [])
            for file in files:
                got = (tmp_path / "scenario" / file).read_bytes()
                assert got == (alone / name / file).read_bytes(), file
        report = run_scenario(load_scenario(ini), emit=False)
        assert tuple(result.name for result in report.engines) == tuple(names)

    @pytest.mark.parametrize(
        "engines, on_worker",
        [
            ("twm, moyal, liouville, rays", True),
            ("liouville, rays", True),
            ("moyal, liouville", False),
            ("twm, rays", False),
        ],
    )
    def test_grid_engines_run_on_one_worker_beside_rays(
        self, tmp_path, monkeypatch, engines, on_worker
    ):
        threads = {}
        evolve, trace = runner.evolve_phase_space, runner.trace_rays

        def recording(name, function):
            def recorded(*args):
                threads.setdefault(name, []).append(threading.current_thread())
                return function(*args)

            return recorded

        monkeypatch.setattr(runner, "evolve_phase_space", recording("grid", evolve))
        monkeypatch.setattr(runner, "trace_rays", recording("rays", trace))
        run_scenario(load_scenario(self.ini(tmp_path, engines)), emit=False)
        main_thread = threading.main_thread()
        assert threads.get("rays", [main_thread]) == [main_thread]
        grid = threads.get("grid", [])
        assert len(grid) == sum(name in engines for name in ("moyal", "liouville"))
        if on_worker:
            assert len(set(grid)) == 1 and grid[0] is not main_thread
        else:
            assert all(thread is main_thread for thread in grid)

    @pytest.mark.parametrize("engines", ["rays, moyal", "moyal, rays"])
    @pytest.mark.parametrize(
        "failing, named",
        [(("rays",), "rays"), (("moyal",), "moyal"), (("moyal", "rays"), "moyal")],
        ids=["rays", "moyal", "both"],
    )
    def test_first_failing_engine_in_run_order_is_reported(
        self, tmp_path, capsys, monkeypatch, engines, failing, named
    ):
        def fail(*args):
            raise SolverError("step 2/20: planted failure")

        if "moyal" in failing:
            monkeypatch.setattr(runner, "evolve_phase_space", fail)
        if "rays" in failing:
            monkeypatch.setattr(runner, "trace_rays", fail)
        ini = self.ini(tmp_path, engines)
        assert main(["run", str(ini), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: engine {named}: step 2/20: planted failure\n"
        assert not (tmp_path / "scenario").exists()

    @pytest.mark.parametrize("failing", [None, "rays", "moyal", "interrupt"])
    def test_no_thread_outlives_the_run(self, tmp_path, monkeypatch, failing):
        # The grid engines take 0.2 s longer than the rays, so a worker that
        # were not joined would still be alive when the run returns or raises.
        evolve = runner.evolve_phase_space

        def slow(*args):
            time.sleep(0.2)
            if failing == "moyal":
                raise ValueError("planted failure")
            return evolve(*args)

        def fail(*args):
            raise KeyboardInterrupt if failing == "interrupt" else SolverError("planted failure")

        monkeypatch.setattr(runner, "evolve_phase_space", slow)
        if failing in ("rays", "interrupt"):
            monkeypatch.setattr(runner, "trace_rays", fail)
        config = load_scenario(self.ini(tmp_path, "moyal, liouville, rays"))
        before = threading.active_count()
        if failing is None:
            run_scenario(config, emit=False)
        else:
            expected = {"rays": SolverError, "moyal": ValueError, "interrupt": KeyboardInterrupt}
            with pytest.raises(expected[failing]):
                run_scenario(config, emit=False)
        assert threading.active_count() == before


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("beamphase")
        assert exe, "console script must be installed"
        ini = write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "out")
        done = subprocess.run(
            [exe, "validate", str(ini), "--quiet"], capture_output=True, text=True
        )
        assert done.returncode == 0
