"""Command-line driver, artifact emission, and the comparison runner."""

import dataclasses
import math
import shutil
import struct
import subprocess
import textwrap
import weakref

import numpy as np
import pytest

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
from beamphase import phasespace, runner, scenario
from beamphase.cli import main
from beamphase.outputs import CSV_COLUMNS, write_moments_csv

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


class TestSharedGridPass:
    """moyal and liouville evolve the grid once when the kick is classical."""

    @pytest.mark.parametrize(
        "potential, engines, passes",
        [
            (HARMONIC_LENS, "moyal, liouville", 1),
            (CONSTANT_LENS, "moyal, liouville", 1),
            ("", "moyal, liouville", 1),
            (QUARTIC, "moyal, liouville", 2),
            (HARMONIC_LENS, "moyal", 1),
            (HARMONIC_LENS, "liouville", 1),
        ],
        ids=["harmonic", "constant", "free", "quartic", "moyal-only", "liouville-only"],
    )
    def test_grid_passes(self, tmp_path, monkeypatch, potential, engines, passes):
        plans = count_grid_passes(monkeypatch)
        run_scenario(load_scenario(lens_ini(tmp_path, potential, engines)), emit=False)
        assert len(plans) == passes
        if engines == "moyal, liouville" and passes == 1:
            assert plans[0].is_classical  # liouville's per-step check runs

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
                rho, spec, eps, StepPlan(run.dz, run.n_steps, "truncated", 1), 20
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

    def test_failed_shared_pass_runs_each_engine_alone(self, tmp_path, monkeypatch):
        plans = fail_classical_check_at(monkeypatch, 3)
        assert main(["run", str(lens_ini(tmp_path)), "--quiet"]) == 1
        assert [plan.is_classical for plan in plans] == [True, False, True]


class TestGridErrorParity:
    """A run with both grid engines fails as two separate passes would."""

    def test_liouville_check_names_liouville_and_the_step(self, tmp_path, capsys, monkeypatch):
        fail_classical_check_at(monkeypatch, 3)
        outdir = tmp_path / "out"
        assert main(["run", str(lens_ini(tmp_path)), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: engine liouville: step 3/40: classical density has negative values"
        )
        assert err.count("\n") == 1
        assert not outdir.exists()

    def test_failure_of_both_engines_names_moyal(self, tmp_path, capsys, monkeypatch):
        # A NaN coefficient passes the kick guard (nan >= pi is false); the
        # per-step finiteness check of either engine catches it.
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


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("beamphase")
        assert exe, "console script must be installed"
        ini = write_ini(tmp_path, FREE_SCENARIO, outdir=tmp_path / "out")
        done = subprocess.run(
            [exe, "validate", str(ini), "--quiet"], capture_output=True, text=True
        )
        assert done.returncode == 0
