"""Tests of the benchmark harness itself (not of beamphase).

    python3 -m pytest bench/tests

Gate tests run shortened copies of the benchmark scenarios in-process, so
the whole file takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from beamphase import load_scenario, run_scenario  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _shortened(workload: str, out_dir: Path, n_steps: int):
    config = load_scenario(BENCH / "scenarios" / f"{workload}.ini")
    run_section = dataclasses.replace(config.run, n_steps=n_steps, snapshot_every=n_steps)
    return dataclasses.replace(config, run=run_section).with_output_dir(str(out_dir))


def _run(workload: str, out_dir: Path, n_steps: int = 4):
    config = _shortened(workload, out_dir, n_steps)
    run_scenario(config)
    return config


def test_benchmark_json_names_parse_and_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 and m["better"] == "lower" for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for workload in spec["workloads"]:
        assert load_scenario(BENCH / "scenarios" / f"{workload['name']}.ini")


def test_gate_accepts_a_clean_run_and_rejects_a_corrupted_csv(tmp_path):
    config = _run("lens_harmonic", tmp_path)
    assert gate.check_run("lens_harmonic", config, 0, tmp_path) == []

    csv = tmp_path / "moments_moyal.csv"
    original = csv.read_text(encoding="ascii")
    lines = original.splitlines()

    csv.write_text("\n".join(lines[:-1]) + "\n", encoding="ascii")
    assert any("rows" in f for f in gate.check_run("lens_harmonic", config, 0, tmp_path))

    cells = lines[2].split(",")
    cells[3] = "nan"
    csv.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n", encoding="ascii")
    assert any("non-finite" in f for f in gate.check_run("lens_harmonic", config, 0, tmp_path))

    csv.write_text("\n".join(lines[:2] + ["1.0,garbage"] + lines[3:]) + "\n", encoding="ascii")
    assert any("does not parse" in f for f in gate.check_run("lens_harmonic", config, 0, tmp_path))

    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-15))
    csv.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n", encoding="ascii")
    assert any("differ" in f for f in gate.check_run("lens_harmonic", config, 0, tmp_path))


def test_gate_rejects_a_failed_exit_and_a_missing_artifact(tmp_path):
    config = _run("lens_harmonic", tmp_path)
    assert gate.check_run("lens_harmonic", config, 1, tmp_path) == ["exit code 1"]
    (tmp_path / "moments_liouville.csv").unlink()
    assert any("missing" in f for f in gate.check_run("lens_harmonic", config, 0, tmp_path))


def test_gate_checks_the_spreading_law_and_grid_dumps(tmp_path):
    config = _run("twm_free", tmp_path, n_steps=20)
    assert gate.check_run("twm_free", config, 0, tmp_path) == []

    csv = tmp_path / "moments_twm.csv"
    lines = csv.read_text(encoding="ascii").splitlines()
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) * 1.001)
    csv.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n", encoding="ascii")
    assert any("spreading law" in f for f in gate.check_run("twm_free", config, 0, tmp_path))

    dump = tmp_path / "state_twm.mbgd"
    blob = dump.read_bytes()
    value = struct.unpack_from("<d", blob, len(blob) - 8)[0]
    dump.write_bytes(blob[:-8] + struct.pack("<d", value + 1e-5))
    assert any("mass" in f for f in gate.check_run("twm_free", config, 0, tmp_path))
    dump.write_bytes(blob[:-8] + struct.pack("<d", 1e6))
    assert any("read back" in f for f in gate.check_run("twm_free", config, 0, tmp_path))


def test_ray_check_allows_monte_carlo_error_and_rejects_a_wrong_answer():
    grid = {"mean_x": 0.0, "mean_p": 0.0, "sigma_x": 0.7, "sigma_p": 0.14,
            "sigma_xp": -0.04, "emittance": 0.18}
    count = 100_000
    near = dict(grid, sigma_x=0.7 * (1 + 3 / (2 * count) ** 0.5))
    assert gate.check_rays_against_grid(near, grid, count) == []
    wrong = dict(grid, sigma_p=0.14 * 1.03)
    assert any("sigma_p" in f for f in gate.check_rays_against_grid(wrong, grid, count))


def test_layer_metrics_take_self_time_and_per_step_bookkeeping():
    spans = [
        ["runner.run", 0.0, 10.0, -1, {}],
        ["twm.evolve", 1.0, 5.0, 0, {"steps": 2}],
        ["diagnostics.moments", 1.0, 1.5, 1, {}],
        ["states.object", 1.1, 1.2, 2, {}],
        ["states.object", 2.0, 2.5, 1, {}],
        ["phasespace.grid", 5.0, 9.0, 0, {"steps": 4, "engine": "liouville", "fft_points": 40}],
        ["potentials.generator", 5.0, 6.0, 5, {}],
    ]
    values = layers.layer_metrics({"import_s": 0.1, "spans": spans})
    assert values["twm.kernel_us_per_step"] == pytest.approx(1e6 * (4.0 - 1.0) / 2)
    assert values["twm.bookkeeping_us_per_step"] == pytest.approx(1e6 * 1.0 / 2)
    assert values["phasespace.grid_kernel_us_per_step.liouville"] == pytest.approx(1e6 * 3.0 / 4)
    assert values["phasespace.grid_kernel_us_per_step.moyal"] == 0.0
    assert values["phasespace.grid_fft_points_per_step"] == 10.0
    assert values["states.objects_per_step"] == pytest.approx(2 / 6)
    assert values["runner.self_s"] == pytest.approx(10.0 - 4.0 - 4.0)
    assert values["potentials.generator_calls"] == 1
    assert set(values) | {"outputs.bytes", "bench.trace_overhead_pct",
                          "bench.blas_slow_processes", "bench.calibration_ms"} == {
        n for n, _ in layers.PER_LAYER
    }


def test_raw_times_drop_the_first_calibration():
    child = {"calibration_span": 0.3, "first_engine": 100.5, "main_end": 102.3,
             "calibration_s": [0.2, 0.1]}
    times = run.raw_times(100.0, child)
    assert times["setup_raw_s"] == pytest.approx(0.2)
    assert times["run_raw_s"] == pytest.approx(2.0)
    assert times["calibration_s"] == [0.2, 0.1]


def test_calibrated_times_scale_by_the_run_wide_host_speed():
    start, loop = run.REFERENCE_S["start_probe_s"], run.REFERENCE_S["calibration_s"]

    def process(run_raw_s, speed=1.0, loop_speeds=(1.0, 1.0)):
        return {"run_raw_s": run_raw_s, "setup_raw_s": run_raw_s / 10,
                "start_probe_s": [speed * start], "calibration_s": [s * loop for s in loop_speeds]}

    fast = [process(t) for t in (1.9, 2.0, 2.1)]
    assert run.calibrated_run_s(fast) == pytest.approx(2.0)
    assert run.calibrated_setup_s(fast) == pytest.approx(0.2)
    # A host at half speed doubles the probes and the raw times.
    slow = [process(2 * t, 2.0, (2.0, 2.0)) for t in (1.9, 2.0, 2.1)]
    assert run.calibrated_run_s(slow) == pytest.approx(2.0)
    assert run.calibrated_setup_s(slow) == pytest.approx(0.2)
    # Slow for half the run: each process averages the two speeds, while each
    # probe sees one of them; the means still pair up.
    mixed = [process(3.0, speed, (1.0, 2.0)) for speed in (1.0, 2.0, 1.0, 2.0)]
    assert run.calibrated_run_s(mixed) == pytest.approx(2.0)
    # Each probe carries half the weight of the host's speed.
    start_slow = [process(2.0, 4.0)]
    assert run.calibrated_run_s(start_slow) == pytest.approx(1.0)
    # Set-up is paired with its own start probe alone.
    assert run.calibrated_setup_s([process(2.0, 2.0), process(2.0, 1.0)]) == pytest.approx(0.15)


def test_interquartile_mean_drops_a_stalled_process():
    assert run.interquartile_mean([2.0, 2.1, 1.9, 9.0]) == pytest.approx(2.05)
    assert run.interquartile_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)


def test_traced_child_records_engine_spans(tmp_path):
    scenario = tmp_path / "short.ini"
    text = (BENCH / "scenarios" / "quartic_mixed.ini").read_text(encoding="utf-8")
    text = re.sub(r"n_steps = \d+", "n_steps = 3", text)
    text = re.sub(r"snapshot_every = \d+", "snapshot_every = 3", text)
    text = re.sub(r"ray_count = \d+", "ray_count = 1000", text)
    scenario.write_text(text, encoding="utf-8")
    record_path = tmp_path / "record.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "BENCH_RECORD": str(record_path), "BENCH_TRACE": "1"}
    subprocess.run([sys.executable, str(BENCH / "child.py"), "run", str(scenario),
                    "--output-dir", str(tmp_path / "out"), "--quiet"],
                   check=True, env=env, cwd=ROOT, timeout=120)
    record = json.loads(record_path.read_text(encoding="utf-8"))
    assert record["exit_code"] == 0
    assert record["first_engine"] < record["main_end"]
    assert len(record["calibration_s"]) == 2 and min(record["calibration_s"]) > 0
    assert record["calibration_span"] >= record["calibration_s"][0]
    values = layers.layer_metrics(record)
    assert values["potentials.generator_calls"] == 2  # static potential: one build per grid engine
    assert values["transforms.wigner_calls"] == 2
    assert values["states.objects_per_step"] > 0
    assert values["phasespace.grid_fft_points_per_step"] == 6 * 256 * 128
    assert 0.0 < values["phasespace.rays_alive_ratio"] <= 1.0


def test_driver_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "twm_free", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
