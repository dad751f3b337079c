"""beamphase benchmark driver.

    python3 bench/run.py --workload quartic_mixed --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each run starts fresh
``beamphase run <scenario>`` processes (``child.py`` calls the console-script
entry point ``beamphase.cli:main``) one after another until ``--seconds``
have passed, gates every process's artifacts (``gate.py``) and prints, as the
last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

* ``--trace 0``: end-to-end metrics over the run's processes: ``run_s``
  (spawn until ``main`` returns) and ``setup_s`` (spawn to the first engine
  call), host-calibrated as below, and the median ``peak_rss_mb``.
* ``--trace 1``: processes alternate untraced and traced; the traced ones
  give the per-layer metrics of ``layers.py`` (medians), and the two kinds
  together give ``bench.trace_overhead_pct``.

The two times are host-calibrated by two probes that use no ``beamphase``
code.  Before each process the driver times a fresh interpreter that
imports ``numpy.fft`` (``start_probe_s``), and each process times a fixed
numpy loop (``child.calibrate``) just before importing ``beamphase`` and
just after ``main`` returns (``calibration_s``).  ``setup_s`` is the
interquartile mean over the processes of set-up time over the start probe
just before it, times the probe's reference value (``REFERENCE_S``).
``run_s`` is the interquartile mean of the raw run times, scaled by the
geometric mean of the two probes' reference values over their means in this
run.  Run times are paired with the probes over the whole run, not process
by process: the host's vCPUs switch between a fast and a slow speed within
seconds, the share of time spent slow drifts over minutes, and a process
averages over several switches while one probe sees one speed.  The loop
uses no BLAS, so the program's own BLAS behaviour still shows.  The raw
values are printed too and kept in the record.

All processes of a run use ``--seed`` and must write byte-identical
artifacts, as the README promises for reruns.  A process that fails the
gate counts in ``failed`` and not in any timing.  The full record (machine,
every process, the spans of one traced process) goes to
``.bench_runs/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("quartic_mixed", "lens_harmonic", "twm_free")
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 90.0
# A 256x128 complex norm takes about 0.03 ms; the slow BLAS mode takes ~16 ms.
BLAS_SLOW_S = 2e-3
# A fresh interpreter importing what every process imports before beamphase.
START_PROBE = ("-c", "import numpy.fft")
# Typical probe times on the 2-vCPU Xeon VM the benchmark was defined on:
# the reported times are what that host would take at that speed.  Fixed,
# so that two commits are compared on the same scale.
REFERENCE_S = {"start_probe_s": 0.23, "calibration_s": 0.17}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def machine_record() -> dict:
    """Python, numpy and BLAS versions, BLAS threading, CPU count and model."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _openblas_threads(np),
        "blas_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return record


def _openblas_threads(np) -> int | None:
    """OpenBLAS's own thread count, read (never set) through its C API."""
    import ctypes
    import glob

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "lib*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def artifact_digest(out_dir: Path) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()):
        if path.name.startswith("_"):
            continue
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def spawn_and_wait(argv, root: Path, env: dict, **streams) -> tuple[float, float, int, object]:
    """Run ``argv`` to its end; return spawn and exit times, exit code and rusage.

    ``os.wait4`` blocks until the exit, where ``Popen.wait(timeout)`` would
    poll and round the exit time up by as much as 50 ms.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=root, env=env, **streams)
    killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        exited = time.monotonic()
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return spawned, exited, proc.returncode, usage


def run_process(root: Path, scenario: Path, out_dir: Path, seed: int, traced: bool) -> dict:
    """Time the start probe, then spawn one ``beamphase run`` and measure it from outside."""
    out_dir.mkdir(parents=True)
    record_path = out_dir / "_record.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"), BENCH_RECORD=str(record_path),
               BENCH_TRACE="1" if traced else "0")
    probe_spawned, probe_exited, probe_code, _ = spawn_and_wait(
        [sys.executable, *START_PROBE], root, env)
    if probe_code != 0:
        raise RuntimeError(f"start probe exited with {probe_code}")
    argv = [sys.executable, str(BENCH_DIR / "child.py"), "run", str(scenario),
            "--output-dir", str(out_dir), "--seed", str(seed)]
    with open(out_dir / "_stdout.txt", "wb") as stdout, open(out_dir / "_stderr.txt", "wb") as stderr:
        spawned, exited, exit_code, usage = spawn_and_wait(argv, root, env,
                                                           stdout=stdout, stderr=stderr)
    result = {
        "traced": traced,
        "start_probe_s": [probe_exited - probe_spawned],
        "exit_code": exit_code,
        "wall_s": exited - spawned,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if record_path.is_file():
        child = json.loads(record_path.read_text(encoding="utf-8"))
        result["child"] = child
        if "main_end" in child:
            result.update(raw_times(spawned, child))
    if exit_code != 0:
        result["stderr"] = (out_dir / "_stderr.txt").read_text(errors="replace")[-2000:]
    return result


def raw_times(spawned: float, child: dict) -> dict:
    """Set-up and run times of one process, without its first calibration.

    The first calibration lies inside both windows and is taken out.
    """
    times = {"calibration_s": child["calibration_s"],
             "run_raw_s": child["main_end"] - spawned - child["calibration_span"]}
    if "first_engine" in child:
        times["setup_raw_s"] = child["first_engine"] - spawned - child["calibration_span"]
    return times


def interquartile_mean(values) -> float:
    """Mean of the middle half: robust to a few stalled processes, steadier than a median."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def mean_probe_s(processes, probe: str) -> float:
    return statistics.fmean(t for p in processes for t in p[probe])


def calibrated_setup_s(processes) -> float:
    """Set-up time at the reference speed, each process paired with its own start probe.

    Both last about 0.25 s and run back to back, so they see the same speed.
    """
    ratios = (p["setup_raw_s"] / p["start_probe_s"][0] for p in processes)
    return interquartile_mean(ratios) * REFERENCE_S["start_probe_s"]


def calibrated_run_s(processes) -> float:
    """Run time at the reference speed, paired with both probes over the whole run.

    A process outlasts several speed switches while each probe sees one, so
    the processes' mean is scaled by the probes' means, not process by
    process.  A run is part start-up-like work and part vectorised numpy, so
    the scale is the geometric mean of the two probes' speed ratios.
    """
    scale = math.prod(REFERENCE_S[probe] / mean_probe_s(processes, probe)
                      for probe in REFERENCE_S) ** (1 / len(REFERENCE_S))
    return interquartile_mean(p["run_raw_s"] for p in processes) * scale


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "beamphase" / "cli.py").is_file():
        print("error: run from the root of a beamphase checkout (src/beamphase is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from beamphase import load_scenario

    from gate import check_run
    from layers import PER_LAYER, layer_metrics

    scenario = BENCH_DIR / "scenarios" / f"{args.workload}.ini"
    config = load_scenario(scenario)
    runs_dir = root / ".bench_runs"
    work_dir = runs_dir / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    # Compile bytecode and warm the page cache once; users pay neither per run.
    subprocess.run([sys.executable, "-c", "import beamphase.cli"], cwd=root, check=True,
                   env={**os.environ, "PYTHONPATH": str(root / "src")})

    processes = []
    digests = set()
    started = time.monotonic()
    try:
        while len(processes) < MIN_PROCESSES or time.monotonic() - started < args.seconds:
            traced = bool(args.trace) and len(processes) % 2 == 1
            out_dir = work_dir / f"p{len(processes)}"
            result = run_process(root, scenario, out_dir, args.seed, traced)
            failures = check_run(args.workload, config, result["exit_code"], out_dir)
            if "setup_raw_s" not in result:
                failures.append("no engine call was observed")
            if not failures:
                digest, size = artifact_digest(out_dir)
                result["artifact_bytes"] = size
                if digests and digest not in digests:
                    failures.append("artifacts differ from an earlier process with the same seed")
                digests.add(digest)
            result["failures"] = failures
            probe = result.get("child", {}).get("blas_probe")
            result["blas_slow"] = bool(probe) and statistics.median(probe) > BLAS_SLOW_S
            processes.append(result)
            shutil.rmtree(out_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passed = [p for p in processes if not p["failures"]]
    plain = [p for p in passed if not p["traced"]]
    traced = [p for p in passed if p["traced"]]
    metrics = {}
    if args.trace:
        if traced and plain:
            per_process = []
            for p in traced:
                values = layer_metrics(p["child"])
                values["outputs.bytes"] = p["artifact_bytes"]
                per_process.append(values)
            for name, unit in PER_LAYER:
                if name == "bench.trace_overhead_pct":
                    plain_s = calibrated_run_s(plain)
                    value = 100.0 * (calibrated_run_s(traced) - plain_s) / plain_s
                elif name == "bench.blas_slow_processes":
                    value = sum(p["blas_slow"] for p in processes)
                elif name == "bench.calibration_ms":
                    value = 1e3 * mean_probe_s(passed, "calibration_s")
                else:
                    value = statistics.median(v[name] for v in per_process)
                metrics[name] = {"value": value, "unit": unit}
    elif plain:
        values = {"run_s": calibrated_run_s(plain),
                  "setup_s": calibrated_setup_s(plain),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}

    failed = len(processes) - len(passed)
    summary = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(processes),
        "failed": failed,
        "metrics": metrics,
    }
    for p in processes:
        if p["failures"]:
            print(f"gate failed ({'traced' if p['traced'] else 'untraced'}): "
                  + "; ".join(p["failures"]) + ("\n" + p["stderr"] if "stderr" in p else ""),
                  file=sys.stderr)
    machine = machine_record()
    spans = next((p["child"].get("spans") for p in traced), None)
    for p in processes:
        p.get("child", {}).pop("spans", None)
    runs_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "summary": summary,
              "processes": processes, "spans_of_first_traced_process": spans}
    record_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw = {}
    if plain:
        raw = {name: interquartile_mean(p[name] for p in plain)
               for name in ("run_raw_s", "setup_raw_s", "wall_s")}
        raw.update({probe: mean_probe_s(plain, probe) for probe in REFERENCE_S})
    record["raw_untraced"] = raw
    (runs_dir / record_name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"machine": machine, "raw_untraced": raw}))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
