"""One benchmark process: ``beamphase run`` in-process, optionally traced.

Runs ``beamphase.cli.main`` (the console-script entry point) with the
arguments after the script name, then writes a JSON record to the path in
``BENCH_RECORD``:

* ``first_engine`` and ``main_end``: ``time.monotonic()`` when the first
  engine call began and when ``main`` returned.  The parent records the same
  clock just before spawning this process, so the differences are the
  set-up and run times.
* ``calibration_s``: seconds of the fixed calibration loop (``calibrate``),
  timed once after importing numpy and before importing ``beamphase``, and
  once shortly after ``main`` returns; together they give this process's
  host speed.
  ``calibration_span`` is the wall time of the first call, which lies inside
  the set-up window; the parent subtracts it.
* ``exit_code`` of ``main``.
* ``blas_probe``: per-call seconds of ``np.linalg.norm`` on a 256x128 complex
  array, taken after the run so it cannot slow it.  It observes the BLAS
  mode of this process and changes no setting.
* ``import_s``: import of numpy, ``numpy.fft`` and ``beamphase.cli``.
* with ``BENCH_TRACE=1``: the spans recorded around the package's public
  functions (see ``WRAPPED``).

Tracing lives here and nowhere in ``src/``: every wrapper is installed from
outside by rebinding the names in the package's module namespaces.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# (module, attribute, span name).  Classes are traced through __init__.
WRAPPED = (
    ("beamphase.scenario", "load_scenario", "scenario.load"),
    ("beamphase.runner", "run_scenario", "runner.run"),
    ("beamphase.runner", "build_initial_states", "states.build"),
    ("beamphase.twm", "evolve_twm", "twm.evolve"),
    ("beamphase.phasespace", "evolve_phase_space", "phasespace.grid"),
    ("beamphase.phasespace", "trace_rays", "phasespace.rays"),
    ("beamphase.diagnostics", "moments_of", "diagnostics.moments"),
    ("beamphase.diagnostics", "negativity", "diagnostics.negativity"),
    ("beamphase.diagnostics", "truncation_ratio", "diagnostics.truncation_ratio"),
    ("beamphase.potentials", "moyal_generator", "potentials.generator"),
    ("beamphase.potentials", "moyal_generator_truncated", "potentials.generator"),
    ("beamphase.potentials", "eval_gradient", "potentials.gradient"),
    ("beamphase.transforms", "wigner_transform", "transforms.wigner"),
    ("beamphase.outputs", "emit_outputs", "outputs.emit"),
    ("beamphase.outputs", "write_moments_csv", "outputs.csv"),
    ("beamphase.outputs", "write_grid_dump", "outputs.grid_dump"),
    ("beamphase.outputs", "write_heatmap", "outputs.heatmap"),
    ("beamphase.states", "WaveField", "states.object"),
    ("beamphase.states", "QuasiDistribution", "states.object"),
    ("beamphase.states", "RayEnsemble", "states.object"),
)

ENGINE_ENTRIES = (
    ("beamphase.twm", "evolve_twm"),
    ("beamphase.phasespace", "evolve_phase_space"),
    ("beamphase.phasespace", "trace_rays"),
)

# One call takes about 0.17 s in a fresh process on a 2-vCPU Xeon VM.
CALIBRATION_GRID_ROUNDS = 40
CALIBRATION_STREAM_ROUNDS = 300
SETTLE_S = 0.25

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn")


def _rebind(original, replacement) -> None:
    """Point every module-level name in the package bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "beamphase" or name.startswith("beamphase.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _hook_engine_start(record: dict) -> None:
    """Record when the first engine call begins; nothing else."""
    for module_name, attr in ENGINE_ENTRIES:
        original = getattr(sys.modules[module_name], attr)

        @functools.wraps(original)
        def hooked(*args, __original=original, **kwargs):
            record.setdefault("first_engine", time.monotonic())
            return __original(*args, **kwargs)

        _rebind(original, hooked)


class Tracer:
    """Spans in memory as ``[name, start, end, parent, extra]``, plus the open ones."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1], {}])
        self.stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def add_to_current(self, key: str, amount: int) -> None:
        index = self.stack[-1]
        if index >= 0:
            extra = self.spans[index][4]
            extra[key] = extra.get(key, 0) + amount


def _describe_result(name: str, bound: inspect.BoundArguments, result) -> dict:
    """Step counts and engine identity for the engine spans."""
    info = {"steps": len(result.moments) - 1}
    if name == "phasespace.grid":
        info["engine"] = "liouville" if bound.arguments["plan"].max_order == 1 else "moyal"
    if name == "phasespace.rays":
        info["alive"] = len(result.final.positions)
        info["rays"] = info["alive"] + result.lost
    return info


def _install_tracer(tracer: Tracer) -> None:
    for module_name, attr, span in WRAPPED:
        module = sys.modules[module_name]
        original = getattr(module, attr)
        if isinstance(original, type):
            init = original.__init__

            @functools.wraps(init)
            def traced_init(self, *args, __init=init, __span=span, **kwargs):
                index = tracer.open(__span)
                try:
                    __init(self, *args, **kwargs)
                finally:
                    tracer.close(index)

            original.__init__ = traced_init
            continue
        describe = span in ("twm.evolve", "phasespace.grid", "phasespace.rays")
        signature = inspect.signature(original) if describe else None

        @functools.wraps(original)
        def traced(*args, __original=original, __span=span, __sig=signature, **kwargs):
            index = tracer.open(__span)
            try:
                result = __original(*args, **kwargs)
            finally:
                tracer.close(index)
            if __sig is not None:
                bound = __sig.bind(*args, **kwargs)
                tracer.spans[index][4].update(_describe_result(__span, bound, result))
            return result

        _rebind(original, traced)

    import numpy as np

    for attr in FFT_FUNCTIONS:
        original = getattr(np.fft, attr)

        @functools.wraps(original)
        def counted(*args, __original=original, **kwargs):
            out = __original(*args, **kwargs)
            tracer.add_to_current("fft_points", int(out.size))
            return out

        setattr(np.fft, attr, counted)


def calibrate() -> float:
    """Seconds of a fixed numpy workload that does not use ``beamphase``.

    Like the grid engines it rebuilds a complex phase kick and runs 1-D FFTs
    along both axes of a 256x128 array; like the ray engine it streams
    100k-element arrays.  It calls no BLAS routine and no random generator,
    so neither the BLAS mode nor ``numpy.random``'s import can change it.
    Its duration tracks the host's speed at the moment, which on a shared
    host drifts by 15-30% over minutes.
    """
    import numpy as np

    # Past the tracer's counting wrappers, so traced processes calibrate alike.
    fft, ifft = inspect.unwrap(np.fft.fft), inspect.unwrap(np.fft.ifft)
    x = np.linspace(-1.0, 1.0, 256)[:, None]
    p = np.linspace(-1.0, 1.0, 128)[None, :]
    field = np.exp(-(x**2 + p**2) + 1j * x * p)
    phase = np.cos(7.0 * x - 3.0 * p)
    drift = np.exp(-1j * x * p)
    stream = np.sin(np.linspace(0.0, 40.0, 100_000))
    ifft(fft(field, axis=0), axis=1)  # plans are built once per process; time neither
    start = time.perf_counter()
    for round_ in range(CALIBRATION_GRID_ROUNDS):
        kick = np.exp(1j * (1.0 + 1e-3 * round_) * phase)
        field = ifft(fft(field, axis=1) * kick, axis=1)
        field = ifft(fft(field, axis=0) * drift, axis=0)
        field = field / np.abs(field).max()
    for _ in range(CALIBRATION_STREAM_ROUNDS):
        centred = stream - stream.mean()
        stream = centred * (1.0 / float((centred * centred).mean()) ** 0.5)
    return time.perf_counter() - start


def _blas_probe(repeats: int = 5) -> list[float]:
    import numpy as np

    rng = np.random.default_rng(0)
    array = rng.standard_normal((256, 128)) + 1j * rng.standard_normal((256, 128))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.linalg.norm(array)
        times.append(time.perf_counter() - start)
    return times


def main(argv: list[str]) -> int:
    record_path = os.environ["BENCH_RECORD"]
    traced = os.environ.get("BENCH_TRACE") == "1"
    record: dict = {"traced": traced}
    start = time.perf_counter()
    import numpy.fft  # noqa: F401  (every workload needs it; import it before the calibration)

    import_s = time.perf_counter() - start
    calibration_start = time.monotonic()
    before = calibrate()
    record["calibration_span"] = time.monotonic() - calibration_start
    start = time.perf_counter()
    import beamphase.cli as cli

    record["import_s"] = import_s + time.perf_counter() - start
    _hook_engine_start(record)
    tracer = None
    if traced:
        tracer = Tracer()
        _install_tracer(tracer)
    code = cli.main(argv)
    record["main_end"] = time.monotonic()
    record["exit_code"] = code
    # BLAS worker threads can keep spinning for ~0.1 s after the program's
    # last call and would slow the calibration; let them settle first.
    time.sleep(SETTLE_S)
    record["calibration_s"] = [before, calibrate()]
    record["blas_probe"] = _blas_probe()
    if tracer is not None:
        record["spans"] = tracer.spans
    import json

    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
