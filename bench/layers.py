"""Per-layer metrics from the spans of one traced process.

A span is ``[name, start, end, parent, extra]`` as written by ``child.py``.
Self time is a span's duration minus the durations of its direct children.
Engine bookkeeping is the time of the ``diagnostics.moments`` and
``states.object`` spans directly under an engine span; the engine's kernel
is its self time.  Layers that do no work in a workload read 0.
"""

from __future__ import annotations

ENGINE_SPANS = ("twm.evolve", "phasespace.grid", "phasespace.rays")
BOOKKEEPING_SPANS = ("diagnostics.moments", "states.object")

# Name and unit of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("scenario.load_ms", "ms"),
    ("states.build_ms", "ms"),
    ("states.objects_per_step", "count"),
    ("twm.kernel_us_per_step", "us"),
    ("twm.bookkeeping_us_per_step", "us"),
    ("phasespace.grid_kernel_us_per_step.moyal", "us"),
    ("phasespace.grid_kernel_us_per_step.liouville", "us"),
    ("phasespace.grid_bookkeeping_us_per_step", "us"),
    ("phasespace.grid_fft_points_per_step", "count"),
    ("phasespace.ray_kernel_us_per_step", "us"),
    ("phasespace.ray_bookkeeping_us_per_step", "us"),
    ("phasespace.rays_alive_ratio", "ratio"),
    ("potentials.generator_us_per_call", "us"),
    ("potentials.generator_calls", "count"),
    ("potentials.gradient_us_per_call", "us"),
    ("diagnostics.truncation_ratio_ms", "ms"),
    ("diagnostics.truncation_ratio_calls", "count"),
    ("diagnostics.negativity_ms", "ms"),
    ("diagnostics.negativity_calls", "count"),
    ("transforms.wigner_ms", "ms"),
    ("transforms.wigner_calls", "count"),
    ("runner.self_s", "s"),
    ("outputs.csv_ms", "ms"),
    ("outputs.grid_dump_ms", "ms"),
    ("outputs.heatmap_ms", "ms"),
    ("outputs.bytes", "bytes"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.blas_slow_processes", "count"),
    ("bench.calibration_ms", "ms"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer values of one traced process, except those the driver adds.

    ``outputs.bytes`` and the ``bench.*`` metrics need the artifacts or
    other processes and are filled in by ``run.py``.
    """
    spans = record["spans"]
    durations = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[index]

    def engine_of(index: int) -> int:
        """Index of the nearest enclosing engine span, or -1."""
        parent = spans[index][3]
        while parent >= 0 and spans[parent][0] not in ENGINE_SPANS:
            parent = spans[parent][3]
        return parent

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for index, (name, _, _, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + durations[index]
        calls[name] = calls.get(name, 0) + 1

    kernel = {"twm": 0.0, "moyal": 0.0, "liouville": 0.0, "rays": 0.0}
    steps = dict.fromkeys(kernel, 0)
    bookkeeping = dict.fromkeys(kernel, 0.0)
    fft_points = 0
    alive = rays = 0
    engine_key: dict[int, str] = {}
    for index, (name, _, _, _, extra) in enumerate(spans):
        if name not in ENGINE_SPANS:
            continue
        key = {"twm.evolve": "twm", "phasespace.rays": "rays"}.get(name) or extra.get("engine")
        engine_key[index] = key
        kernel[key] += durations[index] - child_time[index]
        steps[key] += extra.get("steps", 0)
        if name == "phasespace.grid":
            fft_points += extra.get("fft_points", 0)
        if name == "phasespace.rays":
            alive += extra.get("alive", 0)
            rays += extra.get("rays", 0)

    objects = 0
    gradient_time = 0.0
    gradient_calls = 0
    for index, (name, _, _, parent, _) in enumerate(spans):
        if parent in engine_key and name in BOOKKEEPING_SPANS:
            bookkeeping[engine_key[parent]] += durations[index]
        if name == "states.object" and engine_of(index) >= 0:
            objects += 1
        if name == "potentials.gradient" and parent >= 0 and spans[parent][0] == "phasespace.rays":
            gradient_time += durations[index]
            gradient_calls += 1

    grid_steps = steps["moyal"] + steps["liouville"]
    runner_self = sum(
        durations[i] - child_time[i] for i, span in enumerate(spans) if span[0] == "runner.run"
    )
    return {
        "cli.import_s": record["import_s"],
        "scenario.load_ms": 1e3 * total.get("scenario.load", 0.0),
        "states.build_ms": 1e3 * total.get("states.build", 0.0),
        "states.objects_per_step": _ratio(objects, sum(steps.values())),
        "twm.kernel_us_per_step": 1e6 * _ratio(kernel["twm"], steps["twm"]),
        "twm.bookkeeping_us_per_step": 1e6 * _ratio(bookkeeping["twm"], steps["twm"]),
        "phasespace.grid_kernel_us_per_step.moyal": 1e6 * _ratio(kernel["moyal"], steps["moyal"]),
        "phasespace.grid_kernel_us_per_step.liouville": 1e6
        * _ratio(kernel["liouville"], steps["liouville"]),
        "phasespace.grid_bookkeeping_us_per_step": 1e6
        * _ratio(bookkeeping["moyal"] + bookkeeping["liouville"], grid_steps),
        "phasespace.grid_fft_points_per_step": _ratio(fft_points, grid_steps),
        "phasespace.ray_kernel_us_per_step": 1e6 * _ratio(kernel["rays"], steps["rays"]),
        "phasespace.ray_bookkeeping_us_per_step": 1e6 * _ratio(bookkeeping["rays"], steps["rays"]),
        "phasespace.rays_alive_ratio": _ratio(alive, rays),
        "potentials.generator_us_per_call": 1e6
        * _ratio(total.get("potentials.generator", 0.0), calls.get("potentials.generator", 0)),
        "potentials.generator_calls": calls.get("potentials.generator", 0),
        "potentials.gradient_us_per_call": 1e6 * _ratio(gradient_time, gradient_calls),
        "diagnostics.truncation_ratio_ms": 1e3
        * _ratio(
            total.get("diagnostics.truncation_ratio", 0.0),
            calls.get("diagnostics.truncation_ratio", 0),
        ),
        "diagnostics.truncation_ratio_calls": calls.get("diagnostics.truncation_ratio", 0),
        "diagnostics.negativity_ms": 1e3
        * _ratio(total.get("diagnostics.negativity", 0.0), calls.get("diagnostics.negativity", 0)),
        "diagnostics.negativity_calls": calls.get("diagnostics.negativity", 0),
        "transforms.wigner_ms": 1e3
        * _ratio(total.get("transforms.wigner", 0.0), calls.get("transforms.wigner", 0)),
        "transforms.wigner_calls": calls.get("transforms.wigner", 0),
        "runner.self_s": runner_self,
        "outputs.csv_ms": 1e3 * total.get("outputs.csv", 0.0),
        "outputs.grid_dump_ms": 1e3 * total.get("outputs.grid_dump", 0.0),
        "outputs.heatmap_ms": 1e3 * total.get("outputs.heatmap", 0.0),
    }
