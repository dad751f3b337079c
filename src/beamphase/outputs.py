"""Artifact emission: CSV moment series, binary grid dumps, PGM heatmaps.

All artifacts are byte-deterministic functions of the run data.  Floats in
text formats are written with 17 significant digits so a round trip through
the file reproduces the exact double; the binary dump stores raw little-
endian doubles for the same reason.

Grid dump layout (``.mbgd``): a 64-byte header
``magic "MBGD" | version u32 | nx u32 | np u32 | x_length f64 | p_length
f64 | x_center f64 | p_center f64 | z f64 | epsilon f64`` followed by the
nx * np cell values as row-major (x rows) little-endian f64.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .exceptions import BeamPhaseError, ConfigError, check_positive
from .grids import AxisGrid, PhaseGrid
from .states import QuasiDistribution

__all__ = [
    "CSV_COLUMNS",
    "write_moments_csv",
    "write_grid_dump",
    "read_grid_dump",
    "write_heatmap",
    "emit_outputs",
]

CSV_COLUMNS = (
    "z",
    "mean_x",
    "mean_p",
    "sigma_x",
    "sigma_p",
    "sigma_xp",
    "emittance",
    "uncertainty_product",
    "negativity_volume",
    "r3",
)

# One row of the moments CSV: "%.17g" writes each float as ``_fmt`` does,
# in one formatting call per row.
CSV_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS))

MBGD_MAGIC = b"MBGD"
MBGD_VERSION = 1
MBGD_HEADER = struct.Struct("<4s3I6d")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write(path: Path, data: bytes) -> Path:
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise BeamPhaseError(f"cannot write {path}: {exc}") from None
    return path


def write_moments_csv(path, result) -> Path:
    """Write one engine's per-step series.

    Columns are fixed (see ``CSV_COLUMNS``).  negativity_volume and r3 are
    grid diagnostics recorded at snapshot steps; rows in between, and all
    rows of engines without a grid representation, carry ``nan``.
    """
    path = Path(path)
    by_step = dict(zip(result.snapshot_steps, zip(result.snapshot_negativity, result.snapshot_r3)))
    lines = [",".join(CSV_COLUMNS)]
    for step, m in enumerate(result.moments):
        volume, r3 = by_step.get(step, (float("nan"), float("nan")))
        cells = (
            m.z,
            m.mean_x,
            m.mean_p,
            m.sigma_x,
            m.sigma_p,
            m.sigma_xp,
            m.emittance,
            m.uncertainty_product,
            volume,
            r3,
        )
        lines.append(CSV_ROW % cells)
    return _write(path, ("\n".join(lines) + "\n").encode("ascii"))


def write_grid_dump(path, state: QuasiDistribution, epsilon: float) -> Path:
    path = Path(path)
    epsilon = check_positive("epsilon", epsilon, BeamPhaseError)
    grid = state.grid
    header = MBGD_HEADER.pack(
        MBGD_MAGIC,
        MBGD_VERSION,
        grid.x_axis.n,
        grid.p_axis.n,
        grid.x_axis.length,
        grid.p_axis.length,
        grid.x_axis.center,
        grid.p_axis.center,
        state.z,
        epsilon,
    )
    payload = np.ascontiguousarray(state.values, dtype="<f8").tobytes()
    return _write(path, header + payload)


def read_grid_dump(path) -> tuple[QuasiDistribution, float]:
    """Read a grid dump back; the state is tagged ``wigner`` (dumps carry no kind)."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if len(blob) < MBGD_HEADER.size:
        raise ConfigError(f"{path}: too short for a grid-dump header")
    magic, version, nx, n_p, x_length, p_length, x_center, p_center, z, epsilon = (
        MBGD_HEADER.unpack_from(blob)
    )
    if magic != MBGD_MAGIC:
        raise ConfigError(f"{path}: not a grid dump (magic {magic!r})")
    if version != MBGD_VERSION:
        raise ConfigError(f"{path}: unsupported grid-dump version {version}")
    expected = MBGD_HEADER.size + nx * n_p * 8
    if len(blob) != expected:
        raise ConfigError(f"{path}: expected {expected} bytes for {nx}x{n_p}, got {len(blob)}")
    values = np.frombuffer(blob, dtype="<f8", offset=MBGD_HEADER.size).reshape(nx, n_p)
    try:
        grid = PhaseGrid(AxisGrid(nx, x_length, x_center), AxisGrid(n_p, p_length, p_center))
        state = QuasiDistribution(grid, values.astype(float), z, "wigner")
        epsilon = check_positive("epsilon", epsilon, ConfigError)
    except BeamPhaseError as exc:
        raise ConfigError(f"{path}: invalid grid-dump contents: {exc}") from None
    return state, epsilon


def write_heatmap(path, state: QuasiDistribution) -> Path:
    """8-bit PGM (binary P5) of the density; min/max go to a text sidecar.

    Rows run from the highest p down so momentum increases upward in image
    viewers; columns follow x.  Pixels map the value range [min, max] to
    [0, 255] linearly; the sidecar records the range with full precision.
    """
    path = Path(path)
    values = state.values
    lo = float(values.min())
    hi = float(values.max())
    scaled = np.zeros(values.shape, dtype=np.uint8)
    if hi > lo:
        scaled = np.rint((values - lo) * (255.0 / (hi - lo))).astype(np.uint8)
    image = scaled.T[::-1, :]
    height, width = image.shape
    _write(path, f"P5\n{width} {height}\n255\n".encode("ascii") + image.tobytes())
    _write(path.with_suffix(".minmax.txt"), f"min {_fmt(lo)}\nmax {_fmt(hi)}\n".encode("ascii"))
    return path


def emit_outputs(report, states) -> tuple[Path, ...]:
    """Write the artifact set that ``report.config`` asks for; returns the paths written.

    ``states`` maps engine name to its final grid-representable state (the
    wavefield engine contributes its Wigner transform); engines without one
    get CSV series only.  Files go to ``report.config.output.directory``.
    """
    config = report.config
    directory = Path(config.output.directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise BeamPhaseError(f"cannot create output directory {directory}: {exc}") from None
    formats = config.output.formats
    written: list[Path] = []
    for result in report.engines:
        if "csv" in formats:
            written.append(write_moments_csv(directory / f"moments_{result.name}.csv", result))
        state = states.get(result.name)
        if state is None:
            continue
        if "grid-dump" in formats:
            written.append(
                write_grid_dump(directory / f"state_{result.name}.mbgd", state, config.epsilon)
            )
        if "heatmap" in formats:
            heatmap = write_heatmap(directory / f"heatmap_{result.name}.pgm", state)
            written.append(heatmap)
            written.append(heatmap.with_suffix(".minmax.txt"))
    return tuple(written)
