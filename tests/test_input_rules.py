"""The shared input rules: each entry point refuses a bad scalar with its own error type."""

import dataclasses
import math
import re

import numpy as np
import pytest

from beamphase import (
    AxisGrid,
    BeamMoments,
    BeamPhaseError,
    GridError,
    PhaseGrid,
    PiecewiseProfile,
    RayEnsemble,
    SamplingError,
    SolverError,
    StateError,
    StepPlan,
    TransformError,
    emittance_from_thermal,
    free_gaussian_sigma,
    gaussian_quasidist,
    gaussian_wavefield,
    linear_lens,
    matched_width,
    moyal_generator,
    moyal_generator_truncated,
    quartic_channel,
    sample_rays,
    superposition_quasidist,
    tomogram,
    tomogram_axis,
    truncation_ratio,
    uncertainty_check,
    wigner_transform,
)

GRID = PhaseGrid(AxisGrid(64, 16.0), AxisGrid(64, 8.0))
MOMENTS = BeamMoments(0.0, 0.0, 0.0, 1.0, 0.05, 0.0, 0.05)
FIELD = gaussian_wavefield(GRID.x_axis, 0.5, 0.5)  # resolved on GRID's p axis

ENTRY_POINTS = {
    "AxisGrid": (lambda bad: AxisGrid(8, bad), GridError),
    "AxisGrid center": (lambda bad: AxisGrid(8, 1.0, bad), GridError),
    "PiecewiseProfile": (lambda bad: PiecewiseProfile(((0.0, 1.0), (bad, 2.0))), BeamPhaseError),
    "StepPlan": (lambda bad: StepPlan(bad, 10), SolverError),
    "gaussian_wavefield": (lambda bad: gaussian_wavefield(GRID.x_axis, bad, 0.1), StateError),
    "gaussian_wavefield x0": (
        lambda bad: gaussian_wavefield(GRID.x_axis, 0.5, 0.1, bad),
        StateError,
    ),
    "gaussian_quasidist": (lambda bad: gaussian_quasidist(GRID, bad, 0.5), StateError),
    "gaussian_quasidist x0": (
        lambda bad: gaussian_quasidist(GRID, 1.0, 0.5, 0.0, bad),
        StateError,
    ),
    "superposition_quasidist": (
        lambda bad: superposition_quasidist(GRID, 1.0, 0.5, bad),
        StateError,
    ),
    "WaveField z": (
        lambda bad: dataclasses.replace(gaussian_wavefield(GRID.x_axis, 0.5, 0.1), z=bad),
        StateError,
    ),
    "QuasiDistribution z": (
        lambda bad: dataclasses.replace(gaussian_quasidist(GRID, 1.0, 0.5), z=bad),
        StateError,
    ),
    "RayEnsemble z": (lambda bad: RayEnsemble([0.0, 1.0], [0.5, -0.5], bad), StateError),
    "moyal_generator": (
        lambda bad: moyal_generator(linear_lens(1.0), 0.5, 1.0, 0.0, bad),
        BeamPhaseError,
    ),
    "matched_width": (lambda bad: matched_width(linear_lens(1.0), bad), BeamPhaseError),
    "linear_lens": (lambda bad: linear_lens(bad), BeamPhaseError),
    "quartic_channel": (lambda bad: quartic_channel(1.0, bad), BeamPhaseError),
    "tomogram": (
        lambda bad: tomogram(gaussian_quasidist(GRID, 1.0, 0.5), bad, 0.0),
        TransformError,
    ),
    "free_gaussian_sigma": (lambda bad: free_gaussian_sigma(bad, 0.1, 1.0), BeamPhaseError),
    "free_gaussian_sigma epsilon": (
        lambda bad: free_gaussian_sigma(1.0, bad, 1.0),
        BeamPhaseError,
    ),
    "free_gaussian_sigma z": (lambda bad: free_gaussian_sigma(1.0, 0.1, bad), BeamPhaseError),
    "uncertainty_check": (lambda bad: uncertainty_check(MOMENTS, bad), BeamPhaseError),
    "wigner_transform": (lambda bad: wigner_transform(FIELD, GRID.p_axis, bad), TransformError),
    "emittance_from_thermal": (lambda bad: emittance_from_thermal(bad, 1.0), StateError),
    "sample_rays": (
        lambda bad: sample_rays(gaussian_quasidist(GRID, 1.0, 0.5), bad, 0),
        SamplingError,
    ),
    "sample_rays seed": (
        lambda bad: sample_rays(gaussian_quasidist(GRID, 1.0, 0.5), 10, bad),
        SamplingError,
    ),
    "tomogram_axis": (lambda bad: tomogram_axis(GRID, bad, 0.0), TransformError),
    "truncation_ratio": (
        lambda bad: truncation_ratio(gaussian_quasidist(GRID, 1.0, 0.5), linear_lens(1.0), bad),
        BeamPhaseError,
    ),
}


@pytest.mark.parametrize("bad", ["1", math.nan], ids=["string", "nan"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_scalar_raises_the_entry_points_own_error(entry, bad):
    call, error = ENTRY_POINTS[entry]
    with pytest.raises(BeamPhaseError) as info:
        call(bad)
    assert info.type is error


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: AxisGrid(8, "1"), "axis length must be positive and finite, got '1'"),
        (lambda: AxisGrid(8, 1.0, math.inf), "axis center must be finite, got inf"),
        (lambda: AxisGrid(-8, 1.0), "axis point count must be a power of two >= 8, got -8"),
        (lambda: AxisGrid(8.0, 1.0), "axis point count must be an integer, got 8.0"),
        (lambda: StepPlan(0.1, 10, max_order=2), "max_order must be odd, got 2"),
        (
            lambda: moyal_generator_truncated(linear_lens(1.0), 0.5, 1.0, 0.0, 0.1, 2),
            "max_order must be odd, got 2",
        ),
        (
            lambda: sample_rays(gaussian_quasidist(GRID, 1.0, 0.5), 0, 0),
            "ray count must be >= 1, got 0",
        ),
        (
            lambda: sample_rays(gaussian_quasidist(GRID, 1.0, 0.5), np.int64(0), 0),
            "ray count must be >= 1, got 0",
        ),
        (
            lambda: sample_rays(gaussian_quasidist(GRID, 1.0, 0.5), 10, -1),
            "seed must be >= 0, got -1",
        ),
        (
            lambda: sample_rays(gaussian_quasidist(GRID, 1.0, 0.5), 10, 1.5),
            "seed must be an integer, got 1.5",
        ),
        (
            lambda: tomogram_axis(GRID, 0.0, 0.0),
            "tomogram direction (mu, nu) must not be (0, 0)",
        ),
        (
            lambda: superposition_quasidist(GRID, 1.0, 0.5, 0.0),
            "separation must be positive and finite, got 0.0",
        ),
        (lambda: free_gaussian_sigma(1.0, -0.1, 1.0), "epsilon must be >= 0, got -0.1"),
        (lambda: uncertainty_check(MOMENTS, 0.0), "epsilon must be positive and finite, got 0.0"),
        (
            lambda: wigner_transform(FIELD, GRID.p_axis, -1.0),
            "marginal_tol must be positive and finite, got -1.0",
        ),
    ],
    ids=[
        "axis-length-string",
        "axis-center-inf",
        "axis-count-negative",
        "axis-count-float",
        "plan-even-order",
        "truncated-even-order",
        "ray-count-zero",
        "ray-count-numpy-zero",
        "seed-negative",
        "seed-float",
        "tomogram-axis-zero-direction",
        "superposition-quasidist-zero-separation",
        "free-gaussian-sigma-negative-epsilon",
        "uncertainty-check-zero-epsilon",
        "wigner-transform-negative-tolerance",
    ],
)
def test_messages(call, message):
    with pytest.raises(BeamPhaseError) as info:
        call()
    assert str(info.value) == message


def test_cleaned_values_are_plain_numbers():
    grid = AxisGrid(np.int64(16), np.float32(2.0))
    assert type(grid.n) is int and type(grid.length) is float
    plan = StepPlan(np.float64(0.1), np.int32(5), max_order=np.int64(3))
    assert (type(plan.dz), type(plan.n_steps), type(plan.max_order)) == (float, int, int)
    assert sample_rays(gaussian_quasidist(GRID, 1.0, 0.5), np.int64(5), 0).count == 5


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gaussian_wavefield(GRID.x_axis, 1e200, 0.1), "sigma**2 is out of"),
        (lambda: gaussian_wavefield(GRID.x_axis, 1e-200, 0.1), "sigma**2 is out of"),
        (lambda: gaussian_quasidist(GRID, 1.0, 1e300), "covariance matrix must be"),
        (lambda: gaussian_quasidist(GRID, 1.0, 0.5, 1e300), "covariance matrix must be"),
        (lambda: superposition_quasidist(GRID, 1.0, 0.5, 1e308), "is identically zero"),
    ],
    ids=["wide-wavefield", "narrow-wavefield", "wide-momentum", "huge-correlation", "far-peaks"],
)
def test_beam_scales_out_of_float_range_raise_state_error(call, message):
    # A width whose square leaves the float range, either way, and peaks so
    # far off the grid that their squared distances overflow (exp gives 0).
    with pytest.raises(StateError, match=re.escape(message)):
        call()
