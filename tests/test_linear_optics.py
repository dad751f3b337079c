"""Linear optics in closed form: every engine's moments against its own step matrix.

For a potential of degree <= 2 the first moments follow ``mu <- M mu`` and
the second moments ``Sigma <- M Sigma M^T``, where M is the 2x2 matrix of
the engine's own splitting with the lens strength sampled at the step
midpoint: drift-kick-drift for the grid engines, kick-drift-kick for twm
and the rays.  The product of these matrices is the exact discrete
reference of a run, down to round-off; the other ordering misses it at
the order of the splitting error.
"""

import numpy as np
import pytest
from step_checks import assert_moments_close

from beamphase import (
    AxisGrid,
    HarmonicProfile,
    PhaseGrid,
    PotentialSpec,
    StepPlan,
    evolve_phase_space,
    evolve_twm,
    gaussian_quasidist,
    gaussian_wavefield,
    linear_lens,
    sample_rays,
    trace_rays,
)
from beamphase.diagnostics import _beam_moments

EPS = 0.1
SIGMA0, X0 = 0.4, 0.5
# The grid, beam and lens of the lens_harmonic benchmark scenario.
GRID = PhaseGrid(AxisGrid(256, 25.6), AxisGrid(128, 6.4))
PLAN = StepPlan(2e-3, 300)
LENSES = {
    "harmonic": PotentialSpec(((2, HarmonicProfile(0.5, 3.0)),)),
    "constant": linear_lens(1.0),
}
# Which splitting each engine steps by.
ORDERING = {"moyal": "dkd", "liouville": "dkd", "twm": "kdk", "rays": "kdk"}


def drift(length: float) -> np.ndarray:
    return np.array([[1.0, length], [0.0, 1.0]])


def kick(length: float, strength: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [-length * strength, 1.0]])


def step_matrix(spec, z: float, dz: float, ordering: str) -> np.ndarray:
    strength = 2.0 * spec.coefficients(z + 0.5 * dz)[2]  # U'' of U = c2 x^2
    if ordering == "dkd":
        return drift(0.5 * dz) @ kick(dz, strength) @ drift(0.5 * dz)
    return kick(0.5 * dz, strength) @ drift(dz) @ kick(0.5 * dz, strength)


def matrix_moments(start, spec, plan: StepPlan, ordering: str) -> list:
    """The moments ``start`` reaches under the product of the step matrices, one per step."""
    mean = np.array([start.mean_x, start.mean_p])
    sigma = np.array([[start.sigma_x**2, start.sigma_xp], [start.sigma_xp, start.sigma_p**2]])
    moments = [start]
    for step in range(plan.n_steps):
        z = start.z + step * plan.dz
        m = step_matrix(spec, z, plan.dz, ordering)
        mean = m @ mean
        sigma = m @ sigma @ m.T
        moments.append(
            _beam_moments(z + plan.dz, mean[0], mean[1], sigma[0, 0], sigma[1, 1], sigma[0, 1])
        )
    return moments


def run(engine: str, spec):
    rho = gaussian_quasidist(GRID, SIGMA0, EPS / (2.0 * SIGMA0), x0=X0)
    if engine == "moyal":
        return evolve_phase_space(rho, spec, EPS, PLAN)
    if engine == "liouville":
        return evolve_phase_space(rho, spec, EPS, StepPlan(PLAN.dz, PLAN.n_steps, max_order=1))
    if engine == "twm":
        return evolve_twm(gaussian_wavefield(GRID.x_axis, SIGMA0, EPS, X0), spec, PLAN)
    return trace_rays(sample_rays(rho, 20000, seed=1), spec, PLAN)


@pytest.mark.parametrize("lens", sorted(LENSES))
@pytest.mark.parametrize("engine", sorted(ORDERING))
def test_moments_follow_the_engine_step_matrix(engine, lens):
    spec = LENSES[lens]
    traj = run(engine, spec)
    # Each engine, the ray sample included, is predicted from its own step-0 moments.
    own = ORDERING[engine]
    assert_moments_close(traj.moments, matrix_moments(traj.moments[0], spec, PLAN, own), 1e-10)
    other = "kdk" if own == "dkd" else "dkd"
    with pytest.raises(AssertionError):
        assert_moments_close(traj.moments, matrix_moments(traj.moments[0], spec, PLAN, other), 1e-8)
