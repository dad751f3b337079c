"""Acceptance suite: one test per package-level guarantee.

Each test prints one ``[acceptance] <name>: PASS/FAIL`` line directly to the
terminal (bypassing capture) so a full run doubles as a checklist.  Heavy
evolutions are shared between criteria through module-scoped fixtures.
"""

import contextlib
import math
import textwrap
import time

import numpy as np
import pytest

from beamphase import (
    AxisGrid,
    PhaseGrid,
    StepPlan,
    emittance_from_thermal,
    evolve_phase_space,
    evolve_twm,
    free_space,
    gaussian_quasidist,
    gaussian_wavefield,
    linear_lens,
    moments_of,
    momentum_wavefield,
    negativity,
    quartic_channel,
    sample_rays,
    superposition_quasidist,
    superposition_wavefield,
    tomogram,
    trace_rays,
    truncation_ratio,
    wigner_transform,
)
from beamphase.cli import main

EPS = 0.1
RAY_SEED = 20260813
# Marginal slack for Wigner transforms of evolved wavefields (splitting
# error perturbs the correlation tails); fresh states keep the default.
EVOLVED_MARGINAL_TOL = 1e-9


@pytest.fixture
def criterion(capsys):
    @contextlib.contextmanager
    def _criterion(name):
        outcome = "FAIL"
        try:
            yield
            outcome = "PASS"
        finally:
            with capsys.disabled():
                print(f"[acceptance] {name}: {outcome}")

    return _criterion


@pytest.fixture(scope="module")
def spreading_runs():
    """Free-space evolutions to z = 20 in the wavefield, grid, and ray engines."""
    started = time.perf_counter()
    psi = gaussian_wavefield(AxisGrid(1024, 48.0), 1.0, EPS)
    twm = evolve_twm(psi, free_space(), StepPlan(0.01, 2000))
    grid = PhaseGrid(AxisGrid(256, 24.0), AxisGrid(128, 1.28))
    rho = gaussian_quasidist(grid, 1.0, EPS / 2.0)
    moyal = evolve_phase_space(rho, free_space(), EPS, StepPlan(0.1, 200))
    rays = trace_rays(sample_rays(rho, 1_000_000, RAY_SEED), free_space(), StepPlan(1.0, 20))
    return {
        "twm": twm,
        "moyal": moyal,
        "rays": rays,
        "seconds": time.perf_counter() - started,
    }


@pytest.fixture(scope="module")
def invariance_runs():
    """1000-step free-space and K=1 lens evolutions in every engine."""
    runs = {}
    runs["twm free"] = evolve_twm(
        gaussian_wavefield(AxisGrid(512, 48.0), 1.0, EPS), free_space(), StepPlan(0.01, 1000)
    )
    runs["twm lens"] = evolve_twm(
        gaussian_wavefield(AxisGrid(256, 12.0), 0.3, EPS), linear_lens(1.0), StepPlan(0.01, 1000)
    )
    free_grid = PhaseGrid(AxisGrid(256, 24.0), AxisGrid(64, 0.8))
    rho_free = gaussian_quasidist(free_grid, 1.0, EPS / 2.0)
    lens_grid = PhaseGrid(AxisGrid(128, 6.4), AxisGrid(64, 5.12))
    rho_lens = gaussian_quasidist(lens_grid, 0.3, EPS / 0.6)
    for name, rho, spec in (("free", rho_free, free_space()), ("lens", rho_lens, linear_lens(1.0))):
        runs[f"moyal {name}"] = evolve_phase_space(rho, spec, EPS, StepPlan(0.01, 1000))
        runs[f"liouville {name}"] = evolve_phase_space(
            rho, spec, EPS, StepPlan(0.01, 1000, max_order=1)
        )
        runs[f"rays {name}"] = trace_rays(
            sample_rays(rho, 20_000, RAY_SEED), spec, StepPlan(0.01, 1000)
        )
    return runs


@pytest.fixture(scope="module")
def divergence_runs():
    """Quartic-channel evolution of a two-peak mixture, both generators."""
    grid = PhaseGrid(AxisGrid(256, 10.0), AxisGrid(128, 5.12))
    mix = superposition_quasidist(grid, 0.5, 0.2, separation=2.0)
    spec = quartic_channel(1.0, 0.1)
    eps = 0.2
    classical = evolve_phase_space(mix, spec, eps, StepPlan(1e-4, 500, max_order=1), 100)
    moyal = evolve_phase_space(mix, spec, eps, StepPlan(1e-4, 500), 100)
    moyal_half = evolve_phase_space(mix, spec, eps, StepPlan(5e-5, 1000))
    return {
        "classical": classical,
        "moyal": moyal,
        "moyal_half": moyal_half,
        "epsilon": eps,
    }


def _snapshot_distances(x_axis, p_axis, sigma, eps, spec, dz, n_steps, every):
    """L-infinity distance between Wigner-of-wavefield and grid snapshots."""
    psi = gaussian_wavefield(x_axis, sigma, eps)
    rho0 = gaussian_quasidist(PhaseGrid(x_axis, p_axis), sigma, eps / (2.0 * sigma))
    twm = evolve_twm(psi, spec, StepPlan(dz, n_steps), every)
    grid_run = evolve_phase_space(rho0, spec, eps, StepPlan(dz, n_steps), every)
    distances = []
    for field, state in zip(twm.snapshots, grid_run.snapshots):
        rho_w = wigner_transform(field, p_axis, EVOLVED_MARGINAL_TOL)
        distances.append(float(np.abs(rho_w.values - state.values).max()))
    return distances, twm, grid_run


@pytest.fixture(scope="module")
def consistency_runs():
    """Wavefield-vs-grid snapshot distances at dz and dz/2 for two lattices."""
    eps = 0.2
    cases = {}
    for name, x_axis, p_axis, sigma, spec, dz, n_steps, every, tol in (
        ("lens", AxisGrid(256, 12.0), AxisGrid(128, 6.0), math.sqrt(0.1),
         linear_lens(1.0), 4e-3, 500, 125, 2e-5),
        ("quartic", AxisGrid(256, 12.8), AxisGrid(128, 6.4), 0.4,
         quartic_channel(1.0, 0.1), 2e-4, 1500, 375, 5e-8),
    ):
        d1, twm, grid_run = _snapshot_distances(x_axis, p_axis, sigma, eps, spec, dz, n_steps, every)
        d2, _, _ = _snapshot_distances(x_axis, p_axis, sigma, eps, spec, dz / 2, 2 * n_steps, 2 * every)
        cases[name] = {"d1": d1, "d2": d2, "twm": twm, "grid": grid_run, "tol": tol}
    cases["epsilon"] = eps
    return cases


def test_criterion_01_free_space_spreading(spreading_runs, criterion):
    with criterion("free-space spreading law"):
        z = 20.0
        expected = 1.0 * math.sqrt(1.0 + (EPS * z / 2.0) ** 2)
        sigma_twm = moments_of(spreading_runs["twm"].final).sigma_x
        assert abs(sigma_twm - expected) / expected <= 1e-6
        sigma_moyal = moments_of(spreading_runs["moyal"].final).sigma_x
        assert abs(sigma_moyal - expected) / expected <= 1e-6
        sigma_rays = moments_of(spreading_runs["rays"].final).sigma_x
        standard_error = expected / math.sqrt(2 * 1_000_000)
        assert abs(sigma_rays - expected) <= 5.0 * standard_error
        assert spreading_runs["seconds"] < 30.0


def test_criterion_02_emittance_invariance(invariance_runs, criterion):
    with criterion("emittance invariance"):
        for name, run in invariance_runs.items():
            series = [m.emittance for m in run.moments]
            drift = max(abs(value - series[0]) / series[0] for value in series)
            assert drift <= 1e-6, f"{name}: relative emittance drift {drift:.3e}"


def test_criterion_03_quadratic_equivalence(criterion):
    with criterion("quadratic equivalence"):
        free_rho = gaussian_quasidist(
            PhaseGrid(AxisGrid(256, 24.0), AxisGrid(64, 0.8)), 1.0, EPS / 2.0
        )
        lens_rho = gaussian_quasidist(
            PhaseGrid(AxisGrid(128, 6.4), AxisGrid(64, 5.12)), 0.3, EPS / 0.6
        )
        full_plan = StepPlan(0.01, 1)
        truncated_plan = StepPlan(0.01, 1, max_order=1)
        for rho, spec in ((free_rho, free_space()), (lens_rho, linear_lens(1.0))):
            full = truncated = rho
            for _ in range(1000):
                full = evolve_phase_space(full, spec, EPS, full_plan).final
                truncated = evolve_phase_space(truncated, spec, EPS, truncated_plan).final
                assert float(np.abs(full.values - truncated.values).max()) <= 1e-12


def test_criterion_04_quartic_divergence(divergence_runs, criterion):
    with criterion("quantum-classical divergence"):
        for state in divergence_runs["classical"].snapshots:
            assert state.values.min() >= -1e-10
        # Reference frozen from the build-time run (measured 5.32e-5, stored
        # with a 2x safety margin); asserts genuine negativity, not round-off.
        volume = negativity(divergence_runs["moyal"].final).negativity_volume
        assert volume > 2.5e-5
        separation = float(
            np.abs(
                divergence_runs["moyal"].final.values
                - divergence_runs["classical"].final.values
            ).max()
        )
        splitting_error = float(
            np.abs(
                divergence_runs["moyal"].final.values
                - divergence_runs["moyal_half"].final.values
            ).max()
        )
        assert separation > 10.0 * splitting_error


def test_criterion_05_representation_consistency(consistency_runs, criterion):
    with criterion("representation consistency"):
        for name in ("lens", "quartic"):
            case = consistency_runs[name]
            assert max(case["d1"]) <= case["tol"], f"{name}: {max(case['d1']):.3e}"
            # Snapshot 0 compares two constructions of the same Gaussian;
            # the splitting-order ratio is defined from the first step on.
            for d1, d2 in zip(case["d1"][1:], case["d2"][1:]):
                ratio = d1 / d2
                assert 3.52 <= ratio <= 4.48, f"{name}: halving ratio {ratio:.3f}"


def test_criterion_06_wigner_marginals(criterion):
    with criterion("wigner marginals"):
        rng = np.random.default_rng(RAY_SEED)
        for index in range(50):
            sigma = rng.uniform(0.6, 1.6)
            x0 = rng.uniform(-1.0, 1.0)
            p0 = rng.uniform(-0.1, 0.1)
            eps = rng.uniform(0.05, 0.25)
            separation = rng.uniform(1.5, 3.0) * sigma if index % 2 else 0.0
            support = 7.43 * sigma + abs(x0) + separation / 2.0
            x_axis = AxisGrid(512, 4.4 * support)
            p_axis = AxisGrid(256, math.pi * eps * 256 / (2.2 * support))
            if separation:
                psi = superposition_wavefield(x_axis, sigma, separation, eps, x0, p0)
            else:
                psi = gaussian_wavefield(x_axis, sigma, eps, x0, p0)
            rho = wigner_transform(psi, p_axis)
            x_defect = np.abs(
                rho.values.sum(axis=1) * p_axis.spacing - psi.density()
            ).max()
            assert x_defect <= 1e-10
            phi = momentum_wavefield(psi, p_axis)
            p_defect = np.abs(
                rho.values.sum(axis=0) * x_axis.spacing - phi.density()
            ).max()
            assert p_defect <= 1e-10


def test_criterion_07_uncertainty_relation(
    spreading_runs, invariance_runs, divergence_runs, consistency_runs, criterion
):
    with criterion("uncertainty relation"):
        # Ray series are excluded: sampled moments estimate the state's
        # sigma with O(1/sqrt(N)) noise, and the bound is a property of the
        # state, not of an estimator.
        tracked = [
            (EPS, spreading_runs["twm"]),
            (EPS, spreading_runs["moyal"]),
        ]
        tracked += [
            (EPS, run) for name, run in invariance_runs.items() if not name.startswith("rays")
        ]
        tracked += [
            (divergence_runs["epsilon"], divergence_runs["classical"]),
            (divergence_runs["epsilon"], divergence_runs["moyal"]),
        ]
        eps5 = consistency_runs["epsilon"]
        for name in ("lens", "quartic"):
            tracked.append((eps5, consistency_runs[name]["twm"]))
            tracked.append((eps5, consistency_runs[name]["grid"]))
        for eps, run in tracked:
            bound = (1.0 - 1e-9) * eps / 2.0
            for m in run.moments:
                assert m.sigma_x * m.sigma_p >= bound
        # Matched uncorrelated Gaussian: equality within 1e-6 along the run.
        for run in (consistency_runs["lens"]["twm"], consistency_runs["lens"]["grid"]):
            for m in run.moments:
                assert abs(m.sigma_x * m.sigma_p - eps5 / 2.0) <= 1e-6 * (eps5 / 2.0)


def test_criterion_08_truncation_diagnostic(criterion):
    with criterion("truncation diagnostic"):
        grid = PhaseGrid(AxisGrid(128, 12.8), AxisGrid(64, 6.4))
        mix = superposition_quasidist(grid, 0.4, 0.4, 4.0)
        spec = quartic_channel(1.0, 0.1)
        r_full = truncation_ratio(mix, spec, 0.1)
        r_half = truncation_ratio(mix, spec, 0.05)
        assert r_full > 0.0
        ratio = r_full / r_half
        assert 3.6 <= ratio <= 4.4
        assert truncation_ratio(mix, linear_lens(1.0), 0.1) == 0.0
        assert math.isnan(truncation_ratio(mix, free_space(), 0.1))


def test_criterion_09_tomogram_positivity(criterion):
    with criterion("tomogram positivity"):
        psi = superposition_wavefield(AxisGrid(512, 48.0), 1.0, 4.0, EPS)
        rho = wigner_transform(psi, AxisGrid(256, 4.0))
        assert negativity(rho).negativity_volume > 0.01
        for k in range(16):
            theta = math.pi * k / 16.0
            projection = tomogram(rho, math.cos(theta), math.sin(theta))
            assert projection.values.min() >= -1e-9
            assert abs(projection.mass - 1.0) <= 1e-8


def test_criterion_10_thermal_mapping(criterion):
    with criterion("thermal mapping"):
        thermal = emittance_from_thermal(0.01, 1.0)
        assert thermal.epsilon == 0.02
        assert thermal.eta == 0.01
        assert thermal.epsilon / 2.0 == 0.01 * 1.0
        assert not thermal.paraxial_warning


def test_criterion_11_determinism(tmp_path, criterion):
    with criterion("determinism"):
        scenario = textwrap.dedent(
            f"""
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
            ray_count = 20000

            [output]
            directory = {tmp_path / "first"}
            formats = csv, grid-dump
            """
        )
        path = tmp_path / "scenario.ini"
        path.write_text(scenario)
        assert main(["run", str(path), "--quiet"]) == 0
        assert main(["run", str(path), "--output-dir", str(tmp_path / "second"), "--quiet"]) == 0
        names = sorted(p.name for p in (tmp_path / "first").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "second").iterdir())
        assert any(name.endswith(".csv") for name in names)
        assert any(name.endswith(".mbgd") for name in names)
        for name in names:
            first = (tmp_path / "first" / name).read_bytes()
            second = (tmp_path / "second" / name).read_bytes()
            assert first == second, f"{name} differs between identical runs"
