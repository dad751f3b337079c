"""State constructors: wavefields, quasi-distributions, and ray sampling."""

import math

import numpy as np
import pytest

from beamphase import (
    GridError,
    AxisGrid,
    PhaseGrid,
    QuasiDistribution,
    RayEnsemble,
    SamplingError,
    StateError,
    gaussian_quasidist,
    gaussian_wavefield,
    moments_of,
    sample_rays,
    superposition_quasidist,
    superposition_wavefield,
    wigner_transform,
)
from beamphase.states import CLASSICAL_FLOOR

XGRID = AxisGrid(512, 32.0)


def quad_mass(psi):
    return float(np.sum(psi.density()) * psi.grid.spacing)


class TestGaussianWavefield:
    def test_normalized(self):
        psi = gaussian_wavefield(XGRID, 1.0, 0.1)
        assert quad_mass(psi) == pytest.approx(1.0, abs=1e-12)

    def test_centered_widths(self):
        # Oracle: for |psi|^2 a normal density with std sigma, the momentum
        # spread of the minimal-uncertainty packet is eps/(2*sigma).
        psi = gaussian_wavefield(XGRID, 1.0, 0.1)
        m = moments_of(psi)
        assert m.sigma_x == pytest.approx(1.0, abs=1e-9)
        assert m.sigma_p == pytest.approx(0.05, abs=1e-9)
        assert m.sigma_xp == pytest.approx(0.0, abs=1e-12)

    def test_offset_means(self):
        psi = gaussian_wavefield(XGRID, 1.0, 0.1, x0=0.5, p0=0.2)
        m = moments_of(psi)
        assert m.mean_x == pytest.approx(0.5, abs=1e-9)
        assert m.mean_p == pytest.approx(0.2, abs=1e-9)

    def test_boundary_decay_enforced(self):
        with pytest.raises(GridError):
            gaussian_wavefield(AxisGrid(64, 8.0), 1.0, 0.1)
        with pytest.raises(GridError):
            gaussian_wavefield(XGRID, 1.0, 0.1, x0=14.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_invalid_sigma(self, sigma):
        with pytest.raises(StateError):
            gaussian_wavefield(XGRID, sigma, 0.1)

    def test_invalid_epsilon(self):
        with pytest.raises(StateError):
            gaussian_wavefield(XGRID, 1.0, 0.0)


class TestSuperpositionWavefield:
    def test_normalized_and_even(self):
        psi = superposition_wavefield(XGRID, 1.0, 4.0, 0.1)
        assert quad_mass(psi) == pytest.approx(1.0, abs=1e-12)
        density = psi.density()
        np.testing.assert_allclose(density[1:], density[1:][::-1], atol=1e-13)

    def test_two_peaks(self):
        psi = superposition_wavefield(XGRID, 1.0, 4.0, 0.1)
        x = XGRID.points()
        density = psi.density()
        assert abs(x[np.argmax(density)]) == pytest.approx(2.0, abs=2 * XGRID.spacing)
        left = density[np.abs(x + 2.0) < 0.05][0]
        center = density[np.abs(x) < 0.05][0]
        assert left > 1.5 * center

    def test_separation_contract(self):
        with pytest.raises(StateError):
            superposition_wavefield(XGRID, 1.0, 0.0, 0.1)


class TestGaussianQuasidist:
    def test_moments_round_trip(self):
        grid = PhaseGrid(AxisGrid(512, 16.0), AxisGrid(512, 0.8))
        rho = gaussian_quasidist(grid, 1.0, 0.05)
        m = moments_of(rho)
        assert m.sigma_x == pytest.approx(1.0, rel=1e-6)
        assert m.sigma_p == pytest.approx(0.05, rel=1e-6)
        assert m.emittance == pytest.approx(0.1, rel=1e-6)
        assert rho.mass == pytest.approx(1.0, abs=1e-12)
        assert rho.kind == "classical"
        assert rho.values.min() >= 0.0

    def test_correlated_moments(self):
        grid = PhaseGrid(AxisGrid(512, 20.0), AxisGrid(512, 1.0))
        rho = gaussian_quasidist(grid, 1.0, 0.05, sigma_xp=0.03)
        m = moments_of(rho)
        assert m.sigma_xp == pytest.approx(0.03, rel=1e-6)
        assert m.emittance == pytest.approx(0.08, rel=1e-6)

    def test_non_positive_definite_rejected(self):
        grid = PhaseGrid(AxisGrid(256, 16.0), AxisGrid(256, 0.8))
        with pytest.raises(StateError):
            gaussian_quasidist(grid, 1.0, 0.05, sigma_xp=0.06)

    def test_classical_kind_rejects_negative_values(self):
        grid = PhaseGrid(AxisGrid(256, 16.0), AxisGrid(256, 0.8))
        rho = gaussian_quasidist(grid, 1.0, 0.05)
        dented = rho.values.copy()
        dent = 0.1 * dented.max()
        dented[128, 128] += dented[10, 10] + dent  # keeps the mass, so only the sign check fails
        dented[10, 10] = -dent
        with pytest.raises(StateError, match="classical density has negative values"):
            QuasiDistribution(grid, dented, kind="classical")

    def test_classical_rejection_names_the_minimum(self):
        grid = PhaseGrid(AxisGrid(64, 16.0), AxisGrid(64, 0.8))
        dented = gaussian_quasidist(grid, 1.0, 0.05).values.copy()
        dented[32, 32] += dented[3, 5] + 0.25  # keeps the mass
        dented[3, 5] = -0.25
        with pytest.raises(StateError, match=r"classical density has negative values .*-0\.25"):
            QuasiDistribution(grid, dented, kind="classical")
        assert QuasiDistribution(grid, dented, kind="wigner").values[3, 5] == -0.25

    def test_invalid_kind(self):
        grid = PhaseGrid(AxisGrid(256, 16.0), AxisGrid(256, 0.8))
        rho = gaussian_quasidist(grid, 1.0, 0.05)
        with pytest.raises(StateError):
            QuasiDistribution(grid, rho.values, kind="mystery")


class TestSuperpositionQuasidist:
    def test_positive_two_peak_mixture(self):
        grid = PhaseGrid(AxisGrid(512, 32.0), AxisGrid(256, 1.0))
        rho = superposition_quasidist(grid, 1.0, 0.05, separation=4.0)
        assert rho.kind == "classical"
        assert rho.values.min() >= 0.0
        assert rho.mass == pytest.approx(1.0, abs=1e-12)
        m = moments_of(rho)
        # Two unit-width peaks at +-2 add the separation variance in quadrature.
        assert m.sigma_x == pytest.approx(math.sqrt(1.0 + 4.0), rel=1e-6)


class TestSampleRays:
    GRID = PhaseGrid(AxisGrid(256, 32.0), AxisGrid(128, 1.28))

    def make_state(self):
        return gaussian_quasidist(self.GRID, 1.0, 0.05)

    def test_sample_widths_within_bound(self):
        n = 100_000
        rays = sample_rays(self.make_state(), n, seed=3)
        m = moments_of(rays)
        assert abs(m.sigma_x - 1.0) <= 5.0 / math.sqrt(n)
        assert abs(m.sigma_p - 0.05) <= 5.0 * 0.05 / math.sqrt(n)

    def test_identical_seed_bitwise(self):
        a = sample_rays(self.make_state(), 5000, seed=11)
        b = sample_rays(self.make_state(), 5000, seed=11)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.momenta, b.momenta)

    def test_distinct_seeds_agree_statistically(self):
        n = 50_000
        a = moments_of(sample_rays(self.make_state(), n, seed=1))
        b = moments_of(sample_rays(self.make_state(), n, seed=2))
        # Each estimate has standard error sigma_x/sqrt(2n); allow 5 of the
        # combined error for the difference of two independent estimates.
        se = 1.0 / math.sqrt(2 * n)
        assert abs(a.sigma_x - b.sigma_x) <= 5.0 * math.sqrt(2.0) * se

    def test_zero_count_rejected(self):
        with pytest.raises(SamplingError):
            sample_rays(self.make_state(), 0, seed=0)

    def test_refuses_genuinely_negative_state(self):
        psi = superposition_wavefield(AxisGrid(512, 48.0), 1.0, 4.0, 0.1)
        rho = wigner_transform(psi, AxisGrid(256, 4.0))
        with pytest.raises(SamplingError):
            sample_rays(rho, 1000, seed=0)

    def test_refuses_classical_state_with_negative_mass(self):
        # One positive cell and ringing of half CLASSICAL_FLOOR everywhere
        # else: a valid classical density whose negative cells hold 8e-6 of
        # its mass, above the 1e-6 that sampling tolerates.
        grid = PhaseGrid(AxisGrid(128, 12.8), AxisGrid(128, 1.28))
        values = np.full(grid.shape, -0.5 * CLASSICAL_FLOOR)
        values[64, 64] = 1.0
        rho = QuasiDistribution(grid, values / (values.sum() * grid.cell_area))
        with pytest.raises(SamplingError, match="negative mass fraction 8.19"):
            sample_rays(rho, 1000, seed=0)

    def test_algorithm_recorded(self):
        rays = sample_rays(self.make_state(), 100, seed=0)
        assert rays.algorithm == "pcg64"
        assert rays.seed == 0
        assert rays.count == 100


class TestRayEnsemble:
    def test_nonfinite_rejected(self):
        with pytest.raises(StateError):
            RayEnsemble(np.array([0.0, np.inf]), np.array([0.0, 0.0]))

    def test_empty_rejected(self):
        with pytest.raises(StateError):
            RayEnsemble(np.array([]), np.array([]))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(StateError):
            RayEnsemble(np.array([0.0, 1.0]), np.array([0.0]))
