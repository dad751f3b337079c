"""Beam moments, uncertainty reporting, negativity, and model scoring."""

import math

import numpy as np
import pytest
from beam_corpus import wavefields
from hypothesis import given, settings, strategies as st

from beamphase import (
    AxisGrid,
    BeamMoments,
    ConstantProfile,
    PhaseGrid,
    PotentialSpec,
    StateError,
    StepPlan,
    emittance_from_thermal,
    evolve_phase_space,
    evolve_twm,
    free_space,
    gaussian_quasidist,
    gaussian_wavefield,
    linear_lens,
    moments_of,
    moyal_generator,
    moyal_generator_truncated,
    negativity,
    quartic_channel,
    sample_rays,
    superposition_quasidist,
    truncation_ratio,
    uncertainty_check,
    wigner_transform,
)
from beamphase.diagnostics import _WavefieldMoments
from beamphase.transforms import _MomentumMap

EPS = 0.1
WIDE_GRID = PhaseGrid(AxisGrid(512, 32.0), AxisGrid(128, 1.28))


def quadrature_moments(rho):
    """Independent direct-quadrature oracle for grid-state moments."""
    x, p = np.meshgrid(rho.grid.x_axis.points(), rho.grid.p_axis.points(), indexing="ij")
    w = rho.values * rho.grid.cell_area
    norm = w.sum()
    mx = (w * x).sum() / norm
    mp = (w * p).sum() / norm
    vx = (w * (x - mx) ** 2).sum() / norm
    vp = (w * (p - mp) ** 2).sum() / norm
    cxp = (w * (x - mx) * (p - mp)).sum() / norm
    return mx, mp, math.sqrt(vx), math.sqrt(vp), cxp, 2.0 * math.sqrt(vx * vp - cxp**2)


class TestMoments:
    def test_uncorrelated_emittance_example(self):
        rho = gaussian_quasidist(WIDE_GRID, 1.0, 0.05)
        m = moments_of(rho)
        assert m.emittance == pytest.approx(0.1, rel=1e-9)
        mx, mp, sx, sp, cxp, emit = quadrature_moments(rho)
        assert m.sigma_x == pytest.approx(sx, rel=1e-12)
        assert m.sigma_p == pytest.approx(sp, rel=1e-12)
        assert m.sigma_xp == pytest.approx(cxp, abs=1e-12)
        assert m.emittance == pytest.approx(emit, rel=1e-12)

    def test_correlated_emittance_example(self):
        rho = gaussian_quasidist(WIDE_GRID, 1.0, 0.05, sigma_xp=0.03)
        m = moments_of(rho)
        assert m.emittance == pytest.approx(0.08, rel=1e-9)
        assert m.sigma_xp == pytest.approx(0.03, rel=1e-9)

    def test_representations_agree(self):
        psi = gaussian_wavefield(AxisGrid(512, 32.0), 1.0, EPS)
        rho = wigner_transform(psi, AxisGrid(128, 1.28))
        mw = moments_of(psi)
        mg = moments_of(rho)
        assert mw.sigma_x == pytest.approx(mg.sigma_x, abs=1e-12)
        assert mw.sigma_p == pytest.approx(mg.sigma_p, abs=1e-12)
        assert mw.sigma_xp == pytest.approx(mg.sigma_xp, abs=1e-12)
        assert mw.emittance == pytest.approx(mg.emittance, abs=1e-12)
        rays = sample_rays(gaussian_quasidist(WIDE_GRID, 1.0, 0.05), 200000, 7)
        mr = moments_of(rays)
        n = rays.count
        assert mr.sigma_x == pytest.approx(mw.sigma_x, abs=5.0 / math.sqrt(2 * n))
        assert mr.sigma_p == pytest.approx(mw.sigma_p, abs=5.0 * 0.05 / math.sqrt(2 * n))
        assert mr.emittance == pytest.approx(0.1, abs=2e-3)

    def test_wavefield_wigner_agree_after_evolution(self):
        psi = gaussian_wavefield(AxisGrid(512, 48.0), 1.0, EPS)
        traj = evolve_twm(psi, quartic_channel(0.2, 0.0), StepPlan(1e-3, 200))
        mw = moments_of(traj.final)
        mg = moments_of(wigner_transform(traj.final, AxisGrid(256, 4.0)))
        assert mw.emittance == pytest.approx(mg.emittance, abs=1e-8)
        assert mw.sigma_xp == pytest.approx(mg.sigma_xp, abs=1e-8)

    def test_unknown_state_type_rejected(self):
        with pytest.raises(TypeError, match="cannot take beam moments of object"):
            moments_of(object())


def momentum_map_moments(values, grid, eps):
    """Wavefield moments with the momentum density from ``_MomentumMap``.

    The three-FFT path the shared-spectrum moments replaced: ``|Phi(p)|^2``
    on the centred conjugate axis, and a separate FFT for the derivative.
    """
    x = grid.points()
    density = np.abs(values) ** 2
    norm = float(density.sum())
    mean_x = float(density @ x) / norm
    var_x = float(density @ (x - mean_x) ** 2) / norm
    momentum = _MomentumMap(grid, eps)
    p = momentum.p_axis.points()
    p_density = np.abs(momentum(values)) ** 2
    p_norm = float(p_density.sum())
    mean_p = float(p_density @ p) / p_norm
    var_p = float(p_density @ (p - mean_p) ** 2) / p_norm
    derivative = np.fft.ifft(1j * grid.frequencies() * np.fft.fft(values))
    current = eps * np.imag(np.conj(values) * derivative)
    cov_xp = float(current @ x) / norm - mean_x * mean_p
    emittance = 2.0 * math.sqrt(max(var_x * var_p - cov_xp**2, 0.0))
    return mean_x, mean_p, math.sqrt(var_x), math.sqrt(var_p), cov_xp, emittance


class TestSharedSpectrumMoments:
    # Bounds fixed before measuring: 1e-13 of each moment's own scale.  The
    # momentum density is the same |FFT|^2 cyclically shifted, so only the
    # summation order and the momentum samples' last bits differ.
    @settings(max_examples=40, deadline=None)
    @given(wavefields(), st.floats(-0.02, 0.02))
    def test_matches_momentum_map_path(self, field, chirp):
        psi, _ = field
        grid, eps = psi.grid, psi.epsilon
        # A quadratic phase correlates x and p, so sigma_xp is not zero.
        values = psi.values * np.exp(1j * chirp * (grid.points() - grid.center) ** 2 / eps)
        m = _WavefieldMoments(grid, eps)(values, 0.0)
        mean_x, mean_p, sigma_x, sigma_p, sigma_xp, emittance = momentum_map_moments(
            values, grid, eps
        )
        assert m.mean_x == mean_x
        assert m.sigma_x == sigma_x
        assert abs(m.mean_p - mean_p) <= 1e-13 * sigma_p
        assert abs(m.sigma_p - sigma_p) <= 1e-13 * sigma_p
        assert abs(m.emittance - emittance) <= 1e-13 * emittance
        assert abs(m.sigma_xp - sigma_xp) <= 1e-13 * sigma_x * sigma_p


class TestUncertainty:
    def test_minimal_state_sits_on_bound(self):
        m = moments_of(gaussian_wavefield(AxisGrid(512, 32.0), 1.0, EPS))
        report = uncertainty_check(m, EPS)
        assert report.bound == pytest.approx(EPS / 2.0)
        assert report.product == pytest.approx(report.bound, rel=1e-12)
        assert report.satisfied

    def test_understated_spread_flagged(self):
        m = BeamMoments(
            z=0.0, mean_x=0.0, mean_p=0.0,
            sigma_x=1.0, sigma_p=0.04, sigma_xp=0.0, emittance=0.08,
        )
        report = uncertainty_check(m, EPS)
        assert report.product == pytest.approx(0.04)
        assert report.bound == pytest.approx(0.05)
        assert not report.satisfied


class TestNegativity:
    def test_gaussian_reports_zero(self):
        rho = gaussian_quasidist(PhaseGrid(AxisGrid(256, 24.0), AxisGrid(64, 0.8)), 1.0, 0.05)
        report = negativity(rho)
        assert report.min_value >= 0.0
        assert report.negative_mass == 0.0
        assert report.negativity_volume == 0.0
        assert math.copysign(1.0, report.negativity_volume) == 1.0

    def test_classical_transport_stays_nonnegative(self):
        grid = PhaseGrid(AxisGrid(256, 10.0), AxisGrid(128, 5.12))
        mix = superposition_quasidist(grid, 0.5, 0.2, separation=2.0)
        spec = quartic_channel(1.0, 0.1)
        classical = evolve_phase_space(mix, spec, 0.2, StepPlan(1e-4, 200, max_order=1))
        report = negativity(classical.final)
        assert report.min_value >= -1e-10
        assert report.negativity_volume <= 1e-10

    def test_volume_is_twice_negative_mass(self):
        grid = PhaseGrid(AxisGrid(256, 10.0), AxisGrid(128, 5.12))
        mix = superposition_quasidist(grid, 0.5, 0.2, separation=2.0)
        moyal = evolve_phase_space(mix, quartic_channel(1.0, 0.1), 0.2, StepPlan(1e-4, 200))
        report = negativity(moyal.final)
        assert report.min_value < -1e-10
        assert report.negativity_volume == pytest.approx(2.0 * report.negative_mass, rel=1e-12)


class TestTruncationRatio:
    GRID = PhaseGrid(AxisGrid(128, 12.8), AxisGrid(64, 6.4))

    def test_quadratic_lattice_scores_zero(self):
        mix = superposition_quasidist(self.GRID, 0.4, 0.4, 4.0)
        assert truncation_ratio(mix, linear_lens(1.0), EPS) == 0.0

    def test_free_space_scores_nan(self):
        mix = superposition_quasidist(self.GRID, 0.4, 0.4, 4.0)
        for spec in (free_space(), PotentialSpec(((0, ConstantProfile(2.0)),))):
            assert math.isnan(truncation_ratio(mix, spec, EPS))

    @pytest.mark.parametrize(
        "spec", [linear_lens(0.0), quartic_channel(0.0, 0.0)], ids=["row_scan", "general"]
    )
    def test_zero_force_scores_nan(self, spec):
        mix = superposition_quasidist(self.GRID, 0.4, 0.4, 4.0)
        assert math.isnan(truncation_ratio(mix, spec, EPS))

    @staticmethod
    def defined_ratio(state, spec, eps):
        """||(G - G1) rho_tilde||_2 / ||G1 rho_tilde||_2 from the two public generators."""
        x = state.grid.x_axis.points()[:, None]
        y = state.grid.p_axis.frequencies()[None, :]
        rho_tilde = np.fft.fft(state.values, axis=1)
        g = moyal_generator(spec, x, y, state.z, eps)
        g1 = moyal_generator_truncated(spec, x, y, state.z, eps, 1)
        return np.linalg.norm((g - g1) * rho_tilde) / np.linalg.norm(g1 * rho_tilde)

    def test_quartic_score_scales_with_epsilon_squared(self):
        mix = superposition_quasidist(self.GRID, 0.4, 0.4, 4.0)
        spec = quartic_channel(1.0, 0.1)
        r1 = truncation_ratio(mix, spec, 0.1)
        r2 = truncation_ratio(mix, spec, 0.05)
        assert r1 == pytest.approx(self.defined_ratio(mix, spec, 0.1), rel=1e-9)
        assert r1 / r2 == pytest.approx(4.0, rel=1e-6)

    def test_degree_six_score_matches_definition(self):
        # Orders 3 and 5 of the shift series both contribute.
        mix = superposition_quasidist(self.GRID, 0.4, 0.4, 4.0)
        spec = PotentialSpec(
            ((2, ConstantProfile(0.5)), (4, ConstantProfile(0.1)), (6, ConstantProfile(0.02)))
        )
        for eps in (0.1, 0.05):
            ratio = truncation_ratio(mix, spec, eps)
            assert ratio == pytest.approx(self.defined_ratio(mix, spec, eps), rel=1e-9)


    @pytest.mark.parametrize(
        "terms, expected",
        [
            (((0, 2.0),), "nan"),
            (((1, 0.3),), "zero"),
            (((0, 1.0), (2, 0.5)), "zero"),
            (((2, 0.5), (3, 0.05)), "defined"),
            (((2, 0.5), (4, 0.1)), "defined"),
        ],
        ids=["degree-0", "degree-1", "degree-2", "degree-3", "degree-4"],
    )
    def test_classical_kick_scores_zero(self, terms, expected):
        # Degree <= 2 (PotentialSpec.kick_is_classical) leaves no deformation.
        mix = superposition_quasidist(self.GRID, 0.4, 0.4, 4.0)
        spec = PotentialSpec(tuple((power, ConstantProfile(c)) for power, c in terms))
        ratio = truncation_ratio(mix, spec, EPS)
        if expected == "nan":
            assert math.isnan(ratio)
        elif expected == "zero":
            assert spec.kick_is_classical and ratio == 0.0
        else:
            assert not spec.kick_is_classical
            assert ratio == pytest.approx(self.defined_ratio(mix, spec, EPS), rel=1e-9)
            assert ratio > 0.0


class TestThermalEmittance:
    def test_reference_mapping(self):
        t = emittance_from_thermal(0.01, 1.0)
        assert t.epsilon == pytest.approx(0.02)
        assert t.eta == pytest.approx(0.01)
        assert not t.paraxial_warning

    def test_scales_with_source_width(self):
        t = emittance_from_thermal(0.05, 2.0)
        assert t.epsilon == pytest.approx(0.2)
        assert not t.paraxial_warning

    def test_fast_thermal_motion_warns(self):
        assert emittance_from_thermal(0.5, 1.0).paraxial_warning

    @pytest.mark.parametrize("vth,sigma0", [(0.0, 1.0), (-0.1, 1.0), (0.01, 0.0), (math.nan, 1.0)])
    def test_invalid_inputs_rejected(self, vth, sigma0):
        with pytest.raises(StateError):
            emittance_from_thermal(vth, sigma0)
