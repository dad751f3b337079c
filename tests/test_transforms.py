"""Wigner transform, momentum representation, and tomographic projections."""

import math

import numpy as np
import pytest
from beam_corpus import wavefields
from hypothesis import given, settings

from beamphase import (
    AxisGrid,
    PhaseGrid,
    StateError,
    StepPlan,
    TransformError,
    evolve_twm,
    gaussian_wavefield,
    linear_lens,
    moments_of,
    momentum_wavefield,
    negativity,
    superposition_wavefield,
    tomogram,
    tomogram_axis,
    wigner_transform,
)
from beamphase import transforms
from beamphase.transforms import _WignerMap

EPS = 0.1
XGRID = AxisGrid(512, 32.0)
PGRID = AxisGrid(128, 1.28)

CAT_XGRID = AxisGrid(512, 48.0)
CAT_PGRID = AxisGrid(256, 4.0)

# Frozen oracle: the defining correlation integral of the two-peak
# superposition (sigma=1, separation=4, eps=0.1) evaluated at grid nodes by
# adaptive quadrature of the analytic wavefunction (agreement measured at
# ~1e-14, quadrature error estimate ~1e-13).
CAT_ORACLE = (
    (0.0, 0.0, 3.183098861838e00),
    (0.0, 0.03125, 1.039320742715e00),
    (1.96875, 0.0, 1.805389332314e00),
    (1.03125, 0.0625, -1.963204774487e-01),
    (0.0, 0.078125, -7.150887631107e-01),
)

# Frozen regression for the same state: negative fringes are a stable
# grid-level signature (values recorded from the build-time reference run).
CAT_MIN_VALUE = -8.546388960291e-01
CAT_NEGATIVITY_VOLUME = 2.073384357085e-01


def cat_state():
    psi = superposition_wavefield(CAT_XGRID, 1.0, 4.0, EPS)
    return wigner_transform(psi, CAT_PGRID)


class TestGaussianWigner:
    def test_closed_form(self):
        psi = gaussian_wavefield(XGRID, 1.0, EPS)
        rho = wigner_transform(psi, PGRID)
        xm = XGRID.points()[:, None]
        pm = PGRID.points()[None, :]
        closed = (1.0 / (math.pi * EPS)) * np.exp(-(xm**2) / 2.0 - 2.0 * pm**2 / EPS**2)
        np.testing.assert_allclose(rho.values, closed, atol=5e-14)
        assert rho.kind == "wigner"

    def test_marginals_and_mass(self):
        psi = gaussian_wavefield(XGRID, 1.0, EPS)
        rho = wigner_transform(psi, PGRID)
        x_marginal = rho.values.sum(axis=1) * PGRID.spacing
        np.testing.assert_allclose(x_marginal, psi.density(), atol=1e-10)
        phi = momentum_wavefield(psi, PGRID)
        p_marginal = rho.values.sum(axis=0) * XGRID.spacing
        np.testing.assert_allclose(p_marginal, phi.density(), atol=1e-10)
        assert rho.mass == pytest.approx(1.0, abs=1e-10)

    def test_minimal_uncertainty_emittance(self):
        psi = gaussian_wavefield(XGRID, 1.0, EPS)
        rho = wigner_transform(psi, PGRID)
        assert moments_of(rho).emittance == pytest.approx(EPS, rel=1e-9)

    def test_translation_covariance(self):
        shift = 8
        base = wigner_transform(gaussian_wavefield(XGRID, 1.0, EPS), PGRID)
        moved = wigner_transform(
            gaussian_wavefield(XGRID, 1.0, EPS, p0=shift * PGRID.spacing), PGRID
        )
        np.testing.assert_allclose(
            moved.values, np.roll(base.values, shift, axis=1), atol=1e-13
        )

    def test_everywhere_nonnegative(self):
        psi = gaussian_wavefield(XGRID, 1.0, EPS)
        rho = wigner_transform(psi, PGRID)
        assert rho.values.min() >= -1e-13


class TestCatWigner:
    def test_quadrature_oracle_nodes(self):
        rho = cat_state()
        x = CAT_XGRID.points()
        p = CAT_PGRID.points()
        for xv, pv, expected in CAT_ORACLE:
            i = int(np.argmin(np.abs(x - xv)))
            j = int(np.argmin(np.abs(p - pv)))
            assert rho.values[i, j] == pytest.approx(expected, abs=1e-9)

    def test_negative_fringes_regression(self):
        rho = cat_state()
        report = negativity(rho)
        assert report.min_value == pytest.approx(CAT_MIN_VALUE, rel=1e-9)
        assert report.negativity_volume == pytest.approx(CAT_NEGATIVITY_VOLUME, rel=1e-9)

    def test_marginal_identity_still_holds(self):
        rho = cat_state()
        psi = superposition_wavefield(CAT_XGRID, 1.0, 4.0, EPS)
        x_marginal = rho.values.sum(axis=1) * CAT_PGRID.spacing
        np.testing.assert_allclose(x_marginal, psi.density(), atol=1e-10)


class TestTransformContract:
    def test_correlation_exceeding_quarter_box_rejected(self):
        # sigma = 0.5 on a length-12.8 box: correlation support 7.43 * sigma
        # = 3.7 exceeds L/4 = 3.2, so the marginal identity must fail loudly.
        psi = gaussian_wavefield(AxisGrid(256, 12.8), 0.5, 0.2)
        with pytest.raises(TransformError, match="marginal identity defect"):
            wigner_transform(psi, AxisGrid(128, 6.4))

    def test_loosened_tolerance_accepts(self):
        psi = gaussian_wavefield(AxisGrid(256, 12.8), 0.5, 0.2)
        rho = wigner_transform(psi, AxisGrid(128, 6.4), marginal_tol=1e-7)
        assert rho.mass == pytest.approx(1.0, abs=1e-7)


def two_table_reference(psi, p_axis):
    """The direct Wigner transform that ``_WignerMap`` replaced.

    Rebuilds both shift tables ``exp(+-i s k)`` and inverse-transforms each
    of them on every call; returns the real part without the realness and
    marginal checks.
    """
    grid = psi.grid
    eps = psi.epsilon
    n_p = p_axis.n
    ds = math.pi * eps / p_axis.length
    s = np.fft.fftfreq(n_p, d=1.0 / n_p) * ds
    keep = np.abs(s) <= 0.25 * grid.length
    keep[n_p // 2] = False
    s_kept = s[keep]
    k = grid.frequencies()
    spectrum = np.fft.fft(psi.values)
    plus = np.fft.ifft(spectrum[None, :] * np.exp(1j * np.outer(s_kept, k)), axis=1)
    minus = np.fft.ifft(spectrum[None, :] * np.exp(-1j * np.outer(s_kept, k)), axis=1)
    p0 = p_axis.points()[0]
    corr = np.zeros((n_p, grid.n), dtype=complex)
    corr[keep] = np.multiply(np.conj(minus), plus) * np.exp(-2j * p0 * s_kept / eps)[:, None]
    values = np.fft.fft(corr, axis=0) * (ds / (math.pi * eps))
    return np.ascontiguousarray(values.transpose().real)


class TestWignerMap:
    @settings(max_examples=25, deadline=None)
    @given(wavefields())
    def test_bitwise_equal_to_two_table_reference(self, field):
        psi, p_axis = field
        rho = wigner_transform(psi, p_axis)
        np.testing.assert_array_equal(rho.values, two_table_reference(psi, p_axis))

    def test_reused_map_equals_fresh_transforms(self):
        wigner = _WignerMap(CAT_XGRID, EPS, CAT_PGRID)
        fields = (
            gaussian_wavefield(CAT_XGRID, 1.0, EPS),
            gaussian_wavefield(CAT_XGRID, 0.8, EPS, x0=1.5, p0=-0.1),
            superposition_wavefield(CAT_XGRID, 1.0, 4.0, EPS),
            superposition_wavefield(CAT_XGRID, 0.7, 2.5, EPS, x0=-1.0, p0=0.2),
        )
        for psi in fields:
            reused = wigner(psi, transforms.MARGINAL_TOL)
            fresh = wigner_transform(psi, CAT_PGRID)
            np.testing.assert_array_equal(reused.values, fresh.values)
            assert (reused.grid, reused.z, reused.kind) == (fresh.grid, fresh.z, fresh.kind)

    def test_reused_map_keeps_the_realness_check(self, monkeypatch):
        wigner = _WignerMap(XGRID, EPS, PGRID)
        psi = gaussian_wavefield(XGRID, 1.0, EPS, x0=0.3, p0=0.02)
        wigner(psi, transforms.MARGINAL_TOL)
        monkeypatch.setattr(transforms, "REALNESS_TOL", 0.0)
        with pytest.raises(TransformError, match="imaginary residue"):
            wigner(psi, transforms.MARGINAL_TOL)

    def test_reused_map_keeps_the_marginal_check(self):
        # The quarter-box case of TestTransformContract, after a field that passes.
        wigner = _WignerMap(AxisGrid(256, 12.8), 0.2, AxisGrid(128, 6.4))
        wigner(gaussian_wavefield(AxisGrid(256, 12.8), 0.3, 0.2), transforms.MARGINAL_TOL)
        with pytest.raises(TransformError, match="marginal identity defect"):
            wigner(gaussian_wavefield(AxisGrid(256, 12.8), 0.5, 0.2), transforms.MARGINAL_TOL)

    def test_reused_map_after_a_failed_call_equals_fresh_transform(self):
        # The failing call fills both work arrays before its marginal check
        # raises; the next call must read none of what it left, including the
        # dropped correlation rows that its in-place FFT overwrote.
        x_axis, p_axis = AxisGrid(256, 12.8), AxisGrid(128, 6.4)
        wigner = _WignerMap(x_axis, 0.2, p_axis)
        assert 2 * wigner.half + 1 < p_axis.n - 1  # rows beyond |s| = L/4 are dropped
        with pytest.raises(TransformError, match="marginal identity defect"):
            wigner(gaussian_wavefield(x_axis, 0.5, 0.2), transforms.MARGINAL_TOL)
        psi = gaussian_wavefield(x_axis, 0.3, 0.2, x0=0.4, p0=0.3)
        reused = wigner(psi, transforms.MARGINAL_TOL)
        np.testing.assert_array_equal(reused.values, wigner_transform(psi, p_axis).values)

    def test_fft_without_out_argument_gives_the_same_bits(self, monkeypatch):
        # numpy.fft before numpy 2.0 has no out=; the map then writes each
        # work-array transform back through a temporary, with the same values.
        psi = superposition_wavefield(CAT_XGRID, 0.7, 2.5, EPS, x0=-1.0, p0=0.2)
        expected = wigner_transform(psi, CAT_PGRID).values

        def without_out(transform):
            def call(a, n=None, axis=-1, norm=None):
                return transform(a, n, axis, norm)

            return call

        monkeypatch.setattr(transforms, "_FFT_TAKES_OUT", False)
        monkeypatch.setattr(np.fft, "fft", without_out(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", without_out(np.fft.ifft))
        np.testing.assert_array_equal(wigner_transform(psi, CAT_PGRID).values, expected)

    def test_reused_map_keeps_the_momentum_norm_check(self):
        # The README example with a K = 1 lens: the beam focuses to a waist
        # whose momentum spread outgrows AxisGrid(256, 4.0).
        x_axis = AxisGrid(512, 48.0)
        psi = gaussian_wavefield(x_axis, sigma=1.0, epsilon=0.1)
        wigner = _WignerMap(x_axis, 0.1, AxisGrid(256, 4.0))
        wigner(psi, transforms.MARGINAL_TOL)
        run = evolve_twm(psi, linear_lens(1.0), StepPlan(dz=0.01, n_steps=1000))
        with pytest.raises(StateError, match="wavefield norm"):
            wigner(run.final, transforms.MARGINAL_TOL)


class TestMomentumWavefield:
    def test_gaussian_width(self):
        psi = gaussian_wavefield(XGRID, 1.0, EPS)
        phi = momentum_wavefield(psi, PGRID)
        sigma_p = EPS / 2.0
        expected = np.exp(-PGRID.points() ** 2 / (4.0 * sigma_p**2))
        expected /= math.sqrt(float(np.sum(expected**2)) * PGRID.spacing)
        np.testing.assert_allclose(np.abs(phi.values), expected, atol=1e-12)

    def test_real_even_maps_to_real_even(self):
        psi = gaussian_wavefield(XGRID, 1.0, EPS)
        phi = momentum_wavefield(psi, PGRID)
        peak = np.abs(phi.values).max()
        assert np.abs(phi.values.imag).max() <= 1e-12 * peak
        vals = phi.values.real
        np.testing.assert_allclose(vals[1:], vals[1:][::-1], atol=1e-12 * peak)

    def test_parseval(self):
        psi = gaussian_wavefield(XGRID, 1.0, EPS)
        for phi in (momentum_wavefield(psi), momentum_wavefield(psi, PGRID)):
            mass = float(np.sum(phi.density()) * phi.grid.spacing)
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_default_axis_is_scaled_conjugate(self):
        psi = gaussian_wavefield(XGRID, 1.0, EPS)
        phi = momentum_wavefield(psi)
        assert phi.grid.n == XGRID.n
        assert phi.grid.length == pytest.approx(2.0 * math.pi * EPS * XGRID.n / XGRID.length)


class TestTomogram:
    def gaussian_rho(self):
        return wigner_transform(gaussian_wavefield(XGRID, 1.0, EPS), PGRID)

    @pytest.mark.parametrize(
        "mu,nu",
        [(1.0, 0.0), (0.0, 1.0), (math.cos(math.pi / 4), math.sin(math.pi / 4)), (math.cos(1.1), math.sin(1.1))],
    )
    def test_gaussian_closed_form(self, mu, nu):
        # The projection of a Gaussian phase-space density onto
        # X = mu x + nu p is the normal density with variance
        # mu^2 sigma_x^2 + nu^2 sigma_p^2.
        tm = tomogram(self.gaussian_rho(), mu, nu)
        var = mu**2 * 1.0 + nu**2 * 0.05**2
        xs = tm.axis.points()
        expected = np.exp(-(xs**2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        np.testing.assert_allclose(tm.values, expected, atol=1e-12)

    def test_axis_collapse_to_marginals(self):
        rho = cat_state()
        tm_x = tomogram(rho, 1.0, 0.0, axis=rho.grid.x_axis)
        np.testing.assert_allclose(
            tm_x.values, rho.values.sum(axis=1) * rho.grid.p_axis.spacing, atol=1e-12
        )
        tm_p = tomogram(rho, 0.0, 1.0, axis=rho.grid.p_axis)
        np.testing.assert_allclose(
            tm_p.values, rho.values.sum(axis=0) * rho.grid.x_axis.spacing, atol=1e-12
        )

    def test_cat_sweep_positive_and_normalized(self):
        rho = cat_state()
        assert negativity(rho).negativity_volume > 0.01
        for k in range(16):
            theta = math.pi * k / 16.0
            tm = tomogram(rho, math.cos(theta), math.sin(theta))
            assert tm.values.min() >= -1e-9
            assert tm.mass == pytest.approx(1.0, abs=1e-8)

    def test_direction_contract(self):
        rho = self.gaussian_rho()
        with pytest.raises(TransformError):
            tomogram(rho, 0.0, 0.0)
        with pytest.raises(TransformError):
            tomogram(rho, math.nan, 1.0)

    def test_realness_check_refuses(self, monkeypatch):
        rho = self.gaussian_rho()
        tomogram(rho, 0.6, 0.8)
        monkeypatch.setattr(transforms, "REALNESS_TOL", 0.0)
        with pytest.raises(TransformError, match="tomogram imaginary residue"):
            tomogram(rho, 0.6, 0.8)

    def test_default_axis_spans_projected_box(self):
        rho = self.gaussian_rho()
        axis = tomogram_axis(rho.grid, 0.6, 0.8)
        assert axis.length == pytest.approx(0.6 * 32.0 + 0.8 * 1.28)
