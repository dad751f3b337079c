"""Split-step wavefield solver and the thermal wave model helper formulas."""

import math
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from step_checks import assert_freed_without_gc, assert_moments_close, count_ffts

from beamphase import (
    AxisGrid,
    BeamPhaseError,
    ConstantProfile,
    HarmonicProfile,
    PotentialSpec,
    SolverError,
    StepPlan,
    eval_potential,
    evolve_twm,
    free_gaussian_sigma,
    free_space,
    gaussian_wavefield,
    linear_lens,
    matched_width,
    moments_of,
    quartic_channel,
    step_twm,
    wigner_transform,
)
from beamphase import twm
from beamphase.diagnostics import _beam_moments
from beamphase.phasespace import _step_boundaries
from beamphase.states import NORM_TOL, WaveField
from beamphase.twm import _kinetic_phase, _TwmKernel

EPS = 0.1


def total_energy(field, spec):
    """Independent oracle: <(eps^2/2) k^2> + <U> by spectral differentiation."""
    k = field.grid.frequencies()
    dpsi = np.fft.ifft(1j * k * np.fft.fft(field.values))
    ekin = 0.5 * field.epsilon**2 * float(np.sum(np.abs(dpsi) ** 2) * field.grid.spacing)
    u = eval_potential(spec, field.grid.points(), field.z)
    epot = float(np.sum(u * field.density()) * field.grid.spacing)
    return ekin + epot


class TestFreePropagation:
    def test_spreading_law(self):
        psi = gaussian_wavefield(AxisGrid(512, 48.0), 1.0, EPS)
        out = evolve_twm(psi, free_space(), StepPlan(0.02, 1000))
        target = free_gaussian_sigma(1.0, EPS, 20.0)
        assert target == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert moments_of(out.final).sigma_x == pytest.approx(target, rel=1e-6)

    def test_norm_conserved(self):
        psi = gaussian_wavefield(AxisGrid(512, 48.0), 1.0, EPS)
        out = evolve_twm(psi, free_space(), StepPlan(0.02, 1000), snapshot_every=100)
        for snap in out.snapshots:
            mass = float(np.sum(snap.density()) * snap.grid.spacing)
            assert abs(mass - 1.0) <= 1e-12

    def test_zero_steps_identity(self):
        psi = gaussian_wavefield(AxisGrid(512, 48.0), 1.0, EPS)
        out = evolve_twm(psi, free_space(), StepPlan(0.02, 0))
        np.testing.assert_array_equal(out.final.values, psi.values)

    def test_wigner_emittance_invariant(self):
        psi = gaussian_wavefield(AxisGrid(512, 48.0), 1.0, EPS)
        p_axis = AxisGrid(128, 1.28)
        em0 = moments_of(wigner_transform(psi, p_axis)).emittance
        out = evolve_twm(psi, free_space(), StepPlan(0.02, 500))
        em1 = moments_of(wigner_transform(out.final, p_axis, 1e-9)).emittance
        assert em1 == pytest.approx(em0, rel=1e-6)


class TestConstantPotentialGauge:
    def test_global_phase_only(self):
        # Relative to free evolution, a constant potential contributes the
        # global phase exp(-i c z / eps) and leaves the density untouched.
        c = 0.7
        psi = gaussian_wavefield(AxisGrid(256, 24.0), 1.0, EPS)
        plan = StepPlan(0.05, 40)
        free_out = evolve_twm(psi, free_space(), plan)
        const_out = evolve_twm(psi, PotentialSpec(((0, ConstantProfile(c)),)), plan)
        np.testing.assert_allclose(
            const_out.final.density(), free_out.final.density(), atol=1e-14
        )
        phase = np.exp(-1j * c * 2.0 / EPS)
        scale = np.abs(free_out.final.values).max()
        np.testing.assert_allclose(
            const_out.final.values, phase * free_out.final.values, atol=1e-12 * scale
        )


class TestLens:
    def test_matched_beam_width_constant(self):
        sig = matched_width(linear_lens(1.0), EPS)
        psi = gaussian_wavefield(AxisGrid(256, 6.4), sig, EPS)
        n = 16384
        out = evolve_twm(
            psi, linear_lens(1.0), StepPlan(2.0 * math.pi / n, n), snapshot_every=n // 16
        )
        drift = max(abs(m.sigma_x - sig) for m in out.moments)
        assert drift <= 1e-8

    def test_energy_conserved_second_order(self):
        spec = quartic_channel(1.0, 0.1)
        psi = gaussian_wavefield(AxisGrid(256, 12.8), 0.4, EPS)
        e0 = total_energy(psi, spec)
        drifts = {}
        for n in (200, 400):
            out = evolve_twm(psi, spec, StepPlan(0.4 / n, n))
            drifts[n] = abs(total_energy(out.final, spec) - e0)
        assert drifts[200] <= 1e-6
        assert 3.5 <= drifts[200] / drifts[400] <= 4.5

    def test_second_order_convergence(self):
        spec = quartic_channel(1.0, 0.1)
        psi = gaussian_wavefield(AxisGrid(256, 12.8), 0.4, EPS)
        finals = {}
        for f in (1, 2, 8):
            n = 100 * f
            finals[f] = evolve_twm(psi, spec, StepPlan(0.4 / n, n)).final.values
        e1 = np.abs(finals[1] - finals[8]).max()
        e2 = np.abs(finals[2] - finals[8]).max()
        assert 3.5 <= e1 / e2 <= 4.5


class TestMatchedWidth:
    def test_reference_values(self):
        assert matched_width(linear_lens(1.0), 0.1) == pytest.approx(math.sqrt(0.05), rel=1e-12)
        assert matched_width(linear_lens(4.0), 0.1) == pytest.approx(math.sqrt(0.025), rel=1e-12)

    def test_defocusing_rejected(self):
        with pytest.raises(BeamPhaseError):
            matched_width(linear_lens(0.0), 0.1)
        with pytest.raises(BeamPhaseError):
            matched_width(linear_lens(-1.0), 0.1)

    def test_non_quadratic_rejected(self):
        with pytest.raises(BeamPhaseError):
            matched_width(quartic_channel(1.0, 0.1), 0.1)
        with pytest.raises(BeamPhaseError):
            matched_width(free_space(), 0.1)

    def test_z_varying_focusing_rejected(self):
        spec = PotentialSpec(((2, HarmonicProfile(0.5, omega=1.0)),))
        with pytest.raises(BeamPhaseError):
            matched_width(spec, 0.1)


class TestFreeGaussianSigma:
    def test_initial_condition(self):
        assert free_gaussian_sigma(1.3, 0.1, 0.0) == 1.3

    def test_doubling_point(self):
        assert free_gaussian_sigma(1.0, 0.1, 20.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_zero_emittance_never_spreads(self):
        assert free_gaussian_sigma(1.0, 0.0, 1e6) == 1.0

    def test_contract(self):
        with pytest.raises(BeamPhaseError):
            free_gaussian_sigma(0.0, 0.1, 1.0)


class TestGuards:
    def test_kinetic_phase_overflow(self):
        psi = gaussian_wavefield(AxisGrid(512, 12.8), 0.4, EPS)
        with pytest.raises(SolverError, match="kinetic phase overflow"):
            step_twm(psi, free_space(), StepPlan(1.0, 1))

    def test_step_error_context(self):
        psi = gaussian_wavefield(AxisGrid(512, 12.8), 0.4, EPS)
        with pytest.raises(SolverError, match="kinetic phase overflow"):
            evolve_twm(psi, free_space(), StepPlan(1.0, 3))

    def test_zero_steps_check_no_guard(self):
        # dz = 1 aliases on this grid (see above), but a plan without steps
        # never applies the kinetic phase.
        psi = gaussian_wavefield(AxisGrid(512, 12.8), 0.4, EPS)
        out = evolve_twm(psi, free_space(), StepPlan(1.0, 0))
        assert out.snapshot_steps == (0,)
        np.testing.assert_array_equal(out.final.values, psi.values)


class TestTrajectoryBookkeeping:
    def test_snapshot_cadence(self):
        psi = gaussian_wavefield(AxisGrid(256, 24.0), 1.0, EPS)
        out = evolve_twm(psi, free_space(), StepPlan(0.02, 10), snapshot_every=3)
        assert out.snapshot_steps == (0, 3, 6, 9, 10)
        assert len(out.moments) == 11
        assert out.final.z == pytest.approx(0.2)


def retransform_reference(psi, spec, plan):
    """Strang steps that transform every field afresh, for its moments too.

    This is the step before the solver kept the spectrum across the step
    boundary: ``ifft(fft(psi) * kinetic)`` between half potential phases,
    and moments from :func:`moments_of`, which takes the FFT again.  Returns
    the moments at every step and the final field.
    """
    grid, eps, dz = psi.grid, psi.epsilon, plan.dz
    kinetic = np.exp(-1j * (0.5 * eps * dz) * grid.frequencies() ** 2)
    zs = psi.z + dz * np.arange(plan.n_steps + 1)
    values = psi.values
    moments = [moments_of(psi)]
    for step in range(plan.n_steps):
        u = eval_potential(spec, grid.points(), zs[step] + 0.5 * dz)
        half = np.exp(-1j * u * (0.5 * dz / eps))
        values = np.fft.ifft(np.fft.fft(values * half) * kinetic) * half
        moments.append(moments_of(WaveField(grid, values, eps, zs[step + 1])))
    return moments, values


class TestHeldSpectrum:
    # The free-space step keeps the spectrum of the fields it returns: the
    # moments and the next step reuse it instead of transforming again.
    def test_free_space_step_takes_two_ffts(self, monkeypatch):
        psi = gaussian_wavefield(AxisGrid(512, 48.0), 1.0, EPS)
        calls = count_ffts(monkeypatch, rows=True)
        n = 2 * twm.BLOCK_ELEMENTS // 512 + 3  # not a multiple of the block
        evolve_twm(psi, free_space(), StepPlan(4e-3, n))
        # Counted in 1-D transforms, however the blocks batch them.  Initial
        # moments take fft + ifft, the first step one fft; then each step
        # takes an ifft to the field and one to the moments' derivative.
        assert calls == Counter(fft=2, ifft=2 * n + 1)

    def test_potential_step_keeps_four_ffts(self, monkeypatch):
        psi = gaussian_wavefield(AxisGrid(256, 12.8), 0.4, EPS)
        calls = count_ffts(monkeypatch)
        n = 20
        evolve_twm(psi, quartic_channel(1.0, 0.1), StepPlan(2e-3, n))
        assert calls == Counter(fft=2 * n + 1, ifft=2 * n + 1)

    @pytest.mark.parametrize(
        "grid, sigma, spec, plan",
        [
            (AxisGrid(512, 48.0), 1.0, free_space(), StepPlan(4e-3, 5000)),
            (AxisGrid(256, 12.8), 0.4, quartic_channel(1.0, 0.1), StepPlan(2e-3, 500)),
        ],
        ids=["free", "quartic"],
    )
    def test_matches_retransform_reference(self, grid, sigma, spec, plan):
        psi = gaussian_wavefield(grid, sigma, EPS)
        run = evolve_twm(psi, spec, plan)
        moments, final = retransform_reference(psi, spec, plan)
        assert_moments_close(run.moments, moments, 1e-11)
        assert np.abs(run.final.values - final).max() <= 1e-11 * np.abs(final).max()

    @pytest.mark.parametrize(
        "spec", [free_space(), quartic_channel(1.0, 0.1)], ids=["free", "quartic"]
    )
    def test_copy_of_last_output_steps_as_in_a_fresh_kernel(self, spec):
        psi = gaussian_wavefield(AxisGrid(256, 12.8), 0.4, EPS)
        plan = StepPlan(2e-3, 10)
        kernel = _TwmKernel(psi, spec, plan)
        values = psi.values
        for step in range(5):
            values = kernel.advance(values, step * plan.dz)
        z = 5 * plan.dz
        copy = values.copy()
        fresh = _TwmKernel(psi, spec, plan)
        assert kernel.measure(copy, z) == fresh.measure(copy, z)
        assert kernel.advance(copy, z).tobytes() == fresh.advance(copy, z).tobytes()

    @pytest.mark.parametrize(
        "spec", [free_space(), quartic_channel(1.0, 0.1)], ids=["free", "quartic"]
    )
    def test_kernel_freed_without_garbage_collection(self, spec):
        psi = gaussian_wavefield(AxisGrid(256, 12.8), 0.4, EPS)

        def two_steps():
            kernel = _TwmKernel(psi, spec, StepPlan(2e-3, 2))
            kernel.advance(kernel.advance(psi.values, 0.0), 2e-3)
            return kernel

        assert_freed_without_gc(two_steps)


def held_spectrum_steps(psi, plan):
    """Free-space steps one at a time, each field measured on its own.

    The first step transforms the field; then every step multiplies the
    spectrum in place by the kinetic phase and inverts it, and the moments
    read that spectrum with 1-D reductions.  Returns the moments and the
    field of every step, step 0 included.
    """
    grid, eps = psi.grid, psi.epsilon
    kinetic = _kinetic_phase(grid, eps, plan.dz) if plan.n_steps else None
    x, k = grid.points(), grid.frequencies()
    p = eps * k

    def measure(values, spectrum, z):
        density = np.abs(values) ** 2
        norm = float(density.sum())
        mean_x = float(density @ x) / norm
        var_x = float(density @ (x - mean_x) ** 2) / norm
        p_density = np.abs(spectrum) ** 2
        p_norm = float(p_density.sum())
        mean_p = float(p_density @ p) / p_norm
        var_p = float(p_density @ (p - mean_p) ** 2) / p_norm
        derivative = np.fft.ifft(1j * k * spectrum)
        current = eps * np.imag(np.conj(values) * derivative)
        cov_xp = float(current @ x) / norm - mean_x * mean_p
        return _beam_moments(z, mean_x, mean_p, var_x, var_p, cov_xp)

    zs = _step_boundaries(psi.z, plan)
    values = psi.values
    spectrum = np.fft.fft(values)
    moments, fields = [measure(values, spectrum, zs[0])], [values]
    for z in zs[1:]:
        spectrum *= kinetic
        values = np.fft.ifft(spectrum)
        moments.append(measure(values, spectrum, z))
        fields.append(values)
    return moments, fields


def moment_bytes(moments):
    return np.array([astuple(m) for m in moments]).tobytes()


class TestFreeSpaceBlocks:
    # A free-space run steps in blocks of BLOCK steps; the results must be
    # those of taking the steps one at a time, bit for bit, and a failing
    # check must still name its own step.
    GRID = AxisGrid(512, 48.0)
    BLOCK = twm.BLOCK_ELEMENTS // 512
    DZ = 4e-3

    @pytest.mark.parametrize(
        "n_steps, every",
        [(2 * BLOCK + 3, 7), (BLOCK, BLOCK), (BLOCK + 1, 5), (3, None)],
        ids=["uneven", "one_block", "block_plus_one", "short"],
    )
    def test_matches_steps_taken_one_at_a_time(self, n_steps, every):
        psi = gaussian_wavefield(self.GRID, 1.0, EPS, x0=0.5, p0=0.05)
        plan = StepPlan(self.DZ, n_steps)
        run = evolve_twm(psi, free_space(), plan, snapshot_every=every)
        moments, fields = held_spectrum_steps(psi, plan)
        assert moment_bytes(run.moments) == moment_bytes(moments)
        assert run.snapshot_steps[-1] == n_steps
        for step, snap in zip(run.snapshot_steps, run.snapshots):
            assert snap.values.tobytes() == fields[step].tobytes()

    def test_zero_steps(self):
        psi = gaussian_wavefield(self.GRID, 1.0, EPS)
        run = evolve_twm(psi, free_space(), StepPlan(self.DZ, 0))
        moments, _ = held_spectrum_steps(psi, StepPlan(self.DZ, 0))
        assert moment_bytes(run.moments) == moment_bytes(moments)
        assert run.final is psi

    def test_step_twm(self):
        psi = gaussian_wavefield(self.GRID, 1.0, EPS, x0=0.5)
        plan = StepPlan(self.DZ, 1)
        _, fields = held_spectrum_steps(psi, plan)
        assert step_twm(psi, free_space(), plan).values.tobytes() == fields[1].tobytes()

    def plant_growth(self, monkeypatch, per_step_norm):
        """Scale the kinetic phase so that each step multiplies the norm by ``per_step_norm``."""
        original = twm._kinetic_phase
        scale = math.sqrt(per_step_norm)
        monkeypatch.setattr(
            twm, "_kinetic_phase", lambda *args: scale * original(*args)
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "failing", [1, BLOCK // 2 + 3, BLOCK, BLOCK + 1], ids=["first", "mid", "last", "next"]
    )
    def test_norm_failure_names_its_step(self, monkeypatch, failing):
        psi = gaussian_wavefield(self.GRID, 1.0, EPS)
        norm0 = float(np.sum(psi.density())) * self.GRID.spacing
        # The norm crosses 1 + NORM_TOL half a step before step `failing`.
        self.plant_growth(monkeypatch, ((1.0 + NORM_TOL) / norm0) ** (1.0 / (failing - 0.5)))
        n = 2 * self.BLOCK + 3
        with pytest.raises(SolverError, match=rf"^step {failing}/{n}: wavefield norm is "):
            evolve_twm(psi, free_space(), StepPlan(self.DZ, n))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_later_in_the_block_does_not_warn(self, monkeypatch):
        # The block's later fields overflow to inf and nan while it is built;
        # the run must still fail at step 1, on its norm, without a warning.
        psi = gaussian_wavefield(self.GRID, 1.0, EPS)
        self.plant_growth(monkeypatch, 1e200)
        n = self.BLOCK
        assert n >= 4  # the spectra overflow from the fourth row on
        with pytest.raises(SolverError, match=rf"^step 1/{n}: wavefield norm is [0-9.]+e\+(199|200),"):
            evolve_twm(psi, free_space(), StepPlan(self.DZ, n))

    @pytest.mark.parametrize("nx, length", [(64, 48.0), (512, 48.0), (1 << 17, 12288.0)])
    def test_block_memory_does_not_grow_with_the_grid(self, nx, length):
        psi = gaussian_wavefield(AxisGrid(nx, length), 1.0, EPS)
        kernel = _TwmKernel(psi, free_space(), StepPlan(self.DZ, 5000))
        kernel.advance(psi.values, 0.0)
        assert kernel.fields.shape == (max(1, twm.BLOCK_ELEMENTS // nx), nx)
