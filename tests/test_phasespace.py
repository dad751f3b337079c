"""Grid solvers for the deformed and classical transport equations, plus rays."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from step_checks import assert_freed_without_gc, assert_moments_close, count_ffts

from beamphase import (
    AxisGrid,
    ConstantProfile,
    HarmonicProfile,
    PhaseGrid,
    PotentialSpec,
    QuasiDistribution,
    RayEnsemble,
    SolverError,
    StepPlan,
    evolve_phase_space,
    evolve_twm,
    eval_gradient,
    free_space,
    gaussian_quasidist,
    gaussian_wavefield,
    linear_lens,
    moments_of,
    moyal_generator,
    moyal_generator_truncated,
    quartic_channel,
    sample_rays,
    superposition_quasidist,
    trace_rays,
)
from beamphase import phasespace, twm
from beamphase.diagnostics import _beam_moments
from beamphase.phasespace import STEP_REALNESS_TOL, _evolve, _GridKernel, _step_boundaries

EPS = 0.1
FREE_GRID = PhaseGrid(AxisGrid(256, 24.0), AxisGrid(64, 0.8))
LENS_GRID = PhaseGrid(AxisGrid(128, 6.4), AxisGrid(64, 3.84))
QUARTIC_GRID = PhaseGrid(AxisGrid(128, 12.8), AxisGrid(64, 6.4))
HARMONIC_LENS = PotentialSpec(((2, HarmonicProfile(0.5, 3.0)),))
LENS_WITH_X1 = PotentialSpec(((1, HarmonicProfile(0.3, 2.0)), (2, ConstantProfile(0.5))))


class TestStepPlan:
    def test_defaults(self):
        plan = StepPlan(0.01, 10)
        assert plan.max_order is None
        assert not plan.is_classical

    def test_truncated_defaults_to_classical(self):
        plan = StepPlan(0.01, 10, max_order=1)
        assert plan.max_order == 1
        assert plan.is_classical

    def test_higher_truncation_not_classical(self):
        assert not StepPlan(0.01, 10, max_order=3).is_classical

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dz=0.0, n_steps=1),
            dict(dz=-0.1, n_steps=1),
            dict(dz=math.nan, n_steps=1),
            dict(dz=0.1, n_steps=-1),
            dict(dz=0.1, n_steps=1, max_order=2),
            dict(dz=0.1, n_steps=1, max_order=0),
            dict(dz=0.1, n_steps=1, max_order=True),
        ],
    )
    def test_contract(self, kwargs):
        with pytest.raises(SolverError):
            StepPlan(**kwargs)

    def test_mode_string_in_the_order_slot_is_refused(self):
        with pytest.raises(SolverError, match="max_order must be an integer, got 'truncated'"):
            StepPlan(0.1, 1, "truncated")


class TestFreeSpace:
    def test_shear_builds_correlation(self):
        # Free streaming: sigma_xp(z) = sigma_p^2 * z, so 0.05^2 * 10 = 0.025.
        rho = gaussian_quasidist(FREE_GRID, 1.0, 0.05)
        out = evolve_phase_space(rho, free_space(), EPS, StepPlan(0.1, 100))
        assert moments_of(out.final).sigma_xp == pytest.approx(0.025, abs=1e-6)
        assert out.final.z == pytest.approx(10.0)

    def test_mass_conserved(self):
        rho = gaussian_quasidist(FREE_GRID, 1.0, 0.05)
        out = evolve_phase_space(rho, free_space(), EPS, StepPlan(0.01, 1000), snapshot_every=100)
        assert max(abs(s.mass - 1.0) for s in out.snapshots) <= 1e-12

    def test_zero_steps_identity(self):
        rho = gaussian_quasidist(FREE_GRID, 1.0, 0.05)
        out = evolve_phase_space(rho, free_space(), EPS, StepPlan(0.1, 0))
        np.testing.assert_array_equal(out.final.values, rho.values)
        assert len(out.moments) == 1


class TestQuadraticEquivalence:
    @pytest.mark.parametrize("spec", [free_space(), linear_lens(1.0)], ids=["free", "lens"])
    def test_lockstep_full_vs_truncated(self, spec):
        rho_full = gaussian_quasidist(LENS_GRID, 0.3, 0.12)
        rho_trunc = rho_full
        full = StepPlan(0.01, 1)
        trunc = StepPlan(0.01, 1, max_order=1)
        for _ in range(100):
            rho_full = evolve_phase_space(rho_full, spec, EPS, full).final
            rho_trunc = evolve_phase_space(rho_trunc, spec, EPS, trunc).final
            assert np.abs(rho_full.values - rho_trunc.values).max() <= 1e-12

    def test_kind_propagation(self):
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.12)
        assert evolve_phase_space(rho, linear_lens(1.0), EPS, StepPlan(0.01, 1, max_order=1)).final.kind == "classical"
        assert evolve_phase_space(rho, linear_lens(1.0), EPS, StepPlan(0.01, 1)).final.kind == "wigner"
        rho_q = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        assert evolve_phase_space(rho_q, quartic_channel(1.0, 0.1), EPS, StepPlan(5e-4, 1, max_order=3)).final.kind == "wigner"


class TestLens:
    def test_betatron_period_returns(self):
        # One full period z = 2*pi/sqrt(K); the residual is pure splitting
        # error and must shrink by ~4 when dz is halved.
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.12)
        period = 2.0 * math.pi
        errors = {}
        for n in (400, 800):
            out = evolve_phase_space(rho, linear_lens(1.0), EPS, StepPlan(period / n, n))
            errors[n] = np.abs(out.final.values - rho.values).max()
        assert errors[400] <= 1e-3
        assert 3.5 <= errors[400] / errors[800] <= 4.5

    def test_emittance_invariant(self):
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.12)
        out = evolve_phase_space(rho, linear_lens(1.0), EPS, StepPlan(0.01, 1000))
        em = np.array([m.emittance for m in out.moments])
        assert np.abs(em / em[0] - 1.0).max() <= 1e-6


class TestQuartic:
    def test_second_order_convergence(self):
        # L_inf error against a dz/8 reference must shrink by 4 +- 0.5 when
        # dz is halved (pure Strang splitting error).
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        spec = quartic_channel(1.0, 0.1)
        z_end, dz = 0.1, 5e-4
        finals = {}
        for f in (1, 2, 8):
            n = int(round(z_end / (dz / f)))
            finals[f] = evolve_phase_space(rho, spec, EPS, StepPlan(dz / f, n)).final.values
        e1 = np.abs(finals[1] - finals[8]).max()
        e2 = np.abs(finals[2] - finals[8]).max()
        assert 3.5 <= e1 / e2 <= 4.5

    def test_divergence_of_generators(self):
        # The deformed generator drives a non-negative two-peak mixture
        # negative; the classical truncation keeps it non-negative.
        grid = PhaseGrid(AxisGrid(256, 10.0), AxisGrid(128, 5.12))
        mix = superposition_quasidist(grid, 0.5, 0.2, separation=2.0)
        spec = quartic_channel(1.0, 0.1)
        moyal = evolve_phase_space(mix, spec, 0.2, StepPlan(1e-4, 200))
        classical = evolve_phase_space(mix, spec, 0.2, StepPlan(1e-4, 200, max_order=1))
        assert moyal.final.values.min() < -1e-10
        assert moyal.final.kind == "wigner"
        assert classical.final.values.min() >= -1e-12
        assert classical.final.kind == "classical"

    def test_kick_guard_overflow(self):
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        with pytest.raises(SolverError, match="kick phase overflow"):
            evolve_phase_space(rho, quartic_channel(1.0, 0.1), EPS, StepPlan(2e-3, 1)).final

    def test_realness_monitor_detects_underresolved_momentum(self):
        # sigma_p = 0.25 on spacing 0.2 leaves visible content at the
        # unpaired Nyquist row; the kick rotates it into an imaginary
        # residue and the step must refuse.
        grid = PhaseGrid(AxisGrid(128, 12.8), AxisGrid(32, 6.4))
        rho = gaussian_quasidist(grid, 0.4, 0.25)
        with pytest.raises(SolverError, match="imaginary residue"):
            evolve_phase_space(rho, quartic_channel(1.0, 0.1), EPS, StepPlan(1e-3, 100))


class TestMoyalCorrection:
    # The Moyal generator exceeds the Liouville one first by eps^2 U''' y^3 / 24,
    # so one kick of the same state moves only the third and higher momentum
    # moments: <p^3>_moyal - <p^3>_liouville = dz eps^2 <U'''> / 4, with
    # <U'''> taken on the state the kick sees, after the first half drift.
    GRID = PhaseGrid(AxisGrid(256, 12.8), AxisGrid(128, 6.4))
    DZ = 2e-4

    def one_step_momentum_moments(self, spec, epsilon):
        rho = gaussian_quasidist(self.GRID, 0.4, epsilon / 0.8, x0=0.5)
        p = self.GRID.p_axis.points()
        moments = {}
        for name, plan in (
            ("moyal", StepPlan(self.DZ, 1)), ("liouville", StepPlan(self.DZ, 1, max_order=1))
        ):
            w_p = evolve_phase_space(rho, spec, epsilon, plan).final.values.sum(axis=0)
            moments[name] = [float(w_p @ p**k) * self.GRID.cell_area for k in (1, 2, 3)]
        return rho, moments

    @pytest.mark.parametrize("epsilon", [0.1, 0.2])
    def test_third_momentum_moment_gains_the_deformation_term(self, epsilon):
        lam = 0.1
        rho, moments = self.one_step_momentum_moments(quartic_channel(1.0, lam), epsilon)
        x, p = self.GRID.meshes()
        # U''' = 24 lam x, averaged after the half drift x <- x + p dz / 2.
        u3 = 24.0 * lam * (x + 0.5 * self.DZ * p)
        mean_u3 = float((rho.values * u3).sum()) * self.GRID.cell_area
        (p1_m, p2_m, p3_m), (p1_l, p2_l, p3_l) = moments["moyal"], moments["liouville"]
        assert p1_m == pytest.approx(p1_l, rel=1e-12, abs=1e-15)
        assert p2_m == pytest.approx(p2_l, rel=1e-12)
        assert p3_m - p3_l == pytest.approx(self.DZ * epsilon**2 * mean_u3 / 4.0, rel=1e-8)

    @pytest.mark.parametrize(
        "spec", [linear_lens(1.0), LENS_WITH_X1], ids=["lens", "lens_with_x1"]
    )
    def test_no_difference_for_degree_two(self, spec):
        _, moments = self.one_step_momentum_moments(spec, 0.1)
        assert moments["moyal"] == moments["liouville"]

    def test_many_step_distance_scales_as_eps_squared(self):
        # Same grid, same initial density and plan; only the eps passed to the
        # solver changes, from the p spacing 0.05 up.  The ratio bound was
        # fixed at 4 +- 10% before measuring.
        rho = gaussian_quasidist(self.GRID, 0.4, 0.125, x0=0.5)
        spec = quartic_channel(1.0, 0.1)
        distance = {}
        for epsilon in (0.05, 0.1, 0.2):
            moyal, liouville = (
                evolve_phase_space(rho, spec, epsilon, plan).final.values
                for plan in (StepPlan(self.DZ, 100), StepPlan(self.DZ, 100, max_order=1))
            )
            distance[epsilon] = np.abs(moyal - liouville).max()
        assert 3.6 <= distance[0.1] / distance[0.05] <= 4.4
        assert 3.6 <= distance[0.2] / distance[0.1] <= 4.4


def recorded_residues(monkeypatch) -> list:
    """Patch the grid kernel's residue check to record each ``(residue, peak)`` it checks."""
    checked = []
    check = phasespace._check_residue

    def recording(rho, residue):
        checked.append((residue, float(np.abs(rho).max())))
        check(rho, residue)

    monkeypatch.setattr(phasespace, "_check_residue", recording)
    return checked


def stepped_final(kernel, values, plan):
    """``values`` entered, stepped through ``plan`` from z = 0 and closed: the final array."""
    values = kernel.enter(values)
    for step in range(plan.n_steps):
        values = kernel.advance(values, step * plan.dz)
    return kernel.wrap(values, plan.n_steps * plan.dz).values


def complex_reference(state, spec, epsilon, plan):
    """Complex-FFT Strang steps on the full spectrum, carried as a complex array.

    This is the kernel the real-data one replaced: full-grid drift phase and
    kick, ``exp(i dz G)`` of a complex array, no realness projection between
    steps.  Returns the final complex array.
    """
    grid = state.grid
    x = grid.x_axis.points()[:, None]
    y = grid.p_axis.frequencies()[None, :]
    drift = np.exp(
        -1j * np.outer(grid.x_axis.frequencies(), grid.p_axis.points()) * (0.5 * plan.dz)
    )
    rho = state.values.astype(complex)
    for step in range(plan.n_steps):
        z_mid = state.z + step * plan.dz + 0.5 * plan.dz
        rho = np.fft.ifft(np.fft.fft(rho, axis=0) * drift, axis=0)
        if spec.degree >= 1:
            if plan.max_order is None:
                g = moyal_generator(spec, x, y, z_mid, epsilon)
            else:
                g = moyal_generator_truncated(spec, x, y, z_mid, epsilon, plan.max_order)
            rho = np.fft.ifft(np.fft.fft(rho, axis=1) * np.exp(1j * plan.dz * g), axis=1)
        rho = np.fft.ifft(np.fft.fft(rho, axis=0) * drift, axis=0)
    return rho


class TestRealKernel:
    # Beams whose spectra have decayed to round-off at the Nyquist row and
    # column, where the two kernels must agree to round-off.  (The lens
    # cases use sigma_p = 0.2: at 0.12 the p spectrum still holds 3e-9 of
    # the peak at Nyquist; see test_deviation_bounded_by_nyquist_residue.)
    CASES = {
        "free": (FREE_GRID, (1.0, 0.05), free_space(), StepPlan(0.1, 50)),
        "lens": (LENS_GRID, (0.3, 0.2), linear_lens(1.0), StepPlan(0.01, 50)),
        "harmonic_lens": (LENS_GRID, (0.3, 0.2), HARMONIC_LENS, StepPlan(0.01, 50)),
        "quartic_full": (QUARTIC_GRID, (0.4, 0.25), quartic_channel(1.0, 0.1), StepPlan(5e-4, 50)),
        "quartic_order1": (
            QUARTIC_GRID, (0.4, 0.25), quartic_channel(1.0, 0.1), StepPlan(5e-4, 50, max_order=1)
        ),
        "quartic_order3": (
            QUARTIC_GRID, (0.4, 0.25), quartic_channel(1.0, 0.1), StepPlan(5e-4, 50, max_order=3)
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_complex_reference(self, case):
        grid, (sigma_x, sigma_p), spec, plan = self.CASES[case]
        rho = gaussian_quasidist(grid, sigma_x, sigma_p)
        final = evolve_phase_space(rho, spec, EPS, plan).final.values
        reference = complex_reference(rho, spec, EPS, plan)
        peak = np.abs(reference.real).max()
        assert np.abs(final - reference.real).max() <= 1e-12 * peak
        assert np.abs(reference.imag).max() <= 1e-12 * peak

    def test_deviation_bounded_by_nyquist_residue(self, monkeypatch):
        # With Nyquist content above round-off the real kernel drops what the
        # complex one keeps as an imaginary mode; the difference is bounded
        # by the residue the monitor sums (over every step, the entry and
        # the closing drift), and stays below its tolerance.
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.12)
        plan = StepPlan(0.01, 50)
        kernel = _GridKernel(LENS_GRID, HARMONIC_LENS, EPS, plan)
        checked = recorded_residues(monkeypatch)
        values = stepped_final(kernel, rho.values, plan)
        assert len(checked) == plan.n_steps + 2
        total_residue = sum(residue for residue, _ in checked)
        reference = complex_reference(rho, HARMONIC_LENS, EPS, plan)
        peak = np.abs(reference.real).max()
        deviation = np.abs(values - reference.real).max()
        assert deviation > 1e-12 * peak
        assert deviation <= total_residue + 1e-12 * peak
        assert total_residue <= STEP_REALNESS_TOL * peak

    def test_harmonic_lens_moyal_equals_liouville_bitwise(self):
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.12)
        moyal = evolve_phase_space(rho, HARMONIC_LENS, EPS, StepPlan(0.01, 50))
        liouville = evolve_phase_space(rho, HARMONIC_LENS, EPS, StepPlan(0.01, 50, max_order=1))
        assert moyal.final.values.tobytes() == liouville.final.values.tobytes()

    def test_nyquist_monitor_quiet_when_resolved(self, monkeypatch):
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        plan = StepPlan(5e-4, 200)
        kernel = _GridKernel(QUARTIC_GRID, quartic_channel(1.0, 0.1), EPS, plan)
        checked = recorded_residues(monkeypatch)
        stepped_final(kernel, rho.values, plan)
        assert len(checked) == plan.n_steps + 2
        for residue, peak in checked:
            assert residue <= 1e-6 * STEP_REALNESS_TOL * peak


def retransform_reference(state, spec, epsilon, plan, every=None):
    """Real-data Strang steps that take the ``rfft`` of every sub-flow's input.

    Each step is ``D(dz/2) K D(dz/2)`` of the step-boundary array, six
    transforms, with no spectrum or half drift carried across the step
    boundary.  Returns the moments measured at every step boundary, and the
    arrays at every ``every`` steps and at the last (by default only the
    final one).
    """
    grid, dz = state.grid, plan.dz
    nx, n_p = grid.x_axis.n, grid.p_axis.n
    every = every or plan.n_steps
    x = grid.x_axis.points()[:, None]
    y = np.abs(grid.p_axis.frequencies()[: n_p // 2 + 1])[None, :]
    kx = np.abs(grid.x_axis.frequencies()[: nx // 2 + 1])
    drift = np.exp(-1j * np.outer(kx, grid.p_axis.points()) * (0.5 * dz))
    zs = state.z + dz * np.arange(plan.n_steps + 1)
    rho = state.values
    moments, snapshots = [moments_of(state)], []
    for step in range(1, plan.n_steps + 1):
        z_mid = zs[step - 1] + 0.5 * dz
        if plan.max_order is None:
            g = moyal_generator(spec, x, y, z_mid, epsilon)
        else:
            g = moyal_generator_truncated(spec, x, y, z_mid, epsilon, plan.max_order)
        rho = np.fft.irfft(np.fft.rfft(rho, axis=0) * drift, n=nx, axis=0)
        rho = np.fft.irfft(np.fft.rfft(rho, axis=1) * np.exp(1j * dz * g), n=n_p, axis=1)
        rho = np.fft.irfft(np.fft.rfft(rho, axis=0) * drift, n=nx, axis=0)
        moments.append(moments_of(QuasiDistribution(grid, rho, zs[step], "wigner")))
        if step % every == 0 or step == plan.n_steps:
            snapshots.append(rho)
    return moments, snapshots


class TestHeldSpectrum:
    # The stepped grid kernel: half drifts fused across the step boundary,
    # nothing held between steps.
    @pytest.mark.parametrize(
        "spec, per_step",
        [(HARMONIC_LENS, Counter(rfft=2, irfft=2)), (free_space(), Counter(rfft=1, irfft=1))],
        ids=["lens", "free"],
    )
    def test_ffts_per_step(self, monkeypatch, spec, per_step):
        # Counted on the kernel itself: evolve_phase_space maps a run of
        # these degree <= 2 potentials in closed form instead of stepping.
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.2)
        n = 20
        plan = StepPlan(0.01, n)
        kernel = _GridKernel(LENS_GRID, spec, EPS, plan)
        calls = count_ffts(monkeypatch)
        run = _evolve(kernel, rho, kernel.enter(rho.values), _step_boundaries(rho.z, plan), 7)
        assert run.snapshot_steps == (0, 7, 14, 20)
        # A step with a force takes four transforms: rfft + irfft for the
        # full drift and for the kick.  The entry drift and the closing
        # drift of each of the three snapshots after the initial one take
        # one rfft + irfft each.
        expected = Counter({name: count * n for name, count in per_step.items()})
        assert calls == expected + Counter(rfft=4, irfft=4)

    def test_lens_run_matches_retransform_reference(self):
        grid = PhaseGrid(AxisGrid(256, 25.6), AxisGrid(128, 6.4))
        rho = gaussian_quasidist(grid, 0.4, EPS / 0.8, x0=0.5)
        plan = StepPlan(2e-3, 300)
        run = evolve_phase_space(rho, HARMONIC_LENS, EPS, plan)
        moments, (final,) = retransform_reference(rho, HARMONIC_LENS, EPS, plan)
        assert_moments_close(run.moments, moments, 1e-11)
        assert np.abs(run.final.values - final).max() <= 1e-11 * np.abs(final).max()

    @pytest.mark.parametrize("order", [None, 1], ids=["moyal", "liouville"])
    def test_quartic_run_matches_retransform_reference(self, order):
        # Bounds fixed before measuring.  The cadence of 7 does not divide
        # the 60 steps, so the final snapshot follows one of 4 steps.
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        spec, plan = quartic_channel(1.0, 0.1), StepPlan(5e-4, 60, max_order=order)
        run = evolve_phase_space(rho, spec, EPS, plan, snapshot_every=7)
        moments, snapshots = retransform_reference(rho, spec, EPS, plan, every=7)
        assert run.snapshot_steps == (0, 7, 14, 21, 28, 35, 42, 49, 56, 60)
        assert_moments_close(run.moments, moments, 1e-12)
        for got, want in zip(run.snapshots[1:], snapshots, strict=True):
            assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("spec", [HARMONIC_LENS, free_space()], ids=["lens", "free"])
    def test_copy_of_last_output_steps_as_in_a_fresh_kernel(self, monkeypatch, spec):
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.12)
        plan = StepPlan(0.01, 10)
        kernel = _GridKernel(LENS_GRID, spec, EPS, plan)
        values = kernel.enter(rho.values)
        for step in range(5):
            values = kernel.advance(values, step * plan.dz)
        z = 5 * plan.dz
        copy = values.copy()
        checked = recorded_residues(monkeypatch)
        again = kernel.advance(copy, z)
        fresh = _GridKernel(LENS_GRID, spec, EPS, plan).advance(copy, z)
        assert again.tobytes() == fresh.tobytes()
        assert checked[0] == checked[1]

    @pytest.mark.parametrize(
        "spec", [HARMONIC_LENS, linear_lens(1.0)], ids=["z_dependent", "static"]
    )
    def test_kernel_freed_without_garbage_collection(self, spec):
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.2)

        def two_steps():
            kernel = _GridKernel(LENS_GRID, spec, EPS, StepPlan(0.01, 2))
            stepped_final(kernel, rho.values, StepPlan(0.01, 2))
            return kernel

        assert_freed_without_gc(two_steps)


class TestTrajectoryBookkeeping:
    def test_snapshot_cadence(self):
        rho = gaussian_quasidist(FREE_GRID, 1.0, 0.05)
        out = evolve_phase_space(rho, free_space(), EPS, StepPlan(0.1, 10), snapshot_every=4)
        assert out.snapshot_steps == (0, 4, 8, 10)
        assert len(out.moments) == 11
        assert out.moments[0].sigma_x == pytest.approx(1.0, rel=1e-9)
        assert out.final is out.snapshots[-1]

    def test_step_error_context(self):
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        with pytest.raises(SolverError, match=r"step 1/5"):
            evolve_phase_space(rho, quartic_channel(1.0, 0.1), EPS, StepPlan(2e-3, 5))

    def test_snapshot_closing_drift_error_names_its_step(self, monkeypatch):
        # Residue checks of a stepped run with snapshots every 2 steps: the
        # entry, steps 1 and 2, then the closing half drift of the step-2
        # snapshot, whose failure names step 2.
        calls = []
        check = phasespace._check_residue

        def failing(rho, residue):
            calls.append(None)
            if len(calls) == 4:
                raise SolverError("closing residue")
            check(rho, residue)

        monkeypatch.setattr(phasespace, "_check_residue", failing)
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        with pytest.raises(SolverError, match=r"^step 2/4: closing residue$"):
            evolve_phase_space(rho, quartic_channel(1.0, 0.1), EPS, StepPlan(5e-4, 4), 2)


class TestNonFiniteStep:
    # A NaN coefficient passes every input check.  The grid engines' kick
    # guard refuses the non-finite phase it makes; twm and the rays refuse
    # the non-finite state their step makes.
    NAN_LENS = PotentialSpec(((2, ConstantProfile(math.nan)),))

    @pytest.mark.parametrize("engine", ["twm", "moyal", "liouville", "rays"])
    def test_nan_coefficient_fails_at_step_one(self, engine):
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        plan = StepPlan(0.01, 3, max_order=1) if engine == "liouville" else StepPlan(0.01, 3)
        with pytest.raises(SolverError, match=r"^step 1/3: .*non-finite"):
            if engine == "twm":
                evolve_twm(gaussian_wavefield(QUARTIC_GRID.x_axis, 0.4, EPS), self.NAN_LENS, plan)
            elif engine == "rays":
                trace_rays(sample_rays(rho, 100, seed=1), self.NAN_LENS, plan)
            else:
                evolve_phase_space(rho, self.NAN_LENS, EPS, plan)

    @pytest.mark.parametrize("order", [None, 1], ids=["moyal", "liouville"])
    def test_overflowing_generator_refused_by_the_kick_guard(self, order):
        # x**4 overflows on an x box this long, so the quartic generator holds
        # inf and nan; no RuntimeWarning may escape before the guard refuses it.
        grid = PhaseGrid(AxisGrid(256, 1e120), AxisGrid(128, 6.4))
        rho = gaussian_quasidist(grid, 0.4, 0.25)
        with pytest.raises(SolverError, match=r"^step 1/5: kick phase is non-finite"):
            evolve_phase_space(rho, quartic_channel(1.0, 0.1), EPS, StepPlan(2e-4, 5, order))


class TestStepZeroNamed:
    @pytest.mark.parametrize(
        "spec, text",
        [
            (free_space(), "beam moments are not finite"),
            (quartic_channel(1.0, 0.1), "density mass is nan"),
        ],
        ids=["closed_form", "stepped"],
    )
    def test_unmeasurable_initial_state_names_step_0(self, spec, text):
        grid = PhaseGrid(AxisGrid(256, 12.8), AxisGrid(128, 1e308))
        rho = gaussian_quasidist(grid, 0.4, 0.25)
        with pytest.raises(SolverError, match=rf"^step 0/5: {text}"):
            evolve_phase_space(rho, spec, EPS, StepPlan(1e-3, 5))


class TestClassicalCheckPerStep:
    def test_negative_values_name_the_step(self, monkeypatch):
        # The check sees the negated density at step 3 (its 4th call), so the
        # real check raises its own message from inside the step loop.  The
        # quartic channel steps; a degree <= 2 run is mapped in closed form.
        calls = []
        check = phasespace._check_classical

        def failing(values):
            calls.append(None)
            check(-values if len(calls) == 4 else values)

        monkeypatch.setattr(phasespace, "_check_classical", failing)
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        spec = quartic_channel(1.0, 0.1)
        evolve_phase_space(rho, spec, EPS, StepPlan(5e-4, 5))
        assert calls == []  # a deformed (wigner) density may go negative
        with pytest.raises(
            SolverError, match=r"^step 3/5: classical density has negative values beyond round-off"
        ):
            evolve_phase_space(rho, spec, EPS, StepPlan(5e-4, 5, max_order=1))


class TestTraceRays:
    def test_free_single_ray_exact(self):
        ens = RayEnsemble(np.array([0.0, 0.0]), np.array([0.1, 0.1]))
        out = trace_rays(ens, free_space(), StepPlan(1.0, 10))
        assert out.final.positions[0] == pytest.approx(1.0, abs=1e-15)
        assert out.final.momenta[0] == pytest.approx(0.1, abs=1e-15)
        assert out.lost == 0

    def test_lens_half_period_flip(self):
        ens = RayEnsemble(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        errors = {}
        for n in (200, 400):
            out = trace_rays(ens, linear_lens(1.0), StepPlan(math.pi / n, n))
            assert out.final.positions[0] == pytest.approx(-1.0, abs=1e-6)
            errors[n] = abs(out.final.momenta[0])
        assert errors[200] <= 1e-4
        assert 3.5 <= errors[200] / errors[400] <= 4.5

    def test_ensemble_matches_free_streaming_law(self):
        grid = PhaseGrid(AxisGrid(256, 32.0), AxisGrid(128, 1.28))
        rho = gaussian_quasidist(grid, 1.0, 0.05)
        from beamphase import sample_rays

        n = 100_000
        rays = sample_rays(rho, n, seed=9)
        out = trace_rays(rays, free_space(), StepPlan(0.5, 20))
        target = math.sqrt(1.0 + (0.05 * 10.0) ** 2)
        se = target / math.sqrt(2 * n)
        assert abs(moments_of(out.final).sigma_x - target) <= 5 * se

    def test_partial_loss_pruned_and_counted(self):
        spec = quartic_channel(0.0, 1e200)
        ens = RayEnsemble(np.array([0.0, 0.0, 1e40]), np.array([0.0, 0.0, 0.0]))
        out = trace_rays(ens, spec, StepPlan(1.0, 3))
        assert out.lost == 1
        assert out.final.count == 2

    @pytest.mark.parametrize("far, dropped_at", [(300.0, 15), (1e3, 4), (1e4, 3)])
    def test_overflowing_moments_drop_the_far_ray(self, far, dropped_at):
        # The far ray stays finite while the squares in its moments overflow.
        # The step where that happens drops it as lost, with no bare
        # OverflowError, and from there the moments are those of the other
        # three rays traced alone.
        spec, plan = quartic_channel(1.0, 0.1), StepPlan(0.01, 30)
        near = RayEnsemble(np.array([0.1, -0.1, 0.2]), np.zeros(3))
        out = trace_rays(RayEnsemble(np.array([0.1, -0.1, 0.2, far]), np.zeros(4)), spec, plan)
        alone = trace_rays(near, spec, plan)
        assert out.lost == 1
        assert out.moments[dropped_at:] == alone.moments[dropped_at:]
        assert out.moments[dropped_at - 1] != alone.moments[dropped_at - 1]
        assert out.final.positions.tobytes() == alone.final.positions.tobytes()

    def test_overflowing_radicand_drops_the_far_ray(self):
        # The far ray's coordinates square to about 1e160, finite, but the
        # product of the two variances overflows at step 1; the ray lies
        # beyond RAY_CAP, so it is dropped and the rest go on as if alone.
        spec, plan = free_space(), StepPlan(1.0, 3)
        near = RayEnsemble(np.array([0.1, -0.1, 0.2]), np.zeros(3))
        far = RayEnsemble(np.array([0.1, -0.1, 0.2, 0.0]), np.array([0.0, 0.0, 0.0, 1e80]))
        out = trace_rays(far, spec, plan)
        alone = trace_rays(near, spec, plan)
        assert out.lost == 1
        assert math.isfinite(out.moments[0].sigma_p)
        assert out.moments[1:] == alone.moments[1:]

    def test_both_loss_rules_fire_in_one_step(self):
        # At step 1 the 2e99 ray turns non-finite, and the 1e54 ray, still
        # finite but beyond RAY_CAP, overflows the moments of the rest; both
        # are dropped there and the three near rays go on as if alone.
        spec, plan = quartic_channel(0.0, 1e10), StepPlan(1.0, 3)
        near = RayEnsemble(np.array([1e-6, -1e-6, 2e-6]), np.zeros(3))
        rays = RayEnsemble(np.array([1e-6, -1e-6, 2e-6, 2e99, 0.0]), np.array([0, 0, 0, 0, 1e54]))
        out = trace_rays(rays, spec, plan)
        alone = trace_rays(near, spec, plan)
        assert out.lost == 2
        assert math.isfinite(out.moments[0].sigma_p)
        assert out.moments[1:] == alone.moments[1:]

    def test_initial_rays_overflowing_the_moments_leave_snapshot_0(self):
        # The far ray's square overflows the step-0 moments, so it is lost
        # before any step; snapshot 0 is the ensemble those moments measured.
        ens = RayEnsemble(np.array([0.1, -0.1, 0.2, 1e200]), np.zeros(4))
        out = trace_rays(ens, free_space(), StepPlan(1.0, 2))
        assert out.lost == 1
        assert out.snapshots[0].count == 3
        assert out.moments[0] == moments_of(out.snapshots[0])

    def test_one_ray_left_names_the_step(self):
        # Two of three rays turn non-finite at step 1; the moments of the one
        # left are refused as they are, with the step named.
        spec = quartic_channel(0.0, 1e200)
        ens = RayEnsemble(np.array([0.0, 1e40, 2e40]), np.zeros(3))
        with pytest.raises(SolverError, match=r"^step 1/3: ray moments need at least two rays"):
            trace_rays(ens, spec, StepPlan(1.0, 3))

    def test_total_loss_raises(self):
        spec = quartic_channel(0.0, 1e200)
        ens = RayEnsemble(np.array([1e40, 2e40]), np.array([0.0, 0.0]))
        with pytest.raises(SolverError, match="diverged"):
            trace_rays(ens, spec, StepPlan(1.0, 3))

    def test_zero_steps_identity(self):
        ens = RayEnsemble(np.array([0.3, -0.3]), np.array([0.1, -0.1]))
        out = trace_rays(ens, linear_lens(1.0), StepPlan(0.1, 0))
        np.testing.assert_array_equal(out.final.positions, ens.positions)
        assert len(out.moments) == 1


def textbook_ray_moments(x, p, z):
    """Ray moments by the out-of-place formula: one temporary per product."""
    mean_x = float(x.mean())
    mean_p = float(p.mean())
    dx = x - mean_x
    dp = p - mean_p
    return _beam_moments(
        z, mean_x, mean_p, float((dx**2).mean()), float((dp**2).mean()), float((dx * dp).mean())
    )


def two_gradient_leapfrog(ensemble, spec, plan):
    """Textbook kick-drift-kick with two gradient evaluations per step.

    Step k runs from ``z0 + k dz``, the step boundaries of every engine.
    Returns the moments of every step, the final surviving positions and
    momenta, and the number of rays lost to non-finite values.
    """
    x = np.array(ensemble.positions, dtype=float)
    p = np.array(ensemble.momenta, dtype=float)
    alive = np.ones(x.size, dtype=bool)
    half = 0.5 * plan.dz
    z0 = ensemble.z
    moments = [textbook_ray_moments(x, p, z0)]
    for k in range(plan.n_steps):
        z_mid = z0 + plan.dz * k + half
        with np.errstate(over="ignore", invalid="ignore"):
            p[alive] -= half * eval_gradient(spec, x[alive], z_mid)
            x[alive] += plan.dz * p[alive]
            p[alive] -= half * eval_gradient(spec, x[alive], z_mid)
        alive = np.isfinite(x) & np.isfinite(p)
        moments.append(textbook_ray_moments(x[alive], p[alive], z0 + plan.dz * (k + 1)))
    return moments, x[alive], p[alive], int(alive.size - np.count_nonzero(alive))


class TestFirstSameAsLast:
    """trace_rays reuses the closing gradient of a static step as the next opening kick.

    The reuse must not change a single bit against the two-gradient leapfrog;
    the gradient call counts pin where the cache is used and where it is not.
    """

    PLAN = StepPlan(0.01, 40)

    @staticmethod
    def rays(extra=()):
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        ens = sample_rays(rho, 2000, seed=11)
        x = np.concatenate([ens.positions, extra])
        return RayEnsemble(x, np.concatenate([ens.momenta, np.zeros(len(extra))]), z=0.25)

    def traced(self, ens, spec, monkeypatch):
        calls = []

        def counting_gradient(*args):
            calls.append(args[1].size)
            return eval_gradient(*args)

        monkeypatch.setattr(phasespace, "eval_gradient", counting_gradient)
        out = trace_rays(ens, spec, self.PLAN)
        monkeypatch.undo()
        moments, x, p, lost = two_gradient_leapfrog(ens, spec, self.PLAN)
        assert out.moments == tuple(moments)
        assert out.final.positions.tobytes() == x.tobytes()
        assert out.final.momenta.tobytes() == p.tobytes()
        assert out.lost == lost
        return out, calls

    def test_static_quartic_one_gradient_per_step(self, monkeypatch):
        _, calls = self.traced(self.rays(), quartic_channel(1.0, 0.1), monkeypatch)
        assert len(calls) == self.PLAN.n_steps + 1

    def test_harmonic_lens_keeps_two_gradients_per_step(self, monkeypatch):
        spec = PotentialSpec(((2, HarmonicProfile(0.5, 3.0, 0.2)), (4, HarmonicProfile(0.1, 2.0))))
        _, calls = self.traced(self.rays(), spec, monkeypatch)
        assert len(calls) == 2 * self.PLAN.n_steps

    def test_loss_drops_the_cached_gradient(self, monkeypatch):
        # The two far rays diverge at steps 3 and 4; each of those steps
        # drops the cache, so the next one recomputes it on the survivors.
        out, calls = self.traced(self.rays([4e3, 2e6]), quartic_channel(1.0, 0.1), monkeypatch)
        assert out.lost == 2
        assert len(calls) == self.PLAN.n_steps + 1 + 2
        assert calls[:6] == [2002, 2002, 2002, 2002, 2001, 2001]
        assert set(calls[6:]) == {2000}


class TestLeapfrogSymplectic:
    """One leapfrog step is a symplectic map: it preserves phase-space area."""

    def test_linear_lens_step_has_unit_determinant(self):
        # The map is linear, so the images of the unit vectors are the
        # columns of its matrix.
        out = trace_rays(
            RayEnsemble(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            linear_lens(2.5),
            StepPlan(0.3, 1),
        )
        (a, b), (c, d) = out.final.positions, out.final.momenta
        assert a * d - b * c == pytest.approx(1.0, abs=1e-15)
        assert a != 1.0  # the step is not the identity

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.01, 0.2))
    def test_quartic_step_preserves_small_triangle_areas(self, x0, p0, dz):
        h = 1e-7
        ens = RayEnsemble(np.array([x0, x0 + h, x0]), np.array([p0, p0, p0 + h]))
        out = trace_rays(ens, quartic_channel(1.0, 0.1), StepPlan(dz, 1))
        x, p = out.final.positions, out.final.momenta
        area = (x[1] - x[0]) * (p[2] - p[0]) - (x[2] - x[0]) * (p[1] - p[0])
        assert area / (h * h) == pytest.approx(1.0, abs=1e-6)


class TestOneStepGrid:
    """Every engine labels step k with the same double, ``z0 + k dz``."""

    def test_rays_share_the_z_of_the_grid_and_twm(self):
        plan = StepPlan(2e-4, 300)
        zs = _step_boundaries(0.0, plan)
        running = [0.0]
        for _ in range(plan.n_steps):
            running.append(running[-1] + plan.dz)
        # A running sum of dz would label most steps with another double.
        assert sum(a != b for a, b in zip(running, zs)) == 284
        rho = gaussian_quasidist(FREE_GRID, 1.0, 0.05)
        runs = [
            trace_rays(sample_rays(rho, 100, seed=1), free_space(), plan),
            evolve_phase_space(rho, free_space(), EPS, plan),
            evolve_twm(gaussian_wavefield(FREE_GRID.x_axis, 1.0, EPS), free_space(), plan),
        ]
        for run in runs:
            assert [m.z for m in run.moments] == zs
            assert run.final.z == zs[-1]


class TestSecondOrderConvergence:
    """Strang splitting stays second order when the profiles depend on z.

    The error of the final state against a dz/8 reference falls by
    ``(1 - 1/64) / (1/4 - 1/64) = 4.2`` when dz halves, for a pure
    second-order error (Strang, SIAM J. Numer. Anal. 5 (1968) 506).
    """

    SPEC = PotentialSpec(((2, HarmonicProfile(0.5, 3.0, 0.2)), (4, HarmonicProfile(0.1, 2.0))))

    @staticmethod
    def assert_second_order(run, dz, z_end):
        coarse, half, reference = (run(StepPlan(dz / m, round(m * z_end / dz))) for m in (1, 2, 8))
        ratio = np.abs(coarse - reference).max() / np.abs(half - reference).max()
        assert 3.7 <= ratio <= 4.7

    @staticmethod
    def grid_final(rho, spec, plan):
        out = evolve_phase_space(rho, spec, EPS, plan, snapshot_every=plan.n_steps // 4)
        assert max(abs(s.mass - 1.0) for s in out.snapshots) <= 1e-12
        return out.final.values

    @pytest.mark.parametrize("engine", ["moyal", "liouville", "twm", "rays"])
    def test_z_dependent_quartic(self, engine):
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)

        def run(plan):
            if engine == "moyal":
                return self.grid_final(rho, self.SPEC, plan)
            if engine == "liouville":
                plan = StepPlan(plan.dz, plan.n_steps, max_order=1)
                return self.grid_final(rho, self.SPEC, plan)
            if engine == "twm":
                psi = gaussian_wavefield(QUARTIC_GRID.x_axis, 0.4, EPS)
                out = evolve_twm(psi, self.SPEC, plan, snapshot_every=plan.n_steps // 4)
                norms = [s.density().sum() * s.grid.spacing for s in out.snapshots]
                assert max(abs(n - 1.0) for n in norms) <= 1e-12
                return out.final.values
            out = trace_rays(sample_rays(rho, 2000, seed=3), self.SPEC, plan)
            return np.concatenate([out.final.positions, out.final.momenta])

        self.assert_second_order(run, 5e-4, 0.1)

    def test_harmonic_lens_closed_form(self):
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.2)
        self.assert_second_order(lambda plan: self.grid_final(rho, HARMONIC_LENS, plan), 5e-3, 0.5)


class TestStaticOperators:
    """A z-independent potential's kick and twm half phase are built once a run."""

    GRID = PhaseGrid(AxisGrid(256, 12.8), AxisGrid(128, 6.4))
    Z_DEPENDENT = PotentialSpec(
        ((2, HarmonicProfile(0.5, 3.0, 0.2)), (4, HarmonicProfile(0.1, 2.0)))
    )

    @pytest.mark.parametrize(
        "spec, builds", [(quartic_channel(1.0, 0.1), 1), (Z_DEPENDENT, 20)], ids=["static", "z"]
    )
    @pytest.mark.parametrize("engine", ["moyal", "liouville", "twm"])
    def test_builds_per_run(self, monkeypatch, engine, spec, builds):
        module, name = {
            "moyal": (phasespace, "moyal_generator"),
            "liouville": (phasespace, "moyal_generator_truncated"),
            "twm": (twm, "eval_potential"),
        }[engine]
        calls = []
        build = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(module, name, counted)
        plan = StepPlan(2e-4, 20, max_order=1 if engine == "liouville" else None)
        if engine == "twm":
            evolve_twm(gaussian_wavefield(AxisGrid(256, 12.8), 0.4, EPS), spec, plan)
        else:
            evolve_phase_space(gaussian_quasidist(self.GRID, 0.4, 0.25), spec, EPS, plan)
        assert len(calls) == builds

    def test_z_dependent_step_1_guard_taken_at_the_run_start(self, monkeypatch):
        # cos(pi z / 2) scales the quartic term: at z = 0 step 1's kick phase
        # passes pi, from z = 1 it is near 0, and a run from z = 1 must run.
        spec = PotentialSpec(
            ((2, ConstantProfile(0.5)), (4, HarmonicProfile(1.0, math.pi / 2)))
        )
        rho, plan = gaussian_quasidist(self.GRID, 0.4, 0.25), StepPlan(2e-4, 5)
        with pytest.raises(SolverError, match=r"^step 1/5: kick phase overflow"):
            evolve_phase_space(rho, spec, EPS, plan)
        mids = []
        build = phasespace.moyal_generator
        monkeypatch.setattr(
            phasespace, "moyal_generator", lambda *args: mids.append(args[3]) or build(*args)
        )
        run = evolve_phase_space(dataclasses.replace(rho, z=1.0), spec, EPS, plan)
        assert run.snapshot_steps == (0, 5)
        # One kick per step, each at its own midpoint: step 1's is built with the kernel.
        assert mids == [z + 0.5 * plan.dz for z in _step_boundaries(1.0, plan)[:-1]]

    def test_static_kick_guard_names_step_1(self):
        rho = gaussian_quasidist(self.GRID, 0.4, 0.25)
        with pytest.raises(
            SolverError, match=r"^step 1/5: kick phase overflow: max \|dz \* G\| = 1\.716e\+01"
        ):
            evolve_phase_space(rho, quartic_channel(1.0, 0.1), EPS, StepPlan(2e-3, 5))
        # A plan without steps takes no kick, so it checks none.
        run = evolve_phase_space(rho, quartic_channel(1.0, 0.1), EPS, StepPlan(2e-3, 0))
        assert len(run.moments) == 1
