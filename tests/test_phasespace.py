"""Grid solvers for the deformed and classical transport equations, plus rays."""

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
    step_phase_space,
    superposition_quasidist,
    trace_rays,
)
from beamphase import phasespace
from beamphase.diagnostics import _beam_moments
from beamphase.phasespace import (
    STEP_REALNESS_TOL,
    _GridKernel,
    _kick_multiplier,
    _kick_operands,
)

EPS = 0.1
FREE_GRID = PhaseGrid(AxisGrid(256, 24.0), AxisGrid(64, 0.8))
LENS_GRID = PhaseGrid(AxisGrid(128, 6.4), AxisGrid(64, 3.84))
QUARTIC_GRID = PhaseGrid(AxisGrid(128, 12.8), AxisGrid(64, 6.4))
HARMONIC_LENS = PotentialSpec(((2, HarmonicProfile(0.5, 3.0)),))
LENS_WITH_X1 = PotentialSpec(((1, HarmonicProfile(0.3, 2.0)), (2, ConstantProfile(0.5))))


class TestStepPlan:
    def test_defaults(self):
        plan = StepPlan(0.01, 10)
        assert plan.generator == "full_moyal"
        assert not plan.is_classical

    def test_truncated_defaults_to_classical(self):
        plan = StepPlan(0.01, 10, "truncated")
        assert plan.max_order == 1
        assert plan.is_classical

    def test_higher_truncation_not_classical(self):
        assert not StepPlan(0.01, 10, "truncated", 3).is_classical

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dz=0.0, n_steps=1),
            dict(dz=-0.1, n_steps=1),
            dict(dz=math.nan, n_steps=1),
            dict(dz=0.1, n_steps=-1),
            dict(dz=0.1, n_steps=1, generator="magic"),
            dict(dz=0.1, n_steps=1, generator="truncated", max_order=2),
            dict(dz=0.1, n_steps=1, generator="full_moyal", max_order=3),
        ],
    )
    def test_contract(self, kwargs):
        with pytest.raises(SolverError):
            StepPlan(**kwargs)


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
        trunc = StepPlan(0.01, 1, "truncated", 1)
        for _ in range(100):
            rho_full = step_phase_space(rho_full, spec, EPS, full)
            rho_trunc = step_phase_space(rho_trunc, spec, EPS, trunc)
            assert np.abs(rho_full.values - rho_trunc.values).max() <= 1e-12

    def test_kind_propagation(self):
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.12)
        assert step_phase_space(rho, linear_lens(1.0), EPS, StepPlan(0.01, 1, "truncated", 1)).kind == "classical"
        assert step_phase_space(rho, linear_lens(1.0), EPS, StepPlan(0.01, 1)).kind == "wigner"
        rho_q = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        assert step_phase_space(rho_q, quartic_channel(1.0, 0.1), EPS, StepPlan(5e-4, 1, "truncated", 3)).kind == "wigner"


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
        classical = evolve_phase_space(mix, spec, 0.2, StepPlan(1e-4, 200, "truncated", 1))
        assert moyal.final.values.min() < -1e-10
        assert moyal.final.kind == "wigner"
        assert classical.final.values.min() >= -1e-12
        assert classical.final.kind == "classical"

    def test_kick_guard_overflow(self):
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        with pytest.raises(SolverError, match="kick phase overflow"):
            step_phase_space(rho, quartic_channel(1.0, 0.1), EPS, StepPlan(2e-3, 1))

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
            ("moyal", StepPlan(self.DZ, 1)), ("liouville", StepPlan(self.DZ, 1, "truncated", 1))
        ):
            w_p = step_phase_space(rho, spec, epsilon, plan).values.sum(axis=0)
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
                for plan in (StepPlan(self.DZ, 100), StepPlan(self.DZ, 100, "truncated", 1))
            )
            distance[epsilon] = np.abs(moyal - liouville).max()
        assert 3.6 <= distance[0.1] / distance[0.05] <= 4.4
        assert 3.6 <= distance[0.2] / distance[0.1] <= 4.4


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
            if plan.generator == "full_moyal":
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
            QUARTIC_GRID, (0.4, 0.25), quartic_channel(1.0, 0.1), StepPlan(5e-4, 50, "truncated", 1)
        ),
        "quartic_order3": (
            QUARTIC_GRID, (0.4, 0.25), quartic_channel(1.0, 0.1), StepPlan(5e-4, 50, "truncated", 3)
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

    def test_deviation_bounded_by_nyquist_residue(self):
        # With Nyquist content above round-off the real kernel drops what the
        # complex one keeps as an imaginary mode; the difference is bounded
        # by the residue the monitor sums, and stays below its tolerance.
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.12)
        plan = StepPlan(0.01, 50)
        kernel = _GridKernel(LENS_GRID, HARMONIC_LENS, EPS, plan)
        values, total_residue = rho.values, 0.0
        for step in range(plan.n_steps):
            values, residue = kernel.apply(values, step * plan.dz)
            total_residue += residue
        reference = complex_reference(rho, HARMONIC_LENS, EPS, plan)
        peak = np.abs(reference.real).max()
        deviation = np.abs(values - reference.real).max()
        assert deviation > 1e-12 * peak
        assert deviation <= total_residue + 1e-12 * peak
        assert total_residue <= STEP_REALNESS_TOL * peak

    def test_harmonic_lens_moyal_equals_liouville_bitwise(self):
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.12)
        moyal = evolve_phase_space(rho, HARMONIC_LENS, EPS, StepPlan(0.01, 50))
        liouville = evolve_phase_space(rho, HARMONIC_LENS, EPS, StepPlan(0.01, 50, "truncated", 1))
        assert moyal.final.values.tobytes() == liouville.final.values.tobytes()

    def test_nyquist_monitor_quiet_when_resolved(self):
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        plan = StepPlan(5e-4, 200)
        kernel = _GridKernel(QUARTIC_GRID, quartic_channel(1.0, 0.1), EPS, plan)
        values = rho.values
        for step in range(plan.n_steps):
            values, residue = kernel.apply(values, step * plan.dz)
            assert residue <= 1e-6 * STEP_REALNESS_TOL * np.abs(values).max()


def dense_kick(spec, x_col, y_row, epsilon, plan, z_mid):
    """``exp(i dz G)`` from the generator built on the whole grid, as ``cos + i sin``."""
    if plan.generator == "full_moyal":
        g = moyal_generator(spec, x_col, y_row, z_mid, epsilon)
    else:
        g = moyal_generator_truncated(spec, x_col, y_row, z_mid, epsilon, plan.max_order)
    angle = plan.dz * g
    kick = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=kick.real)
    np.sin(angle, out=kick.imag)
    return kick


class TestRankOneKick:
    # For degree <= 2 the kick exp(i dz U'(x) y) is built from the gradient
    # and a few columns of cos and sin; the dense generator build is its
    # reference, with the kick phase near the guard's pi.
    LENSES = {
        "linear_lens": linear_lens(1.0),
        "harmonic_lens": HARMONIC_LENS,
        "lens_with_x1": LENS_WITH_X1,
    }
    Z_MID = 0.37

    @staticmethod
    def operands(n_p):
        return _kick_operands(PhaseGrid(AxisGrid(256, 25.6), AxisGrid(n_p, 6.4)))

    def max_generator(self, spec, x, y):
        return float(np.abs(moyal_generator(spec, x, y, self.Z_MID, EPS)).max())

    @pytest.mark.parametrize("n_p", [64, 128, 512])
    @pytest.mark.parametrize("lens", sorted(LENSES))
    @pytest.mark.parametrize("generator", ["full_moyal", "truncated"])
    def test_matches_dense_build_near_the_guard(self, lens, n_p, generator):
        spec = self.LENSES[lens]
        x, y = self.operands(n_p)
        plan = StepPlan(3.1 / self.max_generator(spec, x, y), 1, generator)
        kick = _kick_multiplier(spec, x, y, EPS, plan, self.Z_MID)
        assert kick.shape == (x.shape[0], y.shape[1])
        reference = dense_kick(spec, x, y, EPS, plan, self.Z_MID)
        assert np.abs(kick - reference).max() <= 3e-15

    @pytest.mark.parametrize("lens", sorted(LENSES))
    def test_guard_value_and_message_as_the_dense_build(self, monkeypatch, lens):
        spec = self.LENSES[lens]
        x, y = self.operands(128)
        peak = self.max_generator(spec, x, y)
        guards = []
        check = phasespace._check_kick_phase

        def recording(guard):
            guards.append(guard)
            check(guard)

        monkeypatch.setattr(phasespace, "_check_kick_phase", recording)
        at_pi = math.pi / peak
        for dz in (0.5 * at_pi, math.nextafter(at_pi, 0.0), at_pi, math.nextafter(at_pi, 1.0), 2 * at_pi):
            guard = peak * dz  # the dense build's max |dz G|
            plan = StepPlan(dz, 1)
            if guard >= math.pi:
                message = (
                    f"kick phase overflow: max |dz * G| = {guard:.3e} >= pi "
                    "(the complex exponential would alias); reduce dz or the grid extents"
                )
                with pytest.raises(SolverError) as caught:
                    _kick_multiplier(spec, x, y, EPS, plan, self.Z_MID)
                assert str(caught.value) == message
            else:
                _kick_multiplier(spec, x, y, EPS, plan, self.Z_MID)
            assert guards.pop() == guard

    def test_lens_run_builds_no_generator(self, monkeypatch):
        calls = Counter()
        for name in ("moyal_generator", "moyal_generator_truncated"):
            original = getattr(phasespace, name)

            def counted(*args, __name=name, __original=original):
                calls[__name] += 1
                return __original(*args)

            monkeypatch.setattr(phasespace, name, counted)
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.2)
        for plan in (StepPlan(0.01, 20), StepPlan(0.01, 20, "truncated", 1)):
            evolve_phase_space(rho, HARMONIC_LENS, EPS, plan)
        assert calls == Counter()
        # The counter does see the quartic channel's one static build per plan.
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        evolve_phase_space(rho, quartic_channel(1.0, 0.1), EPS, StepPlan(5e-4, 3))
        evolve_phase_space(rho, quartic_channel(1.0, 0.1), EPS, StepPlan(5e-4, 3, "truncated", 1))
        assert calls == Counter(moyal_generator=1, moyal_generator_truncated=1)

    @pytest.mark.parametrize(
        "plan", [StepPlan(5e-4, 1), StepPlan(5e-4, 1, "truncated", 1)], ids=["full", "order1"]
    )
    def test_quartic_kick_is_the_dense_build_bitwise(self, plan):
        spec = PotentialSpec(((2, HarmonicProfile(0.5, 3.0)), (4, ConstantProfile(0.1))))
        x, y = _kick_operands(QUARTIC_GRID)
        kick = _kick_multiplier(spec, x, y, EPS, plan, self.Z_MID)
        assert kick.tobytes() == dense_kick(spec, x, y, EPS, plan, self.Z_MID).tobytes()


def retransform_reference(state, spec, epsilon, plan):
    """Real-data Strang steps that take the ``rfft`` of every sub-flow's input.

    This is the grid kernel before it kept the closing drift's spectrum
    across the step boundary: six transforms a step.  Returns the moments
    at every step and the final array.
    """
    grid, dz = state.grid, plan.dz
    nx, n_p = grid.x_axis.n, grid.p_axis.n
    x = grid.x_axis.points()[:, None]
    y = np.abs(grid.p_axis.frequencies()[: n_p // 2 + 1])[None, :]
    kx = np.abs(grid.x_axis.frequencies()[: nx // 2 + 1])
    drift = np.exp(-1j * np.outer(kx, grid.p_axis.points()) * (0.5 * dz))
    zs = state.z + dz * np.arange(plan.n_steps + 1)
    rho = state.values
    moments = [moments_of(state)]
    for step in range(plan.n_steps):
        kick = np.exp(1j * dz * moyal_generator(spec, x, y, zs[step] + 0.5 * dz, epsilon))
        rho = np.fft.irfft(np.fft.rfft(rho, axis=0) * drift, n=nx, axis=0)
        rho = np.fft.irfft(np.fft.rfft(rho, axis=1) * kick, n=n_p, axis=1)
        rho = np.fft.irfft(np.fft.rfft(rho, axis=0) * drift, n=nx, axis=0)
        moments.append(moments_of(QuasiDistribution(grid, rho, zs[step + 1])))
    return moments, rho


class TestHeldSpectrum:
    # A step opens from the x spectrum its predecessor's closing drift kept,
    # instead of transforming the array that drift returned.
    @pytest.mark.parametrize(
        "spec, per_step",
        [(HARMONIC_LENS, Counter(rfft=2, irfft=3)), (free_space(), Counter(rfft=1, irfft=2))],
        ids=["lens", "free"],
    )
    def test_ffts_per_step(self, monkeypatch, spec, per_step):
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.2)
        calls = count_ffts(monkeypatch)
        n = 20
        evolve_phase_space(rho, spec, EPS, StepPlan(0.01, n))
        # One rfft opens the first step; after that a step with a force takes
        # five transforms: the opening drift's irfft, then rfft + irfft for
        # the kick and for the closing drift.
        expected = Counter({name: count * n for name, count in per_step.items()})
        assert calls == expected + Counter(rfft=1)

    def test_lens_run_matches_retransform_reference(self):
        grid = PhaseGrid(AxisGrid(256, 25.6), AxisGrid(128, 6.4))
        rho = gaussian_quasidist(grid, 0.4, EPS / 0.8, x0=0.5)
        plan = StepPlan(2e-3, 300)
        run = evolve_phase_space(rho, HARMONIC_LENS, EPS, plan)
        moments, final = retransform_reference(rho, HARMONIC_LENS, EPS, plan)
        assert_moments_close(run.moments, moments, 1e-11)
        assert np.abs(run.final.values - final).max() <= 1e-11 * np.abs(final).max()

    def test_held_opening_matches_rfft_with_nyquist_content(self):
        # sigma_x = 0.08 leaves 1.5e-8 of the peak in the x Nyquist row; the
        # held spectrum must enter the next step as rfft of the returned array
        # would, with that row real.
        rho = gaussian_quasidist(LENS_GRID, 0.08, 0.2)
        plan = StepPlan(0.01, 2)

        def fresh_kernel():
            return _GridKernel(LENS_GRID, HARMONIC_LENS, EPS, plan)

        kernel = fresh_kernel()
        values, _ = kernel.apply(rho.values, 0.0)
        held, held_residue = kernel.apply(values, plan.dz)
        values, _ = fresh_kernel().apply(rho.values, 0.0)
        fresh, fresh_residue = fresh_kernel().apply(values, plan.dz)
        peak = np.abs(fresh).max()
        assert fresh_residue > 1e-9 * peak
        assert np.abs(held - fresh).max() <= 1e-14 * peak
        assert held_residue == pytest.approx(fresh_residue, rel=1e-6)

    @pytest.mark.parametrize("spec", [HARMONIC_LENS, free_space()], ids=["lens", "free"])
    def test_copy_of_last_output_steps_as_in_a_fresh_kernel(self, spec):
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.12)
        plan = StepPlan(0.01, 10)
        kernel = _GridKernel(LENS_GRID, spec, EPS, plan)
        values = rho.values
        for step in range(5):
            values, _ = kernel.apply(values, step * plan.dz)
        z = 5 * plan.dz
        copy = values.copy()
        held, held_residue = kernel.apply(copy, z)
        fresh, fresh_residue = _GridKernel(LENS_GRID, spec, EPS, plan).apply(copy, z)
        assert held.tobytes() == fresh.tobytes()
        assert held_residue == fresh_residue

    @pytest.mark.parametrize(
        "spec", [HARMONIC_LENS, linear_lens(1.0)], ids=["z_dependent", "static"]
    )
    def test_kernel_freed_without_garbage_collection(self, spec):
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.2)

        def two_steps():
            kernel = _GridKernel(LENS_GRID, spec, EPS, StepPlan(0.01, 2))
            kernel.advance(kernel.advance(rho.values, 0.0), 0.01)
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


class TestNonFiniteStep:
    # A NaN coefficient passes every input check and the kick guard
    # (nan >= pi is false); the per-step finiteness check must catch it.
    NAN_LENS = PotentialSpec(((2, ConstantProfile(math.nan)),))

    @pytest.mark.parametrize("engine", ["twm", "moyal", "liouville", "rays"])
    def test_nan_coefficient_fails_at_step_one(self, engine):
        rho = gaussian_quasidist(QUARTIC_GRID, 0.4, 0.25)
        plan = StepPlan(0.01, 3, "truncated") if engine == "liouville" else StepPlan(0.01, 3)
        with pytest.raises(SolverError, match=r"^step 1/3: .*non-finite"):
            if engine == "twm":
                evolve_twm(gaussian_wavefield(QUARTIC_GRID.x_axis, 0.4, EPS), self.NAN_LENS, plan)
            elif engine == "rays":
                trace_rays(sample_rays(rho, 100, seed=1), self.NAN_LENS, plan)
            else:
                evolve_phase_space(rho, self.NAN_LENS, EPS, plan)


class TestClassicalCheckPerStep:
    def test_negative_values_name_the_step(self, monkeypatch):
        # The check sees the negated density at step 3 (its 4th call), so the
        # real check raises its own message from inside the step loop.
        calls = []
        check = phasespace._check_classical

        def failing(values):
            calls.append(None)
            check(-values if len(calls) == 4 else values)

        monkeypatch.setattr(phasespace, "_check_classical", failing)
        rho = gaussian_quasidist(LENS_GRID, 0.3, 0.12)
        evolve_phase_space(rho, HARMONIC_LENS, EPS, StepPlan(0.01, 5))
        assert calls == []  # a deformed (wigner) density may go negative
        with pytest.raises(
            SolverError, match=r"^step 3/5: classical density has negative values beyond round-off"
        ):
            evolve_phase_space(rho, HARMONIC_LENS, EPS, StepPlan(0.01, 5, "truncated", 1))


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

    @pytest.mark.parametrize("far", [300.0, 1e3, 1e4])
    def test_overflowing_moments_name_the_step(self, far):
        # The far ray stays finite while the squares in its moments overflow;
        # that is a step error, not a bare OverflowError.
        ens = RayEnsemble(np.array([0.1, -0.1, 0.2, far]), np.zeros(4))
        with pytest.raises(SolverError, match=r"^step \d+/30: beam moments are not finite"):
            trace_rays(ens, quartic_channel(1.0, 0.1), StepPlan(0.01, 30))

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

    Returns the moments of every step, the final surviving positions and
    momenta, and the number of rays lost to non-finite values.
    """
    x = np.array(ensemble.positions, dtype=float)
    p = np.array(ensemble.momenta, dtype=float)
    alive = np.ones(x.size, dtype=bool)
    half = 0.5 * plan.dz
    z = ensemble.z
    moments = [textbook_ray_moments(x, p, z)]
    for _ in range(plan.n_steps):
        z_mid = z + half
        with np.errstate(over="ignore", invalid="ignore"):
            p[alive] -= half * eval_gradient(spec, x[alive], z_mid)
            x[alive] += plan.dz * p[alive]
            p[alive] -= half * eval_gradient(spec, x[alive], z_mid)
        alive = np.isfinite(x) & np.isfinite(p)
        z += plan.dz
        moments.append(textbook_ray_moments(x[alive], p[alive], z))
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
