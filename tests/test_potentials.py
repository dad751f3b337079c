"""Polynomial potentials, coefficient profiles, and the kick generator."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from beamphase import (
    BeamPhaseError,
    ConstantProfile,
    HarmonicProfile,
    PiecewiseProfile,
    PotentialSpec,
    eval_gradient,
    eval_potential,
    free_space,
    linear_lens,
    moyal_generator,
    moyal_generator_truncated,
    quartic_channel,
)


class TestEvaluation:
    def test_free_space_is_zero(self):
        spec = free_space()
        x = np.linspace(-5, 5, 11)
        np.testing.assert_array_equal(eval_potential(spec, x, 0.3), np.zeros(11))
        np.testing.assert_array_equal(eval_gradient(spec, x, 0.3), np.zeros(11))

    def test_linear_lens_values(self):
        spec = linear_lens(1.0)
        assert eval_potential(spec, 2.0, 0.0) == pytest.approx(2.0)
        assert eval_gradient(spec, 2.0, 0.0) == pytest.approx(2.0)

    def test_quartic_values(self):
        spec = quartic_channel(1.0, 0.1)
        assert eval_potential(spec, 2.0, 0.0) == pytest.approx(2.0 + 0.1 * 16.0)
        assert eval_gradient(spec, 2.0, 0.0) == pytest.approx(2.0 + 4 * 0.1 * 8.0)

    def test_vectorized_matches_scalar(self):
        spec = quartic_channel(2.0, 0.3)
        x = np.linspace(-2, 2, 9)
        expected = [eval_potential(spec, float(v), 0.0) for v in x]
        np.testing.assert_allclose(eval_potential(spec, x, 0.0), expected, rtol=1e-15)


def out_of_place_horner(coeffs, x):
    """Horner's rule with a fresh array per stage: ``r = r * x + c``."""
    if len(coeffs) == 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    result = np.full_like(np.asarray(x, dtype=float), coeffs[-1])
    for c in coeffs[-2::-1]:
        result = result * x + c
    return result


coefficient_lists = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=7)
points = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=16)


class TestInPlaceHorner:
    """The in-place rule does the out-of-place rule's arithmetic, bit for bit."""

    @staticmethod
    def spec(coeffs):
        return PotentialSpec(tuple((k, ConstantProfile(c)) for k, c in enumerate(coeffs)))

    @staticmethod
    def references(coeffs, x):
        gradient = np.arange(1, len(coeffs)) * np.asarray(coeffs[1:], dtype=float)
        return out_of_place_horner(np.asarray(coeffs, dtype=float), x), out_of_place_horner(
            gradient, x
        )

    @given(coefficient_lists, points)
    def test_arrays_bitwise_equal_and_input_untouched(self, coeffs, values):
        x = np.array(values)
        x.flags.writeable = False
        spec = self.spec(coeffs)
        potential, gradient = self.references(coeffs, x.copy())
        assert eval_potential(spec, x, 0.0).tobytes() == potential.tobytes()
        assert eval_gradient(spec, x, 0.0).tobytes() == gradient.tobytes()
        assert x.tobytes() == np.array(values).tobytes()

    @given(coefficient_lists, st.floats(-5.0, 5.0))
    def test_python_float_gives_numpy_scalar(self, coeffs, x):
        spec = self.spec(coeffs)
        for value, reference in zip(
            (eval_potential(spec, x, 0.0), eval_gradient(spec, x, 0.0)),
            self.references(coeffs, x),
        ):
            assert isinstance(value, np.float64) and not isinstance(value, np.ndarray)
            assert np.float64(value).tobytes() == np.asarray(reference).tobytes()

    def test_column_broadcasts_like_the_generator_uses_it(self):
        x_col = np.linspace(-3.0, 3.0, 5)[:, None]
        spec = quartic_channel(1.0, 0.1)
        potential, gradient = self.references([0.0, 0.0, 0.5, 0.0, 0.1], x_col)
        assert eval_potential(spec, x_col, 0.0).shape == (5, 1)
        assert eval_potential(spec, x_col, 0.0).tobytes() == potential.tobytes()
        assert eval_gradient(spec, x_col, 0.0).tobytes() == gradient.tobytes()


class TestProfiles:
    def test_constant(self):
        assert ConstantProfile(3.5)(17.0) == 3.5

    def test_harmonic(self):
        prof = HarmonicProfile(2.0, omega=3.0, phase=0.5)
        assert prof(1.2) == pytest.approx(2.0 * math.cos(3.0 * 1.2 + 0.5))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ConstantProfile("0.5"),
            lambda: ConstantProfile(None),
            lambda: HarmonicProfile("0.5", 2.0),
            lambda: HarmonicProfile(0.5, "2.0"),
            lambda: HarmonicProfile(0.5, 2.0, "0"),
            lambda: PiecewiseProfile(((0.0, "0.5"),)),
            lambda: PiecewiseProfile(((0.0, None),)),
            lambda: PiecewiseProfile(((0.0, 1.0), (2.0, "abc"))),
        ],
        ids=[
            "constant-string",
            "constant-none",
            "amplitude",
            "omega",
            "phase",
            "piecewise-string",
            "piecewise-none",
            "piecewise-word",
        ],
    )
    def test_non_real_parameter_refused_when_built(self, build):
        with pytest.raises(BeamPhaseError, match="must be real, got"):
            build()

    def test_non_finite_parameter_left_to_the_engines(self):
        # The engines refuse a non-finite coefficient at the step that meets it.
        assert math.isnan(ConstantProfile(math.nan)(0.0))
        assert HarmonicProfile(math.inf, 2.0).amplitude == math.inf

    def test_piecewise_lattice(self):
        prof = PiecewiseProfile(((0.0, 1.0), (2.0, -1.0), (4.0, 0.0)))
        assert prof(-1.0) == 1.0
        assert prof(0.0) == 1.0
        assert prof(1.999) == 1.0
        assert prof(2.0) == -1.0
        assert prof(100.0) == 0.0

    def test_piecewise_contract(self):
        with pytest.raises(BeamPhaseError):
            PiecewiseProfile(())
        with pytest.raises(BeamPhaseError):
            PiecewiseProfile(((0.0, 1.0), (0.0, 2.0)))

    def test_profile_feeds_potential(self):
        spec = PotentialSpec(((2, HarmonicProfile(0.5, omega=2.0)),))
        z = 0.7
        assert eval_potential(spec, 3.0, z) == pytest.approx(
            0.5 * math.cos(2.0 * z) * 9.0
        )


class TestSpecContract:
    def test_duplicate_power_rejected(self):
        with pytest.raises(BeamPhaseError):
            PotentialSpec(((2, ConstantProfile(1.0)), (2, ConstantProfile(2.0))))

    def test_negative_power_rejected(self):
        with pytest.raises(BeamPhaseError):
            PotentialSpec(((-1, ConstantProfile(1.0)),))

    def test_non_callable_profile_rejected(self):
        with pytest.raises(BeamPhaseError):
            PotentialSpec(((2, 1.0),))

    def test_non_integer_power_rejected(self):
        with pytest.raises(BeamPhaseError):
            PotentialSpec(((2.5, ConstantProfile(1.0)),))


class TestMoyalGenerator:
    def test_quadratic_equals_gradient_shear(self):
        spec = linear_lens(1.7)
        rng = np.random.default_rng(0)
        x = rng.uniform(-4, 4, 200)
        y = rng.uniform(-30, 30, 200)
        g = moyal_generator(spec, x, y, 0.0, epsilon=0.1)
        np.testing.assert_array_equal(g, eval_gradient(spec, x, 0.0) * y)

    def test_pure_quartic_shift_difference(self):
        # U = lambda * x^4 at (x, y) = (1, 1), eps = 0.2:
        # G = lambda * (1.1^4 - 0.9^4) / 0.2 = 4.04 * lambda.
        lam = 0.3
        spec = PotentialSpec(((4, ConstantProfile(lam)),))
        g = moyal_generator(spec, 1.0, 1.0, 0.0, epsilon=0.2)
        assert g == pytest.approx(lam * (1.1**4 - 0.9**4) / 0.2, rel=1e-13)

    def test_zero_shift_is_zero(self):
        spec = quartic_channel(1.0, 0.1)
        x = np.linspace(-3, 3, 7)
        np.testing.assert_array_equal(
            moyal_generator(spec, x, np.zeros(7), 0.0, 0.1), np.zeros(7)
        )

    @given(
        x=st.floats(-4, 4),
        y=st.floats(-30, 30),
        eps=st.floats(0.01, 0.5),
    )
    def test_odd_in_y(self, x, y, eps):
        spec = quartic_channel(1.0, 0.1)
        plus = moyal_generator(spec, x, y, 0.0, eps)
        minus = moyal_generator(spec, x, -y, 0.0, eps)
        assert minus == pytest.approx(-plus, rel=1e-12, abs=1e-12)

    def test_real_for_real_inputs(self):
        spec = quartic_channel(1.0, 0.1)
        rng = np.random.default_rng(1)
        g = moyal_generator(spec, rng.uniform(-2, 2, 50), rng.uniform(-20, 20, 50), 0.0, 0.1)
        assert np.isrealobj(g)

    def test_direct_shift_oracle_random_points(self):
        # Independent oracle: evaluate [U(x + eps y/2) - U(x - eps y/2)] / eps
        # from the two shifted potentials directly.
        spec = quartic_channel(1.3, 0.27)
        eps = 0.17
        rng = np.random.default_rng(2)
        x = rng.uniform(-3, 3, 1000)
        y = rng.uniform(-10, 10, 1000)
        oracle = (
            eval_potential(spec, x + 0.5 * eps * y, 0.0)
            - eval_potential(spec, x - 0.5 * eps * y, 0.0)
        ) / eps
        g = moyal_generator(spec, x, y, 0.0, eps)
        np.testing.assert_allclose(g, oracle, rtol=1e-11, atol=1e-11)


class TestTruncatedGenerator:
    def test_order_one_is_classical_shear(self):
        spec = quartic_channel(1.0, 0.1)
        rng = np.random.default_rng(3)
        x = rng.uniform(-3, 3, 100)
        y = rng.uniform(-10, 10, 100)
        g1 = moyal_generator_truncated(spec, x, y, 0.0, 0.2, max_order=1)
        np.testing.assert_array_equal(g1, eval_gradient(spec, x, 0.0) * y)

    def test_order_one_equals_full_for_quadratic(self):
        spec = linear_lens(0.8)
        rng = np.random.default_rng(4)
        x = rng.uniform(-3, 3, 100)
        y = rng.uniform(-10, 10, 100)
        g1 = moyal_generator_truncated(spec, x, y, 0.0, 0.2, max_order=1)
        np.testing.assert_array_equal(g1, moyal_generator(spec, x, y, 0.0, 0.2))

    def test_series_terminates_at_degree(self):
        spec = PotentialSpec(((4, ConstantProfile(0.5)),))
        rng = np.random.default_rng(5)
        x = rng.uniform(-3, 3, 1000)
        y = rng.uniform(-10, 10, 1000)
        g3 = moyal_generator_truncated(spec, x, y, 0.0, 0.2, max_order=3)
        full = moyal_generator(spec, x, y, 0.0, 0.2)
        np.testing.assert_allclose(g3, full, rtol=1e-13, atol=1e-13)
        g5 = moyal_generator_truncated(spec, x, y, 0.0, 0.2, max_order=5)
        np.testing.assert_array_equal(g5, g3)

    def test_order_one_defect_identity(self):
        # For U = lambda x^4 the only correction is the third series term:
        # G - U' y = 2 (eps/2)^3 U'''(x) y^3 / (6 eps) = eps^2 lambda x y^3.
        lam = 0.4
        spec = PotentialSpec(((4, ConstantProfile(lam)),))
        eps = 0.2
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, 500)
        y = rng.uniform(-5, 5, 500)
        defect = moyal_generator(spec, x, y, 0.0, eps) - moyal_generator_truncated(
            spec, x, y, 0.0, eps, max_order=1
        )
        np.testing.assert_allclose(defect, eps**2 * lam * x * y**3, rtol=1e-10, atol=1e-12)

    def test_even_order_rejected(self):
        spec = quartic_channel(1.0, 0.1)
        with pytest.raises(BeamPhaseError):
            moyal_generator_truncated(spec, 1.0, 1.0, 0.0, 0.1, max_order=2)


class TestKickIsClassical:
    SPECS = {
        -1: free_space(),
        0: PotentialSpec(((0, ConstantProfile(2.0)),)),
        1: PotentialSpec(((1, HarmonicProfile(0.3, 2.0)),)),
        2: PotentialSpec(((0, ConstantProfile(1.0)), (2, HarmonicProfile(0.5, 3.0)))),
        3: PotentialSpec(((2, ConstantProfile(0.5)), (3, ConstantProfile(0.05)))),
        4: quartic_channel(1.0, 0.1),
    }

    @pytest.mark.parametrize("degree", sorted(SPECS))
    def test_holds_exactly_when_the_generators_agree_bitwise(self, degree):
        spec = self.SPECS[degree]
        assert spec.degree == degree
        assert spec.kick_is_classical == (degree <= 2)
        rng = np.random.default_rng(7)
        x = rng.uniform(-3, 3, (200, 1))
        y = rng.uniform(-10, 10, (1, 64))
        full = moyal_generator(spec, x, y, 0.37, 0.2)
        order_one = moyal_generator_truncated(spec, x, y, 0.37, 0.2, max_order=1)
        assert (full.tobytes() == order_one.tobytes()) == spec.kick_is_classical

    def test_presets(self):
        assert linear_lens(1.0).kick_is_classical
        assert not quartic_channel(1.0, 0.0).kick_is_classical  # the x**4 term is kept


class TestPresets:
    def test_lens_contract(self):
        with pytest.raises(BeamPhaseError):
            linear_lens(math.nan)

    def test_quartic_contract(self):
        with pytest.raises(BeamPhaseError, match="must be finite"):
            quartic_channel(math.inf, 0.1)

    def test_quartic_degree(self):
        spec = quartic_channel(1.0, 0.1)
        assert spec.degree == 4
        assert free_space().degree == -1
        assert linear_lens(2.0).degree == 2

    def test_quartic_coefficient_convention(self):
        # U = K x^2/2 + lambda4 x^4: the bench reference and the acceptance
        # gates are pinned to this convention.
        np.testing.assert_array_equal(
            quartic_channel(1.5, 0.1).coefficients(0.0), [0.0, 0.0, 0.75, 0.0, 0.1]
        )
