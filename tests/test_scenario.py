"""Scenario file parsing, defaulting, and load-time validation."""

import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from beamphase import ConfigError, GridError, build_initial_states, eval_gradient, load_scenario
from beamphase import scenario
from beamphase.scenario import DEFAULT_OUTPUT_DIR, OUTPUT_DIR_ENV

MINIMAL = """
[grid]
x_length = 16.0
p_length = 0.8

[beam]
sigma0 = 1.0

[physics]
epsilon = 0.1

[run]
dz = 0.1
n_steps = 10
"""


def write_scenario(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


def load_text(tmp_path, text):
    return load_scenario(write_scenario(tmp_path, text))


@pytest.fixture(autouse=True)
def clean_output_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


class TestDefaults:
    def test_minimal_file_fills_documented_defaults(self, tmp_path):
        config = load_text(tmp_path, MINIMAL)
        assert config.grid.nx == 256
        assert config.grid.np == 256
        assert config.grid.x_center == 0.0
        assert config.grid.p_center == 0.0
        assert config.beam.kind == "gaussian"
        assert config.beam.x0 == 0.0
        assert config.beam.p0 == 0.0
        assert config.beam.separation == 0.0
        assert config.potential.preset == "free_space"
        assert config.potential.profile == "constant"
        assert config.run.snapshot_every == 10
        assert config.run.engines == ("moyal",)
        assert config.run.ray_count == 10000
        assert config.run.seed == 0
        assert config.output.directory == DEFAULT_OUTPUT_DIR
        assert config.output.formats == ("csv",)
        assert config.epsilon == 0.1
        assert not config.physics.from_thermal

    def test_snapshot_default_stays_positive_for_zero_steps(self, tmp_path):
        config = load_text(tmp_path, MINIMAL.replace("n_steps = 10", "n_steps = 0"))
        assert config.run.snapshot_every == 1

    def test_grid_section_builds_phase_grid(self, tmp_path):
        grid = load_text(tmp_path, MINIMAL).grid.phase_grid()
        assert grid.shape == (256, 256)
        assert grid.x_axis.spacing == pytest.approx(16.0 / 256)
        assert grid.p_axis.spacing == pytest.approx(0.8 / 256)


class TestPhysics:
    def test_thermal_pair_derives_epsilon(self, tmp_path):
        text = MINIMAL.replace(
            "epsilon = 0.1", "vth_over_c = 0.05\nsigma0 = 2.0"
        ).replace("p_length = 0.8", "p_length = 1.6")
        config = load_text(tmp_path, text)
        assert config.epsilon == pytest.approx(0.2)
        assert config.physics.from_thermal
        assert config.physics.vth_over_c == 0.05

    def test_epsilon_and_thermal_are_exclusive(self, tmp_path):
        text = MINIMAL.replace("epsilon = 0.1", "epsilon = 0.1\nvth_over_c = 0.05")
        with pytest.raises(ConfigError, match="physics.epsilon"):
            load_text(tmp_path, text)

    def test_half_a_thermal_pair_rejected(self, tmp_path):
        text = MINIMAL.replace("epsilon = 0.1", "vth_over_c = 0.05")
        with pytest.raises(ConfigError, match="both of vth_over_c and sigma0"):
            load_text(tmp_path, text)

    def test_nonfinite_epsilon_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="physics.epsilon: must be finite"):
            load_text(tmp_path, MINIMAL.replace("epsilon = 0.1", "epsilon = inf"))


class TestStructure:
    def test_np_must_be_power_of_two(self, tmp_path):
        text = MINIMAL.replace("[beam]", "np = 100\n\n[beam]")
        with pytest.raises(ConfigError, match="grid.np"):
            load_text(tmp_path, text)

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="run.walltime: unknown key"):
            load_text(tmp_path, MINIMAL + "walltime = 60\n")

    def test_missing_section_named(self, tmp_path):
        text = MINIMAL.replace("[physics]\nepsilon = 0.1\n", "")
        with pytest.raises(ConfigError, match=r"missing required section \[physics\]"):
            load_text(tmp_path, text)

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[diagnostics\]"):
            load_text(tmp_path, MINIMAL + "\n[diagnostics]\nlevel = 3\n")

    def test_non_numeric_value_named(self, tmp_path):
        with pytest.raises(ConfigError, match="grid.x_length: not a number"):
            load_text(tmp_path, MINIMAL.replace("x_length = 16.0", "x_length = wide"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(tmp_path / "nope.ini")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.ini"
        path.write_text("this is not a scenario\n")
        with pytest.raises(ConfigError, match="does not parse"):
            load_scenario(path)


class TestBeam:
    def test_separation_only_for_superposition(self, tmp_path):
        text = MINIMAL.replace("sigma0 = 1.0", "sigma0 = 1.0\nseparation = 2.0")
        with pytest.raises(ConfigError, match="beam.separation"):
            load_text(tmp_path, text)

    def test_superposition_needs_positive_separation(self, tmp_path):
        text = MINIMAL.replace("sigma0 = 1.0", "kind = superposition\nsigma0 = 1.0")
        with pytest.raises(ConfigError, match="beam.separation: must be positive"):
            load_text(tmp_path, text)

    def test_superposition_accepted(self, tmp_path):
        text = MINIMAL.replace(
            "sigma0 = 1.0", "kind = superposition\nsigma0 = 0.5\nseparation = 2.0"
        ).replace("p_length = 0.8", "p_length = 1.6")
        config = load_text(tmp_path, text)
        assert config.beam.kind == "superposition"
        assert config.beam.separation == 2.0


class TestPotential:
    def test_free_space_takes_no_coefficients(self, tmp_path):
        text = MINIMAL + "\n[potential]\npreset = free_space\nk = 1.0\n"
        with pytest.raises(ConfigError, match="free_space takes no coefficients"):
            load_text(tmp_path, text)

    def test_lens_rejects_quartic_coefficient(self, tmp_path):
        text = MINIMAL + "\n[potential]\npreset = linear_lens\nk = 1.0\nlambda4 = 0.1\n"
        with pytest.raises(ConfigError, match="potential.lambda4"):
            load_text(tmp_path, text)

    def test_omega_only_for_harmonic_profile(self, tmp_path):
        text = MINIMAL + "\n[potential]\npreset = linear_lens\nk = 1.0\nomega = 2.0\n"
        with pytest.raises(ConfigError, match="potential.omega"):
            load_text(tmp_path, text)

    def test_phase_only_for_harmonic_profile(self, tmp_path):
        text = MINIMAL + "\n[potential]\npreset = linear_lens\nk = 1.0\nphase = 0.5\n"
        with pytest.raises(ConfigError, match="potential.phase: only meaningful for profile"):
            load_text(tmp_path, text)

    def test_harmonic_profile_requires_omega(self, tmp_path):
        text = MINIMAL + "\n[potential]\npreset = linear_lens\nk = 1.0\nprofile = harmonic\n"
        with pytest.raises(ConfigError, match="potential.omega: required key is missing"):
            load_text(tmp_path, text)

    def test_harmonic_profile_modulates_gradient(self, tmp_path):
        text = (
            MINIMAL
            + "\n[potential]\npreset = linear_lens\nk = 2.0\n"
            + "profile = harmonic\nomega = 3.0\nphase = 0.5\n"
        )
        spec = load_text(tmp_path, text).potential.build()
        z = 0.7
        assert eval_gradient(spec, 1.0, z) == pytest.approx(2.0 * math.cos(3.0 * z + 0.5))

    def test_harmonic_profile_modulates_quartic_term(self, tmp_path):
        text = (
            MINIMAL
            + "\n[potential]\npreset = quartic_channel\nk = 2.0\nlambda4 = 0.1\n"
            + "profile = harmonic\nomega = 3.0\nphase = 0.5\n"
        )
        spec = load_text(tmp_path, text).potential.build()
        z = 0.7
        scale = math.cos(3.0 * z + 0.5)
        np.testing.assert_allclose(
            spec.coefficients(z), [0.0, 0.0, 1.0 * scale, 0.0, 0.1 * scale], rtol=1e-15
        )

    def test_malformed_lambda4_reported_before_missing_k(self, tmp_path):
        text = MINIMAL + "\n[potential]\npreset = quartic_channel\nlambda4 = abc\n"
        with pytest.raises(ConfigError) as info:
            load_text(tmp_path, text)
        assert str(info.value) == "potential.lambda4: not a number: 'abc'"

    def test_malformed_phase_reported_before_missing_omega(self, tmp_path):
        text = MINIMAL + "\n[potential]\npreset = linear_lens\nk = 1.0\nprofile = harmonic\n"
        with pytest.raises(ConfigError) as info:
            load_text(tmp_path, text + "phase = abc\n")
        assert str(info.value) == "potential.phase: not a number: 'abc'"

    def test_negative_zero_coefficient_keeps_its_sign(self, tmp_path):
        text = MINIMAL + "\n[potential]\npreset = quartic_channel\nk = 1.0\nlambda4 = -0.0\n"
        lambda4 = load_text(tmp_path, text).potential.lambda4
        assert lambda4 == 0.0 and math.copysign(1.0, lambda4) == -1.0

    def test_piecewise_profile_not_accepted_in_files(self, tmp_path):
        text = MINIMAL + "\n[potential]\npreset = linear_lens\nk = 1.0\nprofile = piecewise\n"
        with pytest.raises(ConfigError, match="potential.profile"):
            load_text(tmp_path, text)


class TestClearance:
    def test_wide_beam_rejected_at_load_time(self, tmp_path):
        with pytest.raises(ConfigError, match="grid.x_length"):
            load_text(tmp_path, MINIMAL.replace("sigma0 = 1.0", "sigma0 = 3.0"))

    def test_narrow_momentum_box_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="grid.p_length"):
            load_text(tmp_path, MINIMAL.replace("p_length = 0.8", "p_length = 0.6"))

    def test_wavefield_engine_needs_wider_box(self, tmp_path):
        # The envelope of a wavefield decays as exp(-x^2 / 4 sigma^2), half
        # as fast as a density, so the twm engine demands more clearance.
        text = MINIMAL + "engines = twm\n"
        with pytest.raises(ConfigError, match="grid.x_length"):
            load_text(tmp_path, text)
        config = load_text(
            tmp_path, text.replace("x_length = 16.0", "x_length = 24.0")
        )
        assert config.run.engines == ("twm",)

    # A beam placed just inside or just outside the box edge, on a grid with
    # unit (x) or 0.025 (p) spacing so the peak can fall between samples.
    # Each case names the key that load_scenario refuses it on, or None.
    EDGE_PROBE = """
        [grid]
        nx = 32
        np = {np}
        x_length = 32.0
        p_length = 0.8

        [beam]
        kind = {kind}
        sigma0 = 1.0
        x0 = {x0}
        p0 = {p0}
        separation = {separation}

        [physics]
        epsilon = 0.1

        [run]
        dz = 0.1
        n_steps = 1
        engines = {engines}
    """
    EDGE_CASES = {
        # Centre 0.44 from a sample: the edge sample at 15 is 1.05e-12 of the largest.
        "gaussian-between-samples-in": (dict(x0=7.5), None),
        "gaussian-between-samples-out": (dict(x0=7.56), "grid.x_length"),
        "superposition-in": (dict(kind="superposition", separation=15.0), None),
        "superposition-out": (dict(kind="superposition", separation=15.12), "grid.x_length"),
        # The wavefield envelope exp(-x^2 / 4 sigma^2) reaches about 10.5 sigma.
        "twm-envelope-in": (dict(x0=4.4, engines="twm"), None),
        "twm-envelope-out": (dict(x0=4.5, engines="twm"), "grid.x_length"),
        # sigma_p = 0.05; the top p sample sits at 0.375, about 7.4 sigma_p from p0.
        "p-axis-in": (dict(np=32, p0=0.0025), None),
        "p-axis-out": (dict(np=32, p0=0.005), "grid.p_length"),
    }

    @pytest.mark.parametrize("case", EDGE_CASES.values(), ids=EDGE_CASES.keys())
    def test_load_accepts_exactly_what_builds(self, tmp_path, monkeypatch, case):
        overrides, refusal = case
        fields = dict(np=256, kind="gaussian", x0=0.0, p0=0.0, separation=0.0, engines="liouville")
        path = write_scenario(tmp_path, self.EDGE_PROBE.format(**{**fields, **overrides}))
        with monkeypatch.context() as unchecked:
            unchecked.setattr(scenario, "_cross_validate", lambda config: None)
            config = load_scenario(path)
        try:
            build_initial_states(config)
            builds = True
        except GridError:
            builds = False
        assert builds == (refusal is None)
        if builds:
            assert load_scenario(path) == config
        else:
            with pytest.raises(ConfigError, match=refusal):
                load_scenario(path)

    def test_beam_off_the_grid_is_a_config_error(self, tmp_path):
        # Every sample underflows to zero, which the constructors refuse as a StateError.
        with pytest.raises(ConfigError, match="grid.x_length, grid.p_length: .* identically zero"):
            load_text(tmp_path, MINIMAL.replace("sigma0 = 1.0", "sigma0 = 1.0\nx0 = 100.0"))

    @pytest.mark.parametrize(
        "old, new",
        [("sigma0 = 1.0", "sigma0 = 1e-300"), ("epsilon = 0.1", "epsilon = 1e300")],
        ids=["narrow-beam", "wide-momentum"],
    )
    def test_beam_scale_refusal_names_the_beam_keys(self, tmp_path, old, new):
        # The builders refuse the beam's own widths, sigma0 and epsilon / (2 sigma0), not the box.
        with pytest.raises(
            ConfigError,
            match=r"^beam\.sigma0, physics\.epsilon: covariance matrix must be positive definite",
        ):
            load_text(tmp_path, MINIMAL.replace(old, new))


class TestRun:
    def test_ray_count_floor(self, tmp_path):
        with pytest.raises(ConfigError, match="run.ray_count"):
            load_text(tmp_path, MINIMAL + "ray_count = 1\n")

    def test_seed_must_be_nonnegative(self, tmp_path):
        with pytest.raises(ConfigError, match="run.seed"):
            load_text(tmp_path, MINIMAL + "seed = -1\n")

    def test_engines_parse_to_canonical_order(self, tmp_path):
        config = load_text(
            tmp_path,
            MINIMAL.replace("x_length = 16.0", "x_length = 24.0")
            + "engines = rays, moyal twm\n",
        )
        assert config.run.engines == ("twm", "moyal", "rays")

    def test_unknown_engine_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="run.engines: unknown engine 'wkb'"):
            load_text(tmp_path, MINIMAL + "engines = wkb\n")


class TestOutput:
    def test_config_key_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, "env-dir")
        text = MINIMAL + "\n[output]\ndirectory = cfg-dir\n"
        assert load_text(tmp_path, text).output.directory == "cfg-dir"

    def test_environment_beats_builtin_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, "env-dir")
        assert load_text(tmp_path, MINIMAL).output.directory == "env-dir"

    def test_unknown_format_rejected(self, tmp_path):
        text = MINIMAL + "\n[output]\nformats = csv svg\n"
        with pytest.raises(ConfigError, match="output.formats: unknown format 'svg'"):
            load_text(tmp_path, text)

    def test_formats_canonical_order(self, tmp_path):
        text = MINIMAL + "\n[output]\nformats = heatmap, csv\n"
        assert load_text(tmp_path, text).output.formats == ("csv", "heatmap")


class TestRefusalsNameTheirKey:
    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("n_steps = 10", "n_steps = -1", "run.n_steps"),
            ("n_steps = 10", "n_steps = 10\nsnapshot_every = 0", "run.snapshot_every"),
            ("sigma0 = 1.0", "kind = pencil\nsigma0 = 1.0", "beam.kind"),
            ("n_steps = 10", "n_steps = 10\n\n[potential]\npreset = sextupole", "potential.preset"),
            ("n_steps = 10", "n_steps = 10\nengines =", "run.engines"),
            ("x_length = 16.0", "nx = 12.5\nx_length = 16.0", "grid.nx"),
            ("n_steps = 10", "n_steps = 10\n\n[output]\ndirectory =", "output.directory"),
        ],
    )
    def test_refusal_names_its_key(self, tmp_path, old, new, key):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            load_text(tmp_path, MINIMAL.replace(old, new))


class TestOverrideHelpers:
    def test_with_helpers_return_updated_copies(self, tmp_path):
        config = load_text(tmp_path, MINIMAL)
        reseeded = config.with_seed(42)
        assert reseeded.run.seed == 42
        assert config.run.seed == 0
        redirected = config.with_output_dir("elsewhere")
        assert redirected.output.directory == "elsewhere"
        assert config.output.directory == DEFAULT_OUTPUT_DIR
        forced = config.with_engines(("rays", "moyal"))
        assert forced.run.engines == ("moyal", "rays")

    def test_with_engines_validates(self, tmp_path):
        config = load_text(tmp_path, MINIMAL)
        with pytest.raises(ConfigError, match="unknown engine"):
            config.with_engines(("wkb",))

    def test_with_no_engines_refused(self, tmp_path):
        config = load_text(tmp_path, MINIMAL)
        with pytest.raises(ConfigError, match="run.engines: at least one engine is required"):
            config.with_engines(())


class TestReadmeExample:
    def test_readme_scenario_block_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        config = load_text(tmp_path, block)
        assert config.beam.kind == "gaussian"
        assert config.potential.preset == "quartic_channel"
        assert config.potential.profile == "constant"
        assert config.run.engines == ("twm", "moyal")
