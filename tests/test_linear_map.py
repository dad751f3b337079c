"""Linear optics in one shot: ``evolve_phase_space`` against stepping the grid kernel.

For a potential of degree <= 2 ``evolve_phase_space`` maps a run in closed
form: moments from the composed 2x2 step maps, and each snapshot from the
one before it by at most three Fourier shears of the map between them,
split at its middle step where those shears would leave the grid.  No
closed-form run steps the grid.  Stepping ``_GridKernel`` through
``_evolve`` is its reference.  The bounds were fixed before measuring:
moments within 1e-10 of their scale, the final state within 1e-9 of the
peak.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from step_checks import assert_moments_close, count_ffts

from beamphase import (
    AxisGrid,
    ConstantProfile,
    HarmonicProfile,
    PhaseGrid,
    PotentialSpec,
    SolverError,
    StepPlan,
    evolve_phase_space,
    free_space,
    gaussian_quasidist,
    linear_lens,
    load_scenario,
    run_scenario,
    superposition_quasidist,
)
from beamphase import linear_map, phasespace
from beamphase.linear_map import (
    _IDENTITY,
    _first_exit,
    _linear_run,
    _shear_sequence,
    _shear_states,
)
from beamphase.phasespace import _evolve, _GridKernel, _step_boundaries

EPS = 0.1
# The beams below stay within 7 widths of every edge while they rotate.
LENS_GRID = PhaseGrid(AxisGrid(128, 6.4), AxisGrid(64, 5.12))
# Off-centre axes: the maps carry the offsets of the grid centre.
SHIFTED_GRID = PhaseGrid(AxisGrid(128, 6.4, 0.35), AxisGrid(64, 5.12, -0.1))
HARMONIC_LENS = PotentialSpec(((2, HarmonicProfile(0.5, 3.0)),))
LENS_WITH_X1 = PotentialSpec(((1, HarmonicProfile(0.3, 2.0)), (2, ConstantProfile(0.5))))
POTENTIALS = {
    "harmonic_lens": HARMONIC_LENS,
    "constant_lens": linear_lens(1.0),
    "free": free_space(),
    "lens_with_x1": LENS_WITH_X1,
}


def two_lenses(z):
    """K = 1 for a quarter turn (beta 1), then K = 4 (beta 1/2)."""
    return 0.5 if z < 0.5 * math.pi else 2.0


# A quarter turn in each lens maps the run to nearly -diag(1/2, 2), far from a rotation.
TWO_LENSES = PotentialSpec(((2, two_lenses),))
# Room in p for the beam's momentum spread to double.
TALL_GRID = PhaseGrid(AxisGrid(128, 6.4), AxisGrid(128, 10.24))
BEAMS = {
    "gaussian": lambda grid: gaussian_quasidist(grid, 0.3, 0.2, x0=0.2, p0=-0.1),
    "superposition": lambda grid: superposition_quasidist(grid, 0.25, 0.2, 0.8, p0=0.1),
}
# Rotation angles of the constant lens (K = 1): the angle is the z covered.
ANGLES = {
    "below_quarter_turn": StepPlan(0.01, 100),
    "past_quarter_turn": StepPlan(0.01, 250),
    "full_period": StepPlan(2.0 * math.pi / 628, 628),
}


def stepped(state, spec, plan, every=None):
    """The run stepped by the grid kernel: the path degree > 2 potentials take."""
    kind = state.kind if plan.is_classical else "wigner"
    kernel = _GridKernel(state.grid, spec, EPS, plan, kind)
    zs = _step_boundaries(state.z, plan)
    return _evolve(kernel, state, kernel.enter(state.values), zs, every)


def count_shear_maps(patch) -> list:
    """Record the arguments of every ``_shear_map`` call; fail on any grid step."""
    sheared = []
    shear_map = linear_map._shear_map

    def counted(*args):
        sheared.append(args)
        return shear_map(*args)

    patch.setattr(linear_map, "_shear_map", counted)
    patch.setattr(_GridKernel, "advance", lambda *args: pytest.fail("stepped"))
    return sheared


def mapped_run(state, spec, plan, every=None):
    """``evolve_phase_space`` of the run, which takes no grid step, and its count of shear maps."""
    with pytest.MonkeyPatch.context() as patch:
        sheared = count_shear_maps(patch)
        return evolve_phase_space(state, spec, EPS, plan, every), len(sheared)


def assert_matches_stepping(state, spec, plan, every=None):
    """The closed form matches stepping; returns its run and its count of shear maps."""
    mapped, shear_maps = mapped_run(state, spec, plan, every)
    reference = stepped(state, spec, plan, every)
    assert mapped.snapshot_steps == reference.snapshot_steps
    assert_moments_close(mapped.moments, reference.moments, 1e-10)
    for got, want in zip(mapped.snapshots, reference.snapshots, strict=True):
        assert got.z == want.z
        peak = np.abs(want.values).max()
        assert np.abs(got.values - want.values).max() <= 1e-9 * peak
    return mapped, shear_maps


def final_map(state, spec, plan):
    """The cumulative affine map ``(a, b, c, d, e, f)`` of a run."""
    totals, failure, _ = _linear_run(state, spec, plan, _step_boundaries(state.z, plan))
    assert failure is None
    return totals[-1]


@pytest.mark.parametrize("beam", sorted(BEAMS))
@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_potentials_match_stepping(potential, beam):
    state = BEAMS[beam](LENS_GRID)
    assert_matches_stepping(state, POTENTIALS[potential], StepPlan(0.01, 100), every=40)


@pytest.mark.parametrize("grid", [LENS_GRID, SHIFTED_GRID], ids=["centred", "shifted"])
@pytest.mark.parametrize("beam", sorted(BEAMS))
@pytest.mark.parametrize("angle", sorted(ANGLES))
def test_rotation_angles_match_stepping(angle, beam, grid):
    state = BEAMS[beam](grid)
    plan = ANGLES[angle]
    a, b, c, d, _, _ = final_map(state, linear_lens(1.0), plan)
    if angle == "past_quarter_turn":
        assert a + d < 0.0
    elif angle == "full_period":
        assert max(abs(a - 1.0), abs(b), abs(c), abs(d - 1.0)) <= 1e-3  # near the identity
    else:
        assert a + d > 0.0
    _, shear_maps = assert_matches_stepping(state, linear_lens(1.0), plan)
    # The map past a quarter turn is split at its middle step; the others are sheared whole.
    assert shear_maps == (2 if angle == "past_quarter_turn" else 1)


@pytest.mark.parametrize("n_steps", [0, 1])
@pytest.mark.parametrize("potential", sorted(POTENTIALS))
def test_short_runs_match_stepping(potential, n_steps):
    state = BEAMS["gaussian"](LENS_GRID)
    mapped, _ = assert_matches_stepping(state, POTENTIALS[potential], StepPlan(0.01, n_steps))
    if n_steps == 0:
        assert mapped.final is state


def test_moyal_equals_liouville_bitwise():
    state = BEAMS["superposition"](LENS_GRID)
    moyal = evolve_phase_space(state, HARMONIC_LENS, EPS, StepPlan(0.01, 100))
    liouville = evolve_phase_space(state, HARMONIC_LENS, EPS, StepPlan(0.01, 100, max_order=1))
    assert moyal.moments == liouville.moments
    assert moyal.final.values.tobytes() == liouville.final.values.tobytes()
    assert (moyal.final.kind, liouville.final.kind) == ("wigner", "classical")


@pytest.mark.parametrize("potential", ["harmonic_lens", "free"])
def test_ffts_do_not_grow_with_the_step_count(monkeypatch, potential):
    state = BEAMS["gaussian"](LENS_GRID)
    counts = []
    for n_steps in (10, 100):
        calls = count_ffts(monkeypatch)
        evolve_phase_space(state, POTENTIALS[potential], EPS, StepPlan(0.01, n_steps))
        counts.append(calls)
        monkeypatch.undo()
    assert counts[0] == counts[1]
    # Two for the resolution check's spectrum, two for each of at most three shears.
    assert sum(counts[0].values()) <= 2 + 3 * 2


@pytest.mark.parametrize("potential", ["harmonic_lens", "constant_lens", "lens_with_x1"])
def test_kick_guard_values_as_stepping(monkeypatch, potential):
    # The closed form takes each step's kick phase from the grid's end
    # points; stepping takes the maximum over the whole grid.  Equal bit
    # for bit, and the one at pi raises the same message.
    guards = []
    check = phasespace._check_kick_phase

    def recording(guard):
        guards.append(guard)
        check(guard)

    for module in (phasespace, linear_map):
        monkeypatch.setattr(module, "_check_kick_phase", recording)
    state, spec, plan = BEAMS["gaussian"](LENS_GRID), POTENTIALS[potential], StepPlan(0.01, 30)
    evolve_phase_space(state, spec, EPS, plan)
    mapped, guards[:] = guards[:], []
    stepped(state, spec, plan)
    # A stepped kernel builds a static kick, and guards it, once.
    assert mapped == (guards * 30 if spec.is_static else guards)
    assert len(mapped) == 30
    # Twice the step takes step 1's phase past pi for each of these lenses.
    overflow = StepPlan(2.0 * math.pi * plan.dz / max(mapped), 30)
    messages = []
    for run in (evolve_phase_space, stepped):
        with pytest.raises(SolverError, match=r"^step 1/30: kick phase overflow") as caught:
            if run is evolve_phase_space:
                run(state, spec, EPS, overflow)
            else:
                run(state, spec, overflow)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_nan_coefficient_names_its_step():
    # The x coefficient turns nan at the midpoint of step 3 (z = 0.025).
    def nan_from_step_3(z):
        return math.nan if z >= 0.025 else 0.0

    spec = PotentialSpec(((2, HarmonicProfile(0.5, 3.0)), (1, nan_from_step_3)))
    state = BEAMS["gaussian"](LENS_GRID)
    with pytest.raises(SolverError, match=r"^step 3/5: .*non-finite"):
        evolve_phase_space(state, spec, EPS, StepPlan(0.01, 5))
    with pytest.raises(SolverError, match=r"^step 3/5: .*non-finite"):
        stepped(state, spec, StepPlan(0.01, 5))


def far_snapshots(state, spec, plan, every):
    """The snapshot steps whose maps from the initial state leave the grid between shears."""
    totals, _, support = _linear_run(state, spec, plan, _step_boundaries(state.z, plan))
    far = []
    for step in range(every, plan.n_steps + 1, every):
        shears = _shear_sequence(totals[step - 1].tolist())
        states = _shear_states(_IDENTITY, shears)
        if _first_exit(support, state.grid, states, True) is not None:
            far.append(step)
    return far


@pytest.mark.parametrize("beam, far", [("gaussian", 5), ("superposition", 6)])
def test_squeezing_snapshots_are_stepped(beam, far):
    # Snapshots every 40 steps.  From step 320 on (280 for the wider
    # spectrum of the superposition) the shears of the map from the
    # initial state would carry the state off the grid: past the quarter
    # turn of the first lens, and at steps 440 and 480 (a first-shear rate
    # near 100) past the y Nyquist line.  The 40-step map from the snapshot
    # before stays on the grid, so each snapshot takes one shear map.
    state = BEAMS[beam](TALL_GRID)
    plan = StepPlan(math.pi / 640, 480)
    a, b, c, d, _, _ = final_map(state, TWO_LENSES, plan)
    assert max(abs(a + 0.5), abs(b), abs(c), abs(d + 2.0)) <= 1e-4
    assert len(far_snapshots(state, TWO_LENSES, plan, 40)) == far
    _, shear_maps = assert_matches_stepping(state, TWO_LENSES, plan, 40)
    assert shear_maps == 12


def test_every_squeezing_step_takes_one_shear_map():
    # test_squeezing_snapshots_are_stepped's Gaussian with a snapshot at every
    # step: one single-step map per snapshot, none split.
    state = BEAMS["gaussian"](TALL_GRID)
    _, shear_maps = assert_matches_stepping(state, TWO_LENSES, StepPlan(math.pi / 640, 480), 1)
    assert shear_maps == 480


# A round beam that fills its box, turned by nearly a quarter in 200 steps.
WRAP_GRID = PhaseGrid(AxisGrid(128, 6.4), AxisGrid(128, 6.4))
WRAP_PLAN = StepPlan((0.5 * math.pi - 0.1) / 200, 200)


def test_wrapping_shear_is_stepped():
    # The first shear of the whole map would push the beam's tails across
    # the x edge, where the three shears miss stepping by 7.5e-9 of the
    # peak.  The map is split at step 100 instead, and each half stays on
    # the grid.
    state = gaussian_quasidist(WRAP_GRID, 0.42, 0.42)
    assert far_snapshots(state, linear_lens(1.0), WRAP_PLAN, 200) == [200]
    _, shear_maps = assert_matches_stepping(state, linear_lens(1.0), WRAP_PLAN)
    assert shear_maps == 2


def test_a_squeeze_has_no_three_shear_form():
    assert _shear_sequence((2.0, 0.0, 0.0, 0.5, 0.0, 0.0)) is None


def test_failing_shear_names_its_snapshot(monkeypatch):
    # The shears of the second snapshot (step 80) fail their residue check.
    snapshots = count_shear_maps(monkeypatch)

    def failing(values, residue):
        if len(snapshots) == 2:
            raise SolverError("shear residue")

    monkeypatch.setattr(linear_map, "_check_residue", failing)
    state = BEAMS["gaussian"](LENS_GRID)
    with pytest.raises(SolverError, match=r"^step 80/100: shear residue$"):
        evolve_phase_space(state, linear_lens(1.0), EPS, StepPlan(0.01, 100), 40)


def test_failing_shear_in_a_split_map_names_its_snapshot(monkeypatch):
    # The past-quarter-turn run's one snapshot (step 250) is split at step
    # 125, and the shears of its first half fail their residue check.
    sheared = count_shear_maps(monkeypatch)

    def failing(values, residue):
        raise SolverError("shear residue")

    monkeypatch.setattr(linear_map, "_check_residue", failing)
    state = BEAMS["gaussian"](LENS_GRID)
    with pytest.raises(SolverError, match=r"^step 250/250: shear residue$"):
        evolve_phase_space(state, linear_lens(1.0), EPS, ANGLES["past_quarter_turn"])
    assert len(sheared) == 1


class TestSteppingRefusalsStay:
    """Runs that stepping refuses are refused by the closed form too, no later.

    Every case is ``linear_lens(1.0)`` at eps 0.1.  Without the resolution
    prediction the closed form accepted the first two.
    """

    PLANS = {
        "moyal": lambda n: StepPlan(2e-3, n),
        "liouville": lambda n: StepPlan(2e-3, n, max_order=1),
    }

    @pytest.mark.parametrize("engine", sorted(PLANS))
    def test_superposition_beam(self, engine):
        # Stepping refuses liouville at step 331 and moyal at step 462.
        grid = PhaseGrid(AxisGrid(256, 25.6), AxisGrid(128, 6.4))
        state = superposition_quasidist(grid, 0.4, 0.125, 1.2)
        with pytest.raises(SolverError, match=r"^step (\d+)/1300: grid\.nx: ") as caught:
            evolve_phase_space(state, linear_lens(1.0), EPS, self.PLANS[engine](1300))
        assert int(caught.value.args[0].split("/")[0].split()[1]) <= 331

    def test_coarse_x_gaussian(self):
        # 128 points over 25.6: stepped liouville refuses at step 85 (its
        # post-kick density dips below the classical floor); moyal's minimum
        # only worsens.  The prediction refuses both earlier, at the same
        # step, before step 84, where the step-boundary density dips below it.
        grid = PhaseGrid(AxisGrid(128, 25.6), AxisGrid(128, 6.4))
        state = gaussian_quasidist(grid, 0.4, 0.125, x0=0.5)
        with pytest.raises(SolverError, match=r"^step 85/100: classical density"):
            stepped(state, linear_lens(1.0), self.PLANS["liouville"](100))
        steps = set()
        for plan in self.PLANS.values():
            with pytest.raises(SolverError, match=r"^step (\d+)/100: grid\.nx: ") as caught:
                evolve_phase_space(state, linear_lens(1.0), EPS, plan(100))
            steps.add(caught.value.args[0].split("/")[0])
        (step,) = steps
        assert int(step.split()[1]) < 84

    @pytest.mark.parametrize("engine, stepped_step", [("moyal", 49), ("liouville", 43)])
    def test_narrow_beam_reaches_the_y_nyquist_line(self, engine, stepped_step):
        # sigma_x = 0.1: the lens turns the wide kx spectrum toward y, past
        # the y Nyquist line of the coarse p axis.  Stepping refuses moyal at
        # step 49 (residue) and liouville at step 43 (classical floor).
        grid = PhaseGrid(AxisGrid(256, 12.8), AxisGrid(64, 8.0))
        state = gaussian_quasidist(grid, 0.1, 0.5)
        order = (1,) if engine == "liouville" else ()
        plan = StepPlan(0.01, 200, *order)
        with pytest.raises(SolverError, match=rf"^step {stepped_step}/200: "):
            stepped(state, linear_lens(1.0), plan)
        pattern = r"^step (\d+)/200: grid\.np: .* y \(conjugate to p\) Nyquist"
        with pytest.raises(SolverError, match=pattern) as caught:
            evolve_phase_space(state, linear_lens(1.0), EPS, plan)
        assert int(caught.value.args[0].split("/")[0].split()[1]) <= stepped_step


class TestBoxRefusal:
    """The closed form refuses a beam that its maps carry to the edge of the periodic box.

    Stepping these runs wraps the beam around the box without an error, and
    without the box limits the closed form accepted them.  The bounds come
    from where the Gaussian's 1e-8 contour meets the box edge (step 346 for
    the drift, 300 for the lens), fixed before measuring.
    """

    def refused_step(self, state, spec, plan, pattern):
        """The step the run is refused at, matching ``pattern``; no grid step is taken first."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_GridKernel, "advance", lambda *args: pytest.fail("stepped"))
            with pytest.raises(SolverError, match=pattern) as caught:
                evolve_phase_space(state, spec, EPS, plan)
        return int(caught.value.args[0].split("/")[0].split()[1])

    @pytest.mark.parametrize("order", [None, 1], ids=["moyal", "liouville"])
    def test_free_drift_reaches_the_x_edge(self, order):
        # Stepped, this run's emittance first moves at about step 380, and
        # its final density measures mean_x -5.55 where the free law gives 20.
        grid = PhaseGrid(AxisGrid(256, 25.6), AxisGrid(128, 6.4))
        state = gaussian_quasidist(grid, 0.4, 0.125, p0=1.0)
        plan = StepPlan(0.02, 1000, max_order=order)
        pattern = r"^step \d+/1000: grid\.x_length: .* periodic box, x in \[-12\.8, 12\.7\]"
        assert 330 <= self.refused_step(state, free_space(), plan, pattern) < 380

    def test_refused_before_any_snapshot(self, monkeypatch):
        # test_free_drift_reaches_the_x_edge's moyal run with snapshots every
        # 10 steps: the map refuses it when it is built, so no snapshot is taken.
        monkeypatch.setattr(linear_map._LinearKernel, "wrap", lambda *args: pytest.fail("wrapped"))
        grid = PhaseGrid(AxisGrid(256, 25.6), AxisGrid(128, 6.4))
        state = gaussian_quasidist(grid, 0.4, 0.125, p0=1.0)
        with pytest.raises(SolverError, match=r"^step 348/1000: grid\.x_length"):
            evolve_phase_space(state, free_space(), EPS, StepPlan(0.02, 1000), 10)

    def test_lens_carries_the_tails_past_the_p_edge(self):
        # The lens turns the beam at x0 = 3 toward p = -3 of a box that ends at -3.2.
        grid = PhaseGrid(AxisGrid(256, 12.8), AxisGrid(128, 6.4))
        state = gaussian_quasidist(grid, 0.4, 0.125, x0=3.0)
        pattern = r"^step \d+/350: grid\.p_length: .* periodic box, p in \[-3\.2, 3\.15\]"
        step = self.refused_step(state, linear_lens(1.0), StepPlan(2e-3, 350), pattern)
        assert 285 <= step <= 315


def test_lens_harmonic_bench_physics_takes_no_grid_step(monkeypatch):
    # Every shear state of the bench lens stays in the box and short of both
    # Nyquist lines, so each grid engine's one snapshot is one shear map.
    config = load_scenario(Path(__file__).parents[1] / "bench" / "scenarios" / "lens_harmonic.ini")
    sheared = count_shear_maps(monkeypatch)
    run_scenario(config, emit=False)
    assert len(sheared) == 2  # the final snapshot of moyal and of liouville


# test_wrapping_shear_is_stepped's run as a scenario: epsilon = 2 sigma0^2
# makes the beam round.
WRAP_SCENARIO = """
[grid]
nx = 128
np = 128
x_length = 6.4
p_length = 6.4

[beam]
sigma0 = 0.42

[physics]
epsilon = 0.3528

[potential]
preset = linear_lens
k = 1.0

[run]
dz = {dz!r}
n_steps = 200
engines = moyal, liouville

[output]
directory = {outdir}
formats = grid-dump
"""


def test_wrapping_scenario_takes_no_grid_step(monkeypatch, tmp_path):
    path, outdir = tmp_path / "wrap.ini", tmp_path / "out"
    path.write_text(WRAP_SCENARIO.format(dz=WRAP_PLAN.dz, outdir=outdir))
    sheared = count_shear_maps(monkeypatch)
    run_scenario(load_scenario(path))
    assert len(sheared) == 4  # each engine's final snapshot, split in two
    moyal, liouville = (outdir / f"state_{name}.mbgd" for name in ("moyal", "liouville"))
    assert moyal.read_bytes() == liouville.read_bytes()
