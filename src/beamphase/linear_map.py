"""Closed-form grid transport for linear optics: Fourier shears of the composed step maps.

Linear optics do not step the grid at all.  For a potential of degree at
most 2 (``PotentialSpec.kick_is_classical``) the generator is ``U'(x) y``
under either plan, and a Strang step is the affine symplectic map
``(M_k, d_k) = D(dz/2) K_k D(dz/2)``: a drift ``x <- x + p dz/2``, a kick
``p <- p - dz U'(x)`` with U' sampled at the step midpoint, and a drift.
``evolve_phase_space`` composes these 2x2 maps in closed form and runs
them through the step loop of every engine, ``phasespace._evolve``, as
:class:`_LinearKernel`, whose values between steps are step numbers: the
moments follow ``mu <- M_k mu + d_k`` and ``Sigma <- M_k Sigma M_k^T`` from
the measured initial moments, and each snapshot is the snapshot before it
carried by the map between them, ``M_k M_j^-1``, in at most three Fourier
shears, the same sub-flows as a step (Paeth's raster rotation; Courant &
Snyder for the matrices).  ``D K D`` is used when ``|M21| >= |M12|``, else
``K D K``, and the translation rides in the shear offsets.  Every step
still runs the kick guard, which refuses a non-finite coefficient.  The grid
checks of the steps that are not computed become one rule, which one
scan (:func:`_first_exit`) applies to the initial density's support in
real space and in the spectrum: a state is on the grid while its map
keeps that support inside the periodic box and short of the Nyquist
lines.  Each step's end state, its cumulative map, is checked at
``SUPPORT_FLOOR`` of each peak (the y line only with a force: without
one no step transforms along p), and the run is refused at the first
step that fails, naming ``grid.x_length``, ``grid.p_length``, ``grid.nx``
or ``grid.np``.  The states between two shears are not states of the
run, and far from a small rotation (a squeeze, or a map past a quarter
turn) a shear rate grows without bound.  So each state a shear takes is
checked at ``SHEAR_FLOOR`` against the box and both lines, and a map whose
shears fail, or which has none, is split at its middle step, recursively;
a single step is not split.
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import BeamMoments, _beam_moments, _grid_central
from .exceptions import SolverError
from .grids import PhaseGrid
from .phasespace import (
    StepPlan,
    _check_kick_phase,
    _check_residue,
    _half_spectrum,
    _kick_operands,
    _spectral_flow,
    _step_error,
    _unit_phase,
)
from .potentials import PotentialSpec
from .states import QuasiDistribution
from .transforms import _fft_in_place

# Magnitude (relative to the peak, in real space and in the spectrum) above
# which the initial density's content counts toward the support that every
# step's end state must keep on the grid.
SUPPORT_FLOOR = 1e-8

# Magnitude (relative to the peak, in real space and in the spectrum) above
# which a state between two shears of the linear path must stay resolved.
# With SUPPORT_FLOOR here, a snapshot of the tests whose shears aliased the
# content between the two floors missed stepping by 2.9e-9 of the peak.
SHEAR_FLOOR = 1e-10

_IDENTITY = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def _linear_steps(spec: PotentialSpec, grid: PhaseGrid, plan: StepPlan, zs: list[float]):
    """The cumulative affine map after every Strang step of a degree <= 2 run, until one fails.

    Step k is ``D(dz/2) K_k D(dz/2)``, where ``K_k`` is the kick
    ``p <- p - dz U'(x)`` with ``U' = c1 + 2 c2 x`` at the step midpoint.
    Each step with a force runs the kick guard with the value and message
    of a stepped kick; a non-finite coefficient makes its step's guard
    non-finite, which the guard refuses.  Returns an ``(n, 6)`` array whose
    row k - 1 is the map of steps 1..k, cut before the first failing step,
    and that step's error (naming no step) or None.
    A row ``(a, b, c, d, e, f)`` is the matrix ``[[a, b], [c, d]]`` by rows
    and the offset ``(e, f)``: ``(x, p) <- (a x + b p + e, c x + d p + f)``.
    """
    half = 0.5 * plan.dz
    mids = [z + half for z in zs[:-1]]
    profiles = dict(spec.terms)
    c1, c2 = (
        np.array([float(profiles[k](z)) for z in mids]) if k in profiles else np.zeros(len(mids))
        for k in (1, 2)
    )
    failure = None
    if spec.degree >= 1:
        x, y_row = _kick_operands(grid)
        # U' = c1 + 2 c2 x, rounding included, is monotone in x, and rounding
        # keeps max_ij |U'_i y_j| = (max_i |U'_i|) y_max: the stepped guard.
        with np.errstate(over="ignore", invalid="ignore"):  # the guard refuses a non-finite step
            ends = [np.abs(2.0 * c2 * float(x[i, 0]) + c1) for i in (0, -1)]
            guards = (np.maximum(*ends) * float(y_row[0, -1]) * plan.dz).tolist()
        for step, guard in enumerate(guards, start=1):
            try:
                _check_kick_phase(guard)
            except SolverError as exc:
                failure = exc
                c1, c2 = c1[: step - 1], c2[: step - 1]
                break
    q = (2.0 * plan.dz) * c2  # the kick p <- p - q x - f
    f = plan.dz * c1
    diagonal = 1.0 - q * half
    steps = (diagonal, half * (1.0 + diagonal), -q, -half * f, -f)
    totals, total = [], _IDENTITY
    # Step k, [[sa, sb], [sc, sa]] with offset (se, sf), after the map of steps 1..k-1.
    for sa, sb, sc, se, sf in zip(*(step.tolist() for step in steps)):
        total = _compose((sa, sb, sc, sa, se, sf), total)
        totals.append(total)
    return np.array(totals, dtype=float).reshape(-1, 6), failure


def _compose(outer: tuple, inner: tuple) -> tuple:
    """The affine map ``outer`` after ``inner``, both rows of :func:`_linear_steps`."""
    sa, sb, sc, sd, se, sf = outer
    a, b, c, d, e, f = inner
    return (
        sa * a + sb * c, sa * b + sb * d, sc * a + sd * c, sc * b + sd * d,
        sa * e + sb * f + se, sc * e + sd * f + sf,
    )


def _support_points(mask: np.ndarray, u: np.ndarray, v: np.ndarray):
    """The lowest and the highest ``u`` of every ``v`` column where ``mask`` holds, as two arrays.

    A linear functional of ``(u, v)`` is monotone along a column, so its
    extremes over the masked points are reached at these points.
    """
    columns = np.flatnonzero(mask.any(axis=0))
    first = mask[:, columns].argmax(axis=0)
    last = mask.shape[0] - 1 - mask[::-1, columns].argmax(axis=0)
    return np.concatenate((u[first], u[last])), np.concatenate((v[columns], v[columns]))


def _supports(values: np.ndarray, grid: PhaseGrid) -> tuple:
    """The support records of ``values`` at ``SUPPORT_FLOOR`` and at ``SHEAR_FLOOR``.

    Each is ``((x, p), (kx, y))``, the points of :func:`_support_points`
    where ``|values|``, and ``|FFT2(values)|`` on its ``kx >= 0`` half,
    reach the floor times their peak (a real array's spectrum is Hermitian).
    """
    spectrum = np.fft.rfft(values, axis=0)
    _fft_in_place(np.fft.fft, spectrum, axis=1)
    magnitude = np.hypot(spectrum.real, spectrum.imag, out=spectrum.real)  # |spectrum|, in place
    magnitude /= magnitude.max()
    real = np.abs(values)
    peak = real.max()
    x, p = grid.x_axis.points(), grid.p_axis.points()
    kx, y = _half_spectrum(grid.x_axis), grid.p_axis.frequencies()
    return tuple(
        (_support_points(real >= floor * peak, x, p), _support_points(magnitude >= floor, kx, y))
        for floor in (SUPPORT_FLOOR, SHEAR_FLOOR)
    )


def _first_exit(support: tuple, grid: PhaseGrid, maps: np.ndarray, y_line: bool):
    """The first of the affine ``maps`` that carries ``support`` off the grid, or None.

    ``support`` is a record of :func:`_supports` and ``maps`` an ``(n, 6)``
    array of rows of :func:`_linear_steps`.  A map carries the real-space
    points by ``(x, p) <- M (x, p) + (e, f)`` and the spectral ones by
    ``M^-T = [[d, -c], [-b, a]]`` (det M = 1).  The state stays on the grid
    while they stay in the box ``[x_0, x_{n-1}] x [p_0, p_{n-1}]`` and
    short of the kx Nyquist line, and of the y one when ``y_line``.
    Returns ``(index, message)``, the message naming the grid key of the
    first limit reached (in the order x, p, kx, y).
    """
    (x, p), (kx, y) = support
    axes = (grid.x_axis, grid.p_axis)
    low, high = np.array([(axis.points()[0], axis.points()[-1]) for axis in axes]).T
    lines = np.array([_half_spectrum(axis)[-1] for axis in axes])
    lines[1] = lines[1] if y_line else math.inf
    matrices = maps[:, :4].reshape(-1, 2, 2)
    inverse_t = matrices[:, ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])  # M^-T
    # Maps in blocks, by broadcast products: whole-run arrays, matmul, einsum raised the peak RSS.
    block = max(1, 8192 // max(x.size, kx.size))
    for start in range(0, len(maps), block):
        r = slice(start, start + block)
        m, t, offsets = matrices[r], inverse_t[r], maps[r, 4:]
        moved = m[:, :, :1] * x + m[:, :, 1:] * p  # adding an offset to its extremes is exact
        turned = t[:, :, :1] * kx + t[:, :, 1:] * y
        out = np.concatenate((
            (moved.min(axis=2) + offsets < low) | (moved.max(axis=2) + offsets > high),
            np.abs(turned, out=turned).max(axis=2) >= lines,
        ), axis=1)
        hits = out.any(axis=1)
        if hits.any():
            at = int(hits.argmax())
            limit = int(out[at].argmax())
            reached = [f"beam to the edge of the periodic box, {u} in [{lo:.4g}, {hi:.4g}]"
                       for u, lo, hi in zip("xp", low, high)]
            reached += [f"beam's spectrum to the {w} Nyquist frequency {line:.4g}"
                        for w, line in zip(("kx", "y (conjugate to p)"), lines)]
            key = ("grid.x_length", "grid.p_length", "grid.nx", "grid.np")[limit]
            return start + at, (
                f"{key}: the linear map carries the {reached[limit]}, so the grid can no longer "
                f"resolve the state; raise {key} or shorten the run"
            )
    return None


def _linear_run(state: QuasiDistribution, spec: PotentialSpec, plan: StepPlan, zs: list[float]):
    """Cumulative maps of a degree <= 2 run, up to its first closed-form failure.

    Returns ``(totals, failure, shear_support)``: the cumulative maps (see
    :func:`_linear_steps`) of the steps that pass the coefficient check,
    the kick guard and :func:`_first_exit`, the :class:`SolverError` of the
    first step that fails one (None when every step passes; that step is
    ``len(totals) + 1``, which the error does not name), and the initial
    state's support record at ``SHEAR_FLOOR`` (None without steps).  No
    evolved state is needed: a caller can refuse a run early.
    """
    totals, failure = _linear_steps(spec, state.grid, plan, zs)
    if not len(totals):
        return totals, failure, None
    support, shear_support = _supports(state.values, state.grid)
    exit_ = _first_exit(support, state.grid, totals, spec.degree >= 1)
    if exit_ is not None:
        totals, failure = totals[: exit_[0]], SolverError(exit_[1])
    return totals, failure, shear_support


def _inverse(total: tuple) -> tuple:
    """The inverse of the affine map ``total`` (det M = 1), a row of :func:`_linear_steps`."""
    a, b, c, d, e, f = total
    return (d, -b, -c, a, b * f - d * e, c * e - a * f)


def _shear_sequence(total) -> tuple | None:
    """The shears that carry a state by the affine map ``total``, or None for a squeeze.

    With ``X(t): x <- x + t p`` and ``P(s): p <- p + s x``, a matrix of unit
    determinant is ``X(t1) P(c) X(t2)`` with ``t2 = (d-1)/c`` and ``t1 = b -
    a t2`` (that is ``(a-1)/c``), or ``P(s1) X(b) P(s2)`` with ``s1 =
    (d-1)/b`` and ``s2 = c - a s1``; the one with the larger of |b| and |c|
    keeps the shear parameters bounded near a small rotation.  Both forms
    reproduce b, c and d and leave the round-off of ``det M - 1`` in a
    alone, where ``(a-1)/c`` would put it in b divided by c: near the
    identity c is small.  The result lists ``(axis, rate, offset)`` in the
    order applied, axis 0 for x and 1 for p: the line along ``axis`` at
    coordinate ``u`` of the other axis moves by ``rate u + offset``; the
    map's offset rides in the second and third shears.  A squeeze ``diag(a,
    1/a)``, a ``!= 1``, has no three-shear form.
    """
    a, b, c, d, e, f = total
    if abs(c) >= abs(b) and c != 0.0:
        t2 = (d - 1.0) / c
        t1 = b - a * t2
        return ((0, t2, 0.0), (1, c, f), (0, t1, e - t1 * f))
    if b != 0.0:
        s1 = (d - 1.0) / b
        s2 = c - a * s1
        return ((1, s2, 0.0), (0, b, e), (1, s1, f - s1 * e))
    if (a, d) != (1.0, 1.0):
        return None
    return ((0, 0.0, e), (1, 0.0, f))


def _shear_states(total: tuple, shears) -> np.ndarray:
    """The affine maps that carry the initial state to the states the ``shears`` take.

    The first is ``total``, the map of the state the shears start from; each
    next one composes the shear before it, ``x <- x + rate p + offset``
    (axis 0) or ``p <- p + rate x + offset`` (axis 1).  A shear that moves
    nothing takes no state.  Rows as :func:`_linear_steps`.
    """
    states = []
    for axis, rate, offset in shears:
        if rate != 0.0 or offset != 0.0:
            states.append(total)
            x_shear = (1.0, rate, 0.0, 1.0, offset, 0.0)
            total = _compose(x_shear if axis == 0 else (1.0, 0.0, rate, 1.0, 0.0, offset), total)
    return np.array(states, dtype=float).reshape(-1, 6)


def _shear_map(values: np.ndarray, grid: PhaseGrid, shears) -> np.ndarray:
    """``values`` carried by the shears of :func:`_shear_sequence`.

    A shear makes each line along ``axis``, at ``v`` on the other axis,
    ``rho(u - rate v - offset)``: one sub-flow, its Nyquist residue checked.
    """
    # The line coordinate and the half spectrum of the shears along x (0) and along p (1).
    axes = (
        (grid.p_axis.points(), _half_spectrum(grid.x_axis)),
        (grid.x_axis.points(), _half_spectrum(grid.p_axis)),
    )
    for axis, rate, offset in shears:
        if rate == 0.0 and offset == 0.0:
            continue
        line, frequencies = axes[axis]
        angle = np.multiply.outer(-(rate * line + offset), frequencies)  # lines by frequencies
        phase = _unit_phase(angle.T if axis == 0 else angle)
        values, residue = _spectral_flow(np.fft.rfft(values, axis=axis), phase, axis)
        _check_residue(values, residue)
    return values


class _LinearKernel:
    """The closed form as a kernel of ``phasespace._evolve``, whose values are step numbers.

    The moments of step k are the measured initial ones carried by the
    cumulative map ``(M, d)``: ``mu_k = M mu_0 + d`` and ``Sigma_k = M
    Sigma_0 M^T``.  A run that :func:`_linear_run` refuses is refused when
    the kernel is built, with ``step k/n`` naming its first failing step, so
    every step that ``advance`` reaches passes.  Each snapshot is the one
    before it carried by the shears of the map between them (:meth:`_carry`).
    """

    lost = 0

    def __init__(
        self, state: QuasiDistribution, spec: PotentialSpec, plan: StepPlan, kind: str,
        zs: list[float],
    ):
        self.grid, self.kind = state.grid, kind
        self.last = (0, state)  # the latest snapshot and its step
        self.totals, failure, self.support = _linear_run(state, spec, plan, zs)
        if failure is not None:
            raise _step_error(len(self.totals) + 1, plan.n_steps, failure)
        x, p = state.grid.x_axis.points(), state.grid.p_axis.points()
        self.central = _grid_central(state.values, x, p, state.grid.cell_area)
        mean_x, mean_p, xx, pp, xp = self.central
        a, b, c, d, e, f = self.totals.T
        series = (
            a * mean_x + b * mean_p + e,
            c * mean_x + d * mean_p + f,
            a * a * xx + 2.0 * a * b * xp + b * b * pp,
            c * c * xx + 2.0 * c * d * xp + d * d * pp,
            a * c * xx + (a * d + b * c) * xp + b * d * pp,
        )
        self.rows = list(zip(*(m.tolist() for m in series)))

    def enter(self, values: np.ndarray) -> int:
        """The run's first value: step 0."""
        return 0

    def advance(self, step: int, z: float) -> int:
        return step + 1

    def measure(self, step: int, z: float) -> BeamMoments:
        return _beam_moments(z, *(self.rows[step - 1] if step else self.central))

    def wrap(self, step: int, z: float) -> QuasiDistribution:
        last, snapshot = self.last
        values = self._carry(snapshot.values, last, step)
        self.last = (step, QuasiDistribution(self.grid, values, z, self.kind))
        return self.last[1]

    def _carry(self, values: np.ndarray, start: int, end: int) -> np.ndarray:
        """Step ``start``'s ``values`` carried to step ``end`` by the shears of ``M_end M_start^-1``.

        Where the map has no three-shear form, or a state its shears take
        (:func:`_shear_states`) leaves the grid, the steps are split at
        the middle one, recursively; a single step is not split.
        """
        begin = self.totals[start - 1].tolist() if start else _IDENTITY
        shears = _shear_sequence(_compose(self.totals[end - 1].tolist(), _inverse(begin)))
        if end - start > 1 and (
            shears is None
            or _first_exit(self.support, self.grid, _shear_states(begin, shears), True) is not None
        ):
            middle = (start + end) // 2
            return self._carry(self._carry(values, start, middle), middle, end)
        return _shear_map(values, self.grid, shears)
