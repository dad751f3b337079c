"""Closed-form grid transport for linear optics: three Fourier shears of the composed step map.

Linear optics do not step the grid at all.  For a potential of degree at
most 2 (``PotentialSpec.kick_is_classical``) the generator is ``U'(x) y``
under either plan, and a Strang step is the affine symplectic map
``(M_k, d_k) = D(dz/2) K_k D(dz/2)``: a drift ``x <- x + p dz/2``, a kick
``p <- p - dz U'(x)`` with U' sampled at the step midpoint, and a drift.
``evolve_phase_space`` composes these 2x2 maps in closed form and runs
them through the step loop of every engine, ``phasespace._evolve``, as
:class:`_LinearKernel`, whose values between steps are step numbers: the
moments follow ``mu <- M_k mu + d_k`` and ``Sigma <- M_k Sigma M_k^T`` from
the measured initial moments, and each snapshot is the initial array
carried by the cumulative map in at most three Fourier shears, the same
sub-flows as a step (Paeth's raster rotation; Courant & Snyder for the
matrices).  ``D K D`` is used when ``|M21| >= |M12|``, else ``K D K``; a
map with a negative trace first takes ``-I``, an index reversal about the
grid centre, which keeps the shear parameters bounded (at most 1 for a
rotation), and the translation rides in the shear offsets.  Every step
still refuses non-finite coefficients and runs the kick guard.  The grid
checks of the steps that are not computed become a prediction: the
support of the initial density's spectrum (``SUPPORT_FLOOR`` of its peak)
is mapped by ``M_k^{-T}``, and the run is refused at the first step where
it reaches the kx Nyquist line, or with a force the y one.  The states
between two shears are not states of the run: far from a rotation (a
squeeze, say) a shear rate grows without bound.  So the initial support,
in real space and in the spectrum (``SHEAR_FLOOR`` of each peak), is
carried shear by shear, and a snapshot whose shears would carry it
across the box or past a Nyquist line the next shear needs is stepped by
the grid kernel from the snapshot before it instead.
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import BeamMoments, _beam_moments, _grid_moments
from .exceptions import SolverError, StateError
from .grids import PhaseGrid
from .phasespace import (
    StepPlan,
    _check_kick_phase,
    _check_residue,
    _GridKernel,
    _half_spectrum,
    _kick_operands,
    _spectral_flow,
    _step_error,
    _unit_phase,
)
from .potentials import PotentialSpec
from .states import QuasiDistribution
from .transforms import _fft_in_place

# Spectral magnitude (relative to the peak) above which the initial density's
# content counts toward the support that the linear path's resolution check maps.
SUPPORT_FLOOR = 1e-8

# Magnitude (relative to the peak, in real space and in the spectrum) above
# which a state between two shears of the linear path must stay resolved.
# With SUPPORT_FLOOR here, a snapshot of the tests whose shears aliased the
# content between the two floors missed stepping by 2.9e-9 of the peak.
SHEAR_FLOOR = 1e-10


def _linear_steps(spec: PotentialSpec, grid: PhaseGrid, plan: StepPlan, zs: list[float]):
    """The cumulative affine map after every Strang step of a degree <= 2 run, until one fails.

    Step k is ``D(dz/2) K_k D(dz/2)``, where ``K_k`` is the kick
    ``p <- p - dz U'(x)`` with ``U' = c1 + 2 c2 x`` at the step midpoint.
    Each step with a force refuses non-finite coefficients, then runs the
    kick guard with the value and message of a stepped kick.  Returns an
    ``(n, 6)`` array whose row k - 1 is the map of steps 1..k, cut before
    the first failing step, and that step's error (naming no step) or None.
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
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite steps are refused first
            ends = [np.abs(2.0 * c2 * float(x[i, 0]) + c1) for i in (0, -1)]
            guards = (np.maximum(*ends) * float(y_row[0, -1]) * plan.dz).tolist()
        finite = (np.isfinite(c1) & np.isfinite(c2)).tolist()
        for step, (z_mid, ok, guard) in enumerate(zip(mids, finite, guards), start=1):
            try:
                if not ok:
                    # A stepped kick's guard is nan here (a non-finite U' times the
                    # y = 0 column), so the step raises only on its state.
                    raise SolverError(
                        f"potential coefficients ({float(c1[step - 1])}, "
                        f"{float(c2[step - 1])}) of x and x**2 at z = {z_mid:.6g} are "
                        "non-finite; the step would fill the state with non-finite values"
                    )
                _check_kick_phase(guard)
            except SolverError as exc:
                failure = exc
                c1, c2 = c1[: step - 1], c2[: step - 1]
                break
    q = (2.0 * plan.dz) * c2  # the kick p <- p - q x - f
    f = plan.dz * c1
    diagonal = 1.0 - q * half
    steps = (diagonal, half * (1.0 + diagonal), -q, -half * f, -f)
    totals = []
    a, b, c, d, e, g = 1.0, 0.0, 0.0, 1.0, 0.0, 0.0
    # Step k, [[sa, sb], [sc, sa]] with offset (se, sf), after the map of steps 1..k-1.
    for sa, sb, sc, se, sf in zip(*(step.tolist() for step in steps)):
        a, b, c, d, e, g = (
            sa * a + sb * c, sa * b + sb * d, sc * a + sa * c, sc * b + sa * d,
            sa * e + sb * g + se, sc * e + sa * g + sf,
        )
        totals.append((a, b, c, d, e, g))
    return np.array(totals, dtype=float).reshape(-1, 6), failure


def _support_points(mask: np.ndarray, u: np.ndarray, v: np.ndarray):
    """The lowest and the highest ``u`` of every ``v`` column where ``mask`` holds, as two arrays.

    A linear functional of ``(u, v)`` is monotone along a column, so its
    extremes over the masked points are reached at these points.
    """
    columns = np.flatnonzero(mask.any(axis=0))
    first = mask[:, columns].argmax(axis=0)
    last = mask.shape[0] - 1 - mask[::-1, columns].argmax(axis=0)
    return np.concatenate((u[first], u[last])), np.concatenate((v[columns], v[columns]))


def _spectral_magnitude(values: np.ndarray) -> np.ndarray:
    """``|FFT2(values)|`` over its peak on the ``kx >= 0`` half, ``kx`` by ``y``.

    ``values`` is real, so its spectrum is Hermitian and the half holds the
    whole support (mirrored by ``(kx, y) -> (-kx, -y)``).  The transform
    along p runs in place on contiguous rows.
    """
    spectrum = np.fft.rfft(values, axis=0)
    _fft_in_place(np.fft.fft, spectrum, axis=1)
    magnitude = np.hypot(spectrum.real, spectrum.imag, out=spectrum.real)  # |spectrum|, in place
    magnitude /= magnitude.max()
    return magnitude


def _spectral_support(magnitude: np.ndarray, grid: PhaseGrid, floor: float):
    """The ``(kx, y)`` points of :func:`_support_points` where ``magnitude`` reaches ``floor``."""
    kx = _half_spectrum(grid.x_axis)
    return _support_points(magnitude >= floor, kx, grid.p_axis.frequencies())


def _first_unresolved(
    spectral: tuple, grid: PhaseGrid, totals: np.ndarray, force: bool
) -> tuple[int, str] | None:
    """The first step whose cumulative map carries the ``spectral`` support to a Nyquist line.

    The density ``rho_0(M^-1 (w - d))`` has the spectrum of ``rho_0`` carried
    by ``M^-T = [[d, -c], [-b, a]]`` (det M = 1); ``spectral`` holds the
    ``(kx, y)`` points of :func:`_spectral_support` at ``SUPPORT_FLOOR``.
    The kx line is checked always, the y line only with a force: without
    one no step transforms along p.  Returns ``(step, message)`` naming the
    grid key, or None.
    """
    kx, y = spectral
    limits = (_half_spectrum(grid.x_axis)[-1], _half_spectrum(grid.p_axis)[-1])
    a, b, c, d = totals[:, :4].T
    # Steps in blocks: whole-run (steps x points) temporaries raised the peak RSS.
    block = max(1, 8192 // kx.size)
    for start in range(0, len(totals), block):
        rows = slice(start, start + block)
        reach_x = np.abs(np.multiply.outer(d[rows], kx) - np.multiply.outer(c[rows], y))
        hits_x = reach_x.max(axis=1) >= limits[0]
        hits = hits_x
        if force:
            reach_y = np.abs(np.multiply.outer(a[rows], y) - np.multiply.outer(b[rows], kx))
            hits = hits_x | (reach_y.max(axis=1) >= limits[1])
        if hits.any():
            at = int(hits.argmax())
            if hits_x[at]:
                key, what, limit = "grid.nx", "kx", limits[0]
            else:
                key, what, limit = "grid.np", "y (conjugate to p)", limits[1]
            return start + at + 1, (
                f"{key}: the linear map carries the beam's spectrum to the {what} Nyquist "
                f"frequency {limit:.4g}, so the grid can no longer resolve the state; "
                f"raise {key} or shorten the run"
            )
    return None


def _linear_run(state: QuasiDistribution, spec: PotentialSpec, plan: StepPlan, zs: list[float]):
    """Cumulative maps of a degree <= 2 run, up to its first closed-form failure.

    Returns ``(totals, failure, shear_support)``: the cumulative maps (see
    :func:`_linear_steps`) of the steps that pass the coefficient check,
    the kick guard and the resolution check, the :class:`SolverError` of
    the first step that fails one (None when every step passes; that step
    is ``len(totals) + 1``, which the error does not name), and the
    initial state's spectral support at ``SHEAR_FLOOR`` (None without
    steps).  No evolved state is needed: a caller can refuse a run early.
    """
    totals, failure = _linear_steps(spec, state.grid, plan, zs)
    if not len(totals):
        return totals, failure, None
    magnitude = _spectral_magnitude(state.values)
    spectral = _spectral_support(magnitude, state.grid, SUPPORT_FLOOR)
    shear_support = _spectral_support(magnitude, state.grid, SHEAR_FLOOR)
    unresolved = _first_unresolved(spectral, state.grid, totals, spec.degree >= 1)
    if unresolved is not None:
        step, message = unresolved
        failure = SolverError(message)
        totals = totals[: step - 1]
    return totals, failure, shear_support


def _shear_sequence(total, grid: PhaseGrid) -> tuple[bool, tuple | None]:
    """The shears that carry a state by the affine map ``total``: ``(flip, shears)``.

    With ``X(t): x <- x + t p`` and ``P(s): p <- p + s x``, a matrix of unit
    determinant is ``X(t1) P(c) X(t2)`` with ``t2 = (d-1)/c`` and ``t1 = b -
    a t2`` (that is ``(a-1)/c``), or ``P(s1) X(b) P(s2)`` with ``s1 =
    (d-1)/b`` and ``s2 = c - a s1``; the one with the larger of |b| and |c|
    keeps the shear parameters bounded near a rotation.  Both forms
    reproduce b, c and d and leave the round-off of ``det M - 1`` in a
    alone, where ``(a-1)/c`` would put it in b divided by c: near the
    identity c is small.  ``flip`` is true when a map with a negative trace
    first takes ``-I`` about the grid centre.  ``shears`` lists ``(axis,
    rate, offset)`` in the order applied, axis 0 for x and 1 for p: the
    line along ``axis`` at coordinate ``u`` of the other axis moves by
    ``rate u + offset``; the map's offset rides in the second and third
    shears.  ``shears`` is None for a squeeze ``diag(a, 1/a)``, a ``!= 1``,
    which has no three-shear form.
    """
    a, b, c, d, e, f = total
    flip = a + d < 0.0
    if flip:
        # (x, p) -> 2 centre - (x, p), then the map: the negated matrix, shifted offsets.
        cx, cp = grid.x_axis.center, grid.p_axis.center
        a, b, c, d, e, f = -a, -b, -c, -d, e + 2.0 * (a * cx + b * cp), f + 2.0 * (c * cx + d * cp)
    if abs(c) >= abs(b) and c != 0.0:
        t2 = (d - 1.0) / c
        t1 = b - a * t2
        return flip, ((0, t2, 0.0), (1, c, f), (0, t1, e - t1 * f))
    if b != 0.0:
        s1 = (d - 1.0) / b
        s2 = c - a * s1
        return flip, ((1, s2, 0.0), (0, b, e), (1, s1, f - s1 * e))
    if (a, d) != (1.0, 1.0):
        return flip, None
    return flip, ((0, 0.0, e), (1, 0.0, f))


def _shears_resolve(grid: PhaseGrid, support, flip: bool, shears) -> bool:
    """Whether the grid resolves every state the shears hand on, from the initial ``support``.

    A shear along an axis transforms along it, so the state it takes needs
    its spectrum short of that axis's Nyquist frequency; with a nonzero
    rate it moves each line by the other coordinate, which must not have
    wrapped around the periodic box.  ``support`` is ``((x, p), (kx,
    y))``, the real-space and spectral points of :func:`_support_points`;
    shear by shear the points move as the state does (the spectrum by the
    transposed inverse: a shear ``u <- u + r v`` takes ``w_v <- w_v - r
    w_u``).  The final state's spectrum is the resolution check's.
    """
    (x, p), spectral = support
    if flip:
        x, p = 2.0 * grid.x_axis.center - x, 2.0 * grid.p_axis.center - p
    real, spectral, axes = [x, p], list(spectral), (grid.x_axis, grid.p_axis)
    for axis, rate, offset in shears:
        if rate == 0.0 and offset == 0.0:
            continue
        other = 1 - axis
        if np.abs(spectral[axis]).max() >= _half_spectrum(axes[axis])[-1]:
            return False
        line = axes[other].points()
        if rate != 0.0 and (real[other].min() < line[0] or real[other].max() > line[-1]):
            return False
        real[axis] = real[axis] + rate * real[other] + offset
        spectral[other] = spectral[other] - rate * spectral[axis]
    return True


def _shear_map(values: np.ndarray, grid: PhaseGrid, flip: bool, shears) -> np.ndarray:
    """``values`` carried by the shears of :func:`_shear_sequence`.

    ``-I`` about the grid centre is an index reversal on the periodic grid.
    A shear makes each line along ``axis``, at ``v`` on the other axis,
    ``rho(u - rate v - offset)``: one sub-flow, its Nyquist residue checked.
    """
    if flip:
        # (x, p) -> 2 centre - (x, p) maps grid point j to n - j (mod n) on each axis.
        values = np.roll(values[::-1, ::-1], 1, axis=(0, 1))
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
    Sigma_0 M^T``.  Advancing from the last step that passes raises the
    refusal of :func:`_linear_run`.  A snapshot whose shears the grid cannot
    resolve (see :func:`_shears_resolve`) is stepped by the grid kernel
    from the snapshot before it; ``_evolve`` wraps outside its step errors,
    so ``wrap`` names its own: the snapshot's step, or the inner step that
    failed.
    """

    lost = 0
    kernel = None  # steps the snapshots the shears cannot carry

    def __init__(
        self, state: QuasiDistribution, spec: PotentialSpec, epsilon: float, plan: StepPlan,
        kind: str, zs: list[float],
    ):
        self.initial, self.kind, self.zs = state, kind, zs
        self.stepping = (state.grid, spec, epsilon, plan, kind)
        self.last = (0, state)  # the latest snapshot and its step
        self.totals, self.failure, spectral = _linear_run(state, spec, plan, zs)
        x, p = state.grid.x_axis.points(), state.grid.p_axis.points()
        self.start = start = _grid_moments(state.values, zs[0], x, p, state.grid.cell_area)
        xx, xp, pp = start.sigma_x**2, start.sigma_xp, start.sigma_p**2
        a, b, c, d, e, f = self.totals.T
        series = (
            a * start.mean_x + b * start.mean_p + e,
            c * start.mean_x + d * start.mean_p + f,
            a * a * xx + 2.0 * a * b * xp + b * b * pp,
            c * c * xx + 2.0 * c * d * xp + d * d * pp,
            a * c * xx + (a * d + b * c) * xp + b * d * pp,
        )
        self.rows = list(zip(*(m.tolist() for m in series)))
        if len(self.totals):
            real = np.abs(state.values)
            self.support = (_support_points(real >= SHEAR_FLOOR * real.max(), x, p), spectral)

    def advance(self, step: int, z: float) -> int:
        if step == len(self.totals):
            raise self.failure
        return step + 1

    def measure(self, step: int, z: float) -> BeamMoments:
        return _beam_moments(z, *self.rows[step - 1]) if step else self.start

    def wrap(self, step: int, z: float) -> QuasiDistribution:
        grid = self.initial.grid
        last, snapshot = self.last
        at = step  # the step an error names
        try:
            flip, shears = _shear_sequence(self.totals[step - 1].tolist(), grid)
            if shears is not None and _shears_resolve(grid, self.support, flip, shears):
                values = _shear_map(self.initial.values, grid, flip, shears)
            else:
                if self.kernel is None:
                    self.kernel = _GridKernel(*self.stepping)
                values = snapshot.values
                for at in range(last + 1, step + 1):
                    values = self.kernel.advance(values, self.zs[at - 1])
            snapshot = QuasiDistribution(grid, values, z, self.kind)
        except (SolverError, StateError) as exc:
            raise _step_error(at, len(self.zs) - 1, exc) from None
        self.last = (step, snapshot)
        return snapshot
