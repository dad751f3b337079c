"""Spectral transforms between beam representations.

* :func:`momentum_wavefield` -- scaled Fourier transform
  ``Phi(p) = (2 pi eps)**-0.5 * integral Psi(x) exp(-i p x / eps) dx``.
* :func:`wigner_transform` -- phase-space quasi-density
  ``rho_w(x, p) = (pi eps)**-1 * integral Psi(x+s) Psi*(x-s) exp(-2 i p s / eps) ds``
  whose marginals are |Psi(x)|^2 and |Phi(p)|^2.
* :func:`tomogram` -- line-integral projection
  ``w(X; mu, nu) = integral rho(x, p) delta(X - mu x - nu p) dx dp``
  evaluated through the projection-slice identity.

The Wigner integral is discretized on the shift grid conjugate to the
requested momentum axis (``ds = pi * eps / p_length``), which makes the
p-integrated marginal identity hold to round-off by construction; the
x-integrated identity then holds whenever the momentum axis actually
resolves and covers the state, and is checked.

Everything but the field itself (kept shift rows, shift table, ramps, the
momentum map of that check and the work arrays) depends only on the
position grid, epsilon and momentum axis, so it is built once per such
triple in ``_WignerMap``; a run that transforms many snapshots reuses one
map, and :func:`wigner_transform` builds a map for a single call.
"""

from __future__ import annotations

import math

import numpy as np

from dataclasses import dataclass

from .exceptions import TransformError
from .grids import AxisGrid, PhaseGrid
from .states import QuasiDistribution, WaveField

__all__ = [
    "momentum_wavefield",
    "wigner_transform",
    "tomogram",
    "tomogram_axis",
    "Tomogram",
]

# Imaginary residue (relative to the output peak) tolerated when taking the
# real part of a nominally real spectral reconstruction.
REALNESS_TOL = 1e-10

MARGINAL_TOL = 1e-10

# numpy.fft takes ``out=`` from numpy 2.0 on; before that an in-place
# transform writes its result back through one temporary.
_FFT_TAKES_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"


def _real_part(values: np.ndarray, what: str) -> np.ndarray:
    """``values.real``, unless the imaginary residue exceeds ``REALNESS_TOL`` of the peak."""
    peak = float(np.abs(values.real).max())
    residue = float(np.abs(values.imag).max())
    if peak > 0.0 and residue > REALNESS_TOL * peak:
        raise TransformError(
            f"{what} imaginary residue {residue:.3e} exceeds {REALNESS_TOL} of peak {peak:.3e}"
        )
    return values.real


def _fft_in_place(transform, array: np.ndarray, axis: int) -> None:
    """``array[...] = transform(array, axis=axis)``, without a temporary where numpy allows."""
    if _FFT_TAKES_OUT:
        transform(array, axis=axis, out=array)
    else:
        array[...] = transform(array, axis=axis)


class _MomentumMap:
    """``Psi(x) -> Phi(p)`` for one position grid, epsilon and momentum axis.

    The ramps and phases depend only on those, so they are built once and a
    call costs one FFT (or one matrix product off the conjugate axis).  The
    default axis is the conjugate one, ``p = eps * k``.
    """

    def __init__(self, grid: AxisGrid, eps: float, p_axis: AxisGrid | None = None):
        if p_axis is None:
            p_axis = AxisGrid(grid.n, 2.0 * math.pi * eps / grid.spacing, 0.0)
        self.p_axis = p_axis
        x = grid.points()
        p = p_axis.points()
        self.scale = grid.spacing / math.sqrt(2.0 * math.pi * eps)
        conjugate_length = 2.0 * math.pi * eps / grid.spacing
        self.kernel = None
        if p_axis.n == grid.n and p_axis.length == conjugate_length:
            # Fast path: the requested axis is the conjugate grid up to a center
            # offset, so a single FFT plus phase ramps evaluates the sum exactly.
            self.ramp = np.exp(-1j * p[0] * x / eps)
            k = np.arange(grid.n)
            self.phase = np.exp(-2j * math.pi * k * (x[0] / grid.length))
        else:
            self.kernel = np.exp(-1j * np.outer(p, x) / eps)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        if self.kernel is None:
            return self.scale * np.fft.fft(values * self.ramp) * self.phase
        return self.scale * (self.kernel @ values)


def momentum_wavefield(psi: WaveField, p_axis: AxisGrid | None = None) -> WaveField:
    """Momentum-representation field of a wavefield.

    Returns a :class:`WaveField` whose grid is the *momentum* axis; its
    ``values`` are ``Phi(p)`` and its density is the momentum distribution.
    With the default (conjugate) axis, ``p = eps * k`` with k the spectral
    frequencies of the input grid, Parseval holds to round-off.
    """
    momentum = _MomentumMap(psi.grid, psi.epsilon, p_axis)
    return WaveField(momentum.p_axis, momentum(psi.values), psi.epsilon, psi.z)


class _WignerMap:
    """``Psi(x) -> rho_w(x, p)`` for one position grid, epsilon and momentum axis.

    The kept shift rows, their spectral shift table, the first-point ramp and
    the momentum map behind the marginal check depend only on those, so they
    are built once; a call costs one FFT of the field, one inverse FFT per
    kept shift and one FFT per x column.  Two work arrays are built once as
    well and overwritten by every call: the shifted fields (kept rows by x,
    inverse FFT in place) and the correlation (``np`` by x, FFT along s in
    place, dropped rows zeroed again each call).  A call writes all of both
    before it reads them, so one that raises leaves nothing the next reads.

    Each correlation row is formed as ``conj(Psi(x - s)) * Psi(x + s)`` in
    that fixed operand order, because complex multiplication is not bitwise
    commutative (``a * b != b * a`` in about a third of entries with numpy
    2.4 on AVX-512).
    """

    def __init__(self, grid: AxisGrid, eps: float, p_axis: AxisGrid):
        self.phase_grid = PhaseGrid(grid, p_axis)
        n_p = p_axis.n
        ds = math.pi * eps / p_axis.length
        self.scale = ds / (math.pi * eps)
        # Shift samples in FFT index order: m = 0, 1, ..., -1 times ds.
        s = np.fft.fftfreq(n_p, d=1.0 / n_p) * ds
        # On the periodic box the correlation Psi(x+s) Psi*(x-s) is genuine only
        # while the shifted copies stay clear of their periodic images; beyond
        # |s| = L/4 a state wider than half the box would fold onto itself, so
        # those rows (where a valid state has no correlation left anyway) are
        # dropped.  The unpaired -n/2 row goes too: it has no +s partner and
        # would break the Hermitian symmetry that makes the output real.  The
        # s = 0 row is always kept, so the p-marginal identity stays exact.
        keep = np.abs(s) <= 0.25 * grid.length
        keep[n_p // 2] = False
        s_kept = s[keep]
        # The kept shifts are m ds for m = 0, ..., M, -M, ..., -1: rows 0..M and
        # np-M..np-1 of the correlation.
        self.half = s_kept.size // 2
        # Spectral shift theorem: row i of the inverse FFT is Psi(x + s_i).
        self.shift = np.exp(1j * np.outer(s_kept, grid.frequencies()))
        # exp(-2 i p s / eps) split into the first-point ramp and a pure DFT.
        self.ramp = np.exp(-2j * p_axis.points()[0] * s_kept / eps)[:, None]
        self.momentum = _MomentumMap(grid, eps, p_axis)
        self.fields = np.empty(self.shift.shape, dtype=complex)
        self.corr = np.zeros((n_p, grid.n), dtype=complex)

    def __call__(self, psi: WaveField, marginal_tol: float) -> QuasiDistribution:
        grid = self.phase_grid.x_axis
        half, fields, corr = self.half, self.fields, self.corr
        np.multiply(np.fft.fft(psi.values), self.shift, out=fields)
        _fft_in_place(np.fft.ifft, fields, axis=1)
        # Psi(x - s_i) is the fields row of -s_i: row 0 for i = 0, else row
        # count - i.  So correlation rows 1..M read fields rows count-1..M+1,
        # and rows np-M..np-1 read fields rows M..1.
        upper, lower = corr[: half + 1], corr[corr.shape[0] - half :]
        np.conj(fields[0], out=upper[0])
        np.conj(fields[:half:-1], out=upper[1:])
        np.conj(fields[half:0:-1], out=lower)
        np.multiply(upper, fields[: half + 1], out=upper)
        np.multiply(lower, fields[half + 1 :], out=lower)
        upper *= self.ramp[: half + 1]
        lower *= self.ramp[half + 1 :]
        corr[half + 1 : corr.shape[0] - half] = 0.0
        _fft_in_place(np.fft.fft, corr, axis=0)
        corr *= self.scale
        values = np.ascontiguousarray(_real_part(corr.transpose(), "wigner transform"))
        marginal_x = values.sum(axis=0) * grid.spacing
        # The WaveField constructor checks the momentum norm (Parseval on this axis).
        phi = WaveField(self.momentum.p_axis, self.momentum(psi.values), psi.epsilon, psi.z)
        reference = phi.density()
        defect = float(np.abs(marginal_x - reference).max())
        if defect > marginal_tol * max(1.0, float(reference.max())):
            raise TransformError(
                f"momentum axis too coarse or too narrow: marginal identity "
                f"defect {defect:.3e} exceeds tolerance"
            )
        return QuasiDistribution(self.phase_grid, values, psi.z, "wigner")


def wigner_transform(
    psi: WaveField, p_axis: AxisGrid, marginal_tol: float = MARGINAL_TOL
) -> QuasiDistribution:
    """Wigner quasi-density of a wavefield on ``(psi.grid, p_axis)``.

    The output is real (the imaginary residue is measured and discarded,
    error above ``1e-10`` of the peak) and carries unit mass inherited from
    the wavefield.  Raises :class:`TransformError` if the momentum axis is
    too coarse or too narrow for the marginal identity
    ``integral rho_w dx = |Phi(p)|**2`` to hold within ``marginal_tol``.
    Each call builds and drops its own shift table and momentum map; the
    runner builds them once per run and reuses them for every snapshot.
    """
    return _WignerMap(psi.grid, psi.epsilon, p_axis)(psi, marginal_tol)


@dataclass(frozen=True)
class Tomogram:
    """Projection of a quasi-density onto X = mu*x + nu*p."""

    mu: float
    nu: float
    axis: AxisGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def mass(self) -> float:
        return float(self.values.sum()) * self.axis.spacing


def tomogram_axis(grid: PhaseGrid, mu: float, nu: float) -> AxisGrid:
    """Default output axis: the projection of the phase-space box, on 1024 points."""
    length = abs(mu) * grid.x_axis.length + abs(nu) * grid.p_axis.length
    center = mu * grid.x_axis.center + nu * grid.p_axis.center
    return AxisGrid(1024, length, center)


def tomogram(
    rho: QuasiDistribution, mu: float, nu: float, axis: AxisGrid | None = None
) -> Tomogram:
    """Line-integral projection w(X; mu, nu) of a phase-space density.

    Uses the projection-slice identity: the Fourier transform of w along X
    equals the two-dimensional transform of rho sampled along the ray
    ``(xi*mu, xi*nu)``, here evaluated by direct phase sums (a rotation plus
    spectral interpolation rather than histogram binning).  The projection
    inherits the mass of ``rho`` exactly; for (mu, nu) = (1, 0) or (0, 1) it
    reduces to the corresponding marginal.
    """
    if mu == 0.0 and nu == 0.0:
        raise TransformError("tomogram direction (mu, nu) must not be (0, 0)")
    if not (math.isfinite(mu) and math.isfinite(nu)):
        raise TransformError(f"tomogram direction must be finite, got ({mu}, {nu})")
    if axis is None:
        axis = tomogram_axis(rho.grid, mu, nu)
    x = rho.grid.x_axis.points()
    p = rho.grid.p_axis.points()
    # Frequencies conjugate to the output axis, FFT order.
    xi = axis.frequencies()
    # Discrete phase sums over the grid alias with period 2 pi / spacing in
    # each direction, so the slice is only trustworthy while the sampling ray
    # (xi mu, xi nu) stays inside the grid's own spectral band.  Outside it
    # the true transform of a resolved state has already decayed; evaluating
    # there would fold in spurious copies, so those slice samples are zero.
    band = np.abs(xi * mu) <= math.pi / rho.grid.x_axis.spacing
    band &= np.abs(xi * nu) <= math.pi / rho.grid.p_axis.spacing
    xi_band = xi[band]
    # slice(l) = sum_{x,p} rho * exp(-i xi_l (mu x + nu p)) dx dp
    phase_p = np.exp(-1j * np.outer(p, xi_band * nu))
    partial = rho.values @ phase_p
    phase_x = np.exp(-1j * np.outer(x, xi_band * mu))
    slice_values = np.zeros(axis.n, dtype=complex)
    slice_values[band] = (
        np.einsum("il,il->l", phase_x, partial) * rho.grid.cell_area
    )
    # Invert onto the requested axis: w(X_i) = (1/2 pi) integral e^{i xi X}.
    x_first = axis.points()[0]
    values = np.fft.ifft(slice_values * np.exp(1j * xi * x_first)) / axis.spacing
    return Tomogram(float(mu), float(nu), axis, _real_part(values, "tomogram"))
