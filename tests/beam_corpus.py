"""Hypothesis corpus of resolved wavefields, shared by the transform and moment tests."""

import math

from hypothesis import strategies as st

from beamphase import AxisGrid, gaussian_wavefield, superposition_wavefield


@st.composite
def wavefields(draw):
    """A Gaussian or two-peak superposition and a momentum axis that holds it.

    Centroids (x0, p0) and grid centres are drawn off zero.  The x box gives
    the correlation Psi(x+s) Psi*(x-s) room up to its quarter-box cutoff, as
    in the acceptance corpus.  The momentum axis sets the shift step so that
    the largest shift reaches 1 to 1.27 times that cutoff, so the rows
    beyond it are dropped while the Wigner checks still pass.  Returns
    ``(psi, p_axis)``.
    """
    sigma = draw(st.floats(0.6, 1.6))
    eps = draw(st.floats(0.05, 0.25))
    sigma_p = eps / (2.0 * sigma)
    x0 = draw(st.floats(-1.0, 1.0)) * sigma
    p0 = draw(st.floats(-2.0, 2.0)) * sigma_p
    separation = draw(st.one_of(st.just(0.0), st.floats(1.5, 3.0))) * sigma
    support = 7.43 * sigma + abs(x0) + separation / 2.0
    x_axis = AxisGrid(512, 4.4 * support, x0 + draw(st.floats(-0.5, 0.5)) * sigma)
    n_p = draw(st.sampled_from((128, 256)))
    p_length = math.pi * eps * n_p / (draw(st.floats(2.2, 2.8)) * support)
    p_axis = AxisGrid(n_p, p_length, p0 + draw(st.floats(-0.5, 0.5)) * sigma_p)
    if separation:
        psi = superposition_wavefield(x_axis, sigma, separation, eps, x0, p0)
    else:
        psi = gaussian_wavefield(x_axis, sigma, eps, x0, p0)
    return psi, p_axis
