"""Axis and phase-space grid construction and spectral axes."""

import math

import numpy as np
import pytest

from beamphase import AxisGrid, GridError, PhaseGrid


class TestAxisGrid:
    def test_unit_spacing_points(self):
        grid = AxisGrid(8, 8.0, 0.0)
        assert grid.spacing == 1.0
        np.testing.assert_array_equal(grid.points(), np.arange(-4.0, 4.0))

    def test_offset_center_points(self):
        grid = AxisGrid(16, 1.0, 0.5)
        assert grid.spacing == 0.0625
        points = grid.points()
        assert points[0] == 0.0
        assert points[-1] == pytest.approx(0.9375)

    @pytest.mark.parametrize("n", [12, 0, -8, 7, 4])
    def test_invalid_point_count(self, n):
        with pytest.raises(GridError):
            AxisGrid(n, 1.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_length(self, length):
        with pytest.raises(GridError):
            AxisGrid(8, length)

    def test_invalid_center(self):
        with pytest.raises(GridError):
            AxisGrid(8, 1.0, math.inf)

    def test_frequencies_are_spectral_axis(self):
        grid = AxisGrid(64, 5.0)
        freqs = grid.frequencies()
        expected = 2.0 * math.pi * np.fft.fftfreq(64, d=grid.spacing)
        np.testing.assert_allclose(freqs, expected, rtol=0, atol=1e-15)
        spacing = np.diff(np.sort(freqs))
        np.testing.assert_allclose(spacing, 2.0 * math.pi / 5.0, rtol=1e-12)

    def test_points_span_centered_interval(self):
        grid = AxisGrid(128, 20.0, -3.0)
        points = grid.points()
        assert points[0] == pytest.approx(-3.0 - 10.0)
        assert points[-1] == pytest.approx(-3.0 + 10.0 - grid.spacing)
        np.testing.assert_allclose(np.diff(points), grid.spacing, rtol=1e-14)


class TestPhaseGrid:
    def test_shape_and_cell_area(self):
        pg = PhaseGrid(AxisGrid(16, 8.0), AxisGrid(8, 2.0))
        assert pg.shape == (16, 8)
        assert pg.cell_area == pytest.approx(0.5 * 0.25)

    def test_meshes_broadcast_to_grid(self):
        pg = PhaseGrid(AxisGrid(16, 8.0), AxisGrid(8, 2.0))
        xm, pm = pg.meshes()
        assert np.broadcast_shapes(xm.shape, pm.shape) == pg.shape
        np.testing.assert_array_equal(xm.ravel(), pg.x_axis.points())
        np.testing.assert_array_equal(pm.ravel(), pg.p_axis.points())

    def test_conjugate_spacing(self):
        pg = PhaseGrid(AxisGrid(32, 4.0), AxisGrid(32, 6.0))
        for axis in (pg.x_axis, pg.p_axis):
            sorted_freqs = np.sort(axis.frequencies())
            np.testing.assert_allclose(
                np.diff(sorted_freqs), 2.0 * math.pi / axis.length, rtol=1e-12
            )
