"""Windows, grids and the spectral conventions."""

import math

import numpy as np
import pytest

from convexwave.fields import (
    FrequencyWindow,
    WaveField,
    make_transverse_grid,
    smoothstep,
    trapezoid_weights,
)


def test_smoothstep_endpoints_and_monotone():
    t = np.linspace(-0.2, 1.2, 101)
    s = smoothstep(t, 4)
    assert s[0] == 0.0 and s[-1] == 1.0
    assert np.all(np.diff(s) >= -1e-15)
    assert smoothstep(0.5, 4) == pytest.approx(0.5)


def test_window_plateau_support_and_range():
    win = FrequencyWindow(1.0, 0.1, 0.2)
    eta = np.linspace(0.5, 1.5, 2001)
    vals = win(eta)
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    assert np.all(vals[np.abs(eta - 1.0) <= 0.1] == 1.0)
    assert np.all(vals[np.abs(eta - 1.0) >= 0.2] == 0.0)
    assert win.support[0] > 0.0


def test_window_excludes_zero():
    with pytest.raises(ValueError):
        FrequencyWindow(0.15, 0.1, 0.2)


def test_grid_fft_parseval_and_roundtrip(rng):
    h = 1e-2
    grid = make_transverse_grid(h, -1.0, 1.0, eta_max=1.3)
    y = grid.y
    f = np.exp(1j * y / h - y**2 * 40.0)
    spec = grid.fft(f)
    back = grid.ifft(spec)
    assert np.max(np.abs(back - f)) < 1e-10
    l2_grid = np.sum(np.abs(f) ** 2) * grid.dy
    dxi = grid.xi[1] - grid.xi[0]
    l2_spec = np.sum(np.abs(spec) ** 2) * abs(dxi) / (2.0 * math.pi)
    assert l2_spec == pytest.approx(l2_grid, rel=1e-12)


def test_grid_gaussian_transform_closed_form():
    grid = make_transverse_grid(0.05, -6.0, 6.0, eta_max=1.0)
    sigma = 0.3
    f = np.exp(-grid.y**2 / (2 * sigma**2))
    spec = grid.fft(f)
    ref = sigma * math.sqrt(2.0 * math.pi) * np.exp(-(sigma * grid.xi) ** 2 / 2.0)
    assert np.max(np.abs(spec - ref)) < 1e-10


def test_wavefield_shape_validation():
    with pytest.raises(ValueError):
        WaveField(values=np.zeros((3, 4), dtype=complex), x=np.arange(4.0), y=np.arange(4.0),
                  h=0.1, t=0.0)


def test_trapezoid_weights_integrate_linear():
    x = np.array([0.0, 0.5, 1.5, 2.0])
    w = trapezoid_weights(x)
    assert w.sum() == pytest.approx(2.0)
    assert np.dot(w, x) == pytest.approx(2.0)  # integral of x over [0,2]
