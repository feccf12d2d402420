"""Shared grid types: frequency windows, transverse grids, sampled wave fields.

Fourier conventions used throughout:  for a function f on a uniform grid the
forward transform is fhat(xi) = integral exp(-i x xi) f(x) dx, discretized by
dx * FFT with the grid-offset phase, so that Parseval reads
sum |f|^2 dx = (1/2pi) sum |fhat|^2 dxi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np


def smoothstep(t, order: int = 4):
    """Polynomial ramp of smoothness class C^order, 0 at t<=0 and 1 at t>=1."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    n = order
    acc = np.zeros_like(t)
    for k in range(n + 1):
        acc = acc + math.comb(n + k, k) * math.comb(2 * n + 1, n - k) * (-t) ** k
    return np.clip(t ** (n + 1) * acc, 0.0, 1.0)


@dataclass(frozen=True)
class FrequencyWindow:
    """Smooth bump around eta = 1: equal to 1 inside, 0 outside, C^order ramp.

    Zero is excluded from the support (center - outer > 0 is enforced), so the
    dispersion symbols stay smooth on the window.
    """

    center: float = 1.0
    inner_halfwidth: float = 0.1
    outer_halfwidth: float = 0.2
    order: ClassVar[int] = 4

    def __post_init__(self):
        if not 0.0 < self.inner_halfwidth < self.outer_halfwidth:
            raise ValueError("need 0 < inner_halfwidth < outer_halfwidth")
        if self.center - self.outer_halfwidth <= 0.0:
            raise ValueError("window support must exclude 0")

    def __call__(self, eta):
        u = (np.abs(np.asarray(eta, dtype=float) - self.center) - self.inner_halfwidth) / (
            self.outer_halfwidth - self.inner_halfwidth
        )
        return 1.0 - smoothstep(u, self.order)

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.outer_halfwidth, self.center + self.outer_halfwidth)


@dataclass(frozen=True)
class TransverseGrid:
    """Uniform y-grid with its matched semiclassical frequency grid eta = h*xi."""

    y: np.ndarray
    h: float

    def __post_init__(self):
        dy = np.diff(self.y)
        if self.y.size < 4 or not np.allclose(dy, dy[0], rtol=1e-9, atol=0.0):
            raise ValueError("y-grid must be uniform with >= 4 points")

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])

    @property
    def xi(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.y.size, d=self.dy)

    @property
    def eta(self) -> np.ndarray:
        return self.h * self.xi

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Continuum-normalized forward transform along the last axis."""
        phase = np.exp(-1j * self.y[0] * self.xi)
        return self.dy * phase * np.fft.fft(values, axis=-1)

    def ifft(self, spectrum: np.ndarray) -> np.ndarray:
        phase = np.exp(1j * self.y[0] * self.xi)
        return np.fft.ifft(spectrum * phase, axis=-1) / self.dy


def make_transverse_grid(h: float, y_min: float, y_max: float, eta_max: float = 1.3,
                         oversample: float = 2.2) -> TransverseGrid:
    """Grid resolving semiclassical frequencies up to eta_max/h on [y_min, y_max]."""
    length = y_max - y_min
    n = int(2 ** math.ceil(math.log2(max(64.0, oversample * length * eta_max / (math.pi * h)))))
    y = y_min + (length / n) * np.arange(n)
    return TransverseGrid(y=y, h=h)


@dataclass
class WaveField:
    """Complex field sampled on an (x, y) rectangle at a fixed time.

    ``values[i, j]`` is the sample at (x[i], y[j]); the y-grid is uniform, the
    x-grid may be graded.  ``y`` stores absolute positions (frame center plus
    offsets for moving-frame evaluations).
    """

    values: np.ndarray
    x: np.ndarray
    y: np.ndarray
    h: float
    t: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.values.shape != (self.x.size, self.y.size):
            raise ValueError(f"field shape {self.values.shape} != grid ({self.x.size}, {self.y.size})")

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Weights of the trapezoid rule on a (possibly nonuniform) grid."""
    w = np.zeros_like(x, dtype=float)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w

