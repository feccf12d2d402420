"""Whispering-gallery modes, their transverse flows, and Strichartz quotients.

A gallery mode pairs a transverse envelope phi on the boundary line with the
Airy profile Ai(|eta|^{2/3} x / h^{2/3} - omega_k) in the normal direction.
All evolutions are exact Fourier multipliers on the transverse spectrum; the
x-dependence rides along as the Airy factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .airy import ai, airy_zeros
from .fields import FrequencyWindow, TransverseGrid, WaveField, make_transverse_grid, trapezoid_weights
from .normlab import NormScanResult, fit_exponent, lqlr_norm, lr_norm, row_powers, rows_norm, spans_fit
from .oscillatory import g_schrodinger, g_wave


class GalleryError(ValueError):
    pass


DATA_KINDS = ("coherent", "gaussian")  # initial envelopes of the quotient scan
FLOW_KINDS = ("schrodinger", "halfwave")  # transverse flows


def eigenvalue(k: int, eta: float) -> float:
    """Transverse eigenvalue |eta|^2 + omega_k |eta|^{4/3} (eta != 0)."""
    if eta == 0:
        raise GalleryError("eigenvalue requires eta != 0")
    omega = airy_zeros(k + 1)[k]
    return float(abs(eta) ** 2 + omega * abs(eta) ** (4.0 / 3.0))


@dataclass
class GalleryModeSpec:
    """Mode index, its Airy zero, the sampled envelope spectrum and the window."""

    k: int
    omega_k: float
    h: float
    grid: TransverseGrid
    envelope_spectrum: np.ndarray
    window: FrequencyWindow = field(default_factory=FrequencyWindow)

    def __post_init__(self):
        if self.k < 0:
            raise GalleryError("mode index k must be >= 0")
        if self.envelope_spectrum.shape != self.grid.eta.shape:
            raise GalleryError("envelope spectrum must be sampled on the grid's eta lattice")

    @property
    def windowed_spectrum(self) -> np.ndarray:
        return self.envelope_spectrum * self.window(self.grid.eta)


@dataclass(frozen=True)
class TransverseFlow:
    """Transverse symbol: G_s = eta^2 + omega h^{2/3} |eta|^{4/3}, G_w = sqrt(G_s).

    ``kind`` selects the time multiplier: 'schrodinger' uses exp(-i t G_s / h),
    'halfwave' the cosine propagator cos(t G_w / h) (zero-velocity data).
    """

    kind: str
    omega: float
    h: float

    def __post_init__(self):
        if self.kind not in FLOW_KINDS:
            raise GalleryError(f"unknown flow kind {self.kind!r}")

    def symbol(self, eta):
        g = g_wave if self.kind == "halfwave" else g_schrodinger
        return g(eta, self.omega, self.h)

    def multiplier(self, t: float, eta):
        g = self.symbol(eta)
        if self.kind == "schrodinger":
            return np.exp(-1j * (t / self.h) * g)
        return np.cos((t / self.h) * g).astype(complex)


def coherent_state(eta0: float, h: float, grid: TransverseGrid) -> np.ndarray:
    """Gaussian wave packet h^{-1/4} exp(i(y eta0 + i y^2/2)/h) on the grid.

    L2 norm pi^{1/4}; sup norm h^{-1/4}.  The grid must hold the Gaussian to
    tail mass below 1e-10.
    """
    y = grid.y
    extent = min(abs(y[0]), abs(y[-1]))
    if extent < 6.8 * math.sqrt(h):
        raise GalleryError(f"grid half-width {extent:.3g} too small for tail mass < 1e-10")
    return h**-0.25 * np.exp(1j * y * eta0 / h - y**2 / (2.0 * h))


def make_mode_spec(k: int, h: float, envelope: np.ndarray, grid: TransverseGrid,
                   window: FrequencyWindow | None = None) -> GalleryModeSpec:
    """Build a mode spec from transverse envelope samples phi(y)."""
    window = window or FrequencyWindow()
    omega = airy_zeros(k + 1)[k]
    spectrum = grid.fft(envelope)
    return GalleryModeSpec(k=k, omega_k=omega, h=h, grid=grid,
                           envelope_spectrum=spectrum, window=window)


def default_x_grid(spec: GalleryModeSpec, n_x: int = 160) -> np.ndarray:
    """x-grid [0, X] with X = (4 omega_k + 8) h^{2/3}, resolving the Airy layer."""
    x_max = (4.0 * spec.omega_k + 8.0) * spec.h ** (2.0 / 3.0)
    return np.linspace(0.0, x_max, n_x)


_ACTIVE_TOL = 1e-13  # eta columns below this share of the spectrum's peak are dropped
_RANK_TOL = 1e-14  # largest Frobenius share of the Airy rows' singular values left out
_SCREEN_TOL = 1e-12  # largest share of an L^r power that the screen may leave out
_TAIL_TOL = 0.01  # largest share of the L2 mass allowed beyond 0.9 X
_WINDOW = FrequencyWindow()


class _ModeSynthesis:
    """The mode's (x, y) samples under any transverse multiplier, from one Airy fill.

    Built once per (spec, x): the x-grid must reach past the Airy turning
    point (X >= 3 omega_k h^{2/3}).  Only the eta columns where the windowed
    spectrum exceeds 1e-13 of its peak are kept.  The rows
    Ai(|eta|^{2/3} x / h^{2/3} - omega_k) * spectrum on them are stored as a
    truncated SVD ``basis (n_x, k) @ coef (k, n_act)``, with the grid phase in
    ``coef``; k is the smallest rank whose discarded singular values hold at
    most 1e-14 of the Frobenius norm (``rank_residual``).  ``profiles`` runs k
    inverse FFTs along y, after checking the share of L2 mass beyond 0.9 X by
    Parseval; the mode is ``basis @ profiles``.
    """

    def __init__(self, spec: GalleryModeSpec, x: np.ndarray | None = None):
        if x is None:
            x = default_x_grid(spec)
        turning = 3.0 * spec.omega_k * spec.h ** (2.0 / 3.0)
        if x[-1] < turning:
            raise GalleryError(f"x-grid too short: X = {x[-1]:.3g} < 3 omega_k h^(2/3) = {turning:.3g}")
        self.x, self.grid = x, spec.grid
        spectrum = spec.windowed_spectrum
        mod = np.abs(spectrum)
        self.active = mod > _ACTIVE_TOL * (mod.max() or 1.0)
        self.eta = self.grid.eta[self.active]
        args = np.abs(self.eta)[None, :] ** (2.0 / 3.0) * x[:, None] / spec.h ** (2.0 / 3.0) - spec.omega_k
        rows = ai(args.ravel()).reshape(args.shape) * spectrum[self.active][None, :]
        u, s, vh = np.linalg.svd(rows, full_matrices=False)
        tail = np.append(np.sqrt(np.cumsum(s[::-1] ** 2))[::-1], 0.0)  # tail[i]: norm of s[i:]
        share = tail / (tail[0] or 1.0)
        self.rank = int(np.argmax(share <= _RANK_TOL))
        self.rank_residual = float(share[self.rank])
        self.basis = u[:, :self.rank] * s[:self.rank]
        self.coef = vh[:self.rank] * np.exp(1j * self.grid.y[0] * self.grid.xi[self.active])
        self._beta = np.linalg.norm(self.basis, axis=1)  # |u(x, y)| <= beta_x |profiles[:, y]|
        self._wx = trapezoid_weights(x)
        self._wy = trapezoid_weights(self.grid.y)
        self._beyond = x > 0.9 * x[-1]
        self.x_tail_fraction = 0.0  # largest tail share over all calls so far
        self.screen_bound = 0.0  # largest dropped-bound / kept-integral ratio of ``screened_lr_norm``
        self._kept_samples = self._samples = 0  # (x, y) samples summed and screened so far

    @property
    def kept_share(self) -> float:
        """Share of the (x, y) samples that ``screened_lr_norm`` has summed over all calls."""
        return self._kept_samples / self._samples if self._samples else 0.0

    def profiles(self, mult) -> np.ndarray:
        """The k y-profiles (k, n_y) with ``mult`` (scalar or one per active eta) applied."""
        cols = self.coef * mult
        gram = cols @ cols.conj().T
        power = ((self.basis @ gram) * self.basis.conj()).sum(axis=1).real  # y-mass of each x-row
        total = float(power @ self._wx)
        tail = float(power[self._beyond] @ self._wx[self._beyond]) / total if total else 0.0
        self.x_tail_fraction = max(self.x_tail_fraction, tail)
        if tail > _TAIL_TOL:
            raise GalleryError(f"x-grid too short: tail mass fraction {tail:.2e} beyond 0.9 X")
        full = np.zeros((self.rank, self.grid.y.size), dtype=complex)
        full[:, self.active] = cols
        return np.fft.ifft(full, axis=1) / self.grid.dy

    def __call__(self, mult) -> np.ndarray:
        """Samples (x, y) of the mode with ``mult`` (scalar or one per active eta) applied."""
        return self.basis @ self.profiles(mult)

    def screened_lr_norm(self, profiles: np.ndarray, r) -> float:
        """L^r norm of ``basis @ profiles``, summed only where the mode lives.

        With |u(x, y)| <= beta_x c_y (Cauchy-Schwarz, c_y = |profiles[:, y]|),
        the rows and the columns with the smallest bounds are dropped while
        each family's accumulated bound on its dropped r-th power stays below
        1e-12 / 2 of I0, the exact sum over the core (beta and c at least half
        their peak).  The kept rectangle must hold the core, so the result's
        r-th power is exact to 1e-12 of itself.  For r = inf each dropped
        bound stays below half the core's peak, and the max is exact.
        """
        beta, c = self._beta, np.linalg.norm(profiles, axis=0)
        wx, wy = self._wx, self._wy

        def power(keep_x, keep_y):
            rows = row_powers(self.basis[keep_x], wy[keep_y], r, right=profiles[:, keep_y])
            return rows_norm(rows, wx[keep_x], r, power=True)

        core_x, core_y = beta >= 0.5 * beta.max(initial=0.0), c >= 0.5 * c.max(initial=0.0)
        i0 = power(core_x, core_y)
        if r == math.inf:
            rows, cols = beta * c.max(initial=0.0), beta.max(initial=0.0) * c
            accumulate, allowance = np.maximum.accumulate, 0.5 * i0
        else:
            rows, cols = wx * beta**r, wy * c**r
            rows, cols = rows * cols.sum(), cols * rows.sum()
            accumulate, allowance = np.cumsum, 0.5 * _SCREEN_TOL * i0
        (keep_x, dropped_x), (keep_y, dropped_y) = (_screen(b, accumulate, allowance) for b in (rows, cols))
        if (core_x & ~keep_x).any() or (core_y & ~keep_y).any():
            raise GalleryError("L^r screen dropped part of the core rectangle")
        kept = power(keep_x, keep_y)
        if r != math.inf and kept:
            self.screen_bound = max(self.screen_bound, (dropped_x + dropped_y) / kept)
        self._kept_samples += int(keep_x.sum()) * int(keep_y.sum())
        self._samples += keep_x.size * keep_y.size
        return kept if r == math.inf else kept ** (1.0 / r)


def _screen(bounds: np.ndarray, accumulate, allowance: float) -> tuple[np.ndarray, float]:
    """Mask keeping all but the smallest ``bounds`` whose accumulated bound stays below ``allowance``.

    Returns the mask and the accumulated bound of what it drops (NaN bounds are kept).
    """
    order = np.argsort(bounds, kind="stable")
    running = accumulate(bounds[order])
    n_drop = int(np.count_nonzero(running < allowance))
    keep = np.ones(bounds.size, dtype=bool)
    keep[order[:n_drop]] = False
    return keep, float(running[n_drop - 1]) if n_drop else 0.0


def gallery_mode(spec: GalleryModeSpec) -> WaveField:
    """Sample the mode u(x, y) on :func:`default_x_grid`: windowed spectrum times Airy factor, inverse FFT.

    More than 1% of the L2 mass beyond 0.9 X is an error.
    """
    synth = _ModeSynthesis(spec)
    return WaveField(values=synth(1.0), x=synth.x, y=spec.grid.y, h=spec.h, t=0.0)


def evolve(spec: GalleryModeSpec, flow: TransverseFlow, t: float) -> WaveField:
    """Mode at time t: spectrum multiplied by the flow's multiplier, then reassembled."""
    if not 0.0 <= t <= 1.0:
        warnings.warn(f"t = {t} outside [0, 1]; evolution is exact but unvalidated there")
    synth = _ModeSynthesis(spec)
    return WaveField(values=synth(flow.multiplier(t, synth.eta)), x=synth.x, y=spec.grid.y,
                     h=spec.h, t=t)


# The sandwich windows psi1 < psi < psi2 of norm_equivalence: each equals 1 on the support of the previous.
_SANDWICH = (
    FrequencyWindow(1.0, 0.045, 0.09),
    FrequencyWindow(1.0, 0.1, 0.2),
    FrequencyWindow(1.0, 0.25, 0.35),
)


def norm_equivalence(k: int, h: float, envelope: np.ndarray, grid: TransverseGrid, r) -> dict:
    """Sandwich ratios of the h^{-2/(3r)}-normalized mode norm between envelope norms.

    With the nested windows psi1 < psi < psi2 of ``_SANDWICH``, returns
    middle/left and right/middle; both stay in an h-independent band.
    """
    psi1, psi, psi2 = _SANDWICH
    spectrum = grid.fft(envelope)
    if float(np.abs(spectrum).max(initial=0.0)) == 0.0:
        raise GalleryError("zero envelope: ratios undefined")
    spec = make_mode_spec(k, h, envelope, grid, window=psi)
    u = gallery_mode(spec)
    middle = h ** (-2.0 / (3.0 * r)) * lr_norm(u, r) if r != math.inf else lr_norm(u, r)
    wy = trapezoid_weights(grid.y)

    def filtered_norm(win):
        return rows_norm(row_powers(grid.ifft(spectrum * win(grid.eta))[None, :], wy, r), np.ones(1), r)

    left = filtered_norm(psi1)
    right = filtered_norm(psi2)
    if left == 0.0 or middle == 0.0:
        raise GalleryError("vanishing filtered norm: ratios undefined")
    return {"lower_ratio": middle / left, "upper_ratio": right / middle,
            "middle": middle, "left": left, "right": right}


def _quotient_one_h(flow_kind: str, data: str, k: int, q, r, t_window, h: float, n_t: int) -> dict:
    if data not in DATA_KINDS:
        raise GalleryError(f"unknown data kind {data!r}")
    t0, t1 = t_window
    # spatial window wide enough for the transported packet plus spreading
    if flow_kind == "schrodinger":
        speed = 2.0 + 2.0 * _WINDOW.outer_halfwidth
        y_lo, y_hi = -0.8, speed * t1 + 0.8
    else:
        y_lo, y_hi = -(t1 + 0.9), t1 + 0.9
    grid = make_transverse_grid(h, y_lo, y_hi, eta_max=_WINDOW.center + _WINDOW.outer_halfwidth + 0.1,
                                oversample=1.6)
    if data == "coherent":
        envelope = coherent_state(1.0, h, grid)
    else:
        envelope = np.exp(1j * grid.y / h - grid.y**2 / 2.0)
    spec = make_mode_spec(k, h, envelope, grid, window=_WINDOW)
    flow = TransverseFlow(kind=flow_kind, omega=spec.omega_k, h=h)
    synth = _ModeSynthesis(spec, default_x_grid(spec, n_x=120))

    times = np.linspace(t0, t1, n_t)
    inner = np.empty(n_t)
    l2_0 = None
    for it, t in enumerate(times):
        profiles = synth.profiles(flow.multiplier(t, synth.eta))
        inner[it] = synth.screened_lr_norm(profiles, r)
        if it == 0:
            l2_0 = synth.screened_lr_norm(profiles, 2)
    lqlr = lqlr_norm(inner, times, q)
    return {"h": h, "lqlr": lqlr, "l2_initial": l2_0, "quotient": lqlr / l2_0,
            "n_y": grid.y.size, "n_x": synth.x.size, "x_tail_fraction": synth.x_tail_fraction,
            "rank": synth.rank, "rank_residual": synth.rank_residual,
            "screen_bound": synth.screen_bound, "kept_share": synth.kept_share}


def strichartz_quotient(flow_kind: str, data: str, q, r, t_window, h_list, *, k: int = 0,
                        n_t: int = 25) -> NormScanResult:
    """Scan |u|_{Lq Lr} / |u(0)|_{L2} over h and fit the exponent.

    ``data`` is 'coherent' (the optimality packet) or 'gaussian' (an O(1)
    envelope at frequency 1/h).  The time integral uses ``n_t`` uniform
    samples of exact multiplier evolutions.  Each meta row records
    ``x_tail_fraction``, the largest L2 share beyond 0.9 X over its slices,
    and the synthesis shortcuts: the Airy rows' ``rank`` and ``rank_residual``,
    and the L^r screen's largest ``screen_bound`` and its ``kept_share`` of
    the (x, y) samples.
    """
    q = float(q)
    r = float(r) if r != math.inf else math.inf
    rows = [_quotient_one_h(flow_kind, data, k, q, r, t_window, float(h), n_t) for h in h_list]
    samples = [(row["h"], row["quotient"]) for row in rows]
    slope, stderr = fit_exponent(samples) if spans_fit(samples) else (None, None)
    return NormScanResult(q=q, r=r, t_window=tuple(t_window), samples=samples,
                          fitted_exponent=slope, stderr=stderr, reliable=True,
                          meta={"flow": flow_kind, "data": data, "k": k, "rows": rows})
