"""Oscillatory integrals two ways, and the dispersive-amplitude scans.

``quad_oscillatory`` is the oracle: adaptive panel quadrature that keeps the
per-panel phase variation below a fixed number of wavelengths before applying
high-order Gauss rules.  ``stationary_phase`` is the asymptotic route, with
expansion terms built from finite-difference Taylor data.  The gamma scans
measure sup_z of the dispersion integrals for the two transverse flows with
one fixed Gauss-Legendre rule per (curve, lambda), aligned with the window's
kinks, and check the largest-lambda maximizer of each curve against the oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import FrequencyWindow
from .normlab import fit_powerlaw_2d, spans_fit
from .params import SemiclassicalParams


class QuadratureError(RuntimeError):
    pass


class StationaryPhaseError(ValueError):
    pass


class GridCoverageError(RuntimeError):
    pass


@dataclass
class OscillatoryProblem:
    """Integral of exp(i * large_param * phase(x)) * amplitude(x) over domain."""

    phase: object
    amplitude: object
    large_param: float
    domain: tuple[float, float]

    def __post_init__(self):
        a, b = self.domain
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError(f"bad domain {self.domain}")
        if self.large_param < 1.0:
            raise ValueError("large_param must be >= 1")
        probe = np.linspace(a, b, 7)
        amp = np.asarray(self.amplitude(probe), dtype=complex)
        ph = np.asarray(self.phase(probe), dtype=float)
        if not (np.all(np.isfinite(amp)) and np.all(np.isfinite(ph))):
            raise ValueError("phase/amplitude not finite on the domain")
        scale = np.max(np.abs(amp))
        if scale > 0 and max(abs(amp[0]), abs(amp[-1])) > 1e-6 * scale:
            raise ValueError("amplitude support must be contained in the domain")
        # probe twice-differentiability by a second difference at interior points
        step = (b - a) * 1e-4
        mid = probe[1:-1]
        d2 = (np.asarray(self.phase(mid + step)) - 2 * ph[1:-1] + np.asarray(self.phase(mid - step))) / step**2
        if not np.all(np.isfinite(d2)):
            raise ValueError("phase is not twice differentiable on the domain")


@functools.cache
def _gl(n):
    return np.polynomial.legendre.leggauss(n)


def _panel_integrals(f_total, edges_lo, edges_hi, n):
    """Gauss-Legendre panel integrals of f_total over [lo_i, hi_i], batched."""
    x, w = _gl(n)
    half = 0.5 * (edges_hi - edges_lo)
    mid = 0.5 * (edges_hi + edges_lo)
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = f_total(pts.ravel()).reshape(pts.shape)
    return half * (vals @ w)


def quad_oscillatory(problem: OscillatoryProblem, tol: float = 1e-9) -> complex:
    """Adaptive evaluation of the oscillatory integral to absolute error ~tol.

    The domain is pre-split until lam * (phase variation per panel) <= 8 pi,
    then panels are refined on an embedded GL12/GL24 error estimate until the
    summed estimate is below tol.  A panel budget guards pathological input.
    """
    if not 1e-12 <= tol <= 1e-3:
        raise ValueError(f"tol must lie in [1e-12, 1e-3], got {tol}")
    lam = problem.large_param
    phase = problem.phase
    amp = problem.amplitude

    def f_total(x):
        return np.asarray(amp(x), dtype=complex) * np.exp(1j * lam * np.asarray(phase(x), dtype=float))

    budget = 4096
    lo = np.array([problem.domain[0]], dtype=float)
    hi = np.array([problem.domain[1]], dtype=float)
    # pre-split on phase variation
    for _ in range(40):
        t = np.linspace(0, 1, 9)
        pts = lo[:, None] + (hi - lo)[:, None] * t[None, :]
        ph = np.asarray(phase(pts.ravel()), dtype=float).reshape(pts.shape)
        var = lam * (ph.max(axis=1) - ph.min(axis=1))
        split = var > 8.0 * math.pi
        if not np.any(split):
            break
        if lo.size + np.count_nonzero(split) > budget:
            raise QuadratureError("panel budget exhausted during phase pre-split (pathological phase?)")
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate([lo[~split], lo[split], mid])
        hi = np.concatenate([hi[~split], mid, hi[split]])
    else:
        raise QuadratureError("phase variation did not settle after 40 split rounds")

    for _ in range(60):
        coarse = _panel_integrals(f_total, lo, hi, 12)
        fine = _panel_integrals(f_total, lo, hi, 24)
        err = np.abs(fine - coarse)
        total_err = float(err.sum())
        if total_err <= tol:
            return complex(fine.sum())
        split = err > max(tol / max(err.size, 1), np.partition(err, -1)[-1] * 0.25)
        if lo.size + np.count_nonzero(split) > budget:
            raise QuadratureError(
                f"panel budget exhausted (err={total_err:.2e} > tol={tol:.2e}); pathological phase input?"
            )
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate([lo[~split], lo[split], mid])
        hi = np.concatenate([hi[~split], mid, hi[split]])
    raise QuadratureError("refinement did not converge within the round budget")


def _taylor_coefficients(func, x0: float, order: int, radius: float) -> np.ndarray:
    """Taylor coefficients c_0..c_order of func at x0 by local polynomial fit.

    The fit degree exceeds the requested order by 6 so that the low
    coefficients are insensitive to truncation of the local expansion.
    """
    degree = order + 6
    m = 2 * degree + 7
    u = np.cos(np.pi * np.arange(m) / (m - 1))  # Chebyshev points in [-1, 1]
    pts = x0 + radius * u
    vals = np.asarray(func(pts), dtype=float)
    design = np.vander(u, degree + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    return coef[: order + 1] / radius ** np.arange(order + 1)


@dataclass
class StationaryPhaseExpansion:
    """Stationary-phase data: critical point, curvature, L_j terms, error bound."""

    critical_point: float
    phase_value: float
    second_derivative: float
    terms: list
    error_bound: float
    large_param: float
    value: complex = field(init=False)

    def __post_init__(self):
        if self.second_derivative == 0.0:
            raise StationaryPhaseError("degenerate critical point")
        if not np.isfinite(self.error_bound):
            raise StationaryPhaseError("error bound must be finite")
        pref = np.sqrt(2.0 * math.pi * 1j / (self.large_param * self.second_derivative))
        series = sum(
            self.terms[j] * self.large_param ** (-j) for j in range(len(self.terms))
        )
        self.value = complex(pref * np.exp(1j * self.large_param * self.phase_value) * series)


def _find_critical_point(problem: OscillatoryProblem):
    a, b = problem.domain
    margin = 1e-6 * (b - a)
    grid = np.linspace(a + margin, b - margin, 2001)
    step = (b - a) * 1e-6
    dphi = (np.asarray(problem.phase(grid + step)) - np.asarray(problem.phase(grid - step))) / (2 * step)
    signs = np.sign(dphi)
    nz = np.nonzero(signs != 0)[0]
    if nz.size < 2:
        raise StationaryPhaseError("phase derivative vanishes on the sampling grid")
    s = signs[nz]
    changes = np.nonzero(s[:-1] * s[1:] < 0)[0]
    if changes.size == 0:
        # a zero of phi' without sign change: candidate fold (degenerate) point
        imin = int(np.argmin(np.abs(dphi)))
        if abs(dphi[imin]) < 1e-3 * np.abs(dphi).max():
            return float(grid[imin])
        raise StationaryPhaseError("no stationary point inside the domain")
    if changes.size > 1:
        raise StationaryPhaseError(
            f"{changes.size} critical points found; split the domain before expanding"
        )
    lo, hi = grid[nz[changes[0]]], grid[nz[changes[0] + 1]]

    def deriv(x):
        return float(problem.phase(np.array([x + step]))[0] - problem.phase(np.array([x - step]))[0]) / (2 * step)

    f_lo = deriv(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = deriv(mid)
        if f_mid * f_lo > 0:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def stationary_phase(problem: OscillatoryProblem, k: int = 2) -> StationaryPhaseExpansion:
    """Expansion with terms L_j f, j < k, about the unique nondegenerate critical point.

    L_j f = sum_{nu - mu = j, 2 nu >= 3 mu} i^{-j} 2^{-nu} / (mu! nu!)
            (phi''(0))^{-nu} d^{2 nu}(kappa^mu f)(0),
    with kappa the cubic-and-higher remainder of the phase.  Derivatives come
    from finite-difference Taylor fits with steps tuned to the local scale.
    """
    if not 1 <= k <= 3:
        raise StationaryPhaseError(f"k must lie in 1..3, got {k}")
    c = _find_critical_point(problem)
    a, b = problem.domain
    scale = min(b - a, 2.0 * min(c - a, b - c))
    radius = min(0.35, 0.12 * scale)
    phi_order = 2 * k + 2
    f_order = 2 * (k - 1) + 2
    phi_c = _taylor_coefficients(lambda u: np.asarray(problem.phase(u), dtype=float), c, phi_order, radius)
    f_c = _taylor_coefficients(lambda u: np.asarray(problem.amplitude(u), dtype=float).real, c, f_order, radius)
    f_c_im = _taylor_coefficients(lambda u: np.asarray(problem.amplitude(u), dtype=complex).imag, c, f_order, radius)
    f_taylor = f_c + 1j * f_c_im

    phi2 = 2.0 * phi_c[2]
    curvature_floor = 1e-5 * max(1.0, np.abs(phi_c[2:]).max())
    if abs(phi2) < curvature_floor:
        raise StationaryPhaseError(
            f"degenerate critical point at u={c:.6g}: |phi''| = {abs(phi2):.2e} (fold caustic)"
        )

    kappa = phi_c.copy()
    kappa[:3] = 0.0  # remove value, slope (0 at c) and quadratic part

    terms = []
    for j in range(k):
        acc = 0.0 + 0.0j
        for mu in range(0, 2 * j + 1):
            nu = mu + j
            if 2 * nu < 3 * mu:
                continue
            # coefficient of u^{2 nu} in kappa^mu * f, via polynomial products
            poly = np.array([1.0 + 0.0j])
            for _ in range(mu):
                poly = np.convolve(poly, kappa)[: 2 * nu + 1]
            poly = np.convolve(poly, f_taylor)[: 2 * nu + 1]
            if poly.size < 2 * nu + 1:
                continue
            d2nu = poly[2 * nu] * math.factorial(2 * nu)
            acc += (
                (1j) ** (-j)
                * 2.0 ** (-nu)
                / (math.factorial(mu) * math.factorial(nu))
                * phi2 ** (-nu)
                * d2nu
            )
        terms.append(acc)

    # structural error-bound estimate C * omega^{-k} * sum_{|alpha|<=2k} sup|d^alpha f|
    sup_f = 0.0
    probes = np.linspace(a + 0.08 * (b - a), b - 0.08 * (b - a), 5)
    facts = np.array([math.factorial(i) for i in range(2 * k + 1)], dtype=float)
    for p in probes:
        rad = min(radius, 0.45 * min(p - a, b - p))
        fc_r = _taylor_coefficients(lambda u: np.asarray(problem.amplitude(u), dtype=complex).real, p, 2 * k, rad)
        fc_i = _taylor_coefficients(lambda u: np.asarray(problem.amplitude(u), dtype=complex).imag, p, 2 * k, rad)
        sup_f = max(sup_f, float(np.sum(np.hypot(fc_r, fc_i) * facts)))
    m_phi = float(np.sum(np.abs(kappa)))
    c_struct = 8.0 ** (k + 1) * (1.0 + m_phi) ** (2 * k) * max(1.0, abs(phi2) ** (-(3 * k + 1) / 2.0))
    bound = c_struct * problem.large_param ** (-k) * sup_f

    return StationaryPhaseExpansion(
        critical_point=float(c),
        phase_value=float(phi_c[0]),
        second_derivative=float(phi2),
        terms=terms,
        error_bound=float(bound),
        large_param=problem.large_param,
    )


# ---------------------------------------------------------------------------
# dispersive amplitude scans


@dataclass
class DispersionSample:
    lam: float
    h: float
    mu: float
    gamma: float
    z_at_max: float


@dataclass
class DispersionCurve:
    """gamma(lambda; h) samples for one flow with fitted power-law exponents."""

    flow: str
    d: int
    samples: list
    fitted_lambda_exponent: float | None = None
    fitted_h_exponent: float | None = None
    lambda_stderr: float | None = None
    h_stderr: float | None = None
    meta: dict = field(default_factory=dict)

    def fit(self, mu_min: float | None = None) -> "DispersionCurve":
        pts = [s for s in self.samples if (mu_min is None or s.mu > mu_min)]
        if len(pts) < 4 or not spans_fit([(s.lam, s.gamma) for s in self.samples]):
            self.meta["fit_note"] = "lambda span < 1.5 decades or too few points; no fit reported"
            return self
        res = fit_powerlaw_2d([(s.lam, s.h, s.gamma) for s in pts])
        self.fitted_lambda_exponent = res["lambda_exponent"]
        self.lambda_stderr = res["lambda_stderr"]
        self.fitted_h_exponent = res["h_exponent"]
        self.h_stderr = res["h_stderr"]
        self.meta["fit_points"] = res["n"]
        if mu_min is not None:
            self.meta["mu_min"] = mu_min
        return self

    def rows(self):
        for s in self.samples:
            yield (self.flow, self.d, s.h, s.lam, s.mu, s.gamma)


def g_schrodinger(eta, omega, h):
    eta = np.abs(np.asarray(eta, dtype=float))
    return eta**2 + omega * h ** (2.0 / 3.0) * eta ** (4.0 / 3.0)


def g_wave(eta, omega, h):
    return np.sqrt(g_schrodinger(eta, omega, h))


# The scans' fixed rule: 24 Gauss-Legendre nodes per panel, panels short enough
# that lam * max|z - G'| * (panel length) <= 16 over the whole z-span, and
# |J(z)| evaluated against the node samples in blocks of at most 256 nodes.
_RULE_NODES = 24
_RULE_PHASE_CAP = 16.0
_RULE_BLOCK = 256
_RULE_PANEL_BUDGET = 4096


class _FixedRule:
    """J(z) = int exp(i lam (z eta - G(eta))) psi(eta) d eta for z in [z_lo, z_hi].

    The window's support is split at its four kinks (where the C^order ramps
    join), so psi is a polynomial on every piece and Gauss-Legendre converges
    geometrically.  The node samples f_j = w_j psi(eta_j) exp(-i lam G(eta_j))
    are computed once; each J(z) is then a dot product with exp(i lam z eta_j).
    """

    def __init__(self, g_func, window: FrequencyWindow, lam: float, z_lo: float, z_hi: float,
                 tol: float):
        if not 1e-12 <= tol <= 1e-3:
            raise ValueError(f"tol must lie in [1e-12, 1e-3], got {tol}")
        if not lam >= 1.0:
            raise ValueError("large_param must be >= 1")
        self.g_func, self.window, self.lam = g_func, window, lam
        c, inner, outer = window.center, window.inner_halfwidth, window.outer_halfwidth
        kinks = np.array([c - outer, c - inner, c + inner, c + outer])
        x, w = _gl(_RULE_NODES)
        step = 1e-6 * (kinks[-1] - kinks[0])
        lo, hi = [], []
        for a, b in zip(kinks[:-1], kinks[1:]):
            probe = np.linspace(a, b, 17)
            gp = (np.asarray(g_func(probe + step)) - np.asarray(g_func(probe - step))) / (2 * step)
            slope = float(np.max(np.maximum(np.abs(z_lo - gp), np.abs(z_hi - gp))))
            if not math.isfinite(slope):
                raise ValueError("phase is not differentiable on the window")
            n = max(1, math.ceil(lam * slope * (b - a) / _RULE_PHASE_CAP))
            edges = np.linspace(a, b, n + 1)
            lo.append(edges[:-1])
            hi.append(edges[1:])
        lo, hi = np.concatenate(lo), np.concatenate(hi)
        if lo.size > _RULE_PANEL_BUDGET:
            raise QuadratureError(f"fixed rule needs {lo.size} panels > {_RULE_PANEL_BUDGET}")
        half = 0.5 * (hi - lo)
        self.nodes = ((0.5 * (hi + lo))[:, None] + half[:, None] * x).ravel()
        amp = np.asarray(window(self.nodes), dtype=float)
        phase = np.asarray(g_func(self.nodes), dtype=float)
        if not (np.all(np.isfinite(amp)) and np.all(np.isfinite(phase))):
            raise ValueError("phase/amplitude not finite on the domain")
        self.samples = (half[:, None] * w).ravel() * amp * np.exp(-1j * lam * phase)

    def __call__(self, z) -> np.ndarray:
        """Complex J at each z, summed over node blocks."""
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.size, dtype=complex)
        for s in range(0, self.nodes.size, _RULE_BLOCK):
            arg = np.multiply.outer(self.lam * z, self.nodes[s:s + _RULE_BLOCK])
            out += np.exp(1j * arg) @ self.samples[s:s + _RULE_BLOCK]
        return out


def _sup_over_z(g_func, window: FrequencyWindow, lam: float, z_grid: np.ndarray,
                tol: float) -> tuple[float, float, _FixedRule]:
    """Max over z of |int exp(i lam (z eta - G(eta))) psi(eta) d eta| with 4 refinement rounds.

    Returns the sup, its maximizer and the fixed rule that evaluated the scan.
    """
    grid = np.array(z_grid, dtype=float)
    rule = _FixedRule(g_func, window, lam, float(grid.min()), float(grid.max()), tol)
    vals = np.abs(rule(grid))
    for _ in range(4):
        i = int(np.argmax(vals))
        if i == 0:
            raise GridCoverageError(f"sup attained at left z-grid edge z={grid[0]:.5g}")
        if i == grid.size - 1:
            raise GridCoverageError(f"sup attained at right z-grid edge z={grid[-1]:.5g}")
        refined = np.linspace(grid[i - 1], grid[i + 1], 9)[1:-1]
        grid = np.concatenate([grid, refined])
        vals = np.concatenate([vals, np.abs(rule(refined))])
        order = np.argsort(grid)
        grid, vals = grid[order], vals[order]
    i = int(np.argmax(vals))
    return float(vals[i]), float(grid[i]), rule


def _spot_check(curve: DispersionCurve, spot, tol: float) -> None:
    """Compare the largest-lambda scan with the oracle at its maximizer.

    Records |fixed rule - quad_oscillatory| as ``curve.meta["oracle_diff"]``
    and raises QuadratureError when it exceeds tol.
    """
    if spot is None:
        return
    rule, z = spot
    prob = OscillatoryProblem(
        phase=lambda e: z * e - rule.g_func(e),
        amplitude=rule.window,
        large_param=rule.lam,
        domain=rule.window.support,
    )
    diff = abs(complex(rule([z])[0]) - quad_oscillatory(prob, tol))
    if not diff <= tol:
        raise QuadratureError(f"fixed rule differs from the oracle by {diff:.2e} > tol={tol:.2e} "
                              f"at lam={rule.lam:.5g}, z={z:.8g}")
    curve.meta["oracle_diff"] = diff


def _grid_jitter(seed, n: int, dz: float) -> np.ndarray:
    """Deterministic sub-cell jitter of a scan grid (identical for equal seeds)."""
    if seed is None:
        return np.zeros(n)
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.3, 0.3, n) * dz


def _gamma_curve(flow: str, d: int, g_func, window: FrequencyWindow, lambda_grid,
                 z_grid: np.ndarray, h: float, tol: float) -> DispersionCurve:
    """One sup-over-z sample per lambda on the fixed z-grid, spot-checked at the largest lambda."""
    if d != 2:
        raise ValueError("only d = 2 is supported (the eta-integral must be one-dimensional)")
    samples = []
    spot = None  # (rule, maximizer) of the largest lambda so far
    for lam in lambda_grid:
        gamma, z_at, rule = _sup_over_z(g_func, window, float(lam), z_grid, tol)
        if spot is None or rule.lam > spot[0].lam:
            spot = (rule, z_at)
        samples.append(DispersionSample(lam=float(lam), h=h, mu=float(lam) * h ** (2.0 / 3.0),
                                        gamma=gamma, z_at_max=z_at))
    curve = DispersionCurve(flow=flow, d=d, samples=samples)
    _spot_check(curve, spot, tol)
    return curve


def gamma_schrodinger(params: SemiclassicalParams, omega_k: float, d: int, lambda_grid,
                      window: FrequencyWindow | None = None, tol: float = 1e-9,
                      seed: int | None = None) -> DispersionCurve:
    """Dispersive suprema for the Schroedinger symbol G_s on 33 z-points; expects lambda^{-1/2} decay."""
    window = window or FrequencyWindow()
    h = params.h
    g = lambda e: g_schrodinger(e, omega_k, h)
    lo, hi = window.support
    step = 1e-5
    gp = lambda e: (g(e + step) - g(e - step)) / (2 * step)
    z_lo, z_hi = gp(lo), gp(hi)
    pad = 0.25 * (z_hi - z_lo)
    z_grid = np.linspace(z_lo - pad, z_hi + pad, 33)
    z_grid[1:-1] += _grid_jitter(seed, z_grid.size - 2, z_grid[1] - z_grid[0])
    return _gamma_curve("schrodinger", d, g, window, lambda_grid, z_grid, h, tol).fit()


def gamma_wave(params: SemiclassicalParams, omega_k: float, d: int, lambda_grid,
               window: FrequencyWindow | None = None, tol: float = 1e-9,
               seed: int | None = None) -> DispersionCurve:
    """Dispersive suprema for the half-wave symbol G_w.

    The 41-point z-grid concentrates on the h^{2/3}-neighborhood of z = 1 via
    z = 1 + h^{2/3} x; the fit is restricted to the mu = lam h^{2/3} > 4
    regime, where gamma ~ h^{-1/3} lam^{-1/2}.
    """
    window = window or FrequencyWindow()
    h = params.h
    g = lambda e: g_wave(e, omega_k, h)
    rho_lo, rho_hi = window.support
    x_hi = (omega_k / 6.0) * rho_lo ** (-2.0 / 3.0) * 1.8 + 0.3
    x_grid = np.linspace(-0.6, x_hi, 41)
    x_grid[1:-1] += _grid_jitter(seed, x_grid.size - 2, x_grid[1] - x_grid[0])
    curve = _gamma_curve("wave", d, g, window, lambda_grid, 1.0 + h ** (2.0 / 3.0) * x_grid, h, tol)
    interior = []
    for s in curve.samples:
        x_at = (s.z_at_max - 1.0) / h ** (2.0 / 3.0)
        rho_at = (6.0 * x_at / omega_k) ** (-1.5) if x_at > 0 else math.inf
        interior.append(rho_lo <= rho_at <= rho_hi)
    curve.meta["stationary_rho_inside_window"] = interior
    return curve.fit(mu_min=4.0)


def pool_curves(curves) -> DispersionCurve:
    """Merge same-flow curves from an h-sweep and refit jointly (mu > 4 for wave)."""
    flows = {c.flow for c in curves}
    if len(flows) != 1:
        raise ValueError("cannot pool curves of different flows")
    flow = flows.pop()
    merged = DispersionCurve(flow=flow, d=curves[0].d,
                             samples=[s for c in curves for s in c.samples])
    diffs = [c.meta["oracle_diff"] for c in curves if "oracle_diff" in c.meta]
    if diffs:
        merged.meta["oracle_diff"] = max(diffs)
    return merged.fit(mu_min=4.0 if flow == "wave" else None)
