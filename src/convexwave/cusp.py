"""The multiply-reflected cusp apparatus: symbols, kernels, fields, traces.

The n-th cusp field is evaluated through the exact Airy reduction: writing the
symbol through its spectrum turns the s-integral into a canonical cubic-phase
integral,

    u^n(t,x,y) = int d eta  e^{i eta (y - t sqrt(1+a) + (4/3) n a^{3/2})/h}
                 (h/eta)^{1/3} int d xi  rhohat^n(xi; eta) e^{i xi w}
                 Ai(omega^{2/3} s + omega^{-1/3} xi),

with x = a(1 + s), omega = eta lam and w = t/time_unit - 2n the symbol argument
(``SemiclassicalParams.time_unit``).  Reflections act on the spectrum as the
multiplier (-1)^n c^n(zeta, omega) e^{i n omega f(zeta)} at zeta = xi/omega;
boundary traces multiply by the truncated oscillatory-branch symbols instead.
Only (h/eta)^{1/3} and the y-scale see h, so the L^r norm of a slice at
tau = t/time_unit is h^{1/3+1/r} a^{1/r} F_r(lam, tau), lam = a^{3/2}/h.  All
phase conventions below are fixed by requiring the n -> n+1 boundary-trace
cancellation to hold numerically.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .airy import _LEADING, _UK, AiryTable, _branch_series, cubic_coefficients, cubic_interpolate
from .fields import FrequencyWindow, WaveField, trapezoid_weights
from .normlab import _BLOCK_SAMPLES, block_powers, check_exponent, region_split, rows_norm
from .params import SemiclassicalParams, reflection_count

__all__ = [
    "PhaseSpacePoint", "billiard", "billiard_iterate", "ReflectionKernel",
    "CuspSymbol", "make_symbol", "iterate_symbol", "CuspEvaluator",
    "cusp_field", "wave_residual", "trace", "boundary_residual",
    "dirichlet_residual", "uh_mixed_norms", "reflection_count",
]


class CuspError(ValueError):
    pass


class GlidingRegimeError(CuspError):
    """Raised for billiard input with tau^2 <= eta^2 (gliding or elliptic)."""


# ---------------------------------------------------------------------------
# billiard maps


@dataclass(frozen=True)
class PhaseSpacePoint:
    """Boundary phase-space point (y, t; eta, tau), hyperbolic when tau^2 > eta^2."""

    y: float
    t: float
    eta: float
    tau: float

    @property
    def slope(self) -> float:
        if self.eta == 0.0:
            raise GlidingRegimeError("eta = 0: no boundary frequency, billiard map undefined")
        m = (self.tau / self.eta) ** 2 - 1.0
        if m <= 0.0:
            raise GlidingRegimeError(
                f"tau^2 - eta^2 = {self.tau**2 - self.eta**2:.3e} <= 0: gliding regime "
                "({p,gamma}=0, {{p,gamma},p}>0 boundary tangency), no billiard map"
            )
        return m


def billiard_iterate(point: PhaseSpacePoint, sign: int, n: int = 1) -> PhaseSpacePoint:
    """n-fold billiard map: closed-form translation by n times the one-step shift."""
    if sign not in (+1, -1):
        raise CuspError("sign must be +1 or -1")
    if n < 0:
        sign, n = -sign, -n
    m = point.slope
    root = math.sqrt(m)
    return PhaseSpacePoint(
        y=point.y + sign * n * (4.0 * root + (8.0 / 3.0) * root**3),
        t=point.t - sign * n * 4.0 * root * point.tau / point.eta,
        eta=point.eta,
        tau=point.tau,
    )


def billiard(point: PhaseSpacePoint, sign: int) -> PhaseSpacePoint:
    """One application of the billiard ball map delta^{sign}."""
    return billiard_iterate(point, sign, 1)


# ---------------------------------------------------------------------------
# reflection kernels

def _ratio_series(jmax: int) -> np.ndarray:
    """Coefficients of S_-(X)/S_+(X) in powers of 1/X, truncated after jmax.

    S_pm(X) = sum_k (pm i)^k u_k X^{-k}; the ratio is unimodular for real X.
    """
    sp = np.array([(1j) ** k * _UK[k] for k in range(jmax + 1)], dtype=complex)
    sm = sp.conj()
    inv = np.zeros(jmax + 1, dtype=complex)
    inv[0] = 1.0
    for j in range(1, jmax + 1):
        inv[j] = -np.dot(sp[1 : j + 1], inv[j - 1 :: -1])
    out = np.zeros(jmax + 1, dtype=complex)
    for j in range(jmax + 1):
        out[j] = np.dot(sm[: j + 1], inv[j::-1])
    return out


@dataclass(frozen=True)
class ReflectionKernel:
    """Cutoff, reflection phase f, and truncated branch symbols for one bounce.

    chi = 1 on [-c, c], supported in (-2c, 2c); f(z) = 2z - (4/3)(1-(1-z)^{3/2})
    vanishes to second order with f''(0) = 1.  The one-reflection spectral
    multiplier is c(zeta, w) e^{i w f(zeta)} with c = chi^2 e^{-i pi/2} R_J and
    R_J the truncated series of the branch ratio.
    """

    chi_flat: ClassVar[float] = 0.25
    chi_order: ClassVar[int] = 4
    branch_terms: int = 3

    def __post_init__(self):
        if not 0 <= self.branch_terms <= 6:
            raise CuspError("branch_terms must lie in [0, 6]")

    def chi(self, zeta):
        from .fields import smoothstep

        u = (np.abs(np.asarray(zeta, dtype=float)) - self.chi_flat) / self.chi_flat
        return 1.0 - smoothstep(u, self.chi_order)

    @staticmethod
    def f(zeta):
        zeta = np.asarray(zeta, dtype=float)
        return 2.0 * zeta - (4.0 / 3.0) * (1.0 - (1.0 - zeta) ** 1.5)

    def branch_symbol(self, zeta, omega, sign: int):
        """a_{sign}(zeta, omega): truncated branch amplitude including phase constants."""
        zeta = np.asarray(zeta, dtype=float)
        big_x = (2.0 / 3.0) * omega * (1.0 - zeta) ** 1.5
        series = _branch_series(big_x, self.branch_terms, sign * 1j)
        return _LEADING * (1.0 - zeta) ** -0.25 * np.exp(sign * 1j * math.pi / 4.0) * series

    def trace_multiplier(self, zeta, omega, sign: int):
        """Spectral multiplier of the trace operator I_{sign} at zeta = xi/omega."""
        zeta = np.asarray(zeta, dtype=float)
        g = (2.0 / 3.0) * ((1.0 - zeta) ** 1.5 - 1.0)
        return self.chi(zeta) * self.branch_symbol(zeta, omega, sign) * np.exp(-sign * 1j * omega * g)

    def c_symbol(self, zeta, omega):
        """c(zeta, omega) = chi^2 e^{-i pi/2} [S_-/S_+]_J: unimodular up to chi^2."""
        zeta = np.asarray(zeta, dtype=float)
        coeffs = _ratio_series(self.branch_terms)
        w = 1.0 / ((2.0 / 3.0) * omega * (1.0 - zeta) ** 1.5)
        acc = np.zeros(zeta.shape, dtype=complex)
        for j in range(self.branch_terms, -1, -1):
            acc = acc * w + coeffs[j]
        return self.chi(zeta) ** 2 * np.exp(-1j * math.pi / 2.0) * acc

    def transfer_multiplier(self, zeta, omega):
        """One-reflection spectral multiplier c(zeta, omega) e^{i omega f(zeta)}."""
        return self.c_symbol(zeta, omega) * np.exp(1j * omega * self.f(np.asarray(zeta, dtype=float)))

    def reflection_multiplier(self, zeta, omega, n: int):
        """n-fold multiplier (-1)^n [c e^{i omega f}]^n on |zeta| < 2c, 0 elsewhere; 1 for n = 0.

        ``omega`` is a scalar or an array shaped like ``zeta``.
        """
        zeta = np.asarray(zeta, dtype=float)
        if n == 0:
            return np.ones(zeta.shape, dtype=complex)
        mult = np.zeros(zeta.shape, dtype=complex)
        ok = np.abs(zeta) < 2.0 * self.chi_flat
        mult[ok] = self.transfer_multiplier(zeta[ok], omega[ok] if np.ndim(omega) else omega) ** n
        mult *= (-1.0) ** n
        return mult


# Both are frozen: one instance serves every symbol, evaluator and trace.
_KERNEL = ReflectionKernel()
_WINDOW = FrequencyWindow()


# ---------------------------------------------------------------------------
# symbols


@dataclass
class CuspSymbol:
    """Sampled mollified symbol with cached spectrum and recorded derivative bounds."""

    z: np.ndarray
    values: np.ndarray
    xi: np.ndarray
    spectrum: np.ndarray
    halfwidth: float
    mollifier_scale: float
    deriv_bounds: tuple

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])

    def tail_fraction(self) -> float:
        """Share of |values| beyond 0.2 past the essential half-width."""
        mass = np.abs(self.values)
        total = float(mass.sum())
        if total == 0.0:
            return 0.0
        inside = np.abs(self.z) <= self.halfwidth + 0.2
        return float(mass[~inside].sum() / total)


def _deriv_bounds(values: np.ndarray, dz: float) -> tuple:
    mod = np.asarray(values)
    b0 = float(np.abs(mod).max(initial=0.0))
    d1 = np.gradient(mod, dz)
    b1 = float(np.abs(d1).max(initial=0.0))
    d2 = np.gradient(d1, dz)
    b2 = float(np.abs(d2).max(initial=0.0))
    return (b0, b1, b2)


def _mollifier_samples(z: np.ndarray, lam: float) -> np.ndarray:
    """k_lam(z) = lam k(lam z), k the unit-mass bump, normalized on the grid."""
    u = lam * z
    k = np.zeros_like(z)
    inside = np.abs(u) < 1.0
    k[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    dz = z[1] - z[0]
    total = k.sum() * dz
    if total == 0.0:
        raise CuspError(f"grid too coarse to resolve the mollifier scale 1/lambda = {1/lam:.3e}")
    return k / total


def symbol_sigma(c0: float) -> float:
    """Width of the Gaussian-core profile for a symbol of essential half-width c0."""
    return 0.475 * (c0 + 0.2)


def symbol_grid(lam: float, c0: float) -> tuple[int, float]:
    """(n_z, z_max) resolving both the mollifier scale and the field's xi-quadrature.

    The spectral step 2 pi / (2 z_max) must resolve the xi-oscillation of the
    Airy-reduction integrand, whose rate is |w| + beta sqrt(T) at omega = 1.25 lam
    and 0.78 lam; the z-step puts 8 points on the mollifier scale 1/lambda.
    """
    sigma = symbol_sigma(c0)
    xi_cut = 7.8 / sigma
    alpha_a = (1.25 * lam) ** (2.0 / 3.0)
    beta = (0.78 * lam) ** (-1.0 / 3.0)
    t_max = alpha_a * 1.4 + beta * xi_cut
    xi_rate = 1.55 + beta * math.sqrt(max(t_max, 1.0))
    dxi = 1.5 / xi_rate
    z_max = max(6.0, math.pi / dxi)
    dz = min(1.0 / (8 * lam), sigma / 10.0)
    n = int(2 ** math.ceil(math.log2(2.0 * z_max / dz)))
    return min(n, 1 << 18), z_max


def make_symbol(params: SemiclassicalParams, *, profile=None) -> CuspSymbol:
    """Mollified symbol on the :func:`symbol_grid`: Gaussian-core profile convolved with k_lam.

    The profile is essentially supported in [-c0, c0] (c0 of ``params``) with
    tails below the 5% window bound, which is checked; a compact-bump core is
    admissible but its spectrum decays too slowly for the desk-scale reflection
    cutoffs, so the default core is the (numerically compactly supported)
    Gaussian of width 0.475 (c0 + 0.2).
    """
    c0, lam = params.c0, params.lam
    n_points, z_max = symbol_grid(lam, c0)
    z = np.linspace(-z_max, z_max, n_points, endpoint=False)
    dz = z[1] - z[0]
    if dz > 1.0 / (8.0 * lam):
        raise CuspError(f"grid too coarse: dz = {dz:.3e} > 1/(8 lambda) = {1/(8*lam):.3e}")
    if profile is None:
        sigma = symbol_sigma(c0)
        tilde = np.exp(-(z**2) / (2.0 * sigma**2))
    else:
        tilde = np.asarray(profile(z), dtype=float)
    moll = _mollifier_samples(z, lam)
    vals = np.fft.ifft(np.fft.fft(tilde) * np.fft.fft(np.fft.ifftshift(moll))).real * dz
    xi = 2.0 * math.pi * np.fft.fftfreq(n_points, d=dz)
    spectrum = dz * np.exp(-1j * z[0] * xi) * np.fft.fft(vals)
    sym = CuspSymbol(
        z=z, values=vals.astype(complex), xi=xi, spectrum=spectrum,
        halfwidth=c0, mollifier_scale=lam,
        deriv_bounds=_deriv_bounds(vals, dz),
    )
    tail = sym.tail_fraction()
    if tail > 0.05:
        raise CuspError(f"tail mass fraction {tail:.3f} > 0.05")
    return sym


def iterate_symbol(rho0: CuspSymbol, n: int, eta: float, params: SemiclassicalParams) -> CuspSymbol:
    """n-fold reflected symbol at frequency eta, computed spectrally.

    rhohat^n(xi) = (-1)^n [c(xi/(eta lam), eta lam)]^n e^{i n eta lam f(...)}
    Psi(eta) rhohat^0(xi).  Requires n <= N and eta lam / n >= 4 (the uniform
    stationary-phase regime); the result's derivative bounds must stay within
    4 times the base symbol's.
    """
    if n < 0 or n > params.n_reflections:
        raise CuspError(f"need 0 <= n <= N = {params.n_reflections}, got n = {n}")
    psi = float(_WINDOW(np.array([eta]))[0])
    if n == 0:
        return replace(rho0, values=psi * rho0.values, spectrum=psi * rho0.spectrum)
    omega = eta * params.lam
    if omega / n < 4.0:
        raise CuspError(f"eta lam / n = {omega/n:.2f} < 4: reflection regime violated")
    spectrum = psi * _KERNEL.reflection_multiplier(rho0.xi / omega, omega, n) * rho0.spectrum
    dz = rho0.dz
    values = np.fft.ifft(spectrum * np.exp(1j * rho0.z[0] * rho0.xi)) / dz
    # uniform-in-n boundedness with a factor-4 slack; the essential-support tail is
    # O((lam/n)^{-infinity}) only asymptotically, so tail_fraction() is not gated here
    for alpha, (b, c_alpha) in enumerate(zip(_deriv_bounds(values, dz), rho0.deriv_bounds)):
        if b > 4.0 * c_alpha * (1.0 + 1e-9) + 1e-30:
            raise CuspError(f"derivative bound C_{alpha} violated: {b:.3e} > 4.0 * {c_alpha:.3e}")
    return replace(rho0, values=values, spectrum=spectrum)


# ---------------------------------------------------------------------------
# field evaluation (Airy reduction)


class _YAssembly:
    """The eta -> y sum  sum_e S_e e^{i eta_e y / h}  on centred y-offsets.

    One unnormalized inverse FFT of length n_fft (:meth:`transform`) evaluates
    the sum at the offsets j * 2 pi h / (n_fft deta), j = -n_fft/2 .. n_fft/2 - 1;
    the caller multiplies by the precomputed carrier e^{i eta_0 y / h}, which a
    norm cannot see.  The fftshift to that order is folded into the input as the
    signs (-1)^e (``signs``), which callers multiply into their eta samples
    beforehand with any centre shift (``phase``); the identity needs an even
    n_fft.  The quadrature step ``deta`` is left to the caller.
    """

    def __init__(self, eta: np.ndarray, h: float, n_fft: int):
        if n_fft % 2:
            raise CuspError(f"n_fft must be even (the y-offset shift is folded into (-1)^e), got {n_fft}")
        deta = eta[1] - eta[0]
        self.eta, self.h, self.n_fft = eta, h, n_fft
        self.signs = np.where(np.arange(eta.size) % 2, -1.0, 1.0)
        self.offsets = (np.arange(n_fft) - n_fft // 2) * (2.0 * math.pi * h / (n_fft * deta))
        self.offsets.flags.writeable = False
        self.deta = deta
        self.carrier = np.exp(1j * (eta[0] / h) * self.offsets)
        self.step = max(1, _BLOCK_SAMPLES // n_fft)  # x-rows per block of a field slice

    def phase(self, shift: float) -> np.ndarray | None:
        """e^{i eta shift / h}, which moves the y-centre of eta samples by ``shift``; None for no shift."""
        return np.exp(1j * (self.eta / self.h) * shift) if shift != 0.0 else None

    def transform(self, block: np.ndarray) -> np.ndarray:
        """The y-samples, without the carrier, of the signed eta samples in ``block[..., :eta.size]``:
        the tail of each row of n_fft columns is zeroed and the rows inverse-transformed in place."""
        block[..., self.eta.size :] = 0.0
        return np.fft.ifft(block, axis=-1, norm="forward", out=block)


# The xi cuts of the field and the trace (share of the spectrum's peak); they differ on
# purpose: a 1e-13 trace cut moves the dirichlet_residual ratio at 2^-20 by 2.4e-11 relative.
_KEEP_TOL = 1e-13
_TRACE_KEEP_TOL = 1e-14
_BATCH = 8  # planned times per Airy contraction; caps the held (eta, x, 2 _BATCH) block
_BAND_COLUMNS = 32  # dense eta columns per block of the banded eta interpolation
_HELD = threading.local()  # per thread: the last filled Airy factor and its key


def _spectral_setup(params: SemiclassicalParams, n: int, symbol: CuspSymbol, eta: np.ndarray,
                    keep_tol: float, xi_max: float = math.inf):
    """(xi, base, omega, mult, dxi, span): the spectrum of u^n before any Airy factor.

    ``base`` is rhohat^0 on the sorted xi range |xi| <= min(xi_keep, xi_max), ``dxi`` its
    step, and ``omega`` = eta lam and ``mult`` the n-fold reflection multiplier on the
    (eta, xi) grid; ``span`` is the (least, largest) xi of the untrimmed cut |xi| <= xi_keep.
    xi_keep is the largest |xi| where |rhohat^0| exceeds keep_tol times its peak, so the
    cut drops at most n_z keep_tol of sum |rhohat^0| for n_z symbol samples.
    """
    spec = symbol.spectrum
    above = np.abs(spec) > keep_tol * np.abs(spec).max()
    xi_keep = float(np.abs(symbol.xi[above]).max()) if np.any(above) else 0.0
    cut = symbol.xi[np.abs(symbol.xi) <= xi_keep]
    keep = np.abs(symbol.xi) <= min(xi_keep, xi_max)
    order = np.argsort(symbol.xi[keep])
    xi = symbol.xi[keep][order]
    omega = np.outer(eta, np.ones_like(xi)) * params.lam
    mult = _KERNEL.reflection_multiplier(xi[None, :] / omega, omega, n)
    dxi = float(xi[1] - xi[0]) if xi.size > 1 else 1.0
    return xi, spec[keep][order], omega, mult, dxi, (float(cut.min()), float(cut.max()))


def _airy_factor(lam: float, s: np.ndarray, eta: np.ndarray, xi: np.ndarray, span) -> np.ndarray:
    """Ai(omega^{2/3} s + omega^{-1/3} xi)[eta, s, xi] with omega = eta lam, filled one eta row at a
    time from one reused (s, xi) argument buffer on a table sized by the untrimmed cut's xi ``span``,
    so that every n at one lam reads the same table.  The fill is held per thread; a later request
    on the same lam, s, eta and span whose xi is a contiguous run of the held xi reads the held
    array, whole or as the view of that run's columns, and a view equals a fill of its columns."""
    held = getattr(_HELD, "entry", None)
    if held is not None and all(map(np.array_equal, held[0], (lam, s, eta, span))):
        j = int(np.searchsorted(held[1], xi[0]))
        if np.array_equal(held[1][j : j + xi.size], xi):
            return held[2] if xi.size == held[1].size else held[2][:, :, j : j + xi.size]
    held = _HELD.entry = None  # the held factor goes before a new one is filled
    alpha, beta = (eta * lam) ** (2.0 / 3.0), (eta * lam) ** (-1.0 / 3.0)
    table = AiryTable(min(alpha.max() * s.min() + beta.max() * span[0], -5.0) - 2.0,
                      max(alpha.max() * s.max() + beta.max() * max(span[1], 0.0), 5.0) + 2.0)
    factor = np.empty((eta.size, s.size, xi.size))
    arg = np.empty((s.size, xi.size))  # one eta row's arguments, reused
    for e in range(eta.size):
        np.multiply(alpha[e], s[:, None], out=arg)
        arg += beta[e] * xi
        table(arg, out=factor[e])
    factor.flags.writeable = False  # every evaluator on this key reads the same array
    _HELD.entry = ((lam, s.copy(), eta.copy(), span), xi.copy(), factor)
    return factor


def _contract(airy: np.ndarray, weights: np.ndarray, xi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """S[eta, x, 2j : 2j + 2] = [Re, Im] sum_xi airy[eta, x, xi] weights[eta, xi] e^{i xi w_j}.

    One batched real matmul per eta block serves every symbol argument w_j: the
    complex (eta, xi, m) weights are read as real (eta, xi, 2m) columns.
    """
    v = weights[:, :, None] * np.exp(1j * np.outer(xi, w))
    return np.matmul(airy, v.view(np.float64))


class CuspEvaluator:
    """Cached spectral tables for evaluating one reflected cusp at many times.

    The cusp is stored in two parts.  The real Airy factor ``_airy[eta, x, xi]``
    (:func:`_airy_factor`) is eta-major, each eta block an (n_x, n_xi) matrix of unit
    column stride; it reads only lam and the s = x/a - 1, eta and xi grids, so every
    evaluator at one lam reads one held factor, whatever its n.  The complex weights
    ``_weights[eta, xi]`` hold all that depends on n: the window, the reflection
    multiplier, the base spectrum, (h/eta)^{1/3} dxi and the second-derivative
    factor.  The xi grid is :func:`_spectral_setup` at the ``_KEEP_TOL`` cut, trimmed for
    n > 0 at the reflection cutoff 2c max(eta) lam; the trim sets the width of the view.

    A time slice multiplies the weights by e^{i xi w} and contracts them with
    the factor in one batched real matmul per eta block (:func:`_contract`),
    against their real and imaginary parts as two columns.  The ``times`` given
    at build, which the coming slices ask for in order, are contracted up to
    ``_BATCH`` at once, as 2 ``_BATCH`` columns of one matmul, and the
    (eta, x, 2m) block (6.25 MiB at 160 x 320 and m = 8) is held until its last
    time is sliced; any other time is contracted alone and nothing is held.
    The slice is then assembled on y-offsets 16 x-rows at a time in one loop
    of :meth:`field_values`: the block's coarse rows of the cusp and of a
    partner are interpolated to eta_dense together, each cusp's complex
    samples are moved by its shift phase and summed into the block, and the
    block is transformed in cache (:meth:`_YAssembly.transform`); no
    (n_x, n_eta_dense) samples exist.  The full-field form writes each block,
    times the carrier, into the fresh (n_x, n_fft) slice; the norm-only form
    (``r_list``) reduces each block to its row powers in one reused buffer, so
    it forms no (n_x, n_fft) array.  The interpolation is the four-point cubic
    as a real (n_eta, n_eta_dense) matrix, applied to the real and imaginary
    parts stacked as rows, one GEMM per block of ``_BAND_COLUMNS`` dense
    columns over the band of coarse rows that it reads (the rest is zero); its
    columns carry the quadrature step deta and the signs (-1)^e that fold the
    fftshift of the y-offsets into the FFT, so ``n_fft`` must be even.
    """

    def __init__(self, params: SemiclassicalParams, n: int, *, symbol: CuspSymbol | None = None,
                 x: np.ndarray | None = None, n_x: int = 320, n_eta: int = 160,
                 n_eta_dense: int = 1024, n_fft: int = 4096, second_deriv: bool = False, times=()):
        self.params = params
        self.n = int(n)
        self.second_deriv = second_deriv
        self.symbol = symbol if symbol is not None else make_symbol(params)
        h, a, lam = params.h, params.a, params.lam
        if x is None:
            x = np.linspace(0.0, 2.0 * a, n_x)
        self.x = np.asarray(x, dtype=float)

        lo, hi = _WINDOW.support
        self.eta = np.linspace(lo, hi, n_eta)
        self.eta_dense = np.linspace(lo, hi, n_eta_dense)
        self.n_fft = int(n_fft)
        self._y = _YAssembly(self.eta_dense, h, self.n_fft)
        pos = (self.eta_dense - self.eta[0]) / (self.eta[1] - self.eta[0])
        interp = cubic_interpolate(cubic_coefficients(np.eye(n_eta)), pos)
        self._interp = np.ascontiguousarray((interp * (self._y.signs * self._y.deta)[:, None]).T)
        self._bands = []  # (coarse rows, dense columns, the matrix block they span)
        for c0 in range(0, n_eta_dense, _BAND_COLUMNS):
            cols = slice(c0, c0 + _BAND_COLUMNS)
            nonzero = np.flatnonzero(self._interp[:, cols].any(axis=1))
            rows = slice(nonzero[0], nonzero[-1] + 1)
            self._bands.append((rows, cols, np.ascontiguousarray(self._interp[rows, cols])))

        if self.n > 0 and (0.78 * lam) / self.n < 4.0:
            raise CuspError(f"eta lam / n < 4 across the window for n = {self.n}")
        # for n > 0 the reflection cutoff kills |zeta| >= 2c at every eta in the window
        xi_max = 2.0 * _KERNEL.chi_flat * hi * lam if self.n > 0 else math.inf
        self.xi, base, _, mult, dxi, span = _spectral_setup(params, self.n, self.symbol, self.eta, _KEEP_TOL, xi_max)
        weights = _WINDOW(self.eta)[:, None] * mult * base[None, :]
        if second_deriv:
            weights = weights * (1j * self.xi[None, :]) ** 2 * (h**-params.delta / (4.0 * (1.0 + a)))
        self._weights = weights * ((h / self.eta)[:, None] ** (1.0 / 3.0)) * dxi

        self._airy = _airy_factor(lam, self.x / a - 1.0, self.eta, self.xi, span)
        self._planned = [float(t) for t in times]  # the times still to be contracted, in order
        self._held = None  # (batch times, their (eta, x, 2 len(batch)) contraction)

    def _coarse(self, t: float) -> np.ndarray:
        """The contraction S[eta, x, [re, im]] at time t, from the held batch when it covers t."""
        if self._held is None or t not in self._held[0]:
            planned = t in self._planned
            batch = [t]
            if planned:
                i = self._planned.index(t)
                batch, self._planned = self._planned[i : i + _BATCH], self._planned[i + _BATCH :]
                self._held = None  # the spent block goes before the next one is contracted
            w = np.asarray(batch) / self.params.time_unit - 2.0 * self.n
            block = _contract(self._airy, self._weights, self.xi, w)
            if not planned:
                return block
            self._held = (batch, block)
        times, block = self._held
        j = times.index(t)
        if j == len(times) - 1:
            self._held = None
        return block[..., 2 * j : 2 * j + 2]

    def _interpolate(self, coarse: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """coarse @ _interp, one GEMM per block of dense columns over its band of coarse rows."""
        dense = np.empty((coarse.shape[0], self.eta_dense.size)) if out is None else out
        for rows, cols, band in self._bands:
            np.matmul(coarse[:, rows], band, out=dense[:, cols])
        return dense

    def field_values(self, t: float, y_center: float | None = None,
                     partner: CuspEvaluator | None = None, *, r_list=None) -> tuple[np.ndarray, np.ndarray, float]:
        """(values, y_offsets, y_center) of the cusp at time t, in a fresh array.

        With a ``partner`` evaluator on the same grids the values are those of
        u^self + u^partner on self's y-centre (by default self's own): the
        coarse rows of both cusps are interpolated in one set of band GEMMs,
        and the partner's eta samples, moved to that centre, are added before
        the one y-assembly.

        With ``r_list`` the slice is reduced as it is assembled, and ``values``
        is replaced by ``powers[j, i] = sum_y w_y |u(x_i, y)|^{r_j}`` (the row
        max for r_j = inf), w_y the trapezoid weights of the slice's y-grid:
        each block of rows is reduced in cache, so no (n_x, n_fft) array is
        formed, and the unimodular carrier is left out.
        """
        if partner is not None and not (
                partner.n_fft == self.n_fft and partner.params == self.params
                and np.array_equal(partner.x, self.x) and np.array_equal(partner.eta, self.eta)
                and np.array_equal(partner.eta_dense, self.eta_dense)):
            raise CuspError("a partner cusp must share params, x, eta, eta_dense and n_fft")
        for r in r_list or ():
            check_exponent(r)
        a = self.params.a
        cusps = (self,) if partner is None else (self, partner)
        natural = [t * math.sqrt(1.0 + a) - (4.0 / 3.0) * cusp.n * a**1.5 for cusp in cusps]
        center = natural[0] if y_center is None else float(y_center)
        coarse = [cusp._coarse(t) for cusp in cusps]  # [eta, x, (re, im)] per cusp
        phases = [self._y.phase(center - own) for own in natural]
        k, n_x, n_eta, n_dense, step = len(cusps), self.x.size, self.eta.size, self.eta_dense.size, self._y.step
        rows = np.empty(k * 2 * step * n_eta)  # one block's coarse (re, im) rows of every cusp
        dense = np.empty((k * 2 * step, n_dense))
        partner_samples = np.empty((step, n_dense), dtype=complex) if partner is not None else None
        block_buffer = np.empty((min(step, n_x), self.n_fft), dtype=complex)
        if r_list is None:
            values = np.empty((n_x, self.n_fft), dtype=complex)
        else:
            values = np.empty((len(r_list), n_x))
            wy = trapezoid_weights(center + self._y.offsets)
        for i in range(0, n_x, step):
            m = min(step, n_x - i)
            stacked = rows[: k * 2 * m * n_eta].reshape(k, 2, m, n_eta)
            for target, part in zip(stacked, coarse):
                np.copyto(target, part[:, i : i + m].transpose(2, 1, 0))
            samples = self._interpolate(stacked.reshape(-1, n_eta), dense[: k * 2 * m]).reshape(k, 2, m, n_dense)
            block = block_buffer[:m]
            for c, phase in enumerate(phases):
                head = block[:, :n_dense] if c == 0 else partner_samples[:m]
                head.real, head.imag = samples[c]
                if phase is not None:
                    head *= phase
            if partner is not None:
                block[:, :n_dense] += partner_samples[:m]
            self._y.transform(block)
            if r_list is None:
                np.multiply(block, self._y.carrier, out=values[i : i + m])
            else:
                for j, r in enumerate(r_list):
                    values[j, i : i + m] = block_powers(block, wy, r)
        return values, self._y.offsets, center

    def initial_regions(self, r_list) -> list[dict]:
        """Per r of ``r_list`` the x-region split (:func:`~convexwave.normlab.region_split`) of this
        cusp's t = 0 slice, from its norm-only form."""
        powers = self.field_values(0.0, r_list=r_list)[0]
        return [region_split(p, self.x, r, self.params) for p, r in zip(powers, r_list)]

    def field(self, t: float, y_center: float | None = None) -> WaveField:
        vals, offsets, center = self.field_values(t, y_center)
        return WaveField(values=vals, x=self.x, y=center + offsets, h=self.params.h, t=t,
                         meta={"n": self.n, "y_center": center, "second_deriv": self.second_deriv})


def cusp_field(n: int, t: float, params: SemiclassicalParams, **opts) -> WaveField:
    """Single-shot evaluation of u^n at time t (builds a fresh evaluator)."""
    return CuspEvaluator(params, n, **opts).field(t)


def wave_residual(n: int, t: float, params: SemiclassicalParams, **opts) -> WaveField:
    """Field of the wave operator applied to u^n: symbol slot differentiated twice.

    Same Airy reduction with the spectrum multiplied by (i xi)^2 and prefactor
    h^{-delta} / (4 (1+a)).
    """
    return CuspEvaluator(params, n, second_deriv=True, **opts).field(t)


# ---------------------------------------------------------------------------
# boundary traces


@dataclass
class TraceSignal:
    """One hyperbolic-branch boundary restriction at fixed t, sampled in y."""

    values: np.ndarray
    y: np.ndarray
    y_center: float
    t: float
    n: int
    sign: int


class TraceEvaluator:
    """Spectral evaluation of Tr_{sign}(u^n) on y-offset grids, reusable over t.

    It takes the spectrum of u^n from :func:`_spectral_setup` at the wider, untrimmed
    ``_TRACE_KEEP_TOL`` cut; the chi-clip audit raises above 1% of |rhohat| at |zeta| > c.
    """

    def __init__(self, params: SemiclassicalParams, n: int, sign: int, *,
                 symbol: CuspSymbol | None = None, n_eta: int = 768):
        if sign not in (+1, -1):
            raise CuspError("sign must be +1 or -1")
        self.params, self.n, self.sign = params, int(n), sign
        self.symbol = symbol if symbol is not None else make_symbol(params)
        self.eta = np.linspace(*_WINDOW.support, n_eta)
        self._y = _YAssembly(self.eta, params.h, 4096)

        self.xi, base, omega, refl, dxi, _ = _spectral_setup(params, self.n, self.symbol, self.eta, _TRACE_KEEP_TOL)
        zeta = self.xi[None, :] / omega
        inside = np.abs(zeta) < 2.0 * _KERNEL.chi_flat
        # clipping audit: |rhohat| mass at |zeta| > c is lost by the cutoff
        mass = np.abs(base)[None, :] * np.ones_like(omega)
        total_mass = float(mass.sum())
        clipped = float((mass * (np.abs(zeta) > _KERNEL.chi_flat)).sum() / total_mass) if total_mass else 0.0
        if clipped > 0.01:
            raise CuspError(f"chi cutoff clips {clipped:.2%} > 1% of |rhohat| mass: "
                            "symbol insufficiently localized for this lambda")
        tr = np.zeros_like(omega, dtype=complex)
        tr[inside] = _KERNEL.trace_multiplier(zeta[inside], omega[inside], sign)
        pref = 2.0 * math.pi * math.sqrt(params.a / params.lam) * _WINDOW(self.eta) / np.sqrt(self.eta)
        self._weights = pref[:, None] * tr * refl * base[None, :] * (dxi / (2.0 * math.pi))
        self._weights *= self._y.signs[:, None]

    def y_center(self, t: float) -> float:
        a = self.params.a
        return t * math.sqrt(1.0 + a) - ((4.0 * self.n - 2.0 * self.sign) / 3.0) * a**1.5

    def signal(self, t: float, y_center: float | None = None) -> TraceSignal:
        w = t / self.params.time_unit - 2.0 * self.n
        if abs(w) > 3.0:
            raise CuspError(f"trace argument z - 2n = {w:.2f} outside [-3, 3]")
        natural = self.y_center(t)
        center = natural if y_center is None else float(y_center)
        vals = np.empty(self._y.n_fft, dtype=complex)
        vals[: self.eta.size] = self._weights @ np.exp(1j * self.xi * w)
        phase = self._y.phase(center - natural)
        if phase is not None:
            vals[: self.eta.size] *= phase
        self._y.transform(vals)
        vals *= self._y.carrier
        vals *= self._y.deta
        return TraceSignal(values=vals, y=center + self._y.offsets, y_center=center, t=t,
                           n=self.n, sign=self.sign)


def trace(n: int, sign: int, t: float, params: SemiclassicalParams, **opts) -> TraceSignal:
    """Boundary trace Tr_{sign}(u^n)(t, .) evaluated spectrally."""
    return TraceEvaluator(params, n, sign, **opts).signal(t)


def _pair_sums(params: SemiclassicalParams, n: int, t_grid, symbol: CuspSymbol) -> tuple[float, float]:
    """(pair_sq, trace_sq): |Tr_-(u^n) + Tr_+(u^{n+1})|^2 and |Tr_-(u^n)|^2 summed over t_grid and y.

    With u^{-1} = u^{N+1} = 0, only the trace that exists is built for n = -1
    and n = N.  Both traces share the carrier center exactly; no
    :class:`TraceEvaluator` is built for an empty t_grid.
    """
    if len(t_grid) == 0:
        return 0.0, 0.0
    tr_m = TraceEvaluator(params, n, -1, symbol=symbol) if n >= 0 else None
    tr_p = TraceEvaluator(params, n + 1, +1, symbol=symbol) if n < params.n_reflections else None

    def sq(values, y):
        return float(np.sum(np.abs(values) ** 2) * (y[1] - y[0]))

    pair_sq = 0.0
    trace_sq = 0.0
    for t in t_grid:
        sm = None if tr_m is None else tr_m.signal(t)
        sp = None if tr_p is None else tr_p.signal(t, y_center=None if sm is None else sm.y_center)
        if sm is None:
            pair_sq += sq(sp.values, sp.y)
            continue
        trace = sq(sm.values, sm.y)
        trace_sq += trace
        pair_sq += trace if sp is None else sq(sm.values + sp.values, sm.y)
    return pair_sq, trace_sq


def boundary_residual(n: int, params: SemiclassicalParams, *,
                      symbol: CuspSymbol | None = None) -> float:
    """|Tr_-(u^n) + Tr_+(u^{n+1})|_{L2(t,y)} / max(|Tr_-(u^n)|_{L2}, tiny) over 24 times.

    The pair cancels up to the chi-tail of the symbol spectrum and the
    branch-series truncation.
    """
    if n >= params.n_reflections:
        raise CuspError(f"need n < N = {params.n_reflections}")
    if symbol is None:
        symbol = make_symbol(params)
    if float(np.abs(symbol.values).max(initial=0.0)) == 0.0:
        return 0.0
    t_centers = (2.0 * n + 1.0 + np.linspace(-1.4, 1.4, 24)) * params.time_unit
    num, den = _pair_sums(params, n, t_centers, symbol)
    den = math.sqrt(den)
    if den < 1e-300:
        return 0.0
    return math.sqrt(num) / den


def dirichlet_residual(params: SemiclassicalParams) -> dict:
    """Full boundary check over [0,1]: the trace of U_h window by window.

    Window n = -1..N holds Tr_-(u^n) + Tr_+(u^{n+1}) with u^{-1} = u^{N+1} = 0,
    sampled at those of its 16 times that lie in [0, 1].  Returns the
    summed-trace L2 over [0,1] x boundary relative to the largest single-trace
    L2 of the windows 0..N-1 (listed in ``windows``); ``edges`` gives the L2
    and the number of kept times of the one-trace windows -1 and N.
    """
    symbol = make_symbol(params)
    big_n = params.n_reflections
    total_sq = 0.0
    scale_sq = 0.0
    per_window, edges = [], []
    for n in range(-1, big_n + 1):
        t_grid = (2.0 * n + 1.0 + np.linspace(-1.2, 1.2, 16)) * params.time_unit
        t_grid = t_grid[(t_grid >= 0.0) & (t_grid <= 1.0)]
        w_sq, s_sq = _pair_sums(params, n, t_grid, symbol)
        total_sq += w_sq
        if n in (-1, big_n):
            edges.append({"n": n, "l2": math.sqrt(w_sq), "n_times": int(t_grid.size)})
        else:
            scale_sq = max(scale_sq, s_sq)
            per_window.append({"n": n, "pair_l2": math.sqrt(w_sq), "trace_l2": math.sqrt(s_sq)})
    ratio = math.sqrt(total_sq) / max(math.sqrt(scale_sq), 1e-300)
    return {"ratio": ratio, "windows": per_window, "edges": edges, "n_reflections": big_n}


# ---------------------------------------------------------------------------
# mixed-norm assembly for the verdict


def uh_mixed_norms(params: SemiclassicalParams, r_list, *, samples_per_sqrt_a: int = 12) -> dict:
    """Inner L^r norms of U_h(t) on a uniform time grid of [0, 1] for every r of ``r_list``, from one walk.

    The time grid resolves the sqrt(a)-sized essential windows.  On reflection
    window k (the times with clip(floor(t / period), 0, N) = k) the sum U_h(t)
    reduces to the two bracketing cusps u^k and u^{k+1} (the others sit at symbol
    arguments |z - 2n| >= 2 and are measured negligible by one third-cusp check per
    run).  Each pair is summed on the shared dense eta grid, so one y-assembly
    serves both cusps.  The windows are walked in order and evaluator k+1 is handed
    on as the next window's lower cusp, so at most two are alive at once.  They all
    read evaluator 0's one Airy factor, n >= 1 as a column view, and it is released
    on return.  Each evaluator is built with the times of the windows it serves
    (k - 1 and k for evaluator k), so its slices contract the factor up to 8 times
    at once and it holds at most one (eta, x, 16) block (see :class:`CuspEvaluator`).
    Every slice is norm-only: its row powers for every r are summed 16 x-rows at a
    time as it is assembled, so the walk forms no (n_x, n_fft) slice, and every
    output below is taken from them.  By the module's similarity each norm is
    h^{1/3+1/r} a^{1/r} F_r(lam, t/time_unit).

    Returns ``times``; ``inner``, whose row j holds the L^{r_j} norm at each
    time; ``l2_initial``, the L^2 norm of U_h(0), from the same slice with
    r = 2 added; ``third_cusp_fraction``, per r the norm of the cusp below a
    window pair over that of the pair's upper cusp at its apex (None when
    N < 2); and ``region_norms``, per r the x-region split of the t = 0 slice
    of u^0 alone (:meth:`CuspEvaluator.initial_regions`), whose contraction the
    walk's first pair slice reuses.
    """
    unit = params.time_unit
    big_n = params.n_reflections
    n_t = int(math.ceil(2.0 * samples_per_sqrt_a / unit)) + 1
    times = np.linspace(0.0, 1.0, n_t)
    windows = np.clip(np.floor(times / (2.0 * unit)), 0, big_n).astype(int)

    symbol = make_symbol(params)
    k_chk = big_n // 2 if big_n >= 2 else None  # the check needs cusps k_chk - 1 >= 0 and k_chk
    third = None
    inner = np.empty((len(r_list), n_t))
    hi = CuspEvaluator(params, 0, symbol=symbol, times=times[windows == 0])
    wx = trapezoid_weights(hi.x)  # every evaluator of the walk samples the same x-grid

    def norms(powers, rs=r_list):
        return [rows_norm(p, wx, r) for p, r in zip(powers, rs)]

    regions = hi.initial_regions(r_list)
    for k in range(windows[-1] + 1):
        lo = hi  # frees evaluator k - 1 before k + 1 is built
        hi = (CuspEvaluator(params, k + 1, symbol=symbol, times=times[(windows == k) | (windows == k + 1)])
              if k < big_n else None)
        for i in np.flatnonzero(windows == k):
            rs = (*r_list, 2) if i == 0 else r_list  # U_h(0) gives l2_initial too
            got = norms(lo.field_values(times[i], partner=hi, r_list=rs)[0], rs)
            inner[:, i] = got[: len(r_list)]
            if i == 0:
                l2_initial = got[-1]
        if k + 1 == k_chk:  # both cusps of the check are alive: k_chk - 1 (lo) and k_chk (hi)
            t_chk = (2.0 * k_chk + 1.0) * unit  # gap apex between k_chk and k_chk + 1
            powers, _, center = hi.field_values(t_chk, r_list=r_list)
            own = norms(powers)
            below = norms(lo.field_values(t_chk, center, r_list=r_list)[0])
            third = [f / max(o, 1e-300) for f, o in zip(below, own)]
    _HELD.entry = None  # no caller reuses the walk's last factor (77 MiB at 2^-10)
    return {
        "times": times,
        "inner": inner,
        "l2_initial": l2_initial,
        "third_cusp_fraction": third,
        "region_norms": regions,
    }
