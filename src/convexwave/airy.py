"""Airy function machinery: values, zeros and the two oscillatory branches.

The evaluator uses a Taylor-series method for |z| <= 8 (local re-expansions of
the Maclaurin series around a table of anchor points, whose values are summed
in 50-digit ``decimal`` arithmetic on the first call) and truncated asymptotic
expansions beyond, blended continuously across a window around |z| = 8.  The
two branches A^+/A^- carry the standard coefficients u_k; their leading
constant is calibrated against the evaluator so that Ai(-z) = A^+(-z) + A^-(-z)
holds numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

# crossover between Taylor core and asymptotics, with a 10% blending window
SEAM = 8.0
BLEND_LO = 7.6
BLEND_HI = 8.4

_ANCHOR_STEP = 0.25
_ANCHOR_MAX = 8.75
_LOCAL_TERMS = 22

# Ai(0) = 3^(-2/3)/Gamma(2/3) and Ai'(0) = -3^(-1/3)/Gamma(1/3), each stored as
# a (hi, lo) pair of floats; their sum in 50-digit ``decimal`` seeds the series.
_AI0 = (0.3550280538878172, 2.05233632436212e-17)
_AIP0 = (-0.2588194037928068, 2.522243111610832e-17)

_LEADING = 0.5 / math.sqrt(math.pi)  # modulus of a_{+,0} = a_{-,0} after calibration


class AiryError(ValueError):
    pass


@functools.cache
def _anchor_table():
    """(centers, cols): the anchors on |z| <= _ANCHOR_MAX and their local Taylor rows,
    ``cols[n]`` holding the n-th coefficient of every anchor (``cols[0]`` Ai, ``cols[1]`` Ai').

    Built on the first call, so importing the package does no numeric work.
    The 240-term Maclaurin series loses up to 15 digits to cancellation on
    this range, so the coefficients and both Horner sums run in 50-digit
    ``decimal`` arithmetic; each anchor is rounded to float once.
    """
    n_mac = 240
    centers = np.arange(-_ANCHOR_MAX, _ANCHOR_MAX + 0.5 * _ANCHOR_STEP, _ANCHOR_STEP)
    rows = np.empty((centers.size, _LOCAL_TERMS))
    with localcontext() as ctx:
        ctx.prec = 50
        coef = [Decimal(0)] * n_mac
        coef[0] = Decimal(_AI0[0]) + Decimal(_AI0[1])
        coef[1] = Decimal(_AIP0[0]) + Decimal(_AIP0[1])
        for n in range(1, n_mac - 2):  # y'' = z y: c_2 = 0, c_{n+2} = c_{n-1} / ((n+1)(n+2))
            coef[n + 2] = coef[n - 1] / ((n + 1) * (n + 2))
        for i, zc in enumerate(centers):
            z = Decimal(float(zc))
            acc = dacc = Decimal(0)
            for n in range(n_mac - 1, 0, -1):
                acc = acc * z + coef[n]
                dacc = dacc * z + n * coef[n]
            local = np.zeros(_LOCAL_TERMS)
            local[0], local[1] = float(acc * z + coef[0]), float(dacc)
            for n in range(_LOCAL_TERMS - 2):
                prev = local[n - 1] if n >= 1 else 0.0
                local[n + 2] = (zc * local[n] + prev) / ((n + 1) * (n + 2))
            rows[i] = local
    return centers, np.ascontiguousarray(rows.T)


# asymptotic coefficients u_k (u_0 = 1, ratio (6k+1)(6k+3)(6k+5)/(216(k+1)(2k+1)))
_UK = np.ones(26)
for _k in range(25):
    _UK[_k + 1] = _UK[_k] * (6 * _k + 1) * (6 * _k + 3) * (6 * _k + 5) / (216.0 * (_k + 1) * (2 * _k + 1))


def _taylor_core(z):
    """Blended two-anchor local Taylor evaluation, valid |z| <= BLEND_HI."""
    centers, cols = _anchor_table()
    pos = (z + _ANCHOR_MAX) / _ANCHOR_STEP
    i0 = np.clip(np.floor(pos).astype(int), 0, centers.size - 2)
    w = pos - i0
    e0 = z - centers[i0]
    e1 = e0 - _ANCHOR_STEP
    acc0 = np.zeros_like(z)
    acc1 = np.zeros_like(z)
    i1 = i0 + 1
    for n in range(_LOCAL_TERMS - 1, -1, -1):
        col = cols[n]
        acc0 = acc0 * e0 + col[i0]
        acc1 = acc1 * e1 + col[i1]
    return (1.0 - w) * acc0 + w * acc1


def _branch_series(big_x, terms=None, factor=1j):
    """S(X) = sum_k factor^k u_k X^{-k}, truncated; a real ``factor`` keeps the sum real.

    ``factor = sign * 1j`` gives the oscillatory branch A^{sign}, ``factor = -1``
    the decaying expansion of Ai(z).  With ``terms=None`` the sum is truncated
    adaptively at the smallest term (per element); otherwise exactly
    ``terms + 1`` terms are kept.
    """
    big_x = np.asarray(big_x, dtype=float)
    k_max = _UK.size - 1 if terms is None else terms
    dtype = complex if np.iscomplexobj(factor) else float
    s = np.ones(big_x.shape, dtype=dtype)
    term = np.ones(big_x.shape, dtype=dtype)
    active = np.ones(big_x.shape, dtype=bool)
    last_mag = np.full(big_x.shape, np.inf)
    for k in range(1, k_max + 1):
        term = term * (factor * _UK[k] / _UK[k - 1]) / big_x
        if terms is None:
            mag = np.abs(term)
            active &= mag < last_mag
            s = np.where(active, s + term, s)
            last_mag = np.where(active, mag, last_mag)
        else:
            s = s + term
    return s


def _asym_neg(z):
    """Ai(-z) for z >= BLEND_LO via the oscillatory expansion, as 2 Re A^+."""
    big_x = (2.0 / 3.0) * z**1.5
    s_plus = _branch_series(big_x)
    pref = _LEADING * z**-0.25
    return 2.0 * pref * np.real(np.exp(-1j * (big_x - 0.25 * math.pi)) * s_plus)


def _asym_pos(z):
    """Ai(z) for z >= BLEND_LO via the decaying expansion."""
    big_x = (2.0 / 3.0) * z**1.5
    return _LEADING * z**-0.25 * np.exp(-big_x) * _branch_series(big_x, factor=-1.0)


def _blend_weight(az):
    """Smooth ramp 0 -> 1 across [BLEND_LO, BLEND_HI]."""
    t = np.clip((az - BLEND_LO) / (BLEND_HI - BLEND_LO), 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def ai(z):
    """Airy function Ai on the real line (scalar or ndarray, float64)."""
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    zf = np.atleast_1d(arr).ravel()
    if not np.all(np.isfinite(zf)):
        raise AiryError("ai requires finite arguments")
    out = np.empty_like(zf)
    az = np.abs(zf)

    m_core = az < BLEND_HI
    core_val = np.zeros_like(zf)
    if np.any(m_core):
        core_val[m_core] = _taylor_core(zf[m_core])

    asym_val = np.zeros_like(zf)
    m_asym = az > BLEND_LO
    m_neg = m_asym & (zf < 0)
    m_pos = m_asym & (zf > 0)
    if np.any(m_neg):
        asym_val[m_neg] = _asym_neg(-zf[m_neg])
    if np.any(m_pos):
        asym_val[m_pos] = _asym_pos(zf[m_pos])

    w = _blend_weight(az)
    out = (1.0 - w) * core_val + w * asym_val
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


_LOOKUP_BLOCK = 8192  # points per table-lookup block: keeps its gathers and temporaries in cache
_TABLE_STEP = 1.0 / 256.0  # nominal node spacing of an AiryTable


def cubic_coefficients(f) -> np.ndarray:
    """Per-node coefficients (a, b, c, d) of the four-point cubic, coefficient axis first.

    ``coef[:, i]`` holds the cubic a + b t + c t^2 + d t^3 through f[i-1],
    f[i], f[i+1], f[i+2] with t = 0 at node i.  Trailing axes of ``f`` are
    carried along, so ``f = eye(n)`` gives each coefficient as a linear
    functional of the samples.  Nodes 0, n-2 and n-1 have no full stencil and
    stay zero.
    """
    f = np.asarray(f, dtype=float)
    coef = np.zeros((4,) + f.shape)
    f_m1, f_0, f_1, f_2 = f[:-3], f[1:-2], f[2:-1], f[3:]
    coef[0, 1:-2] = f_0
    coef[1, 1:-2] = -f_m1 / 3.0 - f_0 / 2.0 + f_1 - f_2 / 6.0
    coef[2, 1:-2] = (f_m1 - 2.0 * f_0 + f_1) / 2.0
    coef[3, 1:-2] = (-f_m1 + 3.0 * f_0 - 3.0 * f_1 + f_2) / 6.0
    return coef


def cubic_interpolate(coef: np.ndarray, pos: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the cubics of :func:`cubic_coefficients` at fractional node indices ``pos``.

    Positions outside [1, n-2] extrapolate the nearest full-stencil cubic.  One
    gather per coefficient, into ``out`` (shape ``pos.shape + coef.shape[2:]``)
    or one reused buffer, each feeding a Horner step done in place in ``out``.
    """
    i = pos.astype(int)
    np.clip(i, 1, coef.shape[1] - 3, out=i)
    t = (pos - i).reshape(pos.shape + (1,) * (coef.ndim - 2))
    out = coef[3].take(i, axis=0, out=out, mode="clip")
    gather = np.empty_like(out)
    for k in (2, 1, 0):
        out *= t
        out += coef[k].take(i, axis=0, out=gather, mode="clip")
    return out


class AiryTable:
    """Dense cubic-interpolation table over a fixed range, for bulk evaluation.

    Build time stores the four-point cubic of every node as one (4, n)
    coefficient table (four contiguous columns); a lookup gathers each column
    once and runs an in-place Horner step, in cache-sized blocks, into the
    caller's ``out`` when one is given.  Values are bit-identical to
    evaluating the four-point formula from the node values.
    Interpolation error is far below the quadrature tolerances of the field
    evaluators (the grid oversamples the local Airy oscillation ~80x).
    """

    def __init__(self, lo: float, hi: float):
        pad = 4 * _TABLE_STEP
        self.lo = lo - pad
        self.hi = hi + pad
        n = int(math.ceil((self.hi - self.lo) / _TABLE_STEP)) + 4
        self.step = (self.hi - self.lo) / (n - 1)
        self.grid = self.lo + self.step * np.arange(n)
        self.values = ai(self.grid)
        self.coef = cubic_coefficients(self.values)

    def __call__(self, v, out: np.ndarray | None = None) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        flat = v.ravel()
        out = np.empty(v.shape) if out is None else out  # a C-contiguous float array of v's shape
        flat_out = np.reshape(out, flat.shape, copy=False)
        for j in range(0, flat.size, _LOOKUP_BLOCK):
            block = slice(j, j + _LOOKUP_BLOCK)
            cubic_interpolate(self.coef, (flat[block] - self.lo) / self.step, flat_out[block])
        return out


@dataclass(frozen=True)
class AiryZeros:
    """The first zeros omega_k of Ai(-omega) in increasing order."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.size == 0:
            raise AiryError("empty zero table")
        if not np.all(np.diff(v) > 0):
            raise AiryError("zeros not strictly increasing")
        if v[0] <= 2.3:
            raise AiryError(f"first zero {v[0]} <= 2.3")

    def __getitem__(self, k):
        return float(self.values[k])

    def __len__(self):
        return len(self.values)


@functools.lru_cache(maxsize=32)
def airy_zeros(count: int) -> AiryZeros:
    """First ``count`` zeros of Ai(-w), bracketed and bisected to ~1e-11.

    The table is cached per ``count`` (a gallery scan asks for the same one at
    every h), so its ``values`` are read-only."""
    if count < 1:
        raise AiryError(f"count must be >= 1, got {count}")
    k = np.arange(count)
    t = 3.0 * math.pi * (4.0 * k + 3.0) / 8.0
    guess = t ** (2.0 / 3.0) * (1.0 + 5.0 / 48.0 * t**-2.0 - 5.0 / 36.0 * t**-4.0)
    lo = guess - 0.2
    hi = guess + 0.2
    f_lo = ai(-lo)
    f_hi = ai(-hi)
    for _ in range(8):
        bad = f_lo * f_hi > 0
        if not np.any(bad):
            break
        lo[bad] -= 0.1
        hi[bad] += 0.1
        f_lo[bad] = ai(-lo[bad])
        f_hi[bad] = ai(-hi[bad])
    if np.any(f_lo * f_hi > 0):
        raise AiryError("failed to bracket an Airy zero")
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        f_mid = ai(-mid)
        same = f_mid * f_lo > 0
        lo = np.where(same, mid, lo)
        f_lo = np.where(same, f_mid, f_lo)
        hi = np.where(same, hi, mid)
        if np.max(hi - lo) < 1e-12:
            break
    zeros = 0.5 * (lo + hi)
    resid = np.abs(ai(-zeros))
    if np.max(resid) > 1e-10:
        raise AiryError(f"zero refinement residual {np.max(resid):.2e} > 1e-10")
    zeros.flags.writeable = False
    return AiryZeros(values=zeros)


def airy_branch(z, sign: int, terms: int = 3):
    """Truncated branch A^{sign}(-z) for z >= 2 (asymptotic regime).

    Calibrated so that A^+(-z) + A^-(-z) reproduces ai(-z) and so that
    A^-(-z) = conj(A^+(-z)) on the real line.
    """
    if sign not in (+1, -1):
        raise AiryError("sign must be +1 or -1")
    if terms < 0 or terms > 6:
        raise AiryError(f"terms must lie in [0, 6], got {terms}")
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    zf = np.atleast_1d(arr).astype(float)
    if np.any(zf < 2.0):
        raise AiryError("airy_branch requires z >= 2 (expansion divergent below)")
    big_x = (2.0 / 3.0) * zf**1.5
    series = _branch_series(big_x, terms, sign * 1j)
    val = _LEADING * zf**-0.25 * np.exp(-1j * sign * (big_x - 0.25 * math.pi)) * series
    if scalar:
        return complex(val[0])
    return val.reshape(arr.shape)


def calibrate_branch_leading() -> dict:
    """Fit the branch leading constant against ai on z in [9, 40]; report both values.

    The classical envelope gives 1/(2 sqrt(pi)); an alternative printed
    constant 1/(4 pi^{3/2}) disagrees by a factor 2 pi.  Only relative
    scalings enter downstream tests, so the constant is fixed by this fit and
    reported beside the classical one.
    """
    z_grid = np.linspace(9.0, 40.0, 141)
    big_x = (2.0 / 3.0) * z_grid**1.5
    s_plus = _branch_series(big_x, terms=5)
    unit = 2.0 * z_grid**-0.25 * np.real(np.exp(-1j * (big_x - 0.25 * math.pi)) * s_plus)
    target = ai(-z_grid)
    fitted = float(np.dot(unit, target) / np.dot(unit, unit))
    return {
        "fitted": fitted,
        "classical": _LEADING,
        "alternative": 1.0 / (4.0 * math.pi**1.5),
        "relative_misfit": float(np.max(np.abs(fitted * unit - target)) / np.max(np.abs(target))),
    }
