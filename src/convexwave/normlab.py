"""Grid norms, the three-region decomposition, power-law fits and the verdict.

The counterexample verdict assembles the multi-reflection field from the cusp
module, measures mixed-norm quotients over the per-reflection time windows and
regresses the quotient against h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .fields import WaveField, trapezoid_weights
from .params import SemiclassicalParams, loss_exponent, make_params, sharp_wave_q


class NormError(ValueError):
    pass


_BLOCK_SAMPLES = 1 << 16  # samples per row block of the L^r reduction, so its temporaries stay in cache


def grid_lr_norm(values: np.ndarray, x: np.ndarray, y: np.ndarray, r) -> float:
    """L^r norm of samples on an (x, y) rectangle; r = inf returns the max."""
    return rows_norm(row_powers(values, trapezoid_weights(y), r), trapezoid_weights(x), r)


def lr_power(values: np.ndarray, wx: np.ndarray, wy: np.ndarray, r, right=None) -> float:
    """sum_ij wx_i |values_ij|^r wy_j, the r-th power of the L^r norm; r = inf returns the max.

    With ``right`` given the samples are ``values @ right`` (see :func:`row_powers`).
    """
    return rows_norm(row_powers(values, wy, r, right), wx, r, power=True)


def rows_norm(rows: np.ndarray, wx: np.ndarray, r, *, power: bool = False) -> float:
    """The L^r norm (its r-th power with ``power``) of the samples whose :func:`row_powers` are
    ``rows``, summed across rows with the weights wx; r = inf returns the max."""
    if r == math.inf:
        return float(rows.max(initial=0.0))
    acc = float(np.dot(wx, rows))
    return acc if power else acc ** (1.0 / r)


def check_exponent(r) -> None:
    """Raise :class:`NormError` unless r >= 1 (NaN fails too)."""
    if not r >= 1:
        raise NormError(f"r must be >= 1, got {r}")


def row_powers(values: np.ndarray, wy: np.ndarray, r, right=None) -> np.ndarray:
    """sum_j wy_j |values_ij|^r for each row i; r = inf gives each row's max.

    The rows are taken in blocks of about ``_BLOCK_SAMPLES`` samples, each
    reduced by :func:`block_powers`.  With ``right`` given the samples are
    ``values @ right``, formed one row block at a time, so the product is
    never held whole.
    """
    check_exponent(r)
    out = np.empty(values.shape[0])
    step = max(1, _BLOCK_SAMPLES // max(wy.size, 1))
    for i in range(0, values.shape[0], step):
        block = values[i : i + step] if right is None else values[i : i + step] @ right
        out[i : i + step] = block_powers(block, wy, r)
    return out


def block_powers(block: np.ndarray, wy: np.ndarray, r) -> np.ndarray:
    """:func:`row_powers` of one cache-sized block of rows: the block is checked finite before
    its powers are summed; r is not checked here."""
    mod = np.abs(block)
    if not np.isfinite(mod).all():
        raise NormError("non-finite field samples")
    return mod.max(axis=1, initial=0.0) if r == math.inf else power_in_place(mod, r) @ wy


def power_in_place(mod: np.ndarray, r) -> np.ndarray:
    """mod**r for mod >= 0; an integer r >= 1 squares repeatedly in mod's buffer.

    ``mod`` is overwritten (pass the temporary that ``np.abs`` returned); any
    other r falls back to ``mod**r``.
    """
    if not (r >= 1 and float(r).is_integer()):
        return mod**r
    r = int(r)
    while r % 2 == 0:
        np.multiply(mod, mod, out=mod)
        r //= 2
    out = mod if r == 1 else mod.copy()
    r //= 2
    while r:
        np.multiply(mod, mod, out=mod)
        if r % 2:
            np.multiply(out, mod, out=out)
        r //= 2
    return out


def parallel_map(fn, items, threads: int):
    """Ordered map with a bounded worker pool (deterministic reduction order)."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def lr_norm(field: WaveField, r) -> float:
    """Trapezoid-weighted L^r(Omega) norm of a sampled field."""
    return grid_lr_norm(field.values, field.x, field.y, r)


def lqlr_norm(inner, times, q) -> float:
    """Outer-L^q in time of the inner space norms ``inner`` sampled at ``times``.

    The time grid must be uniform and increasing.
    """
    inner = np.asarray(inner, dtype=float)
    times = np.asarray(times, dtype=float)
    if times.size != inner.size:
        raise NormError("times and norms length mismatch")
    if times.size == 0:
        raise NormError("empty time grid")
    if times.size == 1:
        if q == math.inf:
            return float(inner[0])
        raise NormError("a single time slice needs q = inf")
    dt = np.diff(times)
    if not dt[0] > 0.0:  # a decreasing grid has negative trapezoid weights
        raise NormError(f"time grid must increase, got step {dt[0]:.3g}")
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise NormError("time grid must be uniform")
    if q == math.inf:
        return float(inner.max())
    wt = trapezoid_weights(times)
    return float(np.dot(wt, inner**q) ** (1.0 / q))


@dataclass(frozen=True)
class ExponentFit:
    """OLS power-law fit on log-log axes."""

    slope: float
    stderr: float
    intercept: float
    n: int

    def __iter__(self):
        return iter((self.slope, self.stderr))


def fit_exponent(samples) -> ExponentFit:
    """Least-squares slope of log(value) against log(h).

    ``samples`` is an iterable of (h, value) pairs with positive, finite
    entries; at least 4 points are required.
    """
    pts = [(float(h), float(v)) for h, v in samples]
    if len(pts) < 4:
        raise NormError(f"need >= 4 samples for a fit, got {len(pts)}")
    if not all(0.0 < h < math.inf and 0.0 < v < math.inf for h, v in pts):  # NaN fails too
        raise NormError("fit requires positive, finite h and values")
    lx = np.log([h for h, _ in pts])
    ly = np.log([v for _, v in pts])
    xbar = lx.mean()
    sxx = float(np.sum((lx - xbar) ** 2))
    if sxx == 0.0:
        raise NormError("all h equal; no fit possible")
    slope = float(np.sum((lx - xbar) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * xbar)
    resid = ly - (intercept + slope * lx)
    dof = max(len(pts) - 2, 1)
    stderr = float(math.sqrt(np.sum(resid**2) / dof / sxx))
    return ExponentFit(slope=slope, stderr=stderr, intercept=intercept, n=len(pts))


def fit_powerlaw_2d(samples) -> dict:
    """Joint OLS of log(value) on (log lam, log h).

    ``samples``: iterable of (lam, h, value).  Returns slopes and standard
    errors for both regressors; the h column may be constant, in which case
    its slope is None.
    """
    lam = np.log([s[0] for s in samples])
    lh = np.log([s[1] for s in samples])
    lv = np.log([s[2] for s in samples])
    if lam.size < 4:
        raise NormError("need >= 4 samples")
    cols = [np.ones_like(lam), lam]
    h_varies = np.ptp(lh) > 1e-12
    if h_varies:
        cols.append(lh)
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, lv, rcond=None)
    resid = lv - design @ coef
    dof = max(lam.size - design.shape[1], 1)
    sigma2 = float(np.sum(resid**2) / dof)
    cov = sigma2 * np.linalg.inv(design.T @ design)
    out = {
        "lambda_exponent": float(coef[1]),
        "lambda_stderr": float(math.sqrt(cov[1, 1])),
        "h_exponent": float(coef[2]) if h_varies else None,
        "h_stderr": float(math.sqrt(cov[2, 2])) if h_varies else None,
        "n": int(lam.size),
    }
    return out


# The x-regions that the cusp command reports for the t = 0 slice of u^0, measured
# from the caustic fold x = a: the shelf x < a - M h^{2/3}, the fold band up to
# max(a (1 + margin), a + M h^{2/3}), and the far side beyond it.  The three
# regions partition the grid rows, so their r-th powers add up to the total.
REGION_M = 2.0
REGION_OUTER_MARGIN = 0.2


def region_norms(field: WaveField, r, params: SemiclassicalParams) -> dict:
    """L^r norms over the shelf / fold-band / far-side x-regions of a cusp field (see :func:`region_split`)."""
    return region_split(row_powers(field.values, trapezoid_weights(field.y), r), field.x, r, params)


def region_split(rows: np.ndarray, x: np.ndarray, r, params: SemiclassicalParams) -> dict:
    """L^r norms over the shelf / fold-band / far-side x-regions, from the row powers ``rows`` on x.

    The regional powers partition the full-grid quadrature sum exactly, so the
    r-th powers add up to the total without boundary double counting.  Every
    region must hold a grid row, for every r.
    """
    band = REGION_M * params.h ** (2.0 / 3.0)
    lo = params.a - band
    hi = max(params.a * (1.0 + REGION_OUTER_MARGIN), params.a + band)
    masks = {
        "shelf": x < lo,
        "fold": (x >= lo) & (x <= hi),
        "outer": x > hi,
    }
    for name, mask in masks.items():
        if not np.any(mask):
            raise NormError(f"region '{name}' is empty on the grid")
    wx = trapezoid_weights(x)
    return {name: rows_norm(rows[mask], wx[mask], r) for name, mask in masks.items()}


@dataclass
class NormScanResult:
    """(h, norm-quotient) samples for one (q, r, t-window) plus the fitted slope."""

    q: float
    r: float
    t_window: tuple[float, float]
    samples: list
    fitted_exponent: float | None
    stderr: float | None
    reliable: bool = True
    meta: dict = field(default_factory=dict)


def spans_fit(samples) -> bool:
    """Whether (x, value) samples carry an exponent fit: at least 4, spanning at least 1.5 decades of x
    (h for the verdict and gallery fits, lambda for the dispersion fits)."""
    xs = [x for x, _ in samples]
    return len(samples) >= 4 and math.log10(max(xs) / min(xs)) >= 1.5


@dataclass
class CounterexampleVerdict:
    """Q(h) = h^beta |U_h|_{LqLr} / |U_h(0)|_{ L2 } scan and its verdict."""

    r: float
    q: float
    epsilon: float
    beta: float
    samples: list            # (h, Q)
    fitted_exponent: float | None
    stderr: float | None
    verdict: str | None      # PASS / FAIL / UNRELIABLE / None
    control_beta: float
    control_samples: list
    control_monotone_ok: bool | None
    norms: list = field(default_factory=list)  # per-h dict of raw measurements
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field but the raw per-h ``norms``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "norms"}


def counterexample_report(r_list, epsilon, h_list, *, q=None, c0=0.25,
                          samples_per_sqrt_a: int = 12, threads: int = 1) -> list[CounterexampleVerdict]:
    """One verdict per r > 4 of ``r_list``, in order, from one walk per h for every r.

    Each h runs one :func:`convexwave.cusp.uh_mixed_norms` walk over N
    reflections.  The verdict of each r > 4 takes the L^q time norm of its
    inner norms (q the sharp wave q of r unless given) and tests h^beta growth
    of Q(h) = h^beta |U_h|_{L^q L^r} / |U_h(0)|_{L^2}, beta = beta(r) - epsilon.
    PASS requires Q increasing along decreasing h with fitted exponent
    <= -epsilon/2 (half the theoretical -7 eps/8, which absorbs the marginal
    lambda of desk scale).  The control run re-weights the same measurements
    with beta(r) + 0.1 and must come out non-increasing.  A verdict is
    UNRELIABLE when its r's third-cusp fraction reaches 1e-3 at some h.  An
    r <= 4 is measured, not judged: each per-h entry of ``norms`` is that h's
    walk (with the t = 0 region split of u^0 for every r of ``r_list``) plus
    h, N and the verdict's own ``lqlr``.
    """
    from . import cusp  # deferred: normlab is importable without the cusp machinery

    r_list = tuple(float(r) for r in r_list)
    if not any(r > 4.0 for r in r_list):
        raise NormError(f"r must be > 4 for the counterexample (got r={', '.join(map(str, r_list))})")
    params_per_h = [make_params(h, epsilon, c0) for h in h_list]

    def measure(params):
        return cusp.uh_mixed_norms(params, r_list, samples_per_sqrt_a=samples_per_sqrt_a)

    per_h = parallel_map(measure, params_per_h, threads)

    def verdict_of(j, r):
        beta = float(loss_exponent(r).beta_loss) - float(epsilon)
        control_beta = float(loss_exponent(r).beta_loss) + 0.1
        q_r = float(sharp_wave_q(r, d=2) if q is None else q)
        samples, control_samples, norms = [], [], []
        for params, meas in zip(params_per_h, per_h):
            lqlr = lqlr_norm(meas["inner"][j], meas["times"], q_r)
            quotient = lqlr / meas["l2_initial"]
            samples.append((params.h, params.h**beta * quotient))
            control_samples.append((params.h, params.h**control_beta * quotient))
            norms.append({"h": params.h, "n_reflections": params.n_reflections, "lqlr": lqlr, **meas})
        reliable = all(m["third_cusp_fraction"] is None or m["third_cusp_fraction"][j] < 1e-3 for m in per_h)

        fitted, stderr = fit_exponent(samples) if spans_fit(samples) else (None, None)
        verdict = None
        control_ok = None
        if len(samples) >= 2:
            ordered = sorted(samples, key=lambda s: -s[0])  # decreasing h
            increasing = all(b[1] > a[1] for a, b in zip(ordered, ordered[1:]))
            ctrl = sorted(control_samples, key=lambda s: -s[0])
            control_ok = all(b[1] <= a[1] * (1 + 1e-9) for a, b in zip(ctrl, ctrl[1:]))
            if not reliable:
                verdict = "UNRELIABLE"
            elif fitted is not None:
                verdict = "PASS" if (increasing and fitted <= -epsilon / 2.0) else "FAIL"
            else:
                verdict = "PASS" if increasing else "FAIL"

        return CounterexampleVerdict(
            r=r, q=q_r, epsilon=float(epsilon), beta=beta,
            samples=samples, fitted_exponent=fitted, stderr=stderr, verdict=verdict,
            control_beta=control_beta, control_samples=control_samples,
            control_monotone_ok=control_ok, norms=norms,
            meta={"c0": c0, "samples_per_sqrt_a": samples_per_sqrt_a},
        )

    return [verdict_of(j, r) for j, r in enumerate(r_list) if r > 4.0]
