"""Semiclassical parameter algebra, admissibility arithmetic and loss exponents.

Everything downstream (dispersion scans, gallery evolutions, the reflected-cusp
pipeline) consumes the coupled scales produced here.  Exponent arithmetic is
done in exact rationals whenever the inputs are rational; floats only appear at
the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational


class ParameterError(ValueError):
    """Parameter set outside the validity region of the construction."""


def _as_fraction(x) -> Fraction:
    """Exact rational view of an input (floats convert via their binary value)."""
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        if math.isinf(x) or math.isnan(x):
            raise ValueError(f"not a finite rational: {x!r}")
        return Fraction(x)
    raise TypeError(f"expected a real number, got {type(x).__name__}")


def reflection_count(h: float, delta: float) -> int:
    """Number of reflections tiling [0, 1] at the cusp period ~ 4*sqrt(a).

    Returns 1/(4 sqrt(a)) rounded to the nearest integer, which guarantees
    |4 N sqrt(a) - 1| <= 2 sqrt(a).  It does not keep the final backward
    boundary trace Tr_-(u^N) outside the unit time interval: at h = 2^-18 three
    of its 16 sampled times lie in [0, 1] (``dirichlet_residual``'s ``edges``).
    """
    if not 0.0 < h <= 1.0:
        raise ParameterError(f"h must lie in (0, 1], got {h}")
    if not 0.0 < delta < 2.0 / 3.0:
        raise ParameterError(f"delta must lie in (0, 2/3), got {delta}")
    sqrt_a = h ** (delta / 2.0)
    m = 1.0 / (4.0 * sqrt_a)
    n = int(math.floor(m))
    if m - n >= 0.5:
        n += 1
    if n == 0:
        raise ParameterError(
            f"no reflection fits in [0,1]: 1/(4 sqrt(a)) = {m:.4f} < 1/2 (h={h} too large)"
        )
    return n


@dataclass(frozen=True)
class SemiclassicalParams:
    """The coupled scales h, epsilon, delta, a, lambda, N of one experiment.

    ``lam`` is the large oscillation parameter a^{3/2}/h; the CLI outputs
    name it ``lambda``.
    """

    h: float
    epsilon: float
    delta: float
    a: float
    lam: float
    n_reflections: int
    c0: float
    warnings: tuple = field(default_factory=tuple, compare=False)

    @property
    def sqrt_a(self) -> float:
        return math.sqrt(self.a)

    @property
    def time_unit(self) -> float:
        """2 sqrt(a (1+a)): the time of one unit of the cusp symbol argument; a reflection takes two."""
        return 2.0 * math.sqrt((1.0 + self.a) * self.a)


def make_params(h: float, epsilon: float, c0: float = 0.2) -> SemiclassicalParams:
    """Derive the full parameter set from (h, epsilon, c0).

    delta = (1-epsilon)/2, a = h^delta, lambda = a^{3/2}/h, and the reflection
    count N from the tiling rule.  Rejects lambda <= 1 (h too large for the
    asymptotic regime); attaches a warning for lambda < 10.
    """
    if not 0.0 < h <= 1.0:
        raise ParameterError(f"h must lie in (0, 1], got {h}")
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < c0 < 1.0 / 3.0:
        raise ParameterError(f"c0 must lie in (0, 1/3), got {c0}")
    delta = (1.0 - epsilon) / 2.0
    a = h**delta
    lam = a**1.5 / h
    if not lam > 1.0:
        raise ParameterError(f"lambda = a^(3/2)/h = {lam:.6g} is not > 1: h={h} too large")
    warnings = ()
    if lam < 10.0:
        warnings = (f"lambda = {lam:.3f} < 10: asymptotic regime marginal",)
    n = reflection_count(h, delta)
    sqrt_a = math.sqrt(a)
    if abs(4.0 * n * sqrt_a - 1.0) > 2.0 * sqrt_a * (1.0 + 1e-12):
        raise ParameterError(f"reflection tiling broken: |4 N sqrt(a) - 1| = {abs(4*n*sqrt_a-1):.4f} > 2 sqrt(a)")
    budget = lam * h**epsilon
    if not (budget / 16.0 <= n <= 4.0 * budget):
        raise ParameterError(f"N = {n} not within a factor 4 of lambda*h^eps = {budget:.4f}")
    return SemiclassicalParams(
        h=h, epsilon=epsilon, delta=delta, a=a, lam=lam, n_reflections=n, c0=c0, warnings=warnings
    )


@dataclass(frozen=True)
class AdmissiblePair:
    """An alpha-admissible exponent pair (q, r)."""

    q: Fraction | float
    r: Fraction | float
    alpha: Fraction | float
    sharp: bool


def _inv(x) -> Fraction:
    """1/x as an exact Fraction, with 1/inf = 0."""
    if isinstance(x, float) and math.isinf(x):
        return Fraction(0)
    f = _as_fraction(x)
    if f == 0:
        raise ValueError("exponent must be nonzero")
    return 1 / f


def check_admissible(q, r, alpha) -> AdmissiblePair:
    """Validate 1/q + alpha/r <= alpha/2 in exact arithmetic.

    Wave-admissible in dimension d means alpha = (d-1)/2; Schroedinger
    admissible means sharp with alpha = d/2.  The triple (2, inf, 1) is
    excluded.
    """
    inv_q, inv_r = _inv(q), _inv(r)
    alpha_f = Fraction(0) if (isinstance(alpha, float) and alpha == 0.0) else _as_fraction(alpha)
    if inv_q > Fraction(1, 2) or inv_r > Fraction(1, 2):
        raise ParameterError(f"q, r must be >= 2, got q={q}, r={r}")
    if inv_q == Fraction(1, 2) and inv_r == 0 and alpha_f == 1:
        raise ParameterError("(q, r, alpha) = (2, inf, 1) is excluded")
    lhs = inv_q + alpha_f * inv_r
    rhs = alpha_f / 2
    if lhs > rhs:
        raise ParameterError(f"pair not {alpha}-admissible: 1/q + alpha/r = {lhs} > alpha/2 = {rhs}")
    return AdmissiblePair(q=q, r=r, alpha=alpha_f, sharp=(lhs == rhs))


def sharp_wave_q(r, d: int = 2) -> Fraction:
    """The q making (q, r) sharp wave-admissible in dimension d."""
    alpha = Fraction(d - 1, 2)
    inv_q = alpha * (Fraction(1, 2) - _inv(r))
    if inv_q == 0:
        return math.inf
    q = 1 / inv_q
    if q <= 2:
        raise ParameterError(f"sharp wave q = {q} <= 2 for r = {r} (endpoint or beyond)")
    return q


def sharp_schrodinger_q(r, d: int = 2) -> Fraction:
    """The q making (q, r) sharp d/2-admissible."""
    alpha = Fraction(d, 2)
    inv_q = alpha * (Fraction(1, 2) - _inv(r))
    if inv_q == 0:
        return math.inf
    return 1 / inv_q


@dataclass(frozen=True)
class LossExponent:
    """Predicted counterexample exponent beta(r) versus the d=2 free one."""

    r: Fraction
    beta_free: Fraction
    beta_loss: Fraction

    @property
    def gap(self) -> Fraction:
        return self.beta_loss - self.beta_free


def loss_exponent(r) -> LossExponent:
    """beta(r) = 3/2 (1/2 - 1/r) + 1/6 (1/4 - 1/r), for r > 4.

    ``beta_free`` is the d = 2 sharp free-space exponent d(1/2-1/r) - 1/q at
    the sharp wave-admissible q, which collapses to 3/2 (1/2 - 1/r).  The gap
    is exactly 1/6 (1/4 - 1/r) > 0.
    """
    inv_r = _inv(r)
    r_f = Fraction(0) if inv_r == 0 else 1 / inv_r
    if inv_r >= Fraction(1, 4):
        raise ParameterError(f"r must be > 4 (no contradiction is produced for r <= 4), got {r}")
    half = Fraction(1, 2)
    beta_free = 2 * (half - inv_r) - half * (half - inv_r)
    beta_loss = Fraction(3, 2) * (half - inv_r) + Fraction(1, 6) * (Fraction(1, 4) - inv_r)
    return LossExponent(r=r_f if inv_r else Fraction(0), beta_free=beta_free, beta_loss=beta_loss)


def initial_data_regularity(r, q, epsilon) -> Fraction:
    """Sobolev index 2(1/2-1/r) - 1/q + 1/6(1/4-1/r) - 2 eps of the stated data bound.

    Exposed alongside beta(r); only beta(r) - eps enters the verdict tests, the
    relation between the two epsilon budgets being left open.
    """
    inv_r, inv_q = _inv(r), _inv(q)
    eps = _as_fraction(epsilon)
    return 2 * (Fraction(1, 2) - inv_r) - inv_q + Fraction(1, 6) * (Fraction(1, 4) - inv_r) - 2 * eps
