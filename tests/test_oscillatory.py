"""Quadrature oracle, stationary phase, and the dispersive-amplitude scans."""

import math

import numpy as np
import pytest

from convexwave.airy import airy_zeros
from convexwave.fields import FrequencyWindow
from convexwave import oscillatory
from convexwave.oscillatory import (
    DispersionCurve,
    DispersionSample,
    OscillatoryProblem,
    QuadratureError,
    StationaryPhaseError,
    gamma_schrodinger,
    g_schrodinger,
    g_wave,
    gamma_wave,
    pool_curves,
    quad_oscillatory,
    stationary_phase,
)
from convexwave.params import make_params


def gaussian_problem(lam, amp=None):
    return OscillatoryProblem(
        phase=lambda x: x**2 / 2.0,
        amplitude=amp or (lambda x: np.exp(-(x**2) / 2.0)),
        large_param=lam,
        domain=(-10.0, 10.0),
    )


def test_quad_gaussian_closed_form():
    val = quad_oscillatory(gaussian_problem(50.0), tol=1e-10)
    ref = np.sqrt(2.0 * np.pi / (1.0 - 50.0j))
    assert abs(val - ref) < 1e-8


def test_quad_zero_amplitude():
    prob = OscillatoryProblem(lambda x: x**2 / 2, lambda x: 0.0 * x, 10.0, (-1.0, 1.0))
    assert quad_oscillatory(prob, 1e-9) == 0.0


def test_quad_constant_phase_reduces_to_plain_integral():
    amp = lambda x: np.exp(-(x**2))
    for lam in (1.0, 250.0):
        prob = OscillatoryProblem(lambda x: 0.0 * x, amp, lam, (-8.0, 8.0))
        assert quad_oscillatory(prob, 1e-10) == pytest.approx(math.sqrt(math.pi), abs=1e-9)


def test_quad_linearity_in_amplitude(rng):
    a1 = lambda x: np.exp(-(x**2)) * (1.0 + 0.3 * x)
    a2 = lambda x: np.exp(-(x**2) / 1.5) * np.cos(2.0 * x)
    for _ in range(5):
        c1, c2 = rng.normal(size=2)
        prob12 = OscillatoryProblem(lambda x: x**2 / 2 + 0.1 * x**3, lambda x: c1 * a1(x) + c2 * a2(x),
                                    37.0, (-9.0, 9.0))
        v12 = quad_oscillatory(prob12, 1e-12)
        v1 = quad_oscillatory(OscillatoryProblem(prob12.phase, a1, 37.0, (-9.0, 9.0)), 1e-12)
        v2 = quad_oscillatory(OscillatoryProblem(prob12.phase, a2, 37.0, (-9.0, 9.0)), 1e-12)
        assert abs(v12 - (c1 * v1 + c2 * v2)) <= 1e-10 * max(abs(v12), 1.0)


def test_quad_rejects_bad_tol():
    with pytest.raises(ValueError):
        quad_oscillatory(gaussian_problem(10.0), tol=1e-2)


def test_stationary_phase_l0_is_value_at_critical_point():
    prob = gaussian_problem(80.0)
    exp = stationary_phase(prob, k=1)
    assert exp.terms[0] == pytest.approx(1.0, abs=1e-9)
    assert exp.critical_point == pytest.approx(0.0, abs=1e-9)


def test_stationary_phase_ratio_consistent_with_decay():
    # remainder after k=1 decays like omega^{-1} relative between two lambdas
    prob50 = gaussian_problem(50.0)
    prob100 = gaussian_problem(100.0)
    d50 = abs(stationary_phase(prob50, k=1).value - quad_oscillatory(prob50, 1e-11))
    d100 = abs(stationary_phase(prob100, k=1).value - quad_oscillatory(prob100, 1e-11))
    assert d100 <= 5.0 * d50 / 2.0


def test_stationary_phase_degenerate_cubic():
    prob = OscillatoryProblem(
        phase=lambda x: x**3 / 3.0,
        amplitude=lambda x: np.exp(-8.0 * x**2) * (1.0 - np.clip(x, -1, 1) ** 2) ** 4,
        large_param=30.0,
        domain=(-1.0, 1.0),
    )
    with pytest.raises(StationaryPhaseError, match="fold"):
        stationary_phase(prob, k=1)


def test_stationary_phase_multiple_critical_points():
    prob = OscillatoryProblem(
        phase=lambda x: np.cos(x),
        amplitude=lambda x: np.clip(1.0 - (x / 4.0) ** 2, 0.0, None) ** 4 * np.exp(-(x**2) / 9.0),
        large_param=40.0,
        domain=(-4.0, 4.0),
    )
    with pytest.raises(StationaryPhaseError, match="split the domain"):
        stationary_phase(prob, k=1)


def _random_problem(rng, lam):
    u0 = rng.uniform(-0.3, 0.3)
    alpha = rng.uniform(-0.05, 0.05)
    beta = rng.uniform(-0.012, 0.012)
    curv = rng.uniform(0.6, 1.6)
    g1, g2 = rng.uniform(-0.4, 0.4, 2)
    sigma = rng.uniform(0.35, 0.8)

    def phase(x):
        v = x - u0
        return curv * v**2 / 2.0 + alpha * v**3 + beta * v**4

    def amplitude(x):
        v = x - u0
        bump = np.clip(1.0 - (v / 2.0) ** 2, 0.0, None) ** 4
        return np.exp(-(v**2) / (2 * sigma**2)) * (1.0 + g1 * v + g2 * v**2) * bump

    return OscillatoryProblem(phase, amplitude, lam, (u0 - 2.0, u0 + 2.0))


def test_oracle_consistency_twenty_random_problems(rng):
    for i in range(20):
        lam = float(rng.uniform(40.0, 400.0))
        prob = _random_problem(rng, lam)
        exp = stationary_phase(prob, k=2)
        ref = quad_oscillatory(prob, 1e-11)
        assert abs(exp.value - ref) <= exp.error_bound, f"problem {i}: {abs(exp.value-ref):.2e} > {exp.error_bound:.2e}"


def test_gamma_schrodinger_decay():
    omega9 = airy_zeros(10)[9]
    params = make_params(1e-3, 0.1, 0.2)
    window = FrequencyWindow(1.0, 0.25, 0.5)
    curve = gamma_schrodinger(params, omega9, 2, np.geomspace(60.0, 3000.0, 10),
                              window=window, tol=1e-8)
    assert curve.fitted_lambda_exponent == pytest.approx(-0.5, abs=0.05)
    assert curve.fitted_h_exponent is None  # single h


def test_gamma_schrodinger_zero_window_gives_zero():
    params = make_params(1e-3, 0.1, 0.2)
    # amplitude identically zero -> gamma = 0 (direct quadrature check)
    prob = OscillatoryProblem(lambda e: 2.0 * e - e**2, lambda e: 0.0 * e, 50.0, (0.8, 1.2))
    assert quad_oscillatory(prob, 1e-9) == 0.0


def test_gamma_schrodinger_bounded_at_small_lambda():
    omega0 = airy_zeros(1)[0]
    params = make_params(1e-3, 0.1, 0.2)
    window = FrequencyWindow()
    curve = gamma_schrodinger(params, omega0, 2, [1.0, 2.0], window=window, tol=1e-8)
    bound = quad_oscillatory(
        OscillatoryProblem(lambda e: 0.0 * e, window, 1.0, window.support), 1e-9
    ).real
    for s in curve.samples:
        assert s.gamma <= bound * (1.0 + 1e-6)


def test_gamma_wave_exponents_and_stationary_set():
    omega9 = airy_zeros(10)[9]
    window = FrequencyWindow(1.0, 0.25, 0.5)
    curves = [
        gamma_wave(make_params(h, 0.1, 0.2), omega9, 2, np.geomspace(30.0, 3000.0, 12),
                   window=window, tol=1e-8)
        for h in (1e-2, 1e-3)
    ]
    pooled = pool_curves(curves)
    pooled.fit(mu_min=12.0)
    assert pooled.fitted_lambda_exponent == pytest.approx(-0.5, abs=0.1)
    assert pooled.fitted_h_exponent == pytest.approx(-1.0 / 3.0, abs=0.1)
    # interior maximizer: rho = (6x/omega)^{-3/2} inside the window support
    flags = curves[0].meta["stationary_rho_inside_window"]
    assert all(f for s, f in zip(curves[0].samples, flags) if s.mu > 12.0)


def test_gamma_wave_small_mu_bounded():
    omega0 = airy_zeros(1)[0]
    params = make_params(1e-4, 0.1, 0.2)
    window = FrequencyWindow()
    curve = gamma_wave(params, omega0, 2, [5.0, 20.0], window=window, tol=1e-8)
    bound = quad_oscillatory(
        OscillatoryProblem(lambda e: 0.0 * e, window, 1.0, window.support), 1e-9
    ).real
    for s in curve.samples:
        assert s.mu < 1.0
        assert s.gamma <= bound * (1.0 + 1e-6)


def test_gamma_monotone_ratio_at_large_lambda():
    omega9 = airy_zeros(10)[9]
    params = make_params(1e-2, 0.1, 0.2)
    window = FrequencyWindow(1.0, 0.25, 0.5)
    lams = [400.0, 800.0, 1600.0, 3200.0]
    curve = gamma_wave(params, omega9, 2, lams, window=window, tol=1e-8)
    g = [s.gamma for s in curve.samples]
    for lo, hi in zip(g[:-1], g[1:]):
        assert hi / lo <= 2.0 ** (-0.5 + 0.1)


def test_fit_requires_lambda_span():
    curve = DispersionCurve(flow="wave", d=2, samples=[])
    curve.fit()
    assert "fit_note" in curve.meta


def test_fit_counts_the_mu_cut_points_but_spans_every_lambda():
    # all lambda span 1.9 decades; the four points past the mu cut span only 0.9 and still fit
    lams = [10.0, 100.0, 200.0, 400.0, 800.0]
    samples = [DispersionSample(lam=lam, h=1e-2, mu=lam / 10.0, gamma=lam**-0.5, z_at_max=0.0) for lam in lams]
    curve = DispersionCurve(flow="wave", d=2, samples=samples).fit(mu_min=5.0)
    assert "fit_note" not in curve.meta and curve.meta["fit_points"] == 4
    assert curve.fitted_lambda_exponent == pytest.approx(-0.5, abs=1e-12)
    short = DispersionCurve(flow="wave", d=2, samples=samples).fit(mu_min=15.0)  # three points left
    assert "fit_note" in short.meta and short.fitted_lambda_exponent is None


def test_quad_panel_budget_exhaustion():
    # pathologically fast phase at fixed large_param exhausts the panel budget
    prob = OscillatoryProblem(
        phase=lambda x: 2.0e6 * x**2,
        amplitude=lambda x: np.exp(-(x**2) * 8.0),
        large_param=1.0,
        domain=(-3.0, 3.0),
    )
    with pytest.raises(QuadratureError, match="budget"):
        quad_oscillatory(prob, 1e-9)


def test_gamma_seed_jitter_deterministic():
    omega0 = airy_zeros(1)[0]
    params = make_params(1e-2, 0.1, 0.2)
    a = gamma_wave(params, omega0, 2, [400.0], seed=7)
    b = gamma_wave(params, omega0, 2, [400.0], seed=7)
    c = gamma_wave(params, omega0, 2, [400.0], seed=8)
    assert a.samples[0].gamma == b.samples[0].gamma
    # different jitter moves the scan grid but the refined sup barely shifts
    assert abs(a.samples[0].gamma - c.samples[0].gamma) <= 2e-3 * a.samples[0].gamma


def _scan_span(flow, omega, h, window):
    """The symbol and the z-span that gamma_schrodinger / gamma_wave scan."""
    if flow == "schrodinger":
        g = lambda e: g_schrodinger(e, omega, h)
        lo, hi = window.support
        gp = lambda e: (g(e + 1e-5) - g(e - 1e-5)) / 2e-5
        pad = 0.25 * (gp(hi) - gp(lo))
        return g, gp(lo) - pad, gp(hi) + pad
    g = lambda e: g_wave(e, omega, h)
    x_hi = (omega / 6.0) * window.support[0] ** (-2.0 / 3.0) * 1.8 + 0.3
    return g, 1.0 - 0.6 * h ** (2.0 / 3.0), 1.0 + x_hi * h ** (2.0 / 3.0)


@pytest.mark.parametrize("flow", ["schrodinger", "wave"])
@pytest.mark.parametrize("window", [FrequencyWindow(), FrequencyWindow(1.0, 0.25, 0.5)])
def test_fixed_rule_matches_oracle(flow, window):
    omega9 = airy_zeros(10)[9]
    for h in (1e-2, 1e-4):
        g, z_lo, z_hi = _scan_span(flow, omega9, h, window)
        for lam in (1.0, 2.0, 5.0, 20.0, 3000.0):
            rule = oscillatory._FixedRule(g, window, lam, z_lo, z_hi, 1e-12)
            zs = np.linspace(z_lo, z_hi, 5)
            fixed = rule(zs)
            for z, val in zip(zs, fixed):
                prob = OscillatoryProblem(lambda e: z * e - g(e), window, lam, window.support)
                assert abs(val - quad_oscillatory(prob, 1e-12)) <= 1e-12, (h, lam, z)


class _HoleWindow(FrequencyWindow):
    """A window with a NaN hole that the phase-slope probe does not see."""

    def __call__(self, eta):
        return np.where(np.abs(np.asarray(eta) - 1.01) < 0.01, np.nan, super().__call__(eta))


def test_fixed_rule_rejects_non_finite_samples():
    window = FrequencyWindow()
    g = lambda e: np.where(e > 1.05, np.nan, e**2)
    with pytest.raises(ValueError, match="not (finite|differentiable)"):
        oscillatory._FixedRule(g, window, 50.0, 1.0, 3.0, 1e-9)
    with pytest.raises(ValueError, match="not finite"):
        gamma_schrodinger(make_params(1e-3, 0.1, 0.2), airy_zeros(1)[0], 2, [50.0],
                          window=_HoleWindow())
    with pytest.raises(ValueError, match="large_param"):
        oscillatory._FixedRule(lambda e: e**2, window, 0.5, 1.0, 3.0, 1e-9)
    with pytest.raises(ValueError, match="tol"):
        oscillatory._FixedRule(lambda e: e**2, window, 50.0, 1.0, 3.0, 1e-2)


def test_fixed_rule_panel_budget():
    params = make_params(1e-3, 0.1, 0.2)
    with pytest.raises(QuadratureError, match="panels"):
        gamma_schrodinger(params, airy_zeros(1)[0], 2, [1e6])


def test_under_resolved_rule_fails_oracle_check(monkeypatch):
    monkeypatch.setattr(oscillatory, "_RULE_PHASE_CAP", 400.0)
    params = make_params(1e-2, 0.1, 0.2)
    with pytest.raises(QuadratureError, match="oracle"):
        # only the largest lambda is under-resolved, and it is the one checked
        gamma_wave(params, airy_zeros(10)[9], 2, [30.0, 3000.0],
                   window=FrequencyWindow(1.0, 0.25, 0.5), tol=1e-8)


def test_oracle_diff_in_curve_and_pooled_meta():
    omega9 = airy_zeros(10)[9]
    window = FrequencyWindow(1.0, 0.25, 0.5)
    curves = [gamma_schrodinger(make_params(h, 0.1, 0.2), omega9, 2, [60.0, 600.0],
                                window=window, tol=1e-8)
              for h in (1e-2, 1e-3)]
    diffs = [c.meta["oracle_diff"] for c in curves]
    assert all(0.0 <= d <= 1e-8 for d in diffs)
    assert pool_curves(curves).meta["oracle_diff"] == max(diffs)
