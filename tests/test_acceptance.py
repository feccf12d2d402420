"""Acceptance suite: every stated criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line.  Criterion 4's L^6 leg is known to
sit outside its tolerance on the stated h-range (a finite-size correction of
relative order h^{1/3 - delta/2} that no admissible symbol removes; see the
sweep in test_cusp_norm_exponents_converge_asymptotically) and is asserted
as stated anyway.
"""

import math
import time

import numpy as np
import pytest

from convexwave.airy import ai, airy_branch, airy_zeros
from convexwave.fields import FrequencyWindow
from convexwave.gallery import strichartz_quotient
from convexwave.normlab import counterexample_report, fit_exponent, lr_norm
from convexwave.oscillatory import gamma_wave, pool_curves
from convexwave.params import make_params
from convexwave.cusp import (
    PhaseSpacePoint,
    billiard,
    billiard_iterate,
    boundary_residual,
    cusp_field,
    make_symbol,
    wave_residual,
)
from conftest import mp_airy_zero


def _report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: Airy suite


def test_criterion1_airy_suite():
    t0 = time.time()
    zeros = airy_zeros(10)
    zero_err = max(abs(zeros[k] - mp_airy_zero(k)) for k in range(10))

    z = np.linspace(-10.0, 5.0, 1501)
    step = 1e-3
    ode_resid = np.max(np.abs((ai(z + step) - 2 * ai(z) + ai(z - step)) / step**2 - z * ai(z)))

    zz = np.linspace(4.0, 100.0, 769)
    split = (airy_branch(zz, +1, 3) + airy_branch(zz, -1, 3)).real
    envelope = 2.0 * 0.5 / math.sqrt(math.pi) * zz**-0.25  # oscillation envelope of ai(-z)
    rel = np.max(np.abs(split - ai(-zz)) / envelope)
    elapsed = time.time() - t0

    ok = zero_err <= 1e-8 and ode_resid <= 1e-5 and rel <= 1e-4 and elapsed < 10.0
    assert _report(
        "criterion 1 (airy suite)", ok,
        f"zero_err={zero_err:.2e} (<=1e-8), ode={ode_resid:.2e} (<=1e-5), "
        f"split={rel:.2e} (<=1e-4), {elapsed:.1f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: dispersive wave amplitude


def test_criterion2_wave_dispersion():
    t0 = time.time()
    omega9 = airy_zeros(10)[9]
    window = FrequencyWindow(1.0, 0.25, 0.5)
    lam_grid = np.geomspace(30.0, 3000.0, 16)
    curves = [
        gamma_wave(make_params(h, 0.1, 0.2), omega9, 2, lam_grid, window=window, tol=1e-8)
        for h in (1e-2, 1e-3, 1e-4)
    ]
    pooled = pool_curves(curves).fit(mu_min=12.0)  # the mu >> 1 regime
    elapsed = time.time() - t0
    lam_ok = abs(pooled.fitted_lambda_exponent + 0.5) <= 0.10
    h_ok = abs(pooled.fitted_h_exponent + 1.0 / 3.0) <= 0.10
    ok = lam_ok and h_ok and elapsed < 300.0
    assert _report(
        "criterion 2 (wave dispersion)", ok,
        f"lambda_exp={pooled.fitted_lambda_exponent:+.4f} (-0.5±0.1), "
        f"h_exp={pooled.fitted_h_exponent:+.4f} (-0.333±0.1), {elapsed:.0f}s (<300s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: Schroedinger gallery quotient


def test_criterion3_schrodinger_gallery_quotient():
    t0 = time.time()
    h_list = [2.0**-e for e in range(8, 17)]
    res = strichartz_quotient("schrodinger", "coherent", q=3, r=6, t_window=(0.0, 0.3),
                              h_list=h_list, k=0, n_t=25)
    elapsed = time.time() - t0
    target = -7.0 / 18.0
    ok = res.fitted_exponent is not None and abs(res.fitted_exponent - target) <= 0.05 \
        and res.reliable and elapsed < 300.0
    assert _report(
        "criterion 3 (gallery quotient)", ok,
        f"exponent={res.fitted_exponent:+.4f} ({target:+.4f}±0.05), {elapsed:.0f}s (<300s)",
    )


# ---------------------------------------------------------------------------
# criterion 4: cusp norms at t = 0


@pytest.fixture(scope="module")
def cusp_norm_sweep():
    rows = {2: [], 3: [], 5: [], 6: [], 8: []}
    t0 = time.time()
    for e in range(10, 23, 2):
        params = make_params(2.0**-e, 0.1, 0.25)
        fld = cusp_field(0, 0.0, params)
        for r in rows:
            rows[r].append((params.h, lr_norm(fld, r)))
    rows["elapsed"] = time.time() - t0
    return rows


def test_criterion4_l2_exponent(cusp_norm_sweep):
    fit = fit_exponent(cusp_norm_sweep[2])
    target = 1.0 + 0.45 / 4.0
    ok = abs(fit.slope - target) <= 0.02 and cusp_norm_sweep["elapsed"] < 600.0
    assert _report(
        "criterion 4 (cusp L2 exponent)", ok,
        f"slope={fit.slope:.4f} ({target:.4f}±0.02), sweep={cusp_norm_sweep['elapsed']:.0f}s (<600s)",
    )


def test_criterion4_l3_exponent(cusp_norm_sweep):
    fit = fit_exponent(cusp_norm_sweep[3])
    target = 1.0 / 3.0 + 0.5 + 0.45 / 12.0
    ok = abs(fit.slope - target) <= 0.05
    assert _report(
        "criterion 4 (cusp L3 exponent)", ok,
        f"slope={fit.slope:.4f} ({target:.4f}±0.05)",
    )


def test_criterion4_l6_exponent(cusp_norm_sweep):
    # Known red: the fold-smearing correction ~ h^{1/3 - delta/2} biases the
    # OLS slope below 11/18 on this pre-asymptotic h-range (converges to the
    # target for h <~ 2^-30; see the asymptotic test below and the ledger).
    fit = fit_exponent(cusp_norm_sweep[6])
    target = 11.0 / 18.0
    ok = abs(fit.slope - target) <= 0.05
    assert _report(
        "criterion 4 (cusp L6 exponent)", ok,
        f"slope={fit.slope:.4f} ({target:.4f}±0.05)",
    )


def test_cusp_norm_exponents_monotone_in_r(cusp_norm_sweep):
    # h^{1/3 + 5/(3r)} for r > 4: fitted exponents decrease in r
    slopes = {r: fit_exponent(cusp_norm_sweep[r]).slope for r in (5, 6, 8)}
    assert slopes[5] > slopes[6] > slopes[8]


def test_cusp_norm_exponents_converge_asymptotically():
    # supporting evidence for the criterion-4 analysis: the local L6 slope
    # approaches 11/18 from below as h decreases past the stated range
    rows = []
    for e in (22, 27, 32):
        params = make_params(2.0**-e, 0.1, 0.25)
        n_x = int(min(1200, max(320, 8 * params.a * params.h ** (-2.0 / 3.0))))
        fld = cusp_field(0, 0.0, params, n_x=n_x)
        rows.append((params.h, lr_norm(fld, 6)))
    slopes = np.diff(np.log([v for _, v in rows])) / np.diff(np.log([h for h, _ in rows]))
    assert slopes[1] > slopes[0]
    assert abs(slopes[1] - 11.0 / 18.0) < abs(slopes[0] - 11.0 / 18.0)
    assert slopes[1] == pytest.approx(11.0 / 18.0, abs=0.035)


# ---------------------------------------------------------------------------
# criterion 5: boundary cancellation


def test_criterion5_boundary_cancellation():
    t0 = time.time()
    ratios = {}
    for lam_target in (64.0, 128.0):
        h = lam_target ** (-1.0 / 0.325)
        params = make_params(h, 0.1, 0.25)
        assert params.lam >= 50.0
        ratios[lam_target] = boundary_residual(0, params)
    elapsed = time.time() - t0
    ok = (ratios[64.0] <= 1e-3 and ratios[128.0] <= 1e-3
          and ratios[128.0] <= 0.5 * ratios[64.0] and elapsed < 120.0)
    assert _report(
        "criterion 5 (boundary cancellation)", ok,
        f"ratio(64)={ratios[64.0]:.2e}, ratio(128)={ratios[128.0]:.2e} "
        f"(<=1e-3, halving per doubling), {elapsed:.0f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# criterion 6: wave residual exponent


def test_criterion6_wave_residual_exponent():
    t0 = time.time()
    rows = []
    for e in range(10, 23, 2):
        params = make_params(2.0**-e, 0.1, 0.25)
        rows.append((params.h, lr_norm(wave_residual(0, 0.0, params), 2)))
    fit = fit_exponent(rows)
    elapsed = time.time() - t0
    target = 1.0 - 3.0 * 0.45 / 4.0
    ok = abs(fit.slope - target) <= 0.05 and elapsed < 300.0
    assert _report(
        "criterion 6 (wave residual)", ok,
        f"slope={fit.slope:.4f} ({target:.4f}±0.05), {elapsed:.0f}s (<300s)",
    )


# ---------------------------------------------------------------------------
# criterion 7: counterexample verdict


def test_criterion7_counterexample_verdict():
    t0 = time.time()
    h_list = [2.0**-10, 2.0**-14, 2.0**-18, 2.0**-22]
    [rep] = counterexample_report((6,), 0.1, h_list, c0=0.25)
    elapsed = time.time() - t0
    qs = [qv for _, qv in sorted(rep.samples, key=lambda s: -s[0])]
    increasing = all(b > a for a, b in zip(qs, qs[1:]))
    in_band = -0.15 <= rep.fitted_exponent <= -0.03
    ok = (rep.verdict == "PASS" and increasing and rep.fitted_exponent <= -0.05
          and in_band and rep.control_monotone_ok and elapsed < 1800.0)
    assert _report(
        "criterion 7 (counterexample verdict)", ok,
        f"verdict={rep.verdict}, exponent={rep.fitted_exponent:+.4f} (<=-0.05), "
        f"Q increasing={increasing}, control non-increasing={rep.control_monotone_ok}, "
        f"{elapsed:.0f}s (<1800s)",
    )


# ---------------------------------------------------------------------------
# criterion 8: oracle equivalences


def test_criterion8_oracle_equivalences(rng):
    t0 = time.time()
    # (a) spectral symbol iteration vs brute convolution at coarse parameters
    from convexwave.cusp import ReflectionKernel, iterate_symbol

    params = make_params(5e-3, 0.1, 0.25)
    eta = 1.05
    sym = make_symbol(params)
    spectral = iterate_symbol(sym, 1, eta, params)
    kern = ReflectionKernel()
    omega = eta * params.lam
    nodes, weights = np.polynomial.legendre.leggauss(1200)
    zeta = nodes * 2.0 * kern.chi_flat
    wz = weights * 2.0 * kern.chi_flat
    keep = np.abs(sym.z) <= 3.5
    idx = np.nonzero(np.abs(sym.z) <= 1.5)[0][::4]
    phases = np.exp(1j * omega * (np.subtract.outer(sym.z[idx], sym.z[keep])[:, None, :]
                                  * zeta[None, :, None] + kern.f(zeta)[None, :, None]))
    brute = -(omega / (2 * math.pi)) * np.einsum(
        "szp,z,p->s", phases, kern.c_symbol(zeta, omega) * wz, sym.values[keep].real * sym.dz)
    iter_err = np.max(np.abs(brute - spectral.values[idx])) / np.abs(spectral.values[idx]).max()
    ok_iter = iter_err <= 1e-4

    # (b) Airy-reduction field vs brute 2-D oscillatory quadrature
    params = make_params(0.01, 0.1, 0.25)
    a, h = params.a, params.h
    sym = make_symbol(params, profile=lambda z: np.exp(-(z**2) / (2 * 0.18**2)))
    window = FrequencyWindow()
    x_pts = np.linspace(0.0, 1.6 * a, 9)
    from convexwave.cusp import CuspEvaluator

    fld = CuspEvaluator(params, 0, symbol=sym, x=x_pts).field(0.0)
    sel = np.abs(fld.y - fld.meta["y_center"]) <= 0.35
    stride = max(1, sel.sum() // 40)
    y_pts = fld.y[sel][::stride]
    s_nodes, s_w = np.polynomial.legendre.leggauss(700)
    s_grid = s_nodes * 2.2 * math.sqrt(a)
    s_w = s_w * 2.2 * math.sqrt(a)
    eta_grid = np.linspace(*window.support, 601)
    rho_vals = np.interp(s_grid / math.sqrt(a), sym.z, sym.values.real)
    brute2 = np.zeros((x_pts.size, y_pts.size), dtype=complex)
    for ix, x in enumerate(x_pts):
        s_phase = (x - a) * s_grid + s_grid**3 / 3.0
        inner = np.exp(1j * np.outer(eta_grid, s_phase) / h) @ (s_w * rho_vals)
        brute2[ix] = (window(eta_grid) * inner) @ np.exp(
            1j * np.outer(eta_grid, y_pts) / h) * (eta_grid[1] - eta_grid[0])
    reduced = fld.values[:, sel][:, ::stride]
    field_err = np.sqrt(np.sum(np.abs(reduced - brute2) ** 2) / np.sum(np.abs(brute2) ** 2))
    ok_field = field_err <= 1e-3

    # (c) stationary phase vs quadrature on 20 random problems
    from convexwave.oscillatory import OscillatoryProblem, quad_oscillatory, stationary_phase

    worst = 0.0
    for _ in range(20):
        lam = float(rng.uniform(40.0, 400.0))
        u0 = rng.uniform(-0.3, 0.3)
        alpha, beta = rng.uniform(-0.05, 0.05), rng.uniform(-0.012, 0.012)
        curv = rng.uniform(0.6, 1.6)
        g1, g2 = rng.uniform(-0.4, 0.4, 2)
        sigma = rng.uniform(0.35, 0.8)
        prob = OscillatoryProblem(
            phase=lambda x: curv * (x - u0) ** 2 / 2 + alpha * (x - u0) ** 3 + beta * (x - u0) ** 4,
            amplitude=lambda x: np.exp(-((x - u0) ** 2) / (2 * sigma**2))
            * (1 + g1 * (x - u0) + g2 * (x - u0) ** 2)
            * np.clip(1 - ((x - u0) / 2.0) ** 2, 0.0, None) ** 4,
            large_param=lam,
            domain=(u0 - 2.0, u0 + 2.0),
        )
        exp = stationary_phase(prob, k=2)
        diff = abs(exp.value - quad_oscillatory(prob, 1e-11))
        worst = max(worst, diff / exp.error_bound)
    ok_sp = worst <= 1.0
    elapsed = time.time() - t0

    ok = ok_iter and ok_field and ok_sp and elapsed < 300.0
    assert _report(
        "criterion 8 (oracle equivalences)", ok,
        f"iterate={iter_err:.2e} (<=1e-4), field={field_err:.2e} (<=1e-3), "
        f"stationary worst={worst:.2f} (<=1), {elapsed:.0f}s (<300s)",
    )


# ---------------------------------------------------------------------------
# criterion 9: billiard algebra


def test_criterion9_billiard_algebra(rng):
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        eta = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        tau = eta * rng.uniform(1.01, 3.0) * rng.choice([-1.0, 1.0])
        p = PhaseSpacePoint(rng.uniform(-5, 5), rng.uniform(-5, 5), eta, tau)
        q = billiard_iterate(p, +1, 4)
        q_steps = p
        for _ in range(4):
            q_steps = billiard(q_steps, +1)
        inv = billiard(billiard(p, +1), -1)
        worst = max(
            worst,
            abs(q.y - q_steps.y) / max(1.0, abs(q.y)),
            abs(q.t - q_steps.t) / max(1.0, abs(q.t)),
            abs(inv.y - p.y) / max(1.0, abs(p.y)),
            abs(inv.t - p.t) / max(1.0, abs(p.t)),
            abs(q.eta - eta), abs(q.tau - tau),
        )
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert _report(
        "criterion 9 (billiard algebra)", ok,
        f"worst deviation={worst:.2e} (<=1e-12), {elapsed:.2f}s (<1s)",
    )
