"""Cusp apparatus: billiards, symbols, reflections, fields, traces."""

import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from convexwave.airy import _LEADING, _UK, AiryTable
from convexwave.fields import FrequencyWindow, trapezoid_weights
from convexwave.params import make_params
import convexwave.cusp as cw_cusp
from convexwave.cusp import (
    _BATCH,
    CuspError,
    CuspEvaluator,
    GlidingRegimeError,
    PhaseSpacePoint,
    ReflectionKernel,
    TraceEvaluator,
    _HELD,
    _KEEP_TOL,
    _pair_sums,
    _spectral_setup,
    billiard,
    billiard_iterate,
    boundary_residual,
    cusp_field,
    dirichlet_residual,
    iterate_symbol,
    make_symbol,
    reflection_count,
    trace,
    uh_mixed_norms,
    wave_residual,
)
from convexwave.normlab import NormError, grid_lr_norm, lqlr_norm, lr_norm, row_powers, rows_norm


# ---------------------------------------------------------------------------
# billiards


def test_billiard_reference_point():
    p = billiard(PhaseSpacePoint(0.0, 0.0, 1.0, math.sqrt(2.0)), +1)
    assert p.y == pytest.approx(20.0 / 3.0, rel=1e-14)
    assert p.t == pytest.approx(-4.0 * math.sqrt(2.0), rel=1e-14)
    assert (p.eta, p.tau) == (1.0, math.sqrt(2.0))


def test_billiard_gliding_limit_is_fixed_point():
    p0 = PhaseSpacePoint(0.3, -0.2, 1.0, math.sqrt(1.0 + 1e-12))
    p1 = billiard(p0, +1)
    assert abs(p1.y - p0.y) < 1e-5 and abs(p1.t - p0.t) < 1e-5


def test_billiard_rejects_gliding_and_elliptic():
    for tau in (1.0, 0.5):
        with pytest.raises(GlidingRegimeError, match="gliding"):
            billiard(PhaseSpacePoint(0.0, 0.0, 1.0, tau), +1)


def test_billiard_algebra_on_random_points(rng):
    # group law, inverse and conservation, exact to 1e-12 on 1000 points
    ys = rng.uniform(-5, 5, 1000)
    ts = rng.uniform(-5, 5, 1000)
    etas = rng.uniform(0.3, 2.0, 1000) * rng.choice([-1.0, 1.0], 1000)
    taus = etas * rng.uniform(1.01, 3.0, 1000) * rng.choice([-1.0, 1.0], 1000)
    for y, t, eta, tau in zip(ys, ts, etas, taus):
        p = PhaseSpacePoint(y, t, eta, tau)
        q3 = billiard_iterate(p, +1, 3)
        q111 = billiard(billiard(billiard(p, +1), +1), +1)
        assert abs(q3.y - q111.y) <= 1e-12 * max(1.0, abs(q3.y))
        assert abs(q3.t - q111.t) <= 1e-12 * max(1.0, abs(q3.t))
        back = billiard(billiard(p, +1), -1)
        assert abs(back.y - p.y) <= 1e-12 * max(1.0, abs(p.y))
        assert abs(back.t - p.t) <= 1e-12 * max(1.0, abs(p.t))
        q_mn = billiard_iterate(billiard_iterate(p, +1, 2), +1, 5)
        q_sum = billiard_iterate(p, +1, 7)
        assert abs(q_mn.y - q_sum.y) <= 1e-12 * max(1.0, abs(q_sum.y))
        assert (q3.eta, q3.tau) == (eta, tau)


# ---------------------------------------------------------------------------
# kernels and symbols


@pytest.fixture(scope="module")
def params_mid():
    return make_params(2.0**-18, 0.1, 0.25)


@pytest.fixture(scope="module")
def symbol_mid(params_mid):
    return make_symbol(params_mid)


def test_kernel_f_jet():
    kern = ReflectionKernel()
    step = 1e-4
    f0 = kern.f(0.0)
    f1 = (kern.f(step) - kern.f(-step)) / (2 * step)
    f2 = (kern.f(step) - 2 * kern.f(0.0) + kern.f(-step)) / step**2
    assert abs(f0) < 1e-14
    assert abs(f1) < 1e-9
    assert f2 == pytest.approx(1.0, abs=1e-6)


def test_kernel_c_symbol_unimodular_limit():
    kern = ReflectionKernel()
    for omega in (50.0, 500.0, 5e4):
        c0 = kern.c_symbol(np.array([0.0]), omega)[0]
        assert abs(c0) == pytest.approx(1.0, abs=3.0 / omega)
    # phase convention: c(0, omega) -> e^{-i pi/2}; fixed by the trace-pair
    # cancellation and applied throughout
    c_inf = kern.c_symbol(np.array([0.0]), 1e8)[0]
    assert c_inf == pytest.approx(np.exp(-1j * math.pi / 2.0), abs=1e-6)


def test_kernel_chi_cutoff_shape():
    kern = ReflectionKernel()
    z = np.linspace(-0.6, 0.6, 1001)
    chi = kern.chi(z)
    assert np.all(chi[np.abs(z) <= kern.chi_flat] == 1.0)
    assert np.all(chi[np.abs(z) >= 2 * kern.chi_flat] == 0.0)


def test_truncated_ratio_error_scales_with_branch_terms():
    # |S_-/S_+ - R_J| = O(X^{-(J+1)}): evaluate on the chi-flat region
    zeta = np.linspace(-0.2, 0.2, 41)
    for j_terms, slope_target in ((1, -2.0), (3, -4.0)):
        kern = ReflectionKernel(branch_terms=j_terms)
        errs = []
        omegas = np.geomspace(30.0, 3000.0, 9)
        for omega in omegas:
            exact = (kern.branch_symbol(zeta, omega, -1) / kern.branch_symbol(zeta, omega, +1))
            trunc = kern.c_symbol(zeta, omega) / kern.chi(zeta) ** 2
            errs.append(np.max(np.abs(exact - trunc)))
        slope = np.polyfit(np.log(omegas), np.log(errs), 1)[0]
        assert slope == pytest.approx(slope_target, abs=0.25)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("terms", [0, 3, 6])
def test_branch_symbol_bit_identical_to_inline_series(sign, terms):
    kern = ReflectionKernel(branch_terms=terms)
    zeta = np.linspace(-0.49, 0.49, 301)
    for omega in (123.4, np.linspace(40.0, 400.0, zeta.size)):
        big_x = (2.0 / 3.0) * omega * (1.0 - zeta) ** 1.5
        series = np.ones(zeta.shape, dtype=complex)
        term = np.ones(zeta.shape, dtype=complex)
        for k in range(1, terms + 1):
            term = term * (sign * 1j * _UK[k] / _UK[k - 1]) / big_x
            series = series + term
        expected = _LEADING * (1.0 - zeta) ** -0.25 * np.exp(sign * 1j * math.pi / 4.0) * series
        assert np.array_equal(kern.branch_symbol(zeta, omega, sign), expected)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_reflection_multiplier_matches_masked_loop(n):
    # reference masked loop: transfer^n on |zeta| < 2c, zero elsewhere, times (-1)^n
    kern = ReflectionKernel()
    xi = np.linspace(-80.0, 80.0, 257)
    eta = np.linspace(0.78, 1.22, 9)
    omega_2d = np.outer(eta, np.ones_like(xi)) * 150.0
    for omega, zeta in ((150.0, xi / 150.0), (omega_2d, xi[None, :] / omega_2d)):
        if n == 0:
            expected = np.ones(zeta.shape, dtype=complex)
        else:
            expected = np.zeros(zeta.shape, dtype=complex)
            ok = np.abs(zeta) < 2.0 * kern.chi_flat
            om = omega[ok] if np.ndim(omega) else omega
            expected[ok] = kern.transfer_multiplier(zeta[ok], om) ** n
            expected *= (-1.0) ** n
        got = kern.reflection_multiplier(zeta, omega, n)
        assert got.shape == zeta.shape
        assert np.array_equal(got, expected)
        if n > 0:
            assert np.any(got == 0.0) and np.any(got != 0.0)


def test_make_symbol_mollifier_normalized(params_mid, symbol_mid):
    from convexwave.cusp import _mollifier_samples

    for lam in (10.0, 100.0):
        z = np.linspace(-2.0, 2.0, 1 << 14)
        k = _mollifier_samples(z, lam)
        assert np.sum(k) * (z[1] - z[0]) == pytest.approx(1.0, abs=1e-12)


def test_make_symbol_invariants(symbol_mid):
    assert symbol_mid.tail_fraction() <= 0.05
    b0, b1, b2 = symbol_mid.deriv_bounds
    assert b0 == pytest.approx(1.0, abs=0.05)
    assert np.max(np.abs(symbol_mid.values.imag)) < 1e-12


def test_make_symbol_zero_profile(params_mid):
    sym = make_symbol(params_mid, profile=lambda z: 0.0 * z)
    assert np.abs(sym.values).max() == 0.0


def test_make_symbol_rejects_coarse_grid():
    # lambda = 3327 needs more than the symbol grid's cap of 2^18 points
    with pytest.raises(CuspError, match="coarse"):
        make_symbol(make_params(2.0**-36, 0.1, 0.25))


def test_make_symbol_rejects_a_wide_profile():
    # a sigma 0.3 Gaussian puts 13.8% of its mass beyond c0 + 0.2 = 0.45
    with pytest.raises(CuspError, match="tail mass fraction 0.138 > 0.05"):
        make_symbol(make_params(2.0**-12, 0.1, 0.25), profile=lambda z: np.exp(-(z**2) / (2.0 * 0.3**2)))


def test_symbol_spectrum_tail_negligible(symbol_mid):
    spec = np.abs(symbol_mid.spectrum)
    xi = np.abs(symbol_mid.xi)
    inside = spec[xi <= 3.0 * symbol_mid.mollifier_scale].sum()
    outside = spec[xi > 3.0 * symbol_mid.mollifier_scale].sum()
    assert outside <= 1e-6 * inside


def test_iterate_identity_at_n_zero(params_mid, symbol_mid):
    out = iterate_symbol(symbol_mid, 0, 1.0, params_mid)
    assert np.allclose(out.values, symbol_mid.values)  # Psi(1) = 1


def test_iterate_uniform_sup_bound(params_mid, symbol_mid):
    sup0 = np.abs(symbol_mid.values).max()
    for n in range(1, params_mid.n_reflections + 1):
        out = iterate_symbol(symbol_mid, n, 1.0, params_mid)
        assert np.abs(out.values).max() <= 4.0 * sup0


def test_iterate_gives_zero_for_a_zero_symbol_or_outside_the_window(params_mid, symbol_mid):
    zero = make_symbol(params_mid, profile=lambda z: 0.0 * z)
    for n in range(params_mid.n_reflections + 1):
        assert not np.any(iterate_symbol(zero, n, 1.0, params_mid).values)
        for eta in (0.7, 1.3):  # Psi vanishes outside (0.8, 1.2)
            out = iterate_symbol(symbol_mid, n, eta, params_mid)
            assert not np.any(out.values) and not np.any(out.spectrum)


def test_iterate_rejects_low_frequency_regime(params_mid, symbol_mid):
    with pytest.raises(CuspError, match="regime"):
        iterate_symbol(symbol_mid, params_mid.n_reflections, 2e-2, params_mid)


# ---------------------------------------------------------------------------
# fields


def test_zero_symbol_gives_zero_field(params_mid):
    sym = make_symbol(params_mid, profile=lambda z: 0.0 * z)
    fld = CuspEvaluator(params_mid, 0, symbol=sym).field(0.0)
    assert np.abs(fld.values).max() == 0.0


def test_field_airy_reduction_vs_brute_quadrature():
    # coarse oracle: direct 2-D oscillatory quadrature of the defining integral
    # (h = 0.01: coarsest scale admitting a reflection; slightly narrowed core
    # keeps the mollified tail inside the support window at this tiny lambda)
    params = make_params(0.01, 0.1, 0.25)
    a, h = params.a, params.h
    sym = make_symbol(params, profile=lambda z: np.exp(-(z**2) / (2.0 * 0.18**2)))
    window = FrequencyWindow()
    x_pts = np.linspace(0.0, 1.6 * a, 9)
    ev = CuspEvaluator(params, 0, symbol=sym, x=x_pts)
    fld = ev.field(0.0)
    sel = np.abs(fld.y - fld.meta["y_center"]) <= 0.35
    y_pts = fld.y[sel][:: max(1, sel.sum() // 40)]

    s_nodes, s_w = np.polynomial.legendre.leggauss(700)
    s_max = 2.2 * math.sqrt(a)
    s_grid = s_nodes * s_max
    s_w = s_w * s_max
    eta_grid = np.linspace(*window.support, 601)
    d_eta = eta_grid[1] - eta_grid[0]
    # symbol argument at t = 0: z = s / sqrt(a) exactly
    rho_vals = np.interp(s_grid / math.sqrt(a), sym.z, sym.values.real)
    brute = np.zeros((x_pts.size, y_pts.size), dtype=complex)
    for ix, x in enumerate(x_pts):
        s_phase = (x - a) * s_grid + s_grid**3 / 3.0
        inner = np.exp(1j * np.outer(eta_grid, s_phase) / h) @ (s_w * rho_vals)
        brute[ix] = (window(eta_grid) * inner) @ np.exp(1j * np.outer(eta_grid, y_pts) / h) * d_eta
    reduced = fld.values[:, sel][:, :: max(1, sel.sum() // 40)]
    num = np.sqrt(np.sum(np.abs(reduced - brute) ** 2))
    den = np.sqrt(np.sum(np.abs(brute) ** 2))
    assert num / den <= 1e-3


def _field_values_oracle(ev, t, y_center=None):
    """The slice assembly as first written: row-wise cubic eta interpolation,
    fft of the conjugate, fftshift, then carrier and step."""
    a, h = ev.params.a, ev.params.h
    w = t / ev.params.time_unit - 2.0 * ev.n
    natural = t * math.sqrt(1.0 + a) - (4.0 / 3.0) * ev.n * a**1.5
    center = natural if y_center is None else y_center
    # S(x, eta; w): the single-cusp contraction of the Airy factor and the weights
    s = np.einsum("exk,ek->xe", ev._airy, ev._weights * np.exp(1j * ev.xi * w))
    pos = (ev.eta_dense - ev.eta[0]) / (ev.eta[1] - ev.eta[0])
    i = np.clip(pos.astype(int), 1, s.shape[1] - 3)
    tt = pos - i
    f_m1, f_0, f_1, f_2 = (s[:, i + k] for k in (-1, 0, 1, 2))
    b = -f_m1 / 3.0 - f_0 / 2.0 + f_1 - f_2 / 6.0
    c = (f_m1 - 2.0 * f_0 + f_1) / 2.0
    d = (-f_m1 + 3.0 * f_0 - 3.0 * f_1 + f_2) / 6.0
    s_dense = f_0 + tt * (b + tt * (c + tt * d))
    if center != natural:
        s_dense = s_dense * np.exp(1j * (ev.eta_dense / h) * (center - natural))
    deta = ev.eta_dense[1] - ev.eta_dense[0]
    padded = np.zeros((s.shape[0], ev.n_fft), dtype=complex)
    padded[:, : ev.eta_dense.size] = s_dense
    summed = np.fft.fftshift(np.fft.fft(padded.conj(), axis=1).conj(), axes=1)
    offsets = np.fft.fftshift(np.fft.fftfreq(ev.n_fft) * ev.n_fft) * (2.0 * math.pi * h / (ev.n_fft * deta))
    return summed * np.exp(1j * (ev.eta_dense[0] / h) * offsets) * deta, offsets, center


@pytest.mark.parametrize("n", [0, 1])
def test_field_values_match_direct_assembly(n):
    params = make_params(2.0**-12, 0.1, 0.25)
    root = params.time_unit / 2.0
    ev = CuspEvaluator(params, n, n_x=40)
    t = (4.0 * n + 0.6) * root
    natural = ev.field_values(t)[2]
    for y_center in (None, natural + 0.3 * root):
        vals, offsets, center = ev.field_values(t, y_center)
        ref_vals, ref_offsets, ref_center = _field_values_oracle(ev, t, y_center)
        assert center == ref_center
        np.testing.assert_array_equal(offsets, ref_offsets)
        assert np.abs(vals - ref_vals).max() <= 1e-13 * np.abs(ref_vals).max()


def test_odd_n_fft_rejected(params_mid, symbol_mid):
    # the y-offset fftshift is folded into the signs (-1)^e, exact only for even n_fft
    with pytest.raises(CuspError, match="even"):
        CuspEvaluator(params_mid, 0, symbol=symbol_mid, n_fft=4095)


def test_field_x_localization():
    params = make_params(2.0**-18, 0.1, 0.25)
    fld = cusp_field(0, 0.0, params)
    # share of the L2 mass |u|^2 beyond x = 1.2 a, by trapezoid sums
    profile = (np.abs(fld.values) ** 2) @ trapezoid_weights(fld.y)
    wx = trapezoid_weights(fld.x)
    beyond = fld.x > 1.2 * params.a
    assert profile[beyond] @ wx[beyond] <= 2e-3 * (profile @ wx)


def test_field_time_disjointness():
    # at t in I_k only the k-th cusp contributes (lambda ~ 90 >= 50 here)
    params = make_params(2.0**-20, 0.1, 0.25)
    symbol = make_symbol(params)
    root = params.time_unit / 2.0
    k = 2
    t = 4.0 * k * root
    ev_k = CuspEvaluator(params, k, symbol=symbol)
    f_k = ev_k.field(t)
    for n in (k - 1, k + 1):
        f_n = CuspEvaluator(params, n, symbol=symbol).field(t, y_center=f_k.meta["y_center"])
        assert lr_norm(f_n, 2) <= 1e-3 * lr_norm(f_k, 2)


def test_field_essential_time_support(params_mid, symbol_mid):
    root = params_mid.time_unit / 2.0
    ev = CuspEvaluator(params_mid, 0, symbol=symbol_mid)
    peak = lr_norm(ev.field(0.0), 2)
    cutoff = 2.0 * root * (1.0 + params_mid.c0) * 1.1
    ts = np.linspace(cutoff, cutoff + 1.2 * root, 7)
    norms = [lr_norm(ev.field(t), 2) for t in ts]
    assert all(b < a_ for a_, b in zip(norms, norms[1:]))
    tail_sq = np.trapezoid(np.array(norms) ** 2, ts)
    window_ts = np.linspace(0.0, cutoff, 25)
    window_sq = np.trapezoid([lr_norm(ev.field(t), 2) ** 2 for t in window_ts], window_ts)
    assert tail_sq <= 0.05 * window_sq


# ---------------------------------------------------------------------------
# traces and boundary cancellation


def test_trace_zero_symbol(params_mid):
    sym = make_symbol(params_mid, profile=lambda z: 0.0 * z)
    sig = trace(1, -1, 3.0 * params_mid.time_unit, params_mid, symbol=sym)
    assert np.abs(sig.values).max() == 0.0


def test_trace_argument_range_guard(params_mid, symbol_mid):
    with pytest.raises(CuspError, match="outside"):
        trace(0, -1, 10.0 * math.sqrt(params_mid.a), params_mid, symbol=symbol_mid)


def test_trace_support_shift(params_mid, symbol_mid):
    # I_pm maps the symbol support center by -sign: measure the t-centroid of
    # the trace energy in z-units
    root = params_mid.time_unit / 2.0
    for sign in (+1, -1):
        ev = TraceEvaluator(params_mid, 0, sign, symbol=symbol_mid)
        zs = np.linspace(-2.2, 2.2, 45)
        energy = []
        for z in zs:
            sig = ev.signal(z * 2.0 * root)
            energy.append(np.sum(np.abs(sig.values) ** 2) * (sig.y[1] - sig.y[0]))
        energy = np.array(energy)
        centroid = float(np.sum(zs * energy) / np.sum(energy))
        assert centroid == pytest.approx(-sign, abs=0.1)


def test_trace_plus_initial_cusp_lives_at_negative_times(params_mid, symbol_mid):
    root = params_mid.time_unit / 2.0
    ev = TraceEvaluator(params_mid, 0, +1, symbol=symbol_mid)
    t_in = -2.0 * root
    t_out = +2.0 * root
    e_in = np.sum(np.abs(ev.signal(t_in).values) ** 2)
    e_out = np.sum(np.abs(ev.signal(t_out).values) ** 2)
    assert e_out <= 1e-6 * e_in


def test_field_at_boundary_equals_trace_sum(params_mid, symbol_mid):
    root = params_mid.time_unit / 2.0
    n = 1
    t = (4.0 * n + 1.7) * root
    ev = CuspEvaluator(params_mid, n, symbol=symbol_mid, x=np.array([0.0]))
    fld = ev.field(t)
    sm = TraceEvaluator(params_mid, n, -1, symbol=symbol_mid, n_eta=1024).signal(t, y_center=fld.meta["y_center"])
    sp = TraceEvaluator(params_mid, n, +1, symbol=symbol_mid, n_eta=1024).signal(t, y_center=fld.meta["y_center"])
    err = np.abs(fld.values[0] - sm.values - sp.values).max()
    assert err <= 1e-3 * np.abs(fld.values[0]).max()


def test_boundary_residual_zero_symbol(params_mid):
    sym = make_symbol(params_mid, profile=lambda z: 0.0 * z)
    assert boundary_residual(0, params_mid, symbol=sym) == 0.0


def test_boundary_residual_small_and_decaying():
    ratios = {}
    for lam_target in (64.0, 128.0):
        h = lam_target ** (-1.0 / 0.325)
        params = make_params(h, 0.1, 0.25)
        ratios[lam_target] = boundary_residual(0, params)
        assert ratios[lam_target] <= 1e-3
    assert ratios[128.0] <= 0.5 * ratios[64.0]


def test_trace_clip_guard_raises_at_small_lambda():
    params = make_params(2.0**-14, 0.1, 0.25)  # lambda ~ 23: chi clips > 1%
    with pytest.raises(CuspError, match="clips"):
        trace(0, -1, 0.0, params)


def test_dirichlet_residual_at_moderate_lambda():
    params = make_params(2.0**-20, 0.1, 0.25)
    out = dirichlet_residual(params)
    assert out["ratio"] <= 1e-2
    assert out["n_reflections"] == params.n_reflections


def test_dirichlet_residual_builds_no_trace_without_times(monkeypatch):
    # at h=2^-20 the Tr_-(u^N) edge window keeps none of its 16 times in [0, 1],
    # so only the 2N pair evaluators and the Tr_+(u^0) edge are built
    built = []
    init = TraceEvaluator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[1:3])
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceEvaluator, "__init__", counting_init)
    params = make_params(2.0**-20, 0.1, 0.25)
    out = dirichlet_residual(params)
    assert len(built) == 2 * params.n_reflections + 1
    assert (params.n_reflections, -1) not in built
    assert out["ratio"] == pytest.approx(5.334465698191443e-06, rel=1e-12)
    built.clear()
    assert _pair_sums(params, 0, np.array([]), None) == (0.0, 0.0)  # returns before the symbol is read
    assert built == []


def test_dirichlet_residual_reports_edge_windows():
    # Tr_-(u^N) reaches into [0, 1] at h=2^-18 but keeps no time at 2^-20
    for e, inside in ((18, True), (20, False)):
        params = make_params(2.0**-e, 0.1, 0.25)
        out = dirichlet_residual(params)
        first, last = out["edges"]
        assert (first["n"], last["n"]) == (-1, params.n_reflections)
        assert first["n_times"] > 0 and first["l2"] > 0.0
        assert (last["n_times"] > 0) is inside
        assert (last["l2"] > 0.0) is inside
        assert [w["n"] for w in out["windows"]] == list(range(params.n_reflections))


def test_dirichlet_residual_sums_every_trace_with_one_weighting():
    # pair sums, edge traces and the scale are all plain sum_t sum_y |.|^2 dy
    # over 16 times per window; the edge traces carry no extra time step
    params = make_params(2.0**-20, 0.1, 0.25)
    symbol = make_symbol(params)
    root = params.time_unit / 2.0
    big_n = params.n_reflections
    steps = np.linspace(-1.2, 1.2, 16)

    def sq(values, y):
        return float(np.sum(np.abs(values) ** 2) * (y[1] - y[0]))

    def in_unit(t_grid):
        return t_grid[(t_grid >= 0.0) & (t_grid <= 1.0)]

    total_sq, scale_sq = 0.0, 0.0
    for n in range(big_n):
        tr_m = TraceEvaluator(params, n, -1, symbol=symbol)
        tr_p = TraceEvaluator(params, n + 1, +1, symbol=symbol)
        trace_sq = 0.0
        for t in in_unit((2.0 * n + 1.0 + steps) * 2.0 * root):
            sm = tr_m.signal(t)
            sp = tr_p.signal(t, y_center=sm.y_center)
            total_sq += sq(sm.values + sp.values, sm.y)
            trace_sq += sq(sm.values, sm.y)
        scale_sq = max(scale_sq, trace_sq)
    for n_edge, sign in ((0, +1), (big_n, -1)):
        t_grid = in_unit((2.0 * n_edge - sign + steps) * 2.0 * root)
        if t_grid.size:
            ev = TraceEvaluator(params, n_edge, sign, symbol=symbol)
            total_sq += sum(sq(sig.values, sig.y) for sig in map(ev.signal, t_grid))
    expected = math.sqrt(total_sq / scale_sq)
    assert dirichlet_residual(params)["ratio"] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# wave residual and mixed norms


def test_wave_residual_zero_symbol(params_mid):
    sym = make_symbol(params_mid, profile=lambda z: 0.0 * z)
    fld = wave_residual(0, 0.0, params_mid, symbol=sym)
    assert np.abs(fld.values).max() == 0.0


def test_wave_residual_to_field_ratio_trend():
    # residual/field L2 ratio trend ~ h^{-delta} within 20%
    ratios = []
    for e in (12, 16, 20):
        params = make_params(2.0**-e, 0.1, 0.25)
        sym = make_symbol(params)
        res = wave_residual(0, 0.0, params, symbol=sym)
        fld = CuspEvaluator(params, 0, symbol=sym).field(0.0)
        ratios.append((params.h, lr_norm(res, 2) / lr_norm(fld, 2)))
    lh = np.log([h for h, _ in ratios])
    lv = np.log([v for _, v in ratios])
    slope = np.polyfit(lh, lv, 1)[0]
    assert slope == pytest.approx(-0.45, abs=0.2 * 0.45)


def test_uh_mixed_norms_shape_and_checks():
    params = make_params(2.0**-14, 0.1, 0.25)
    out = uh_mixed_norms(params, (6.0, 8.0), samples_per_sqrt_a=9)
    assert out["inner"].shape == (2, out["times"].size)
    assert np.all(out["inner"] > 0) and out["l2_initial"] > 0
    assert len(out["third_cusp_fraction"]) == len(out["region_norms"]) == 2
    assert max(out["third_cusp_fraction"]) <= 1e-3


def test_uh_mixed_norms_streams_two_live_evaluators(monkeypatch):
    # h=2^-16 has N=3: the times run through four windows, each evaluator is
    # built once and dropped when t leaves its window, and the third-cusp check
    # runs while its two evaluators are still alive
    live, built = [0], []
    peak = [0]
    init = CuspEvaluator.__init__

    def freed():
        live[0] -= 1

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.n)
        live[0] += 1
        peak[0] = max(peak[0], live[0])
        weakref.finalize(self, freed)

    monkeypatch.setattr(CuspEvaluator, "__init__", counting_init)
    params = make_params(2.0**-16, 0.1, 0.25)
    assert params.n_reflections == 3
    out = uh_mixed_norms(params, (6.0,), samples_per_sqrt_a=9)
    assert sorted(built) == [0, 1, 2, 3]
    assert peak[0] <= 2
    assert out["third_cusp_fraction"][0] <= 1e-3


def _uh_mixed_norms_by_time(params, q, r, samples_per_sqrt_a):
    """The verdict loop as first streamed: one pass over the time samples with
    a lazily filled evaluator dict, eviction of passed windows and a
    third-cusp check (with a fallback after the loop) on wrapped fields."""
    root = params.time_unit / 2.0
    period = 4.0 * root
    big_n = params.n_reflections
    n_t = int(math.ceil(samples_per_sqrt_a / root)) + 1
    times = np.linspace(0.0, 1.0, n_t)
    symbol = make_symbol(params)
    evaluators = {}

    def get_ev(k):
        if k not in evaluators:
            evaluators[k] = CuspEvaluator(params, k, symbol=symbol)
        return evaluators[k]

    checks = {}
    k_chk = big_n // 2 if big_n >= 2 else None

    def third_cusp_check():
        t_chk = (4.0 * k_chk + 2.0) * root
        fld = get_ev(k_chk).field(t_chk)
        third = get_ev(k_chk - 1).field(t_chk, y_center=fld.meta["y_center"])
        checks["third_cusp_fraction"] = lr_norm(third, r) / max(lr_norm(fld, r), 1e-300)

    inner = np.empty(n_t)
    l2_initial = None
    for i, t in enumerate(times):
        k_lo = int(np.clip(math.floor(t / period), 0, big_n))
        k_hi = min(k_lo + 1, big_n)
        if k_lo == k_chk and not checks:
            third_cusp_check()
        for done in [k for k in evaluators if k < k_lo]:
            del evaluators[done]
        fld = get_ev(k_lo).field(t)
        vals = fld.values
        if k_hi != k_lo:
            vals = vals + get_ev(k_hi).field(t, y_center=fld.meta["y_center"]).values
        inner[i] = grid_lr_norm(vals, fld.x, fld.y, r)
        if i == 0:
            l2_initial = grid_lr_norm(vals, fld.x, fld.y, 2)
    lqlr = lqlr_norm(inner, times, float(q))
    if k_chk is not None and not checks:
        third_cusp_check()
    return {
        "lqlr": lqlr,
        "l2_initial": l2_initial,
        "n_time_samples": n_t,
        "checks": checks,
        "reliable": checks.get("third_cusp_fraction", 0.0) < 1e-3,
    }


@pytest.mark.parametrize("e, samples, q", [(12, 3, 14.0 / 3.0), (16, 9, 6.0)])
def test_uh_mixed_norms_window_walk_matches_time_loop(e, samples, q):
    params = make_params(2.0**-e, 0.1, 0.25)
    out = uh_mixed_norms(params, (6.0,), samples_per_sqrt_a=samples)
    ref = _uh_mixed_norms_by_time(params, q, 6.0, samples)
    # the walk sums each pair before one y-assembly, the loop sums two
    # assembled slices: the norms agree to rounding, and so does the check,
    # which the walk takes from norm-only slices and the loop from full fields
    assert lqlr_norm(out["inner"][0], out["times"], q) == pytest.approx(ref["lqlr"], rel=1e-12, abs=0.0)
    assert out["l2_initial"] == pytest.approx(ref["l2_initial"], rel=1e-12, abs=0.0)
    assert out["times"].size == ref["n_time_samples"]
    [third] = out["third_cusp_fraction"]
    assert third == pytest.approx(ref["checks"]["third_cusp_fraction"], rel=1e-12, abs=0.0)
    # the same norm-only slices of fresh evaluators give the walk's check exactly
    k_chk = params.n_reflections // 2
    t_chk = (2.0 * k_chk + 1.0) * params.time_unit  # the gap apex between u^{k_chk} and u^{k_chk + 1}
    lo = CuspEvaluator(params, k_chk - 1)
    hi = CuspEvaluator(params, k_chk, symbol=lo.symbol)
    own, _, center = hi.field_values(t_chk, r_list=(6.0,))
    below = lo.field_values(t_chk, center, r_list=(6.0,))[0]
    wx = trapezoid_weights(lo.x)
    assert third == rows_norm(below[0], wx, 6.0) / rows_norm(own[0], wx, 6.0)


@pytest.mark.parametrize("e, k, shifted, shared", [
    pytest.param(12, 0, False, False, id="12-0-False"),
    pytest.param(12, 1, False, False, id="12-1-False"),
    pytest.param(16, 2, False, False, id="16-2-False"),
    pytest.param(16, 2, True, False, id="16-2-True"),
    pytest.param(12, 1, False, True, id="12-1-False-shared"),
    pytest.param(16, 2, True, True, id="16-2-True-shared"),
])
def test_pair_slice_is_the_sum_of_its_single_slices(e, k, shifted, shared):
    # window k pairs u^k with u^{k+1}; the partner always sits (4/3) a^{3/2}
    # off self's centre, and a given y_center moves self's samples too; the
    # shared ids let hi read lo's held Airy factor (or the factor that lo
    # views), as the window walk does, and the others clear the slot so that
    # hi fills its own
    params = make_params(2.0**-e, 0.1, 0.25)
    assert k < params.n_reflections
    root = params.time_unit / 2.0
    lo = CuspEvaluator(params, k, n_x=40)
    if not shared:
        _HELD.entry = None
    hi = CuspEvaluator(params, k + 1, n_x=40, symbol=lo.symbol)
    assert np.shares_memory(hi._airy, lo._airy) == shared
    t = (4.0 * k + 1.3) * root
    y_center = lo.field_values(t)[2] + 0.3 * root if shifted else None
    pair, offsets, center = lo.field_values(t, y_center, partner=hi)
    single, single_offsets, single_center = lo.field_values(t, y_center)
    expected = single + hi.field_values(t, center)[0]
    assert center == single_center
    np.testing.assert_array_equal(offsets, single_offsets)
    assert np.abs(hi.field_values(t, center)[0]).max() > 0.1 * np.abs(single).max()
    assert np.abs(pair - expected).max() <= 1e-12 * np.abs(expected).max()


def test_reflected_cusps_share_one_airy_factor():
    # the Airy factor does not depend on n: at 2^-12 the n >= 1 xi range is a
    # contiguous run of the wider n = 0 range, so evaluators 1 and 2 read a
    # column view of the factor that evaluator 0 filled, and each slices exactly
    # as one that filled its own factor
    params = make_params(2.0**-12, 0.1, 0.25)
    root = params.time_unit / 2.0
    _HELD.entry = None
    ev0 = CuspEvaluator(params, 0, n_x=40)
    ev1 = CuspEvaluator(params, 1, n_x=40, symbol=ev0.symbol)
    ev2 = CuspEvaluator(params, 2, n_x=40, symbol=ev0.symbol)
    assert ev1.xi.size < ev0.xi.size
    assert np.shares_memory(ev1._airy, ev0._airy)
    assert np.shares_memory(ev2._airy, ev1._airy)
    for ev in (ev1, ev2):
        _HELD.entry = None
        fresh = CuspEvaluator(params, ev.n, n_x=40, symbol=ev0.symbol)
        assert not np.shares_memory(fresh._airy, ev._airy)
        for t in ((4.0 * ev.n + 0.6) * root, (4.0 * ev.n - 1.3) * root):
            np.testing.assert_array_equal(ev.field_values(t)[0], fresh.field_values(t)[0])


def test_field_and_residual_share_the_held_factor():
    # cusp_field then wave_residual at one h: the key is lam and the grids, so
    # two params objects made separately still share one factor, and each
    # evaluator slices exactly as one that filled its own factor
    p1, p2 = make_params(2.0**-12, 0.1, 0.25), make_params(2.0**-12, 0.1, 0.25)
    assert p1 == p2 and p1 is not p2
    field = CuspEvaluator(p1, 0, n_x=40)
    residual = CuspEvaluator(p2, 0, n_x=40, second_deriv=True)
    assert np.shares_memory(field._airy, residual._airy)
    assert not field._airy.flags.writeable
    for ev in (field, residual):
        _HELD.entry = None
        fresh = CuspEvaluator(p1, 0, n_x=40, second_deriv=ev.second_deriv)
        assert not np.shares_memory(fresh._airy, ev._airy)
        for t in (0.0, 0.4):
            np.testing.assert_array_equal(ev.field_values(t)[0], fresh.field_values(t)[0])


def test_a_new_fill_frees_the_held_factor_first(monkeypatch):
    # a build at another h drops the held factor before its Airy table is made,
    # so the old and the new factor never coexist
    old = CuspEvaluator(make_params(2.0**-12, 0.1, 0.25), 0, n_x=40)
    held = weakref.ref(old._airy)
    del old
    assert held() is not None
    freed = []
    init = AiryTable.__init__

    def spy(self, *args, **kwargs):
        freed.append(held() is None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AiryTable, "__init__", spy)
    CuspEvaluator(make_params(2.0**-14, 0.1, 0.25), 0, n_x=40)
    assert freed == [True]


def test_the_walk_releases_its_held_factor(monkeypatch):
    # the walk's factors (77 MiB each at 2^-10) are all gone once it returns,
    # while a single field keeps its factor held for the wave residual after it
    factors = []
    init = CuspEvaluator.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        factors.append(weakref.ref(self._airy))

    monkeypatch.setattr(CuspEvaluator, "__init__", spy)
    params = make_params(2.0**-10, 0.1, 0.25)
    uh_mixed_norms(params, (6.0,), samples_per_sqrt_a=3)
    assert len(factors) == params.n_reflections + 1
    assert all(factor() is None for factor in factors)
    assert _HELD.entry is None
    cusp_field(0, 0.0, params, n_x=40)
    assert _HELD.entry is not None
    _HELD.entry = None


def test_each_thread_holds_its_own_factor():
    # two workers at different h alternate their builds; each keeps its own
    # slot, so neither evicts the other's factor and the caller's slot is untouched
    _HELD.entry = None
    params = {e: make_params(2.0**-e, 0.1, 0.25) for e in (12, 14)}
    both_filled = threading.Barrier(2, timeout=120)
    shared = {}

    def work(e):
        first = CuspEvaluator(params[e], 0, n_x=40)
        both_filled.wait()
        shared[e] = np.shares_memory(first._airy, CuspEvaluator(params[e], 0, n_x=40, second_deriv=True)._airy)

    workers = [threading.Thread(target=work, args=(e,)) for e in params]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert shared == {12: True, 14: True}
    assert _HELD.entry is None


def test_field_and_trace_xi_cuts_are_deliberate():
    # one spectral set-up, two cuts: the field keeps the 1e-13 cut, trimmed for
    # n > 0 at the reflection cutoff 2c max(eta) lam (the width of its view of
    # the shared Airy factor); the trace keeps the wider 1e-14 cut, untrimmed
    params = make_params(2.0**-20, 0.1, 0.25)
    symbol = make_symbol(params)
    field_xi = CuspEvaluator(params, 0, n_x=40, symbol=symbol).xi
    trace_xi = TraceEvaluator(params, 0, -1, symbol=symbol).xi
    assert np.all(np.diff(field_xi) > 0) and np.all(np.diff(trace_xi) > 0)
    assert trace_xi[0] < field_xi[0] and field_xi[-1] < trace_xi[-1]
    np.testing.assert_array_equal(trace_xi[(trace_xi >= field_xi[0]) & (trace_xi <= field_xi[-1])], field_xi)

    params = make_params(2.0**-18, 0.1, 0.25)
    symbol = make_symbol(params)
    cutoff = 2.0 * ReflectionKernel.chi_flat * FrequencyWindow().support[1] * params.lam
    assert cutoff == pytest.approx(34.6, abs=0.05)
    field_xi = CuspEvaluator(params, 1, n_x=40, symbol=symbol).xi
    trace_xi = TraceEvaluator(params, 1, +1, symbol=symbol).xi
    assert np.abs(field_xi).max() <= cutoff < np.abs(trace_xi).max()


def test_cusp_norms_are_lambda_similar():
    # h enters a slice only through the weights' h^{1/3} and the y-scale, so at equal
    # lam = a^{3/2}/h = 2^5.2 the norms rescaled by h^{1/3+1/r} a^{1/r} agree at t = 0 and
    # for a (u^0 + u^1) pair slice at equal tau = t / time_unit; a grid rule in h breaks this
    r_list = (2.0, 6.0, math.inf)
    rescaled = []
    for e, epsilon in ((16, 0.1), (13, 0.2)):
        params = make_params(2.0**-e, epsilon, 0.25)
        _HELD.entry = None
        lo = CuspEvaluator(params, 0)
        hi = CuspEvaluator(params, 1, symbol=lo.symbol)
        wx = trapezoid_weights(lo.x)
        slices = (lo.field_values(0.0, r_list=r_list)[0],
                  lo.field_values(1.4 * params.time_unit, partner=hi, r_list=r_list)[0])
        rescaled.append([rows_norm(p, wx, r) / (params.h ** (1.0 / 3.0 + 1.0 / r) * params.a ** (1.0 / r))
                         for powers in slices for p, r in zip(powers, r_list)])
    _HELD.entry = None
    assert rescaled[0][0] > 0.0
    np.testing.assert_allclose(rescaled[0], rescaled[1], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("e", [10, 20, 30])
def test_keep_tol_cut_drops_at_most_n_z_tol(e):
    # the a-priori bound that stands in for a dropped-mass audit: every sample
    # beyond the cut is at most _KEEP_TOL of the peak, so at most n_z _KEEP_TOL
    # of the |rhohat| mass goes, far below 1e-3 even at symbol_grid's 2^18 cap
    params = make_params(2.0**-e, 0.1, 0.25)
    symbol = make_symbol(params)
    xi = _spectral_setup(params, 0, symbol, np.ones(1), _KEEP_TOL)[0]
    mod = np.abs(symbol.spectrum)
    outside = np.abs(symbol.xi) > np.abs(xi).max()
    assert outside.any()
    assert mod[outside].max() <= _KEEP_TOL * mod.max()
    assert mod[outside].sum() / mod.sum() <= symbol.xi.size * _KEEP_TOL
    assert symbol.xi.size <= 1 << 18 and (1 << 18) * _KEEP_TOL < 1e-3


def test_airy_factor_memory_does_not_grow_with_reflections():
    # at 2^-22 the reflection cutoff is wider than the 1e-13 spectral cut, so
    # the whole chain n = 0..N holds one factor buffer
    params = make_params(2.0**-22, 0.1, 0.25)
    chain = [CuspEvaluator(params, 0, n_x=40)]
    for n in range(1, params.n_reflections + 1):
        chain.append(CuspEvaluator(params, n, n_x=40, symbol=chain[0].symbol))
    assert len(chain) == 9
    assert all(np.shares_memory(ev._airy, chain[0]._airy) for ev in chain)


@pytest.mark.parametrize("e", [10, 12, 14, 16, 18, 22, 26])
def test_reflected_cusp_views_equal_their_own_fills_in_any_build_order(e):
    # u^1 built after u^0 reads a column view of u^0's factor (the whole of it once the
    # reflection cutoff is wider than the spectral cut, at 2^-22 and below); built first, on a
    # cleared slot, it fills its own columns, and the two are equal bit for bit, so no output
    # depends on whether u^0 was built first; u^0 built after u^1 gets the factor it gets first
    params = make_params(2.0**-e, 0.1, 0.25)
    _HELD.entry = None
    ev0 = CuspEvaluator(params, 0, n_x=40)
    ev1 = CuspEvaluator(params, 1, n_x=40, symbol=ev0.symbol)
    assert np.shares_memory(ev1._airy, ev0._airy)
    assert (ev1._airy is ev0._airy) == (ev1.xi.size == ev0.xi.size)
    _HELD.entry = None
    alone = CuspEvaluator(params, 1, n_x=40, symbol=ev0.symbol)
    after = CuspEvaluator(params, 0, n_x=40, symbol=ev0.symbol)
    _HELD.entry = None
    assert not np.shares_memory(alone._airy, ev1._airy)
    np.testing.assert_array_equal(alone._airy, ev1._airy)
    np.testing.assert_array_equal(after._airy, ev0._airy)


def test_the_walk_fills_one_airy_factor_per_h(monkeypatch):
    # every evaluator of a walk reads the factor that u^0 filled, so two walks
    # make two Airy tables (four when n >= 1 filled its own at 2^-10 and 2^-12)
    tables, init = [], AiryTable.__init__

    def spy(self, *args):
        init(self, *args)
        tables.append(self)

    monkeypatch.setattr(AiryTable, "__init__", spy)
    for e in (10, 12):
        uh_mixed_norms(make_params(2.0**-e, 0.1, 0.25), (6,), samples_per_sqrt_a=3)
    assert len(tables) == 2


def test_the_walk_peaks_at_one_airy_factor_and_its_slices():
    # at 2^-10 the u^0 factor is 77.0 MiB, and u^1 views it: the walk peaks
    # 18.9 MiB above it (the held contraction blocks, a row block of a slice,
    # the symbol and the small tables); a second fill for u^1 read 108.0 MiB
    params = make_params(2.0**-10, 0.1, 0.25)
    factor_bytes = 8 * 160 * 320 * CuspEvaluator(params, 0, n_x=8).xi.size
    _HELD.entry = None
    tracemalloc.start()
    try:
        uh_mixed_norms(params, (6,), samples_per_sqrt_a=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _HELD.entry = None
    assert peak <= factor_bytes + 20 * 2**20


def test_uh_mixed_norms_memory_guard():
    # the n = 0 Airy factor sets the peak: it is stored real, and every reflected
    # cusp reads a view of it (89.6 MiB; 107.2 MiB when n >= 1 filled its own,
    # and stored complex the same walk peaks at 240 MiB)
    params = make_params(2.0**-12, 0.1, 0.25)
    tracemalloc.start()
    try:
        uh_mixed_norms(params, (6,), samples_per_sqrt_a=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 115 * 2**20  # 129.5 MiB when each slice was formed whole


def test_held_factor_memory_guard():
    # the field and its wave residual at 2^-10 share one fill, and the held
    # factor is dropped before the fill at 2^-12: the sequence peaks no higher
    # than one field at 2^-10 alone (121.0 MiB when each call filled its own)
    p10, p12 = make_params(2.0**-10, 0.1, 0.25), make_params(2.0**-12, 0.1, 0.25)
    tracemalloc.start()
    try:
        cusp_field(0, 0.0, p10, n_x=320)
        wave_residual(0, 0.0, p10, n_x=320)
        cusp_field(0, 0.0, p12, n_x=320)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _HELD.entry = None
    assert peak <= 121.0 * 2**20


def test_uh_mixed_norms_holds_one_row_block_at_a_time():
    # at 2^-10 (N = 1) the walk peaks within both Airy factors' room (one is
    # filled since u^1 views u^0's; see the test below), the two held
    # contraction blocks, one (16, n_fft) row block of a slice, plus 6 MiB for
    # the symbol and the evaluators' small tables; forming each slice whole
    # with its (n_x, n_eta_dense) samples read 130.3 MiB
    params = make_params(2.0**-10, 0.1, 0.25)
    xi_sizes = [CuspEvaluator(params, n, n_x=8).xi.size for n in (0, 1)]
    _HELD.entry = None
    n_x, n_eta, n_fft = 320, 160, 4096
    bound = (8 * n_eta * n_x * (sum(xi_sizes) + 2 * 2 * _BATCH)
             + 16 * 16 * n_fft + 6 * 2**20)
    tracemalloc.start()
    try:
        uh_mixed_norms(params, (6,), samples_per_sqrt_a=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _HELD.entry = None
    assert peak <= bound


@pytest.mark.parametrize("e", [10, 12])
@pytest.mark.parametrize("kind", ["single", "pair", "shifted"])
def test_norm_only_slice_equals_the_full_one(e, kind):
    # the norm-only slice reduces each row block as it is assembled and leaves
    # out the unimodular carrier: its row powers are those of the full slice up
    # to rounding, for every r and for the row max; 40 rows end in a partial block
    params = make_params(2.0**-e, 0.1, 0.25)
    root = params.time_unit / 2.0
    lo = CuspEvaluator(params, 0, n_x=40)
    hi = CuspEvaluator(params, 1, n_x=40, symbol=lo.symbol)
    t = 1.3 * root
    y_center = lo.field_values(t)[2] + 0.3 * root if kind == "shifted" else None
    partner = None if kind == "single" else hi
    r_list = (2, 5, 6, 8, math.inf)
    values, offsets, center = lo.field_values(t, y_center, partner)
    powers, norm_offsets, norm_center = lo.field_values(t, y_center, partner, r_list=r_list)
    assert norm_center == center
    np.testing.assert_array_equal(norm_offsets, offsets)
    assert powers.shape == (len(r_list), 40)
    wy = trapezoid_weights(center + offsets)
    for row, r in zip(powers, r_list):
        np.testing.assert_allclose(row, row_powers(values, wy, r), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("r", [6, math.inf])
@pytest.mark.parametrize("broken", ["self", "partner"])
def test_norm_only_slice_checks_its_samples_finite(r, broken):
    # a NaN in the spectral weights reaches every sample of its cusp; the fused
    # reduction checks each block finite before its powers are summed
    params = make_params(2.0**-12, 0.1, 0.25)
    lo = CuspEvaluator(params, 0, n_x=40)
    hi = CuspEvaluator(params, 1, n_x=40, symbol=lo.symbol)
    (lo if broken == "self" else hi)._weights[80, 3] = np.nan
    with pytest.raises(NormError, match="non-finite field samples"):
        lo.field_values(0.5, partner=hi, r_list=(r,))
    with pytest.raises(NormError, match="r must be >= 1"):
        lo.field_values(0.5, partner=hi, r_list=(6, math.nan))


def test_airy_factor_fill_makes_no_argument_chunk():
    # the table fills the factor one eta row at a time from one reused (x, xi)
    # argument buffer, so a fill at 2^-10 peaks within 2 MiB of its 77 MiB
    # factor (factor + 39 MiB with (eta, 80, xi) argument chunks and a copy of each lookup)
    params = make_params(2.0**-10, 0.1, 0.25)
    ev = CuspEvaluator(params, 0, n_x=8)
    s = np.linspace(-1.0, 1.0, 320)
    _HELD.entry = None
    tracemalloc.start()
    try:
        factor = cw_cusp._airy_factor(params.lam, s, ev.eta, ev.xi, (ev.xi[0], ev.xi[-1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _HELD.entry = None
    assert factor.shape == (160, 320, ev.xi.size)
    assert peak <= factor.nbytes + 2 * 2**20


@pytest.mark.parametrize("e", [10, 22])
def test_airy_factor_equals_the_broadcast_formula(monkeypatch, e):
    # the row-by-row fill equals one lookup of the whole (eta, x, xi) argument array, bit for bit;
    # u^1's own fill, on its trimmed xi, looks up the same table as u^0's (both sized by the span
    # of the untrimmed cut), so it equals the formula on u^0's table too
    params = make_params(2.0**-e, 0.1, 0.25)
    tables, init = [], AiryTable.__init__

    def spy(self, *args):
        init(self, *args)
        tables.append(self)

    monkeypatch.setattr(AiryTable, "__init__", spy)
    evaluators = []
    for n in (0, 1):
        _HELD.entry = None
        evaluators.append(CuspEvaluator(params, n, n_x=48, symbol=evaluators[0].symbol if n else None))
    _HELD.entry = None
    assert len(tables) == 2
    assert (tables[1].lo, tables[1].hi, tables[1].step) == (tables[0].lo, tables[0].hi, tables[0].step)
    omega = evaluators[0].eta * params.lam
    s = evaluators[0].x / params.a - 1.0  # x = a (1 + s)
    for ev in evaluators:
        expected = tables[0](omega[:, None, None] ** (2.0 / 3.0) * s[None, :, None]
                             + omega[:, None, None] ** (-1.0 / 3.0) * ev.xi)
        assert np.array_equal(ev._airy.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("rows", [(50,), ()])
def test_transform_equals_one_zero_padded_ifft(rows):
    # a field slice is transformed in blocks of 16 rows, and 50 rows end in a
    # partial block; a trace signal is one row: each equals one zero-padded
    # inverse FFT of all its rows, bit for bit, in place
    eta = np.linspace(*FrequencyWindow().support, 1024)
    assembly = cw_cusp._YAssembly(eta, 2.0**-12, 4096)
    rng = np.random.default_rng(3)
    samples = rng.normal(size=rows + (1024,)) + 1j * rng.normal(size=rows + (1024,))
    padded = np.zeros(rows + (4096,), dtype=complex)
    padded[..., :1024] = samples
    expected = np.fft.ifft(padded, axis=-1, norm="forward")
    got = np.full(rows + (4096,), np.nan, dtype=complex)  # the tail must be zeroed
    got[..., :1024] = samples
    blocks = [got[i : i + assembly.step] for i in range(0, rows[0], assembly.step)] if rows else [got]
    for block in blocks:
        assert assembly.transform(block) is block
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_trace_signal_is_the_transform_times_carrier_and_deta():
    # the trace's one row of eta samples is transformed, then multiplied by the
    # carrier and by deta, in that order, bit for bit, in a fresh array per signal
    params = make_params(2.0**-18, 0.1, 0.25)
    root = params.time_unit / 2.0
    t = 2.7 * 2.0 * root
    ev = cw_cusp.TraceEvaluator(params, 1, -1)
    padded = np.zeros(4096, dtype=complex)
    padded[: ev.eta.size] = ev._weights @ np.exp(1j * ev.xi * (t / (2.0 * root) - 2.0))  # w = 0.7 past u^1
    expected = ev._y.transform(padded) * ev._y.carrier * ev._y.deta
    got = ev.signal(t).values
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert not np.shares_memory(got, ev._y.carrier)
    assert not np.shares_memory(got, ev.signal(t).values)


@pytest.mark.parametrize("opts", [{}, {"n_x": 48}, {"n_eta_dense": 512}, {"n_fft": 2048}])
def test_banded_interpolation_equals_the_dense_matrix(opts):
    # the blocks of dense columns and their bands of coarse rows cover every
    # nonzero of the (n_eta, n_eta_dense) cubic matrix, whatever the grids
    ev = CuspEvaluator(make_params(2.0**-12, 0.1, 0.25), 0, **opts)
    covered = np.zeros(ev._interp.shape, dtype=bool)
    for rows, cols, band in ev._bands:
        covered[rows, cols] = True
        assert band.shape[0] <= 16
    assert not ev._interp[~covered].any()
    rng = np.random.default_rng(7)
    t = 0.3 * (ev.params.time_unit / 2.0)
    slice_rows = ev._coarse(t).transpose(2, 1, 0).reshape(-1, ev.eta.size)
    for coarse in (slice_rows, rng.normal(size=slice_rows.shape)):
        expected = coarse @ ev._interp
        assert np.abs(ev._interpolate(coarse) - expected).max() <= 1e-15 * np.abs(expected).max()


def _counting_contractions(monkeypatch, ffts=None):
    """Spies on the Airy contractions: the number of times each contracts, and
    whether it ran inside a CuspEvaluator.field_values call.  With ``ffts``
    given, each numpy.fft.ifft call appends whether it ran inside field_values
    and whether it ran inside make_symbol."""
    calls, depth = [], {"field": 0, "symbol": 0}
    contract = cw_cusp._contract

    def counting_contract(airy, weights, xi, w):
        calls.append((len(w), depth["field"] > 0))
        return contract(airy, weights, xi, w)

    def nested(key, fn):
        def wrapped(*args, **kwargs):
            depth[key] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[key] -= 1
        return wrapped

    monkeypatch.setattr(cw_cusp, "_contract", counting_contract)
    monkeypatch.setattr(CuspEvaluator, "field_values", nested("field", CuspEvaluator.field_values))
    if ffts is not None:
        ifft = np.fft.ifft

        def spied_ifft(*args, **kwargs):
            ffts.append((depth["field"] > 0, depth["symbol"] > 0))
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", spied_ifft)
        monkeypatch.setattr(cw_cusp, "make_symbol", nested("symbol", cw_cusp.make_symbol))
    return calls


@pytest.mark.parametrize("with_partner", [False, True])
def test_batched_slices_equal_single_slices(monkeypatch, with_partner):
    # window 0 at 2^-12 with 11 planned times runs two batches (8 + 3) per
    # evaluator; every slice equals the unplanned one, and no more than one
    # block of at most _BATCH times is held at once
    params = make_params(2.0**-12, 0.1, 0.25)
    root = params.time_unit / 2.0
    times = np.linspace(0.0, 4.0 * root, 12)[:-1]
    lo = CuspEvaluator(params, 0, n_x=40, times=times)
    hi = CuspEvaluator(params, 1, n_x=40, symbol=lo.symbol, times=times) if with_partner else None
    ref_lo = CuspEvaluator(params, 0, n_x=40, symbol=lo.symbol)
    ref_hi = CuspEvaluator(params, 1, n_x=40, symbol=lo.symbol) if with_partner else None
    calls = _counting_contractions(monkeypatch)
    for t in times:
        vals, offsets, center = lo.field_values(t, partner=hi)
        for ev in (lo, hi) if with_partner else (lo,):
            assert ev._held is None or ev._held[1].shape[-1] <= 2 * _BATCH
        ref = ref_lo.field_values(t, partner=ref_hi)
        np.testing.assert_array_equal(offsets, ref[1])
        assert center == ref[2]
        assert np.abs(vals - ref[0]).max() <= 1e-14 * np.abs(ref[0]).max()
    assert lo._held is None and lo._planned == []
    per_evaluator = 2 if with_partner else 1
    assert sorted(m for m, _ in calls if m > 1) == [3] * per_evaluator + [_BATCH] * per_evaluator


def test_held_block_is_capped_at_batch_times():
    # at 160 eta x 320 x nodes a batch of 8 times holds 6.25 MiB, whatever the window length
    params = make_params(2.0**-12, 0.1, 0.25)
    root = params.time_unit / 2.0
    times = np.linspace(0.0, 8.0 * root, 40)
    ev = CuspEvaluator(params, 1, times=times)
    held = 0
    for t in times[:20]:
        ev.field_values(t)
        if ev._held is not None:
            held += 1
            assert ev._held[1].shape == (160, 320, 2 * _BATCH)
            assert ev._held[1].nbytes <= 6.25 * 2**20
    assert held == 20 - 20 // _BATCH  # dropped after the last time of each batch


def _walk_contractions(e, samples):
    """The contractions that the window walk should run: one per batch of
    planned times per evaluator (evaluator k serves windows k - 1 and k), plus
    one per cusp of the third-cusp check."""
    params = make_params(2.0**-e, 0.1, 0.25)
    root = params.time_unit / 2.0
    big_n = params.n_reflections
    times = np.linspace(0.0, 1.0, int(math.ceil(samples / root)) + 1)
    windows = np.clip(np.floor(times / (4.0 * root)), 0, big_n).astype(int)
    served = [np.count_nonzero((windows == k - 1) | (windows == k))
              for k in range(min(big_n, windows[-1] + 1) + 1)]
    return params, sum(-(-count // _BATCH) for count in served) + (2 if big_n >= 2 else 0)


@pytest.fixture(scope="module")
def walk_ffts():
    """Filled by :func:`spied_walk`: (inside field_values, inside make_symbol) per ifft call."""
    return []


@pytest.fixture(scope="module")
def spied_walk(walk_ffts):
    params, expected = _walk_contractions(16, 9)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _counting_contractions(monkeypatch, walk_ffts)
        out = uh_mixed_norms(params, (6.0,), samples_per_sqrt_a=9)
    return out, calls, expected


def test_uh_mixed_norms_contracts_once_per_batch(spied_walk):
    # the t = 0 region split takes its contraction from the first batch of the
    # walk, so it adds none; the two slices of the third-cusp check add one each
    out, calls, expected = spied_walk
    assert out["region_norms"] and out["third_cusp_fraction"][0] < 1e-3
    assert len(calls) == expected
    assert max(m for m, _ in calls) == _BATCH


def test_every_walk_contraction_runs_inside_field_values(spied_walk):
    # the benchmark attributes the slice work to CuspEvaluator.field_values,
    # so the batched contractions must run inside that call
    _, calls, _ = spied_walk
    assert calls and all(inside for _, inside in calls)


def test_every_walk_assembly_fft_runs_inside_field_values(spied_walk, walk_ffts):
    # the benchmark attributes the slice work to CuspEvaluator.field_values, so
    # every y-assembly FFT runs inside it too; the symbol's own FFTs are the only others
    assert any(inside for inside, _ in walk_ffts)
    assert all(inside or symbol for inside, symbol in walk_ffts)


@pytest.mark.parametrize("opts", [{"n_x": 48}, {"n_eta": 120}, {"n_eta_dense": 512}, {"n_fft": 2048}])
def test_partner_on_another_grid_rejected(opts):
    # a pair's coarse rows are interpolated through self's bands, so the
    # partner must share the coarse eta grid as well as the dense one
    params = make_params(2.0**-12, 0.1, 0.25)
    lo = CuspEvaluator(params, 0, n_x=40)
    hi = CuspEvaluator(params, 1, **{"n_x": 40, **opts}, symbol=lo.symbol)
    with pytest.raises(CuspError, match="partner.*eta"):
        lo.field_values(0.0, partner=hi)


def test_field_values_buffers_are_fresh():
    # the slices that callers hold are their own: a caller may keep two
    # slices of one time side by side and sum them in place, so no two
    # field_values calls may share a buffer
    params = make_params(2.0**-12, 0.1, 0.25)
    root = params.time_unit / 2.0
    lo = CuspEvaluator(params, 0, n_x=40)
    hi = CuspEvaluator(params, 1, n_x=40, symbol=lo.symbol)
    t = 2.0 * root
    first, _, center = lo.field_values(t)
    again = lo.field_values(t)[0]
    upper = hi.field_values(t, center)[0]
    assert not np.shares_memory(first, again)
    assert not np.shares_memory(first, upper)
    before = upper.copy()
    first += upper
    np.testing.assert_array_equal(upper, before)
    np.testing.assert_array_equal(again, lo.field_values(t)[0])


def test_reflection_count_reexported():
    assert reflection_count(1e-4, 0.45) == 2


def test_window_integral_matches_flat_decomposition():
    # inside one measurement window the L^q time integral of |u^k|_r matches
    # |I_k| times the center value within 10% (the window-decomposition shape)
    params = make_params(2.0**-16, 0.1, 0.25)
    sym = make_symbol(params)
    root = params.time_unit / 2.0
    k, q, r = 1, 6.0, 6.0
    ev = CuspEvaluator(params, k, symbol=sym)
    half = params.c0 * root
    times = np.linspace(4 * k * root - half, 4 * k * root + half, 9)
    inner = np.array([lr_norm(ev.field(t), r) for t in times])
    integral = np.trapezoid(inner**q, times)
    flat = 2.0 * half * lr_norm(ev.field(4 * k * root), r) ** q
    assert integral == pytest.approx(flat, rel=0.10)


def test_field_grid_refinement_stability():
    # doubling every resolution knob moves reported norms by <= 0.5%
    params = make_params(2.0**-16, 0.1, 0.25)
    sym = make_symbol(params)
    coarse = CuspEvaluator(params, 0, symbol=sym).field(0.0)
    fine = CuspEvaluator(params, 0, symbol=sym, n_x=640, n_eta=320,
                         n_eta_dense=2048, n_fft=8192).field(0.0)
    for r in (2, 6):
        assert lr_norm(coarse, r) == pytest.approx(lr_norm(fine, r), rel=5e-3)
