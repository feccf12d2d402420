"""Gallery modes, flows, norm equivalence and quotients."""

import math

import numpy as np
import pytest

from convexwave.airy import ai, airy_zeros
from convexwave.fields import FrequencyWindow, make_transverse_grid, trapezoid_weights
from convexwave.gallery import (
    GalleryError,
    TransverseFlow,
    _ModeSynthesis,
    coherent_state,
    default_x_grid,
    eigenvalue,
    evolve,
    gallery_mode,
    make_mode_spec,
    norm_equivalence,
    strichartz_quotient,
)
from convexwave.normlab import grid_lr_norm, lqlr_norm, lr_norm


@pytest.fixture(scope="module")
def small_setup():
    h = 2.0**-9
    grid = make_transverse_grid(h, -1.0, 1.0)
    phi = coherent_state(1.0, h, grid)
    spec = make_mode_spec(0, h, phi, grid)
    return h, grid, phi, spec


def test_coherent_state_norms(small_setup):
    h, grid, phi, _ = small_setup
    l2 = math.sqrt(np.sum(np.abs(phi) ** 2) * grid.dy)
    assert l2 == pytest.approx(math.pi**0.25, abs=1e-6)
    assert np.abs(phi).max() == pytest.approx(h**-0.25, rel=1e-12)


def test_coherent_state_lr_norm_scaling():
    # |phi|_{L^r} = h^{-1/4 + 1/(2r)} (2 pi / r)^{1/(2r)} within 1%
    r = 6.0
    for h in (2.0**-8, 2.0**-12):
        grid = make_transverse_grid(h, -1.0, 1.0)
        phi = coherent_state(1.0, h, grid)
        lr = (np.sum(np.abs(phi) ** r) * grid.dy) ** (1.0 / r)
        ref = h ** (-0.25 + 1.0 / (2 * r)) * (2.0 * math.pi / r) ** (1.0 / (2 * r))
        assert lr == pytest.approx(ref, rel=0.01)


def test_coherent_state_h_one_centered():
    grid = make_transverse_grid(1.0, -12.0, 12.0, eta_max=2.0)
    phi = coherent_state(1.0, 1.0, grid)
    centroid = np.sum(grid.y * np.abs(phi) ** 2) / np.sum(np.abs(phi) ** 2)
    assert abs(centroid) < 1e-12


def test_coherent_state_requires_wide_grid():
    h = 0.25
    grid = make_transverse_grid(h, -1.5 * math.sqrt(h), 1.5 * math.sqrt(h), eta_max=3.0)
    with pytest.raises(GalleryError, match="tail"):
        coherent_state(1.0, h, grid)


def test_eigenvalue_formula_and_monotonicity():
    zeros = airy_zeros(4)
    for k in range(4):
        assert eigenvalue(k, 1.0) == pytest.approx(1.0 + zeros[k], rel=1e-12)
    assert eigenvalue(2, 1.3) > eigenvalue(1, 1.3) > eigenvalue(0, 1.3)
    with pytest.raises(GalleryError):
        eigenvalue(1, 0.0)


def test_zero_envelope_gives_zero_field(small_setup):
    h, grid, phi, _ = small_setup
    spec = make_mode_spec(0, h, np.zeros_like(phi), grid)
    fld = gallery_mode(spec)
    assert np.abs(fld.values).max() == 0.0


def test_dirichlet_trace(small_setup):
    _, _, _, spec = small_setup
    fld = gallery_mode(spec)
    assert fld.x[0] == 0.0
    assert np.abs(fld.values[0]).max() <= 1e-8 * np.abs(fld.values).max()


def test_ground_mode_single_interior_maximum(small_setup):
    _, _, _, spec = small_setup
    fld = gallery_mode(spec)
    profile = np.abs(fld.values[:, np.abs(fld.values).max(axis=0).argmax()])
    peak = profile.argmax()
    assert 0 < peak < profile.size - 1
    assert np.all(np.diff(profile[: peak + 1]) >= -1e-12 * profile.max())
    assert np.all(np.diff(profile[peak:]) <= 1e-12 * profile.max())


def test_evolve_identity_at_t_zero(small_setup):
    h, _, _, spec = small_setup
    flow = TransverseFlow("schrodinger", spec.omega_k, h)
    f0 = gallery_mode(spec)
    f1 = evolve(spec, flow, 0.0)
    assert np.max(np.abs(f0.values - f1.values)) == 0.0


def test_schrodinger_l2_conservation(small_setup):
    h, _, _, spec = small_setup
    flow = TransverseFlow("schrodinger", spec.omega_k, h)
    n0 = lr_norm(gallery_mode(spec), 2)
    nt = lr_norm(evolve(spec, flow, 0.2), 2)
    assert nt == pytest.approx(n0, rel=1e-10)
    # spectral multiplier has modulus one to machine precision
    mult = flow.multiplier(0.37, spec.grid.eta[np.abs(spec.grid.eta) > 0.5])
    assert np.max(np.abs(np.abs(mult) - 1.0)) < 1e-14


def test_halfwave_cosine_bounded_and_splits(small_setup):
    h, grid, phi, spec = small_setup
    flow = TransverseFlow("halfwave", spec.omega_k, h)
    n0 = lr_norm(gallery_mode(spec), 2)
    assert lr_norm(evolve(spec, flow, 0.15), 2) <= n0 * (1.0 + 1e-9)
    # two counter-propagating packets at group speed ~ G_w'(1) ~ 1
    t = 0.3
    fld = evolve(spec, flow, t)
    density = np.abs(fld.values).max(axis=0) ** 2
    y = fld.y
    right = y > 0.05
    left = y < -0.05
    c_right = np.sum(y[right] * density[right]) / np.sum(density[right])
    c_left = np.sum(y[left] * density[left]) / np.sum(density[left])
    step = 1e-5
    g = flow.symbol(np.array([1.0 - step, 1.0 + step]))
    group_speed = float((g[1] - g[0]) / (2 * step))
    assert c_right == pytest.approx(group_speed * t, rel=0.05)
    assert c_left == pytest.approx(-group_speed * t, rel=0.05)


def test_evolve_warns_outside_window(small_setup):
    h, _, _, spec = small_setup
    flow = TransverseFlow("schrodinger", spec.omega_k, h)
    with pytest.warns(UserWarning, match="unvalidated"):
        evolve(spec, flow, 1.7)


def test_norm_equivalence_bounded_over_h_sweep():
    ratios = {"lower": [], "upper": []}
    for e in (8, 10, 12, 14):
        h = 2.0**-e
        grid = make_transverse_grid(h, -1.0, 1.0)
        phi = coherent_state(1.0, h, grid)
        out = norm_equivalence(0, h, phi, grid, 2)
        ratios["lower"].append(out["lower_ratio"])
        ratios["upper"].append(out["upper_ratio"])
    for key in ratios:
        vals = np.array(ratios[key])
        assert np.all((vals > 0.4) & (vals < 25.0))
        assert vals.max() / vals.min() < 1.6  # h-independent sandwich constants


def test_norm_equivalence_max_norm_variant():
    h = 2.0**-10
    grid = make_transverse_grid(h, -1.0, 1.0)
    phi = coherent_state(1.0, h, grid)
    out = norm_equivalence(0, h, phi, grid, math.inf)
    assert 0.2 < out["lower_ratio"] < 30.0
    assert 0.2 < out["upper_ratio"] < 30.0


def test_energy_quotient_is_one():
    res = strichartz_quotient("schrodinger", "coherent", math.inf, 2, (0.0, 0.2),
                              [2.0**-8, 2.0**-10], n_t=9)
    for _, quotient in res.samples:
        assert quotient == pytest.approx(1.0, rel=1e-6)


def test_wave_gallery_quotient_no_worse_than_free():
    # thm2(2) direction: gallery data under the cosine flow stays at the free rate
    r = 6.0
    free_exponent = -(2.0 * (0.5 - 1.0 / r) - 1.0 / 6.0)
    res = strichartz_quotient("halfwave", "gaussian", 6.0, r, (0.0, 0.3),
                              [2.0**-8, 2.0**-10, 2.0**-12, 2.0**-13.58], n_t=13)
    assert res.fitted_exponent is not None
    assert res.fitted_exponent >= free_exponent - 0.05


def test_halfwave_multiplier_is_the_cosine_propagator(small_setup):
    h, _, _, spec = small_setup
    eta = spec.grid.eta[np.abs(spec.grid.eta) > 0.5]
    t = 0.2
    g_w = np.sqrt(eta**2 + spec.omega_k * h ** (2.0 / 3.0) * np.abs(eta) ** (4.0 / 3.0))
    mult = TransverseFlow("halfwave", spec.omega_k, h).multiplier(t, eta)
    assert mult.dtype == complex and not mult.imag.any()
    np.testing.assert_allclose(mult.real, np.cos(t * g_w / h), rtol=0.0, atol=1e-12)
    with pytest.raises(GalleryError, match="unknown flow kind"):
        TransverseFlow("halfwave_exp", spec.omega_k, h)


LEGS = [("schrodinger", "coherent"), ("halfwave", "gaussian")]


def _quotient_mode(flow_kind, data, h, t1=0.3):
    """(grid, spec, flow, x) as the quotient builds them for one h."""
    window = FrequencyWindow()
    if flow_kind == "schrodinger":
        y_lo, y_hi = -0.8, (2.0 + 2.0 * window.outer_halfwidth) * t1 + 0.8
    else:
        y_lo, y_hi = -(t1 + 0.9), t1 + 0.9
    grid = make_transverse_grid(h, y_lo, y_hi, eta_max=window.center + window.outer_halfwidth + 0.1,
                                oversample=1.6)
    if data == "coherent":
        envelope = coherent_state(1.0, h, grid)
    else:
        envelope = np.exp(1j * grid.y / h - grid.y**2 / 2.0)
    spec = make_mode_spec(0, h, envelope, grid, window=window)
    flow = TransverseFlow(kind=flow_kind, omega=airy_zeros(1)[0], h=h)
    return grid, spec, flow, default_x_grid(spec, n_x=120)


def _reference_quotient(flow_kind, data, q, r, t_window, h, n_t):
    """(lqlr, l2_initial, quotient) from a dense loop over the full Airy rows.

    Its own active mask, grid phase, zero-fill of all n_x rows and inverse FFT,
    and grid_lr_norm over the whole (x, y) rectangle.
    """
    t0, t1 = t_window
    grid, spec, flow, x = _quotient_mode(flow_kind, data, h, t1)
    arg = np.abs(grid.eta)[None, :] ** (2.0 / 3.0) * x[:, None] / h ** (2.0 / 3.0) - spec.omega_k
    base = spec.windowed_spectrum
    active = np.abs(base) > 1e-13 * np.abs(base).max()
    rows_act = ai(arg[:, active].ravel()).reshape((x.size, int(active.sum()))) * base[active][None, :]
    phase0 = np.exp(1j * grid.y[0] * grid.xi[active])
    times = np.linspace(t0, t1, n_t)
    inner = np.empty(n_t)
    for it, t in enumerate(times):
        spec_rows = np.zeros((x.size, grid.y.size), dtype=complex)
        spec_rows[:, active] = rows_act * (flow.multiplier(t, grid.eta[active]) * phase0)[None, :]
        vals = np.fft.ifft(spec_rows, axis=1) / grid.dy
        inner[it] = grid_lr_norm(vals, x, grid.y, r)
        if it == 0:
            l2_0 = grid_lr_norm(vals, x, grid.y, 2)
    lqlr = lqlr_norm(inner, times, q)
    return lqlr, l2_0, lqlr / l2_0


@pytest.mark.parametrize("flow_kind, data", LEGS)
def test_quotient_matches_dense_reference_loop(flow_kind, data):
    hs = [2.0**-8, 2.0**-10]
    res = strichartz_quotient(flow_kind, data, 3, 6, (0.0, 0.3), hs, n_t=5)
    for h, row, (_, quotient) in zip(hs, res.meta["rows"], res.samples):
        lqlr, l2_0, ref = _reference_quotient(flow_kind, data, 3.0, 6.0, (0.0, 0.3), h, 5)
        assert row["lqlr"] == pytest.approx(lqlr, rel=1e-12)
        assert row["l2_initial"] == pytest.approx(l2_0, rel=1e-12)
        assert quotient == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("flow_kind, data", LEGS)
def test_screened_norm_matches_dense_field(flow_kind, data):
    grid, spec, flow, x = _quotient_mode(flow_kind, data, 2.0**-11)
    synth = _ModeSynthesis(spec, x)
    for t in (0.0, 0.15, 0.3):
        profiles = synth.profiles(flow.multiplier(t, synth.eta))
        dense = synth.basis @ profiles
        for r in (2, 3, 6, 8, 4.5, math.inf):
            reference = grid_lr_norm(dense, x, grid.y, r)
            assert synth.screened_lr_norm(profiles, r) == pytest.approx(reference, rel=1e-12)
    assert 0.0 < synth.screen_bound <= 1e-12
    assert 0.0 < synth.kept_share < 1.0  # every reduction left part of the rectangle out


@pytest.mark.parametrize("flow_kind, data", LEGS)
def test_quotient_rows_report_rank_and_screen(flow_kind, data):
    res = strichartz_quotient(flow_kind, data, 3, 6, (0.0, 0.3), [2.0**-e for e in range(8, 14)], n_t=5)
    for row in res.meta["rows"]:
        assert 0 < row["rank"] <= 12  # out of n_x = 120 rows
        assert row["rank_residual"] <= 1e-14
        assert row["screen_bound"] <= 1e-12
        assert 0.0 < row["kept_share"] < 1.0


def test_screen_keeps_the_core_rectangle():
    # a zero-weight column at the profiles' peak has a zero bound, so the screen
    # would drop it from the core: it refuses instead of trusting the bound
    grid, spec, flow, x = _quotient_mode("schrodinger", "coherent", 2.0**-9)
    synth = _ModeSynthesis(spec, x)
    profiles = synth.profiles(flow.multiplier(0.1, synth.eta))
    synth._wy = synth._wy.copy()
    synth._wy[np.linalg.norm(profiles, axis=0).argmax()] = 0.0
    with pytest.raises(GalleryError, match="core"):
        synth.screened_lr_norm(profiles, 6)


def test_zero_envelope_and_short_grid_guards(small_setup):
    h, grid, phi, spec = small_setup
    zero = _ModeSynthesis(make_mode_spec(0, h, np.zeros_like(phi), grid))
    assert zero.rank == 0 and zero.rank_residual == 0.0
    profiles = zero.profiles(1.0)
    assert profiles.shape == (0, grid.y.size)
    assert not zero(1.0).any() and zero(1.0).shape == (zero.x.size, grid.y.size)
    assert zero.screened_lr_norm(profiles, 6) == 0.0 and zero.x_tail_fraction == 0.0
    with pytest.raises(GalleryError, match="zero envelope"):
        norm_equivalence(0, h, np.zeros_like(phi), grid, 2)
    short = np.linspace(0.0, 1.5 * spec.omega_k * h ** (2.0 / 3.0), 40)
    with pytest.raises(GalleryError, match="x-grid too short"):
        _ModeSynthesis(spec, short)


def _near_zero_mode():
    # the window reaches down to eta = 0.01, where the Airy layer is ~30x deeper
    h = 2.0**-9
    grid = make_transverse_grid(h, -1.0, 1.0)
    envelope = coherent_state(0.05, h, grid)
    return make_mode_spec(0, h, envelope, grid, window=FrequencyWindow(0.3, 0.1, 0.29))


def test_tail_guard_rejects_mode_near_zero_frequency():
    spec = _near_zero_mode()
    flow = TransverseFlow("schrodinger", spec.omega_k, spec.h)
    with pytest.raises(GalleryError, match="tail mass fraction 1.10e-02"):
        gallery_mode(spec)
    with pytest.raises(GalleryError, match="tail mass fraction"):
        evolve(spec, flow, 0.1)


def test_parseval_tail_matches_field_tail():
    spec = _near_zero_mode()
    flow = TransverseFlow("schrodinger", spec.omega_k, spec.h)
    x = 1.2 * default_x_grid(spec)
    synth = _ModeSynthesis(spec, x)
    vals = synth(flow.multiplier(0.1, synth.eta))
    profile = (np.abs(vals) ** 2) @ trapezoid_weights(spec.grid.y)
    wx = trapezoid_weights(x)
    beyond = x > 0.9 * x[-1]
    field_tail = (profile[beyond] @ wx[beyond]) / (profile @ wx)
    assert 1e-3 < synth.x_tail_fraction < 1e-2
    assert synth.x_tail_fraction == pytest.approx(field_tail, rel=1e-9)


def test_quotient_rows_record_largest_x_tail_fraction():
    res = strichartz_quotient("halfwave", "gaussian", 3, 6, (0.0, 0.3), [2.0**-8, 2.0**-9], n_t=4)
    for row in res.meta["rows"]:
        assert 0.0 < row["x_tail_fraction"] <= 0.01
    # each slice on its own (spec, x) as the quotient builds them at h=2^-8:
    # the tail peaks at an interior slice, and the row keeps that peak
    h = 2.0**-8
    grid = make_transverse_grid(h, -1.2, 1.2, eta_max=1.3, oversample=1.6)
    spec = make_mode_spec(0, h, np.exp(1j * grid.y / h - grid.y**2 / 2.0), grid)
    flow = TransverseFlow("halfwave", spec.omega_k, h)
    tails = []
    for t in np.linspace(0.0, 0.3, 4):
        synth = _ModeSynthesis(spec, default_x_grid(spec, n_x=120))
        synth(flow.multiplier(t, synth.eta))
        tails.append(synth.x_tail_fraction)
    assert 0 < int(np.argmax(tails)) < len(tails) - 1
    assert res.meta["rows"][0]["x_tail_fraction"] == max(tails)
