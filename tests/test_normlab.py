"""Grid norms, fits, regions, and the verdict bookkeeping."""

import math

import numpy as np
import pytest

import convexwave.normlab as cw_normlab
from convexwave.fields import WaveField, trapezoid_weights
from convexwave.normlab import (
    NormError,
    counterexample_report,
    fit_exponent,
    fit_powerlaw_2d,
    grid_lr_norm,
    lqlr_norm,
    lr_norm,
    power_in_place,
    row_powers,
    rows_norm,
    region_norms,
    spans_fit,
)
from convexwave.params import make_params
from convexwave.cusp import cusp_field


def unit_square_field(values):
    n = values.shape[0]
    x = np.linspace(0.0, 1.0, n)
    y = np.linspace(0.0, 1.0, values.shape[1])
    return WaveField(values=values.astype(complex), x=x, y=y, h=0.1, t=0.0)


def test_lr_norm_constant_field():
    fld = unit_square_field(np.ones((31, 41)))
    for r in (1, 2, 3.5, 6, math.inf):
        assert lr_norm(fld, r) == pytest.approx(1.0, rel=1e-12)


def test_lr_norm_width_scaling():
    # halving the bump width scales the L^r norm by 2^{-1/r}
    y = np.linspace(-1.0, 1.0, 4001)
    x = np.linspace(0.0, 1.0, 5)

    def bump(width):
        vals = np.tile(np.exp(-((y / width) ** 10)), (5, 1))
        return WaveField(values=vals.astype(complex), x=x, y=y, h=0.1, t=0.0)

    for r in (2, 4):
        ratio = lr_norm(bump(0.25), r) / lr_norm(bump(0.5), r)
        assert ratio == pytest.approx(2.0 ** (-1.0 / r), rel=2e-3)


def test_lr_norm_gaussian_closed_form():
    y = np.linspace(-14.0, 14.0, 3001)
    x = np.linspace(-14.0, 14.0, 301)
    vals = np.exp(-np.add.outer(x**2, y**2) / 2.0)
    fld = WaveField(values=vals.astype(complex), x=x, y=y, h=0.1, t=0.0)
    for r in (2, 3):
        ref = (2.0 * math.pi / r) ** (1.0 / r)
        assert lr_norm(fld, r) == pytest.approx(ref, rel=1e-6)


def test_lr_norm_rejects_nonfinite():
    vals = np.ones((4, 5))
    vals[2, 2] = np.inf
    with pytest.raises(NormError):
        lr_norm(unit_square_field(vals), 2)


def test_grid_lr_norm_rejects_nan_in_imaginary_part():
    vals = np.ones((4, 5), dtype=complex)
    vals[1, 3] = complex(1.0, np.nan)
    x, y = np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 5)
    for r in (2, math.inf):
        with pytest.raises(NormError, match="non-finite"):
            grid_lr_norm(vals, x, y, r)


def test_grid_lr_norm_rejects_nan_r_before_any_array_work():
    # r >= 1 is checked first: a NaN r fails it, also on samples that are not finite
    x, y = np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 5)
    for vals in (2.0 * np.ones((4, 5)), np.full((4, 5), np.nan)):
        for r in (math.nan, 0.5):
            with pytest.raises(NormError, match="r must be >= 1"):
                grid_lr_norm(vals, x, y, r)


def test_lqlr_single_slice_needs_inf():
    fld = unit_square_field(np.ones((4, 5)))
    assert lqlr_norm([lr_norm(fld, 2)], [0.0], math.inf) == pytest.approx(lr_norm(fld, 2))
    with pytest.raises(NormError):
        lqlr_norm([lr_norm(fld, 2)], [0.0], 6)


def test_lqlr_time_constant_field():
    fld = unit_square_field(np.ones((4, 5)))
    times = 0.25 * np.arange(9)
    q = 3.0
    val = lqlr_norm([lr_norm(fld, 2)] * times.size, times, q)
    assert val == pytest.approx(2.0 ** (1.0 / q) * lr_norm(fld, 2), rel=1e-12)


def test_lqlr_length_mismatch():
    with pytest.raises(NormError, match="length mismatch"):
        lqlr_norm(np.ones(4), 0.1 * np.arange(5), 2)


@pytest.mark.parametrize("q", [6, math.inf])
def test_lqlr_rejects_an_empty_time_grid(q):
    # an empty grid has no step to check: it raised IndexError from the first step
    with pytest.raises(NormError, match="empty time grid"):
        lqlr_norm([], [], q)


def test_lqlr_rejects_a_decreasing_time_grid():
    # its trapezoid weights would be negative, and the q-th root of their sum NaN
    with pytest.raises(NormError, match="time grid must increase"):
        lqlr_norm(np.ones(5), -0.1 * np.arange(5), 6)
    with pytest.raises(NormError, match="time grid must increase"):
        lqlr_norm(np.ones(5), np.zeros(5), 6)


def test_fit_exponent_exact_powers():
    hs = np.geomspace(1e-4, 1e-1, 7)
    fit = fit_exponent([(h, h**2) for h in hs])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)
    fit2 = fit_exponent([(h, 3.0 * h**0.5) for h in hs])
    assert fit2.slope == pytest.approx(0.5, abs=1e-12)
    assert fit2.intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_fit_exponent_with_noise_within_stderr(rng):
    hs = np.geomspace(1e-5, 1e-1, 24)
    vals = 2.0 * hs**1.25 * np.exp(rng.normal(0.0, 0.01, hs.size))
    fit = fit_exponent(list(zip(hs, vals)))
    assert abs(fit.slope - 1.25) <= 3.0 * fit.stderr


def test_spans_fit_needs_four_samples_over_one_and_a_half_decades():
    assert spans_fit([(h, 1.0) for h in np.geomspace(2.0**-8, 2.0**-13, 6)])  # 1.505 decades
    assert not spans_fit([(h, 1.0) for h in np.geomspace(2.0**-8, 2.0**-12, 6)])  # 1.204 decades
    assert not spans_fit([(h, 1.0) for h in (1e-1, 1e-3, 1e-5)])  # 3 samples
    assert not spans_fit([])


def test_fit_exponent_guards():
    with pytest.raises(NormError):
        fit_exponent([(0.1, 1.0), (0.01, 2.0)])
    with pytest.raises(NormError):
        fit_exponent([(0.1, 1.0), (0.01, -2.0), (0.001, 1.0), (1e-4, 1.0)])


@pytest.mark.parametrize("bad", [(0.01, math.nan), (0.01, math.inf), (math.nan, 1.0), (math.inf, 1.0)])
def test_fit_exponent_rejects_non_finite_samples(bad):
    samples = [(0.1, 1.0), bad, (0.001, 1.0), (1e-4, 1.0)]
    with pytest.raises(NormError, match="positive, finite"):
        fit_exponent(samples)


def test_fit_powerlaw_2d_recovers_joint_slopes(rng):
    rows = []
    for lam in np.geomspace(10, 1000, 8):
        for h in (1e-2, 1e-3, 1e-4):
            rows.append((lam, h, 2.0 * lam**-0.5 * h ** (-1.0 / 3.0)))
    fit = fit_powerlaw_2d(rows)
    assert fit["lambda_exponent"] == pytest.approx(-0.5, abs=1e-9)
    assert fit["h_exponent"] == pytest.approx(-1.0 / 3.0, abs=1e-9)


@pytest.fixture(scope="module")
def cusp_setup():
    params = make_params(2.0**-16, 0.1, 0.25)
    return params, cusp_field(0, 0.0, params)


def test_region_norms_additivity_exact(cusp_setup):
    # the three masks partition the grid rows whatever the far side's margin
    params, fld = cusp_setup
    for r in (2, 6):
        regs = region_norms(fld, r, params)
        total = lr_norm(fld, r)
        assert sum(v**r for v in regs.values()) == pytest.approx(total**r, rel=1e-12)


def test_region_norms_fold_dominates_at_r6(cusp_setup):
    params, fld = cusp_setup
    regs = region_norms(fld, 6, params)
    assert regs["fold"] > regs["shelf"]


def test_region_norms_far_side_small():
    params = make_params(2.0**-22, 0.1, 0.25)
    fld = cusp_field(0, 0.0, params)
    for r in (2, 6):
        regs = region_norms(fld, r, params)
        assert regs["outer"] <= 1e-3 * lr_norm(fld, r)


def test_region_norms_validation(cusp_setup):
    params, fld = cusp_setup
    # region_norms checks r through the shared row reduction, before any array work
    with pytest.raises(NormError, match="r must be >= 1"):
        region_norms(fld, 0.5, params)
    with pytest.raises(NormError, match="r must be >= 1"):
        region_norms(fld, math.nan, params)


def test_region_norms_rejects_non_finite_samples(cusp_setup):
    # the regional sums go through the same checked reduction as lr_norm
    params, fld = cusp_setup
    values = fld.values.copy()
    values[values.shape[0] // 2, 7] = np.nan
    broken = WaveField(values=values, x=fld.x, y=fld.y, h=fld.h, t=fld.t)
    for r in (2, 6, 2.5, math.inf):
        with pytest.raises(NormError, match="non-finite field samples"):
            lr_norm(broken, r)
        with pytest.raises(NormError, match="non-finite field samples"):
            region_norms(broken, r, params)


def test_region_norms_rejects_an_empty_region_at_every_r(cusp_setup):
    # x inside [0, a/2] holds only shelf rows: the fold band and the far side are empty
    params, _ = cusp_setup
    x = np.linspace(0.0, 0.5 * params.a, 9)
    fld = WaveField(values=np.ones((9, 5), dtype=complex), x=x, y=np.linspace(0.0, 1.0, 5),
                    h=params.h, t=0.0)
    for r in (2, 6, math.inf):
        with pytest.raises(NormError, match="region 'fold' is empty on the grid"):
            region_norms(fld, r, params)


@pytest.mark.parametrize("r", [1, 2, 3, 5, 6, 8, 2.5, math.inf])
@pytest.mark.parametrize("shape, block", [((37, 4096), None), ((37, 64), 3 * 64), ((5, 3), 1 << 16)])
def test_block_reduction_equals_the_whole_array_sum(rng, monkeypatch, r, shape, block):
    # the row blocks (16 rows at the default 2^16 samples, 3 rows at 3 * 64)
    # do not divide 37 rows; the sum and the max match the whole-array formula
    if block is not None:
        monkeypatch.setattr(cw_normlab, "_BLOCK_SAMPLES", block)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    wx = trapezoid_weights(np.linspace(0.0, 1.0, shape[0]))
    wy = trapezoid_weights(np.linspace(0.0, 2.0, shape[1]))
    mod = np.abs(values)
    expected = mod.max() if r == math.inf else float(np.sum(wx[:, None] * mod**r * wy[None, :]))
    assert rows_norm(row_powers(values, wy, r), wx, r, power=True) == pytest.approx(expected, rel=1e-14, abs=0.0)
    values[-1, -1] = np.nan  # in the last, partial block
    with pytest.raises(NormError, match="non-finite field samples"):
        row_powers(values, wy, r)


@pytest.mark.parametrize("r", [2, 6, math.inf])
def test_block_reduction_of_a_product(rng, monkeypatch, r):
    # with right given, the samples values @ right are formed one row block at a time
    monkeypatch.setattr(cw_normlab, "_BLOCK_SAMPLES", 5 * 300)
    left = rng.normal(size=(23, 4)) + 1j * rng.normal(size=(23, 4))
    right = rng.normal(size=(4, 300)) + 1j * rng.normal(size=(4, 300))
    wx, wy = rng.random(23), rng.random(300)
    expected = rows_norm(row_powers(left @ right, wy, r), wx, r, power=True)
    got = rows_norm(row_powers(left, wy, r, right=right), wx, r, power=True)
    assert got == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_counterexample_rejects_small_r():
    with pytest.raises(NormError, match="r must be > 4"):
        counterexample_report((3,), 0.1, [2.0**-10, 2.0**-12])
    with pytest.raises(NormError, match="r must be > 4"):
        counterexample_report((2, 4), 0.1, [2.0**-10, 2.0**-12])


def test_counterexample_single_h_gives_null_verdict():
    [rep] = counterexample_report((6,), 0.1, [2.0**-12], samples_per_sqrt_a=9)
    assert rep.verdict is None
    assert rep.fitted_exponent is None
    assert len(rep.samples) == 1
    assert rep.norms[0]["lqlr"] > 0


def test_counterexample_two_point_trend():
    [rep] = counterexample_report((6,), 0.1, [2.0**-11, 2.0**-15], samples_per_sqrt_a=9)
    assert rep.verdict == "PASS"  # increasing Q along decreasing h
    assert rep.control_monotone_ok
    d = rep.to_dict()
    assert d["verdict"] == "PASS" and len(d["samples"]) == 2


def test_counterexample_threads_deterministic():
    h_list = [2.0**-11, 2.0**-13]
    [rep1] = counterexample_report((6,), 0.1, h_list, samples_per_sqrt_a=9, threads=1)
    [rep2] = counterexample_report((6,), 0.1, h_list, samples_per_sqrt_a=9, threads=2)
    assert rep1.samples == rep2.samples


def test_one_walk_serves_every_r():
    # one walk per h gives every r the verdict of its own single-r walk, bit for
    # bit; an r <= 4 in the list is measured (its region split) and not judged
    h_list = [2.0**-10, 2.0**-12]
    reports = counterexample_report((4, 5, 6, 8), 0.1, h_list, samples_per_sqrt_a=3)
    assert [rep.r for rep in reports] == [5.0, 6.0, 8.0]
    for j, rep in enumerate(reports, start=1):
        [single] = counterexample_report((rep.r,), 0.1, h_list, samples_per_sqrt_a=3)
        for key in ("samples", "fitted_exponent", "verdict", "control_samples"):
            assert getattr(rep, key) == getattr(single, key)
        assert [m["lqlr"] for m in rep.norms] == [m["lqlr"] for m in single.norms]
        assert [m["region_norms"][j] for m in rep.norms] == [m["region_norms"][0] for m in single.norms]


@pytest.mark.parametrize("r", [1, 2, 3, 5, 6, 8])
def test_power_in_place_matches_pow(rng, r):
    mod = np.abs(rng.normal(size=(37, 64)) + 1j * rng.normal(size=(37, 64)))
    mod[0, :3] = (0.0, 1e-30, 1e30 ** (1.0 / r))
    ref = mod**r
    got = power_in_place(mod.copy(), float(r))
    assert np.all(np.abs(got - ref) <= 1e-14 * ref)
    frac = power_in_place(mod.copy(), r + 0.5)  # a non-integer r keeps **
    assert np.array_equal(frac, mod ** (r + 0.5))
