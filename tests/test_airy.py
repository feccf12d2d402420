"""Airy evaluator against independent series/mpmath oracles."""

import decimal
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import convexwave
from convexwave.airy import (
    _LEADING,
    _UK,
    BLEND_HI,
    BLEND_LO,
    AiryError,
    AiryTable,
    _anchor_table,
    _blend_weight,
    _taylor_core,
    ai,
    airy_branch,
    airy_zeros,
    calibrate_branch_leading,
)
from conftest import maclaurin_airy, mp_airy_zero


def test_value_at_zero():
    assert ai(0.0) == pytest.approx(0.3550280539, abs=1e-10)


def test_decay_on_positive_axis():
    assert abs(ai(10.0)) < 1e-9


def test_first_zero_value():
    assert abs(ai(-2.3381074105)) < 1e-8


def test_matches_series_oracle_moderate_range(rng):
    zs = rng.uniform(-7.5, 7.5, 60)
    for z in zs:
        assert ai(float(z)) == pytest.approx(maclaurin_airy(float(z)), abs=2e-11)


def test_matches_mpmath_wide_range(rng):
    zs = np.concatenate([rng.uniform(-60.0, 12.0, 60), np.linspace(7.5, 8.5, 11)])
    with mp.workdps(30):
        refs = [float(mp.airyai(mp.mpf(float(z)))) for z in zs]
    for z, ref in zip(zs, refs):
        assert ai(float(z)) == pytest.approx(ref, rel=1e-9, abs=1e-13)


def test_anchors_are_correctly_rounded():
    # each anchor (Ai, Ai') is the float nearest the true value at its centre
    centers, cols = _anchor_table()
    with mp.workdps(50):
        for zc, value, slope in zip(centers, cols[0], cols[1]):
            z = mp.mpf(float(zc))
            assert value == float(mp.airyai(z))
            assert slope == float(mp.airyai(z, derivative=1))


def test_import_leaves_decimal_context_alone():
    # importing the package does no numeric work: the anchors are built by the
    # first ai call, which raises the decimal precision only inside a local context
    env = dict(os.environ, PYTHONPATH=str(Path(convexwave.__file__).parents[1]))
    script = ("import convexwave.cli, decimal; from convexwave.airy import _anchor_table, ai; "
              "print(_anchor_table.cache_info().currsize); ai(0.5); "
              "print(_anchor_table.cache_info().currsize, decimal.getcontext().prec)")
    out = subprocess.run([sys.executable, "-c", script],
                         env=env, capture_output=True, text=True, check=True).stdout.split()
    assert out == ["0", "1", str(decimal.DefaultContext.prec)]


def test_ode_finite_difference_residual():
    z = np.linspace(-10.0, 5.0, 1501)
    step = 1e-3
    second = (ai(z + step) - 2.0 * ai(z) + ai(z - step)) / step**2
    assert np.max(np.abs(second - z * ai(z))) <= 1e-5


def test_zeros_against_oracle(airy_zero_oracle):
    zeros = airy_zeros(10)
    for k in range(10):
        assert zeros[k] == pytest.approx(airy_zero_oracle[k], abs=1e-8)


def test_zero_oracle_leaves_mpmath_precision_alone():
    # the oracle raises the precision only inside a local context
    before = mp.mp.dps
    mp_airy_zero(0)
    assert mp.mp.dps == before


def test_zero_gaps_shrink_like_cuberoot():
    zeros = airy_zeros(12).values
    gaps = np.diff(zeros)
    assert np.all(np.diff(gaps) < 0)
    # gap_k ~ pi / sqrt(omega_k) asymptotically: compensated gaps settle fast
    comp = gaps * zeros[:-1] ** 0.5
    assert np.max(comp[3:]) / np.min(comp[3:]) < 1.05
    assert comp[-1] == pytest.approx(np.pi, rel=0.03)


def test_zeros_are_cached_per_count_and_read_only():
    # a gallery scan asks for the same table at every h; the cached one equals a fresh search
    zeros = airy_zeros(5)
    assert airy_zeros(5) is zeros and airy_zeros(6) is not zeros
    assert not zeros.values.flags.writeable
    with pytest.raises(ValueError):
        zeros.values[0] = 0.0
    fresh = airy_zeros.__wrapped__(5)
    assert fresh is not zeros
    np.testing.assert_array_equal(fresh.values, zeros.values)


def test_zero_count_validation():
    with pytest.raises(AiryError):
        airy_zeros(0)


def test_zero_interlacing_sign_changes():
    zeros = airy_zeros(8).values
    mids = 0.5 * (zeros[:-1] + zeros[1:])
    vals = ai(-mids)
    assert np.all(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)


def test_branch_split_identity_at_nine():
    z = 9.0
    split = airy_branch(z, +1, 3) + airy_branch(z, -1, 3)
    assert abs(split.real - ai(-z)) / abs(ai(-z)) <= 1e-4
    assert abs(split.imag) <= 1e-6 * abs(split.real)


def test_branch_conjugate_symmetry(rng):
    for z in rng.uniform(2.5, 40.0, 12):
        plus = airy_branch(float(z), +1, 4)
        minus = airy_branch(float(z), -1, 4)
        assert minus == pytest.approx(np.conj(plus), rel=1e-14)


def test_branch_leading_modulus():
    val = airy_branch(4.0, +1, 0)
    assert abs(val) == pytest.approx(0.5 / math.sqrt(math.pi) * 4.0**-0.25, rel=1e-12)
    assert abs(val) == pytest.approx(0.1995, abs=2e-4)


def test_branch_rejects_small_argument():
    with pytest.raises(AiryError):
        airy_branch(1.5, +1, 3)
    with pytest.raises(AiryError):
        airy_branch(9.0, +1, 8)


def test_split_error_decay_exponent():
    # |ai(-z) - A^+ - A^-| / envelope ~ z^{-3(J+1)/2}; fitted decay within 0.3
    j_terms = 3
    z = np.geomspace(4.0, 100.0, 60)
    split = airy_branch(z, +1, j_terms) + airy_branch(z, -1, j_terms)
    envelope = 2.0 * (0.5 / math.sqrt(math.pi)) * z**-0.25
    err = np.abs(split.real - ai(-z)) / envelope
    keep = err > 1e-15
    slope = np.polyfit(np.log(z[keep]), np.log(err[keep]), 1)[0]
    assert slope == pytest.approx(-1.5 * (j_terms + 1), abs=0.3)


def test_branch_expansion_metadata():
    cal = calibrate_branch_leading()
    assert cal["fitted"] == pytest.approx(cal["classical"], rel=1e-6)
    # the alternative printed constant differs by a factor 2 pi; recorded, not used
    assert cal["alternative"] == pytest.approx(cal["classical"] / (2.0 * math.pi), rel=1e-12)


def _asym_pos_former_loop(z):
    """Ai(z) for z >= 7.6 by the decaying expansion's own adaptive loop, as it was
    written before it shared the branch series."""
    big_x = (2.0 / 3.0) * z**1.5
    s = np.ones_like(z)
    term = np.ones_like(z)
    active = np.ones(z.shape, dtype=bool)
    last = np.full(z.shape, np.inf)
    for k in range(1, _UK.size):
        term = term * (-_UK[k] / _UK[k - 1]) / big_x
        mag = np.abs(term)
        active &= mag < last
        s = np.where(active, s + term, s)
        last = np.where(active, mag, last)
    return _LEADING * z**-0.25 * np.exp(-big_x) * s


def test_positive_axis_bit_equal_to_former_asymptotic_loop():
    # ai on [7.6, 400]: the former loop alone past the blend window, blended
    # with the Taylor core inside it
    z = np.linspace(BLEND_LO, 400.0, 40001)
    core = np.zeros_like(z)
    asym = np.zeros_like(z)
    core[z < BLEND_HI] = _taylor_core(z[z < BLEND_HI])
    asym[z > BLEND_LO] = _asym_pos_former_loop(z[z > BLEND_LO])
    w = _blend_weight(z)
    np.testing.assert_array_equal(ai(z), (1.0 - w) * core + w * asym)


def test_airy_table_matches_direct(rng):
    table = AiryTable(-80.0, 20.0)
    pts = rng.uniform(-78.0, 18.0, 4000)
    assert np.max(np.abs(table(pts) - ai(pts))) < 2e-7


def test_airy_table_lookup_bit_identical_to_four_point_formula(rng):
    # the coefficient-table lookup reproduces the inline four-point cubic bit
    # for bit, across several lookup blocks, both table edges and beyond them
    table = AiryTable(-30.0, 10.0)
    v = rng.uniform(table.lo - 0.05, table.hi + 0.05, (3, 7001))
    v[0, :4] = [table.lo, table.hi, table.grid[1], table.grid[-3]]
    pos = (v - table.lo) / table.step
    i = np.clip(pos.astype(int), 1, table.grid.size - 3)
    t = pos - i
    f_m1, f_0, f_1, f_2 = (table.values[i + k] for k in (-1, 0, 1, 2))
    b = -f_m1 / 3.0 - f_0 / 2.0 + f_1 - f_2 / 6.0
    c = (f_m1 - 2.0 * f_0 + f_1) / 2.0
    d = (-f_m1 + 3.0 * f_0 - 3.0 * f_1 + f_2) / 6.0
    expected = f_0 + t * (b + t * (c + t * d))
    got = table(v)
    assert got.shape == v.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    # into a caller's buffer: filled in place and returned, edges included
    out = np.full(v.shape, np.nan)
    assert table(v, out=out) is out
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("terms", [0, 3, 6])
def test_airy_branch_bit_identical_to_inline_series(sign, terms):
    # the shared branch series reproduces the inline (sign i)^k u_k X^{-k} loop bit for bit
    z = np.linspace(2.0, 60.0, 997)
    big_x = (2.0 / 3.0) * z**1.5
    series = np.ones(z.shape, dtype=complex)
    term = np.ones(z.shape, dtype=complex)
    for k in range(1, terms + 1):
        term = term * (sign * 1j * _UK[k] / _UK[k - 1]) / big_x
        series = series + term
    expected = _LEADING * z**-0.25 * np.exp(-1j * sign * (big_x - 0.25 * math.pi)) * series
    assert np.array_equal(airy_branch(z, sign, terms), expected)
