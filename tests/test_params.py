"""Parameter algebra, admissibility and loss exponents."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexwave.params import (
    ParameterError,
    check_admissible,
    initial_data_regularity,
    loss_exponent,
    make_params,
    reflection_count,
    sharp_schrodinger_q,
    sharp_wave_q,
)


def test_make_params_reference_values():
    p = make_params(1e-4, 0.1, 0.2)
    assert p.delta == pytest.approx(0.45)
    assert p.a == pytest.approx(1.585e-2, rel=1e-3)
    assert p.lam == pytest.approx(19.95, rel=1e-3)
    assert p.n_reflections == 2


def test_make_params_rejects_h_one():
    with pytest.raises(ParameterError, match="lambda"):
        make_params(1.0, 0.1, 0.2)


def test_make_params_lambda_formula_small_h():
    p = make_params(1e-6, 0.1, 0.2)
    # lambda = h^{-(1+3 eps)/4} = 10^{1.95}
    assert p.lam == pytest.approx(10**1.95, rel=1e-9)


def test_marginal_lambda_warns_in_params():
    p = make_params(2.0**-10, 0.1, 0.2)
    assert p.lam < 10.0
    assert any("marginal" in w for w in p.warnings)


def test_reflection_count_examples():
    assert reflection_count(1e-4, 0.45) == 2
    assert reflection_count(1e-8, 0.45) == 16
    with pytest.raises(ParameterError):
        reflection_count(0.9, 0.45)  # sqrt(a) >= 1/4, no reflection fits


def test_reflection_tiling_invariant():
    for e in range(8, 40, 3):
        h = 2.0**-e
        p = make_params(h, 0.1, 0.2)
        assert abs(4.0 * p.n_reflections * p.sqrt_a - 1.0) <= 2.0 * p.sqrt_a + 1e-12
        assert p.n_reflections <= p.lam * h**p.epsilon * (1 + 1e-12)
        assert 16.0 * p.n_reflections >= p.lam * h**p.epsilon


@given(st.integers(min_value=8, max_value=60), st.integers(min_value=9, max_value=60))
@settings(max_examples=40, deadline=None)
def test_monotone_in_h(e1, e2):
    # h1 < h2 implies lambda(h1) > lambda(h2) and N(h1) >= N(h2)
    if e1 == e2:
        return
    lo, hi = sorted((e1, e2))
    p_small = make_params(2.0**-hi, 0.2, 0.2)
    p_big = make_params(2.0**-lo, 0.2, 0.2)
    assert p_small.lam > p_big.lam
    assert p_small.n_reflections >= p_big.n_reflections


def test_admissible_sharp_example():
    pair = check_admissible(6, 6, Fraction(1, 2))
    assert pair.sharp


def test_admissible_energy_pair():
    # the energy pair (inf, 2) satisfies 0 + alpha/2 = alpha/2: admissible with
    # equality, hence sharp by the definition (exact rational arithmetic)
    pair = check_admissible(math.inf, 2, Fraction(1, 2))
    assert pair.sharp
    assert check_admissible(math.inf, 2, 0).sharp


def test_admissible_excluded_endpoint():
    with pytest.raises(ParameterError, match="excluded"):
        check_admissible(2, math.inf, 1)


def test_admissible_rejects_small_exponents():
    with pytest.raises(ParameterError):
        check_admissible(1.5, 6, 1)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=12))
@settings(max_examples=100, deadline=None)
def test_admissible_matches_bruteforce_lattice(q, r):
    alpha = Fraction(1, 2)
    brute_ok = Fraction(1, q) + alpha * Fraction(1, r) <= alpha / 2
    try:
        check_admissible(q, r, alpha)
        assert brute_ok
    except ParameterError:
        assert not brute_ok


def test_loss_exponent_values():
    le6 = loss_exponent(6)
    assert le6.beta_loss == Fraction(1, 2) + Fraction(1, 72)
    le8 = loss_exponent(8)
    assert le8.beta_loss == Fraction(7, 12)
    # limit r -> infinity
    le_inf = loss_exponent(math.inf)
    assert le_inf.beta_loss == Fraction(3, 4) + Fraction(1, 24)


def test_loss_gap_identity():
    for r in (5, 6, 8, 12, 100):
        le = loss_exponent(r)
        assert le.gap == Fraction(1, 6) * (Fraction(1, 4) - Fraction(1, r))
        assert le.gap > 0


def test_loss_exponent_rejects_r_le_4():
    for r in (2, 3, 4):
        with pytest.raises(ParameterError):
            loss_exponent(r)


def test_sharp_q_helpers():
    assert sharp_wave_q(6, d=2) == 6
    assert sharp_schrodinger_q(6, d=2) == 3


def test_initial_data_regularity_exposed():
    # both exponent budgets are exposed; only beta(r) - eps is asserted elsewhere
    val = initial_data_regularity(6, 6, Fraction(1, 10))
    assert val == 2 * Fraction(1, 3) - Fraction(1, 6) + Fraction(1, 6) * Fraction(1, 12) - Fraction(1, 5)
