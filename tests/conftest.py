"""Shared oracles and fixtures.

The Airy oracle here is independent of the package implementation: a plain
Maclaurin sum in Python floats for moderate arguments, cross-checked against
mpmath, and mpmath bisection for zero locations.
"""

import math

import mpmath as mp
import numpy as np
import pytest


def maclaurin_airy(z: float, terms: int = 120) -> float:
    """Independent Maclaurin-series evaluation of Ai(z), |z| <= ~8."""
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    f_term, g_term = 1.0, z
    total = ai0 * f_term + aip0 * g_term
    for k in range(terms):
        f_term *= z**3 / ((3 * k + 2) * (3 * k + 3))
        g_term *= z**3 / ((3 * k + 3) * (3 * k + 4))
        total += ai0 * f_term + aip0 * g_term
    return total


def mp_airy_zero(k: int) -> float:
    """k-th zero (0-based) of Ai(-w) via mpmath at 30 digits."""
    with mp.workdps(30):
        return float(-mp.airyaizero(k + 1))


@pytest.fixture(scope="session")
def airy_zero_oracle():
    return [mp_airy_zero(k) for k in range(10)]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)
