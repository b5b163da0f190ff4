"""Lattice-sum and continuum-constant tests.  Oracles: scipy's zeta and
gamma, and the truncated lattice cosine sums of ``tests/oracles.py``
(direct high-cutoff summation).  The chain's ring symbol is tested against
pair sums in ``test_chain.py``."""

import math

import pytest
import scipy.special

from fracdyn.kernels import renormalized_constant
from oracles import (TailBoundError, cutoff_for_tolerance, lattice_symbol,
                     lattice_symbol_increment)

# ------------------------------------------------------------ lattice symbol


def test_lattice_symbol_at_zero_is_two_zeta():
    cutoff = cutoff_for_tolerance(1.5, 1e-8)
    val = lattice_symbol(1.5, 0.0, 1.0, cutoff, tol=1e-8)
    assert val == pytest.approx(2.0 * scipy.special.zeta(2.5, 1), abs=2e-8)
    assert val == pytest.approx(2.682, abs=2e-3)


def test_lattice_symbol_even_in_k():
    cutoff = cutoff_for_tolerance(1.5, 1e-8)
    a = lattice_symbol(1.5, 0.37, 1.0, cutoff, tol=1e-8)
    b = lattice_symbol(1.5, -0.37, 1.0, cutoff, tol=1e-8)
    assert a == b


def test_lattice_symbol_tail_bound_enforced():
    with pytest.raises(TailBoundError):
        lattice_symbol(1.5, 0.1, 1.0, cutoff=100, tol=1e-10)


def test_lattice_increment_consistent_with_symbol():
    cutoff = cutoff_for_tolerance(1.5, 1e-9)
    k = 0.05
    inc = lattice_symbol_increment(1.5, k, 1.0, cutoff, tol=1e-9)
    diff = (lattice_symbol(1.5, k, 1.0, cutoff, tol=1e-9)
            - lattice_symbol(1.5, 0.0, 1.0, cutoff, tol=1e-9))
    assert inc == pytest.approx(diff, abs=1e-11)
    assert inc < 0


def test_lattice_increment_small_k_constant():
    # (J^(k) - J^(0)) / |k dx|^alpha approaches 2 Gamma(-alpha) cos(pi alpha/2);
    # the approach is first order in (k dx)^(2-alpha), ~1.4% at k dx = 1e-3
    alpha = 1.5
    target = 2.0 * scipy.special.gamma(-alpha) * math.cos(math.pi * alpha / 2.0)
    cutoff = cutoff_for_tolerance(alpha, 1e-10)
    ratios = []
    for theta in (1e-1, 1e-2, 1e-3):
        inc = lattice_symbol_increment(alpha, theta, 1.0, cutoff, tol=1e-10)
        ratios.append(inc / (target * theta ** alpha))
    # monotone approach to 1 and within 2% at the smallest k dx
    assert abs(ratios[2] - 1.0) < 0.02
    assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)


# ------------------------------------------------------------ renormalized constant


@pytest.mark.parametrize("alpha", [1.1, 1.25, 1.5, 1.75, 1.9])
def test_renormalized_constant_vs_scipy_gamma(alpha):
    g0, dx = 0.7, 0.3
    expected = (2.0 * g0 * dx ** alpha * scipy.special.gamma(-alpha)
                * math.cos(math.pi * alpha / 2.0))
    assert renormalized_constant(alpha, g0, dx) == pytest.approx(expected, rel=1e-14)


def test_renormalized_constant_value():
    # alpha = 3/2: Gamma(-3/2) = 4 sqrt(pi)/3, cos(3 pi/4) = -sqrt(2)/2
    got = renormalized_constant(1.5, 1.0, 1.0)
    expected = 2.0 * (4.0 * math.sqrt(math.pi) / 3.0) * (-math.sqrt(2.0) / 2.0)
    assert got == pytest.approx(expected, rel=1e-13)
    assert got < 0


def test_renormalized_constant_scaling_and_zero():
    g1 = renormalized_constant(1.5, 1.0, 1.0)
    g2 = renormalized_constant(1.5, 1.0, 2.0)
    assert g2 == pytest.approx(2.0 ** 1.5 * g1, rel=1e-14)
    assert renormalized_constant(1.5, 0.0, 1.0) == 0.0


def test_renormalized_constant_matches_lattice_limit():
    alpha, theta = 1.5, 1e-3
    cutoff = cutoff_for_tolerance(alpha, 1e-10)
    inc = lattice_symbol_increment(alpha, theta, 1.0, cutoff, tol=1e-10)
    g_a = renormalized_constant(alpha, 1.0, 1.0)
    assert inc / (g_a * theta ** alpha) == pytest.approx(1.0, abs=0.02)
