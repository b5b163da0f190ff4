"""Kernel and lattice-sum tests.  Oracles: scipy's zeta and gamma, the
truncated lattice cosine sums of ``tests/oracles.py`` (direct high-cutoff
summation), and the L1 operator identity.  The chain's ring symbol is
tested against pair sums in ``test_chain.py``."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn.errors import DomainError
from fracdyn.fracops import caputo_left_l1
from fracdyn.kernels import (MemoryKernel, memory_convolution,
                             renormalized_constant)
from oracles import (L1_BLOCK_SHAPES, TailBoundError, assert_same_bits,
                     cutoff_for_tolerance, l1_history, lattice_symbol,
                     lattice_symbol_increment, memory_convolution_whole)

# ------------------------------------------------------------ memory kernel


@given(beta=st.floats(0.05, 0.95), t=st.floats(0.01, 100.0))
@settings(max_examples=50, deadline=None)
def test_memory_kernel_homogeneity(beta, t):
    m = MemoryKernel(beta=beta, g0=1.0)
    assert m(2.0 * t) / m(t) == pytest.approx(2.0 ** (-beta), rel=1e-13)


def test_memory_kernel_positive():
    m = MemoryKernel(beta=0.4, g0=2.0)
    t = np.linspace(0.1, 10, 50)
    assert np.all(m(t) > 0)
    with pytest.raises(DomainError):
        m(0.0)
    with pytest.raises(DomainError):
        MemoryKernel(beta=1.0)


def test_memory_convolution_equals_scaled_caputo_bitwise():
    # dt a power of two so the rate -> increment round trip is exact
    rng = np.random.default_rng(42)
    dt = 1.0 / 1024
    for seed in range(5):
        u = np.random.default_rng(seed).standard_normal(301)
        kern = MemoryKernel(beta=0.6, g0=-2.5)
        mc = memory_convolution(kern, np.diff(u) / dt, dt)
        ca = -2.5 * caputo_left_l1(u, 0.6, dt)
        assert np.array_equal(mc, ca)


def test_memory_convolution_constant_zero():
    out = memory_convolution(MemoryKernel(beta=0.3), np.zeros(50), 0.01)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("shape", L1_BLOCK_SHAPES)
@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("beta", [0.3, 0.8])
def test_memory_convolution_streamed_matches_whole_arrays_bitwise(
        shape, is_complex, beta):
    # the increments du_dt * dt formed a column block at a time, and g0
    # applied in place, give the bits of the whole-array form
    rates, _ = l1_history(shape, is_complex)
    kern = MemoryKernel(beta=beta, g0=-2.5)
    dt = 0.01
    assert_same_bits(memory_convolution(kern, rates, dt),
                     memory_convolution_whole(kern, rates, dt))
    assert_same_bits(memory_convolution(kern, rates[:, 0], dt),
                     memory_convolution_whole(kern, rates[:, 0], dt))


def test_memory_convolution_empty_history():
    # no steps yet: only the zero value at t_0
    kern = MemoryKernel(beta=0.3)
    out = memory_convolution(kern, np.empty((0, 4)), 0.01)
    assert out.shape == (1, 4)
    assert np.all(out == 0.0)
    assert np.array_equal(memory_convolution(kern, np.empty(0), 0.01), [0.0])


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
