"""Operator tests.  Expected values come from independent oracles: direct
quadrature of the defining integrals, closed forms for monomials, series
summation, and high-precision arithmetic (mpmath), never from the code path
under test."""

import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.fft
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import fracdyn
from fracdyn import fields, fracops
from fracdyn.errors import ConvergenceError, DomainError
from fracdyn.fields import LevelRing, ModelSpec, Potential
from fracdyn.fracops import (_FFT_BLOCK_BYTES, HISTORY_BLOCK, HistorySum,
                             _fast_len, _l1_output, _ml_integral_negative,
                             _ml_series, _series_ratios, _series_reciprocal,
                             caputo_left_l1, l1_apply, l1_weights,
                             mittag_leffler, riesz_derivative_spectral)
from fracdyn.grids import GridSpec, TimeGrid
from oracles import (L1_BLOCK_SHAPES, assert_same_bits,
                     caputo_left_quadrature_oracle, caputo_left_whole,
                     l1_history, ml_integral_negative_scalar, ml_series_loop,
                     ml_series_scalar, riesz_quadrature_oracle,
                     series_reciprocal_columns)

# ------------------------------------------------------------ L1 weights


def test_l1_weights_basic():
    w = l1_weights(0.5, 5)
    assert w[0] == 1.0
    assert np.all(np.diff(w) < 0)  # strictly decreasing
    assert np.all(w > 0)
    # classical limit: backward difference
    assert np.array_equal(l1_weights(1.0, 4), [1.0, 0.0, 0.0, 0.0])


# ------------------------------------------------------------ L1 history sum


def _l1_rows(inc, w, scale):
    """Reference history sum: one reversed-weight dot product per row."""
    n, m = inc.shape
    out = np.zeros((n + 1, m), dtype=inc.dtype)
    for j in range(1, n + 1):
        out[j] = w[j - 1::-1] @ inc[:j]
        out[j] *= scale
    return out


def _increments(rng, shape, is_complex):
    inc = rng.standard_normal(shape)
    if is_complex:
        inc = inc + 1j * rng.standard_normal(shape)
    return inc


def _l1_columns(inc, w, scale):
    """``l1_apply`` over the columns of ``inc``, a single history taken as
    one column."""
    inc = inc.reshape(inc.shape[0], -1)
    return l1_apply(lambda cols: inc[:, cols], w, scale,
                    _l1_output(inc.shape[0], inc))


def _assert_matches_rows(inc, w, scale):
    ref = _l1_rows(inc.reshape(inc.shape[0], -1), w, scale)
    out = _l1_columns(inc, w, scale)
    assert out.shape == ref.shape
    assert out.dtype == ref.dtype
    # FFT rounding is global: bound the error by the largest output entry
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("shape", [(1,), (1, 3), (997,), (997, 5), (4000,),
                                   (4000, 6)])
def test_l1_apply_matches_row_loop(shape, is_complex):
    rng = np.random.default_rng(shape[0] + len(shape))
    inc = _increments(rng, shape, is_complex)
    _assert_matches_rows(inc, l1_weights(0.6, shape[0]), 3.7)


@pytest.mark.parametrize("is_complex", [False, True])
def test_l1_apply_long_decaying_history(is_complex):
    # increments die out after a few dozen steps while the sums keep a slowly
    # decaying tail for thousands of rows
    n = 4000
    rng = np.random.default_rng(11)
    inc = _increments(rng, (n, 3), is_complex) * np.exp(-np.arange(n) / 20.0)[:, None]
    _assert_matches_rows(inc, l1_weights(0.3, n), 0.9)


def test_l1_apply_1d_roundtrip():
    # a single history, as one column
    rng = np.random.default_rng(9)
    inc = rng.standard_normal(50)
    w = l1_weights(0.5, 50)
    out = _l1_columns(inc, w, 2.0)[:, 0]
    assert out.shape == (51,)
    assert out[0] == 0.0
    # row 1 is just scale * w0 * inc0
    assert out[1] == pytest.approx(2.0 * w[0] * inc[0], rel=1e-15)


B = HISTORY_BLOCK


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 997, 3 * B + 5])
def test_history_sum_matches_direct_sum(n, is_complex):
    # push seeded rows one step at a time, as a stepper does, and check every
    # h[j] = sum_{i<j} w[j-i] x[i] against its direct dot product
    rng = np.random.default_rng(n + 7 * is_complex)
    x = _increments(rng, (n, 3), is_complex)
    w = l1_weights(0.6, n)
    mem = HistorySum(w, n, 3)
    out = np.empty_like(x)
    ref = np.zeros_like(x)
    for j in range(n):
        h = mem.history(j)
        # the sums of real rows are real, not complex with a zero part
        assert h.dtype == x.dtype or j == 0
        out[j] = h
        mem.push(j, x[j])
        ref[j] = w[j:0:-1] @ x[:j]
    # FFT rounding is global: bound the error by the largest sum
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_import_loads_no_scipy():
    # the library runs on NumPy alone; SciPy serves only as a test oracle
    code = ("import sys, fracdyn, fracdyn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    # the child imports the same fracdyn sources as this process
    env = {**os.environ, "PYTHONPATH": str(Path(fracdyn.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert res.stdout.strip() == "[]"


def test_fast_len_matches_scipy():
    # every FFT length stays the one scipy.fft would pick
    got = [_fast_len(n) for n in range(1, 20001)]
    assert got == [scipy.fft.next_fast_len(n, real=True)
                   for n in range(1, 20001)]


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 3001])
def test_series_reciprocal_inverts_the_series(n):
    # P g = 1 to rounding, coefficient by coefficient against the direct
    # convolution, for the L1 mode series P(z) = c (1 - z) W(z) + s + a z
    # of several orders, multipliers and linear forces, one call per order
    for beta, pairs in [(0.3, [(0.01, 0.0)]), (0.6, [(0.5, 0.3)]),
                        (0.9, [(0.08, -0.01), (2.0, -0.5)])]:
        c = 0.1 ** (-beta) / math.gamma(2.0 - beta)
        lags = c * np.diff(l1_weights(beta, n), prepend=0.0)
        s, a = np.array(pairs).T
        head = np.stack([lags[0] + s, (lags[1] if n > 1 else 0.0) + a])
        g = _series_reciprocal(head, lags)
        assert g.shape == (n, len(pairs))
        for col in range(len(pairs)):
            p = lags.copy()
            p[0] = head[0, col]
            if n > 1:
                p[1] = head[1, col]
            residual = np.convolve(p, g[:, col])[:n]
            residual[0] -= 1.0
            scale = np.convolve(np.abs(p), np.abs(g[:, col]))[:n].max()
            assert np.max(np.abs(residual)) <= 1e-15 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
@pytest.mark.parametrize("beta", [0.3, 0.6, 0.9])
def test_series_reciprocal_matches_whole_columns_bitwise(beta, n, monkeypatch):
    # the series the whole-run solve builds, one more mode than a column
    # block of the last Newton round holds: the solve takes every mode in
    # one call, whose reciprocal from the shared lags has the bits of the
    # one from every column's whole series, also where the late rounds take
    # one mode per block
    a, dt = 0.3, 0.1
    m = max(1, _FFT_BLOCK_BYTES // (16 * _fast_len(n))) + 1
    sym = np.linspace(0.0, 5.0, m)
    calls = []

    def recorded(head, lags):
        out = _series_reciprocal(head, lags)
        calls.append((head.copy(), lags.copy(), out.copy()))
        return out

    monkeypatch.setattr(fields, "_series_reciprocal", recorded)
    ring = LevelRing.start(TimeGrid(n, dt), np.ones(m))
    model = ModelSpec(g0=1.5, a=a, potential=Potential.GINZBURG_LANDAU)
    assert fields._solve_linear_implicit(ring, beta, model, a, sym,
                                         None) is None
    [(head, lags, out)] = calls
    assert head.shape == (2, m)
    p = np.repeat(lags[:, None], m, axis=1)
    p[0] = head[0]
    if n > 1:
        p[1] = head[1]
    assert_same_bits(out, series_reciprocal_columns(p))
    monkeypatch.setattr(fracops, "_FFT_BLOCK_BYTES", 16 * _fast_len(n))
    assert len(list(fracops._blocks(m, 16 * _fast_len(n)))) == m
    assert_same_bits(_series_reciprocal(head, lags), out)


def test_series_reciprocal_transforms_the_shared_tail_once_per_round(
        monkeypatch):
    # frac_relax's solve: 3,000 steps, 65 modes in 13 column blocks of the
    # last round.  The shared tail is the only 1-D series transformed (a
    # ring of mode coefficients is its own transform), once per Newton
    # round, not once per round and column block
    n, m = 3000, 65
    assert len(list(fracops._blocks(m, 16 * _fast_len(n)))) > 1
    rfft, tails = np.fft.rfft, []

    def spy(a, *args, **kwargs):
        if np.ndim(a) == 1:
            tails.append(len(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    ring = LevelRing.start(TimeGrid(n, 1e-3), np.ones(m))
    assert fields._solve_linear_implicit(
        ring, 0.8, ModelSpec(), 0.0, np.linspace(0.0, 50.0, m), None) is None
    assert len(tails) == math.ceil(math.log2(n))


def test_ml_quadrature_matches_one_argument_at_a_time():
    # the block pass over many arguments against the same quadrature per
    # argument: 1,000 arguments at beta = 0.9 (more than one block, refined
    # to different levels) and a geometric spread at other orders
    cases = [(0.9, np.linspace(5.5, 200.0, 1000))]
    cases += [(beta, np.geomspace(0.5, 1e4, 150))
              for beta in (0.1, 0.3, 0.5, 0.7, 0.99)]
    for beta, x in cases:
        val, der = _ml_integral_negative(beta, x)
        ref = np.array([ml_integral_negative_scalar(beta, v) for v in x])
        assert np.allclose(val, ref[:, 0], rtol=2e-15, atol=0)
        assert np.allclose(der, ref[:, 1], rtol=2e-15, atol=0)
        far = x > 5.0   # beyond the series radius: the quadrature alone
        assert np.array_equal(mittag_leffler(beta, -x[far]),
                              _ml_integral_negative(beta, x[far])[0])


def test_ml_quadrature_raises_like_one_argument_at_a_time(monkeypatch):
    # cut to two levels, the estimate misses 1e-9 at the sharp beta = 0.99
    # peak; inside an array the pass raises as the per-argument form does,
    # with the largest estimate (that of 5.01 among these three)
    monkeypatch.setattr(fracdyn.fracops, "_DE_NODES",
                        fracdyn.fracops._DE_NODES[:2])
    with pytest.raises(ConvergenceError) as one:
        ml_integral_negative_scalar(0.99, 5.01)
    with pytest.raises(ConvergenceError) as block:
        _ml_integral_negative(0.99, np.array([30.0, 5.01, 60.0]))
    assert block.value.estimate == pytest.approx(one.value.estimate,
                                                 rel=1e-12)


_TEST_ONLY_NAMES = (
    # oracles kept in tests/oracles.py
    "caputo_left_quadrature_oracle", "_require", "riesz_quadrature_oracle",
    "laplace_symbol_check", "LaplaceSymbolReport", "convergence_order",
    "interaction_sum_direct", "lattice_symbol", "lattice_symbol_increment",
    "_coupling_cosine_sum", "_check_tail", "_CHUNK", "cutoff_for_tolerance",
    "TailBoundError",
    # deleted: no result reads them
    "InteractionKernel", "principal_iomega_power", "zeta_sum", "gamma_negative",
    # deleted: second copies of nls_evolve's step and riesz_derivative_spectral
    "nls_step", "_riesz_apply",
    # deleted: the chain builds its ring symbol and state from ChainSpec alone
    "LatticeCoupling", "ChainState",
    # deleted: no run reached them; the memory kernel's convolution was
    # caputo_left_l1 scaled by g0, and the right derivative served only
    # g0_prime, which only ever had the value 0 in stepping
    "MemoryKernel", "memory_convolution", "riemann_liouville_left",
    "caputo_right_l1", "interaction_sum_fft",
    # deleted: second entries to one equation; sine-Gordon is evolve_field
    # with its ModelSpec, and the free energy's gradient is
    # stationary_residual with the spatial weight negated
    "evolve_sine_gordon", "_check_sine_gordon", "free_energy_gradient",
)


def test_library_holds_no_test_only_names():
    modules = [fracdyn] + [importlib.import_module(f"fracdyn.{m.name}")
                           for m in pkgutil.iter_modules(fracdyn.__path__)]
    for mod in modules:
        held = [n for n in _TEST_ONLY_NAMES if hasattr(mod, n)]
        assert not held, f"{mod.__name__} still defines {held}"


# ------------------------------------------------------------ left Caputo


@pytest.mark.parametrize("beta", [0.3, 0.7, 1.0, 1.3, 1.9])
def test_caputo_annihilates_constants(beta):
    u = np.full(64, 2.75)
    v0 = np.zeros(()) if beta <= 1 else 0.0
    out = caputo_left_l1(u, beta, 0.01,
                         initial_velocity=None if beta <= 1 else 0.0)
    assert np.all(out == 0.0)


def test_caputo_linear_exact():
    # piecewise-linear interpolation is exact on u(t) = t, so the only
    # error is rounding; closed form Gamma(2)/Gamma(1.5) * sqrt(t)
    dt = 1e-2
    t = np.arange(101) * dt
    out = caputo_left_l1(t, 0.5, dt)
    exact = t ** 0.5 * (math.gamma(2.0) / math.gamma(1.5))
    assert np.max(np.abs(out - exact)) < 1e-12


def test_caputo_quadratic_vs_gamma_ratio():
    # u = t^2, beta = 0.3: closed form Gamma(3)/Gamma(2.7) t^1.7
    dt = 1e-3
    t = np.arange(1001) * dt
    out = caputo_left_l1(t ** 2, 0.3, dt)
    exact = (math.gamma(3.0) / math.gamma(2.7)) * t ** 1.7
    rel = abs(out[-1] - exact[-1]) / exact[-1]
    assert rel < 1e-4
    # cross-check the closed form itself against the quadrature oracle
    orc = caputo_left_quadrature_oracle(lambda z: z ** 2, 0.3, 1.0,
                                        du=lambda z: 2.0 * z)
    assert orc == pytest.approx(exact[-1], rel=1e-10)


def test_caputo_l1_matches_oracle_on_sine():
    dt = 1e-3
    t = np.arange(2001) * dt
    out = caputo_left_l1(np.sin(t), 0.5, dt)
    idx = [200, 500, 1000, 1500, 2000]
    for i in idx:
        orc = caputo_left_quadrature_oracle(math.sin, 0.5, t[i], du=math.cos)
        assert abs(out[i] - orc) / abs(orc) < 1e-3


def test_caputo_near_one_approaches_first_derivative():
    dt = 1e-3
    t = np.arange(1001) * dt
    u = np.sin(t)
    out = caputo_left_l1(u, 0.999, dt)
    centered = (u[2:] - u[:-2]) / (2 * dt)
    assert np.max(np.abs(out[1:-1] - centered)) < 1e-2


def test_caputo_convergence_order_smooth():
    beta = 0.5
    exact = caputo_left_quadrature_oracle(lambda z: z ** 3, beta, 1.0,
                                          du=lambda z: 3.0 * z ** 2)
    errs = []
    for n in (100, 200, 400, 800):
        dt = 1.0 / n
        t = np.arange(n + 1) * dt
        errs.append((dt, abs(caputo_left_l1(t ** 3, beta, dt)[-1] - exact)))
    slopes = np.diff(np.log([e for _, e in errs])) / np.diff(np.log([h for h, _ in errs]))
    assert abs(slopes.mean() - (2 - beta)) < 0.2


def test_caputo_high_order_quadratic():
    # beta in (1, 2): D^beta t^2 = 2 t^(2-beta) / Gamma(3-beta)
    beta, dt = 1.5, 1e-3
    t = np.arange(1001) * dt
    out = caputo_left_l1(t ** 2, beta, dt, initial_velocity=0.0)
    exact = 2.0 * t ** (2 - beta) / math.gamma(3 - beta)
    assert abs(out[-1] - exact[-1]) / exact[-1] < 1e-3
    orc = caputo_left_quadrature_oracle(lambda z: z ** 2, beta, 1.0,
                                        d2u=lambda z: 2.0)
    assert orc == pytest.approx(exact[-1], rel=1e-10)


def test_caputo_beta_two_is_second_difference():
    dt = 0.1
    t = np.arange(11) * dt
    out = caputo_left_l1(t ** 2, 2.0, dt, initial_velocity=0.0)
    assert np.allclose(out[2:], 2.0, atol=1e-10)


def test_caputo_high_order_requires_velocity():
    with pytest.raises(DomainError):
        caputo_left_l1(np.arange(5.0), 1.5, 0.1)


@pytest.mark.parametrize("u, match", [
    (3.0, "got a scalar"),
    (np.array([True, False, True]), "numeric, got dtype bool"),
    (np.array(["a", "b", "c"]), "numeric, got dtype <U1"),
    (np.array([1.0, 2.0, None], dtype=object), "numeric, got dtype object"),
], ids=["scalar", "bool", "str", "object"])
def test_caputo_rejects_a_history_that_is_not_numeric_samples(u, match):
    # rejected with a typed error before any arithmetic: before, a scalar
    # raised IndexError, a boolean history NumPy's TypeError from subtract
    # and a string one NumPy's TypeError from isfinite
    with pytest.raises(DomainError, match=match):
        caputo_left_l1(u, 0.5, 0.1)


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_caputo_linearity(a, b):
    dt = 0.05
    t = np.arange(41) * dt
    u, v = np.sin(t), np.cos(3 * t)
    lhs = caputo_left_l1(a * u + b * v, 0.6, dt)
    rhs = a * caputo_left_l1(u, 0.6, dt) + b * caputo_left_l1(v, 0.6, dt)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------ oracle itself


def test_oracle_linear_closed_form():
    # D^0.5 t at t = 4 equals Gamma(2)/Gamma(1.5) sqrt(4) = 4/sqrt(pi)
    val = caputo_left_quadrature_oracle(lambda z: z, 0.5, 4.0, du=lambda z: 1.0)
    assert val == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-11)


def test_oracle_constant_is_zero():
    val = caputo_left_quadrature_oracle(lambda z: 7.0, 0.5, 1.0, du=lambda z: 0.0)
    assert val == 0.0


def test_oracle_exponential_vs_series():
    # D^0.5 e^t at t: sum_k t^(k+0.5) / Gamma(k + 1.5)
    t = 1.0
    series = sum(t ** (k + 0.5) / math.gamma(k + 1.5) for k in range(60))
    val = caputo_left_quadrature_oracle(math.exp, 0.5, t, du=math.exp)
    assert val == pytest.approx(series, rel=1e-10)


def test_oracle_requires_derivative():
    with pytest.raises(DomainError):
        caputo_left_quadrature_oracle(math.sin, 0.5, 1.0)


# ------------------------------------------------------------ streamed L1 operators

@pytest.mark.parametrize("shape", L1_BLOCK_SHAPES)
@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("beta", [0.3, 0.8, 1.0, 1.5, 2.0])
def test_caputo_streamed_matches_whole_arrays_bitwise(shape, is_complex, beta):
    # the increments formed a column block at a time give the bits of the
    # whole-array differences, in 2-D and for a single history
    u, v0 = l1_history(shape, is_complex)
    dt = 0.01
    iv, iv0 = (v0, v0[0]) if beta > 1.0 else (None, None)
    assert_same_bits(caputo_left_l1(u, beta, dt, iv),
                     caputo_left_whole(u, beta, dt, iv))
    assert_same_bits(caputo_left_l1(u[:, 0], beta, dt, iv0),
                     caputo_left_whole(u[:, 0], beta, dt, iv0))


# ------------------------------------------------------------ Riesz spectral


def test_riesz_modes_exact():
    # per-mode multiplier is exact to rounding; the pointwise residual also
    # carries eps-level noise from all other modes amplified by |k_max|^alpha
    grid = GridSpec(256, 2 * np.pi)
    x = grid.x
    kmax_floor = np.finfo(float).eps * (grid.n_points / 2) ** 2 * 8
    for alpha in (1.2, 1.5, 1.8, 2.0):
        for m in (1, 3, 17):
            u = np.exp(1j * m * x)
            out = riesz_derivative_spectral(u, alpha, grid)
            factor = np.vdot(u, out) / np.vdot(u, u)
            assert abs(factor + m ** alpha) / m ** alpha < 1e-13
            assert np.max(np.abs(out + m ** alpha * u)) < m ** alpha * 1e-12 + kmax_floor


def test_riesz_example_cos3x():
    grid = GridSpec(128, 2 * np.pi)
    u = np.cos(3 * grid.x)
    out = riesz_derivative_spectral(u, 1.5, grid)
    assert np.allclose(out, -(3.0 ** 1.5) * u, rtol=1e-12, atol=1e-12)


def test_riesz_alpha2_classical():
    grid = GridSpec(64, 2 * np.pi)
    u = np.sin(grid.x)
    out = riesz_derivative_spectral(u, 2.0, grid)
    assert np.allclose(out, -u, atol=1e-12)


def test_riesz_real_output_and_parity():
    grid = GridSpec(128, 2 * np.pi)
    x = grid.x
    even = np.cos(x) + 0.3 * np.cos(5 * x)
    out = riesz_derivative_spectral(even, 1.3, grid)
    assert out.dtype.kind == "f"
    # even function -> even output (about x = 0 on the periodic grid)
    assert np.allclose(out, np.roll(out[::-1], 1), atol=1e-12)
    odd = np.sin(2 * x)
    oo = riesz_derivative_spectral(odd, 1.3, grid)
    assert np.allclose(oo, -np.roll(oo[::-1], 1), atol=1e-12)


@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
@settings(max_examples=20, deadline=None)
def test_riesz_linearity(a, b):
    grid = GridSpec(64, 2 * np.pi)
    rng = np.random.default_rng(11)
    u, v = rng.standard_normal(64), rng.standard_normal(64)
    lhs = riesz_derivative_spectral(a * u + b * v, 1.5, grid)
    rhs = (a * riesz_derivative_spectral(u, 1.5, grid)
           + b * riesz_derivative_spectral(v, 1.5, grid))
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_riesz_rejects_bad_input():
    grid = GridSpec(16, 1.0)
    with pytest.raises(DomainError):
        riesz_derivative_spectral(np.zeros(16), -0.5, grid)
    bad = np.zeros(16)
    bad[0] = np.nan
    with pytest.raises(DomainError):
        riesz_derivative_spectral(bad, 1.5, grid)


# ------------------------------------------------------------ Riesz oracle


def test_riesz_oracle_zero():
    assert riesz_quadrature_oracle(None, 1.5, 0.2, d2u=lambda z: 0.0) == 0.0


def test_riesz_oracle_windowed_plane_wave():
    # wide smooth window around a cosine: the symbol value -|k|^alpha emerges
    # at the center, up to window truncation
    k, alpha = 2.0, 1.5

    def d2u(z):
        return -k * k * math.cos(k * z) * math.exp(-((z / 18.0) ** 8))

    val = riesz_quadrature_oracle(None, alpha, 0.3, d2u=d2u)
    assert val == pytest.approx(-k ** alpha * math.cos(k * 0.3), rel=1e-3)


def test_riesz_oracle_even_output():
    s0 = 0.7

    def d2u(z):
        e = math.exp(-z * z / (2 * s0 * s0))
        p = 1 - z * z / s0 ** 2
        return e * (-2 / s0 ** 2 + 4 * z * z / s0 ** 4 + p * (z * z / s0 ** 4 - 1 / s0 ** 2))

    a = riesz_quadrature_oracle(None, 1.4, 0.8, d2u=d2u)
    b = riesz_quadrature_oracle(None, 1.4, -0.8, d2u=d2u)
    assert a == pytest.approx(b, rel=1e-9)


def test_riesz_periodic_bump_spectral_vs_quadrature():
    # dual route: spectral multiplier on the periodized bump vs real-space
    # quadrature summed over periodic images.  The bump is mean-free, so the
    # far field decays fast enough for the image sum to converge quickly.
    alpha, s0, L, n = 1.5, 0.7, 2 * np.pi, 256
    grid = GridSpec(n, L)

    def bump(z):
        return (1 - z * z / s0 ** 2) * np.exp(-z * z / (2 * s0 * s0))

    def d2u(z):
        e = math.exp(-z * z / (2 * s0 * s0))
        p = 1 - z * z / s0 ** 2
        return e * (-2 / s0 ** 2 + 4 * z * z / s0 ** 4 + p * (z * z / s0 ** 4 - 1 / s0 ** 2))

    center = L / 2
    uper = np.zeros(n)
    for m in range(-60, 61):
        uper += bump(grid.x - center + m * L)
    spec_out = riesz_derivative_spectral(uper, alpha, grid)

    ref = np.max(np.abs(spec_out))
    for i in (128, 136, 118):  # grid nodes on the bump support
        xq = grid.x[i]
        images = sum(
            riesz_quadrature_oracle(None, alpha, (xq - center) + m * L,
                                    d2u=d2u, support_radius=12.0)
            for m in range(-40, 41))
        assert abs(spec_out[i] - images) / ref < 1e-6


def test_riesz_oracle_rejects_alpha_one():
    with pytest.raises(DomainError):
        riesz_quadrature_oracle(None, 1.0, 0.0, d2u=lambda z: 0.0)


# ------------------------------------------------------------ Mittag-Leffler


def _ml_mpmath(beta, z, terms=300):
    with mpmath.workdps(60):
        s = mpmath.mpf(0) if not isinstance(z, complex) else mpmath.mpc(0)
        for k in range(terms):
            s += mpmath.power(z, k) / mpmath.gamma(beta * k + 1)
        return complex(s) if isinstance(z, complex) else float(s)


def test_ml_beta_one_is_exp():
    for z in np.linspace(-5, 5, 21):
        assert mittag_leffler(1.0, z) == math.exp(z)


def test_ml_at_zero():
    for beta in (0.2, 0.5, 1.0, 1.7, 2.0):
        assert mittag_leffler(beta, 0.0) == 1.0


def test_ml_half_at_minus_one():
    # E_{1/2}(-1) = e * erfc(1)
    expected = math.e * math.erfc(1.0)
    assert mittag_leffler(0.5, -1.0) == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(0.4275835761558070, rel=1e-13)


def test_ml_beta_two_is_cos_on_negatives():
    for x in (0.3, 1.7, 4.2):
        assert mittag_leffler(2.0, -x) == pytest.approx(math.cos(math.sqrt(x)), rel=1e-12)


def test_ml_real_for_real():
    out = mittag_leffler(0.7, -2.3)
    assert isinstance(out, float)


def test_ml_complex_vs_mpmath():
    z = complex(0.4, 1.1)
    assert mittag_leffler(0.5, z) == pytest.approx(_ml_mpmath(0.5, z), rel=1e-11)


def test_ml_large_negative_continuation():
    # beyond the series radius the integral representation takes over;
    # for beta = 1/2 the closed form E(z) = exp(z^2) erfc(-z) is exact
    for x in (8.0, 30.0):
        got = mittag_leffler(0.5, -x)
        with mpmath.workdps(60):
            ref = float(mpmath.exp(x * x) * mpmath.erfc(x))
        assert got == pytest.approx(ref, rel=1e-8)


def _ml_negative_mpmath(beta, x, derivative=False):
    # E_beta(-x) as mpmath's own quadrature of the spectral (Laplace) form
    # in v = r^beta, where the density has no endpoint singularity:
    #   E_beta(-x) = sin(b pi)/(pi b) int_0^inf exp(-t v^(1/b)) dv / D(v),
    # t = x^(1/b), D(v) = v^2 + 2 v cos(b pi) + 1, split at the peak of
    # 1/D; E_beta'(-x) carries the extra factor u = (x v)^(1/b) over b x
    with mpmath.workdps(40):
        b, x = mpmath.mpf(beta), mpmath.mpf(x)
        c = mpmath.cos(b * mpmath.pi)

        def density(v):
            u = (x * v) ** (1 / b)
            g = mpmath.exp(-u) / (v * v + 2 * v * c + 1)
            return u * g if derivative else g
        vmax = mpmath.mpf(60) ** b / x  # exp(-60) beyond: negligible
        pts = [0, -c, vmax] if 0 < -c < vmax else [0, vmax]
        val = mpmath.quad(density, pts + [mpmath.inf])
        val *= mpmath.sin(b * mpmath.pi) / (mpmath.pi * b)
        return float(val / (b * x) if derivative else val)


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_ml_quadrature_vs_mpmath(beta):
    # the integral path (real arguments below -5, 0 < beta < 1), value and
    # derivative from one pass, against mpmath to 1e-12 relative
    for x in (5.01, 20.0, 100.0, 1e3, 1e4):
        val, der = mittag_leffler(beta, -x, derivative=True)
        assert val == mittag_leffler(beta, -x)
        assert val == pytest.approx(_ml_negative_mpmath(beta, x), rel=1e-12)
        assert der == pytest.approx(_ml_negative_mpmath(beta, x, True),
                                    rel=1e-12)


def test_ml_cancelled_series_falls_back_to_quadrature():
    # inside |z| <= 5 the series' largest term reaches 1e10-1e15 times E
    # here (it returned -22.5 for E_0.3(-3), which lies in (0, 1)); the
    # guard sends these arguments to the integral form, also inside arrays
    cases = [(0.3, 3.0), (0.3, 4.0), (0.4, 4.0), (0.5, 4.9)]
    for beta, x in cases:
        val, der = mittag_leffler(beta, -x, derivative=True)
        assert val == pytest.approx(_ml_negative_mpmath(beta, x), rel=1e-12)
        assert der == pytest.approx(_ml_negative_mpmath(beta, x, True),
                                    rel=1e-12)
    z = np.array([-0.5, -3.0, -4.0, -8.0, 1.0])
    assert mittag_leffler(0.3, z).tolist() == [mittag_leffler(0.3, v)
                                               for v in z]
    # E_{1/2}(z) = exp(z^2) erfc(-z) and E_{1/2}'(z) = 2 z E + 2 / sqrt(pi)
    with mpmath.workdps(40):
        x = mpmath.mpf(4.9)
        ref = mpmath.exp(x * x) * mpmath.erfc(x)
        dref = -2 * x * ref + 2 / mpmath.sqrt(mpmath.pi)
    val, der = mittag_leffler(0.5, -4.9, derivative=True)
    assert val == pytest.approx(float(ref), rel=1e-12)
    assert der == pytest.approx(float(dref), rel=1e-12)


def test_ml_quadrature_raises_on_an_unmet_error_estimate(monkeypatch):
    # cut to its two coarsest levels, the quadrature's level-to-level error
    # estimate stays far above 1e-9 at the sharp beta = 0.99 peak
    monkeypatch.setattr(fracdyn.fracops, "_DE_NODES",
                        fracdyn.fracops._DE_NODES[:2])
    with pytest.raises(ConvergenceError, match="integral representation"):
        mittag_leffler(0.99, -5.01)


def test_ml_quadrature_oracle_matches_series():
    # the oracle's spectral form against the series at 60 digits, where
    # both apply (|z| just past the series radius)
    for beta in (0.5, 0.7, 0.9, 0.99):
        with mpmath.workdps(60):
            b = mpmath.mpf(beta)
            series = mpmath.nsum(
                lambda k: (-mpmath.mpf(5.01)) ** k / mpmath.gamma(b * k + 1),
                [0, mpmath.inf])
        assert _ml_negative_mpmath(beta, 5.01) == pytest.approx(
            float(series), rel=1e-14)


def _ml_derivative_mpmath(beta, z, terms=300):
    with mpmath.workdps(60):
        b = mpmath.mpf(beta)
        s = sum(k * mpmath.power(z, k - 1) / mpmath.gamma(b * k + 1)
                for k in range(1, terms))
        return complex(s) if isinstance(z, complex) else float(s)


@pytest.mark.parametrize("beta", [0.5, 0.8, 0.9, 1.0, 1.5, 2.0])
def test_ml_series_derivative_vs_mpmath(beta):
    # arguments where the alternating series keeps its digits (at beta = 1/2
    # its largest derivative term reaches 1e5 times the sum near z = -3)
    for z in (-1.5, -0.7, 0.0, 0.4, 2.5, complex(0.4, 1.1),
              complex(-1.0, -1.5)):
        val, der = mittag_leffler(beta, z, derivative=True)
        assert val == mittag_leffler(beta, z)
        assert der == pytest.approx(_ml_derivative_mpmath(beta, z), rel=1e-12)


def test_ml_array_pass_matches_scalar_loops():
    # the array loop keeps each element's arithmetic and stopping rule, so
    # real arguments where the series keeps its digits give the scalar
    # loops' values bit for bit
    for beta, lo in ((0.5, -2.5), (0.8, -3.5), (0.9, -4.0), (1.5, -5.0),
                     (2.0, -5.0)):
        z = np.linspace(lo, 5.0, 97)
        val, der = mittag_leffler(beta, z, derivative=True)
        ref = [ml_series_scalar(beta, float(v)) for v in z]
        assert val.tolist() == [v for v, _ in ref]
        assert der.tolist() == [d for _, d in ref]


def _terms_summed(beta, x):
    """Terms in the sums of ``E_beta(x)`` and ``E_beta'(x)`` for one real
    ``x``, by the series' stop rules."""
    ratios = _series_ratios(beta)
    term, s, n = 1.0, 0.0, 0
    for ratio in ratios:
        s, n = s + term, n + 1
        term = term * x * ratio
        if abs(term) <= 1e-17 * max(1.0, abs(s)):
            break
    term, ds, dn = 1.0, 0.0, 0
    for k, ratio in enumerate(ratios):
        dterm = (k + 1) * ratio * term
        if abs(dterm) <= 1e-17 * max(1.0, abs(ds)):
            break
        ds, dn = ds + dterm, dn + 1
        term = term * x * ratio
    return n, dn


def test_ml_series_blocks_match_term_loop(monkeypatch):
    # the block series against the loop over single terms it replaced:
    # E, E' and loss bit for bit, also where a sum stops at either side of
    # a block's end, never stops, overflows or is NaN
    def same(beta, z):
        got, want = _ml_series(beta, z), ml_series_loop(beta, z)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w, equal_nan=True), (beta, z)
        return got

    rng = np.random.default_rng(23)
    for beta in (0.3, 0.5, 0.8, 0.9, 1.2, 1.5, 1.8, 2.0):
        for size in (1, 7, 24, 200):
            same(beta, -rng.uniform(0.0, 5.0, size))
            same(beta, rng.uniform(-5.0, 5.0, size))
            same(beta, rng.uniform(-4.0, 4.0, size)
                 + 1j * rng.uniform(-4.0, 4.0, size))
            same(beta, 1j * rng.uniform(-6.0, 6.0, size))
    # an argument array this wide takes blocks of 2 terms
    same(0.9, rng.uniform(-5.0, 5.0, 3000))
    same(0.9, rng.uniform(-3.0, 3.0, 3000)
         + 1j * rng.uniform(-3.0, 3.0, 3000))
    for dtype in (float, complex):
        same(0.5, np.array([], dtype))
    # sums of 31 to 34 terms: the first block, sized from the largest |z|,
    # holds them all; 3,000 arguments take blocks of 2 terms, which end on
    # either side of every stop
    edge = {}
    for beta in (0.5, 0.9):
        for x in np.linspace(-5.0, 0.0, 1001):
            for series, n in zip("ED", _terms_summed(beta, x)):
                edge.setdefault((beta, series, n), x)
    for n in (32, 33):
        assert all((beta, series, n) in edge for beta in (0.5, 0.9)
                   for series in "ED")
    for beta in (0.5, 0.9):
        xs = np.array([x for (b, _, n), x in edge.items()
                       if b == beta and 31 <= n <= 34])
        same(beta, xs)
        same(beta, xs * np.exp(0.1j))
        same(beta, np.resize(xs, 3000))
    # a largest argument whose sum stops just past 32 terms, as chain_fit's
    # do: its pass forms one block of terms (one cumsum per block), not a
    # second one for a term or two
    cumsum, blocks = np.cumsum, []

    def counted(*args, **kwargs):
        blocks.append(args[0].shape[1] - 1)
        return cumsum(*args, **kwargs)

    for beta in (0.5, 0.9):
        for series in "ED":
            z = np.linspace(0.0, edge[beta, series, 33], 24)
            blocks.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np, "cumsum", counted)
                _ml_series(beta, z)
            assert len(blocks) == 1 and blocks[0] > 32
            same(beta, z)
    # a first block capped by the width of the argument array: at beta =
    # 0.3 the sum of 5^k never stops, so blocks run to _MAX_TERMS, every
    # one but the last (which ends there) as long as the first
    for size in (24, 200):
        z = np.linspace(-5.0, 5.0, size)
        blocks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "cumsum", counted)
            _ml_series(0.3, z)
        assert (blocks[0] == fracops._FFT_BLOCK_BYTES // (32 * size)
                < fracops._MAX_TERMS == sum(blocks))
        assert set(blocks[:-1]) == {blocks[0]}
        same(0.3, z)
    # still summing after the last term: at beta = 0.3 the term of 5^k
    # reaches 1e90 at k = 600, finite but not small, so its loss is infinite
    s, ds, loss = same(0.3, np.array([-0.5, 5.0, 5.0j, -4.0]))
    assert np.isfinite(s[1]) and loss[1] == np.inf and loss[0] < np.inf
    # terms overflowing to inf, sums to inf or NaN, and NaN arguments
    wild = np.array([1e200, -1e200, 60.0, -60.0, np.inf, -np.inf, np.nan,
                     0.0, 1.0])
    for beta in (0.3, 0.9, 1.5, 2.0):
        s, ds, loss = same(beta, wild)
        assert np.all(loss[[0, 1, 4, 5, 6]] == np.inf)
        same(beta, wild * (1 + 1j))
        same(beta, np.array([complex(0.5, v) for v in wild]))


def test_ml_large_negative_arguments_do_not_overflow():
    # past x ~ 1e154 the quadrature's derivative scale x^2 overflowed and
    # its RuntimeWarning escaped; E(-x) tends to 1 / (x Gamma(1 - beta))
    # and E'(-x) to 1 / (x^2 Gamma(1 - beta)), which underflows to 0
    for beta in (0.5, 0.9):
        for x in (1e154, 1e200, 1e300):
            val, der = mittag_leffler(beta, -x, derivative=True)
            assert val == pytest.approx(1.0 / (x * math.gamma(1.0 - beta)),
                                        rel=1e-14)
            assert 0.0 <= der <= 1e-307
    val, der = mittag_leffler(0.9, np.array([-1e200, -2.0]), derivative=True)
    assert der[0] == 0.0 and der[1] == mittag_leffler(0.9, -2.0,
                                                      derivative=True)[1]


def test_ml_nan_argument_is_a_domain_error():
    # a NaN argument is named before any summing (the series reported it as
    # lost digits, with a ratio of inf); the first one is named
    for beta in (0.5, 1.0, 1.5):
        with pytest.raises(DomainError, match="flat index 1 is NaN: nan"):
            mittag_leffler(beta, [-1.0, np.nan, np.nan])
        with pytest.raises(DomainError,
                           match=r"flat index 2 is NaN: \(1\+nanj\)"):
            mittag_leffler(beta, np.array([[0.5j, -1.0],
                                           [complex(1, np.nan), np.nan]]))
        with pytest.raises(DomainError, match="flat index 0 is NaN"):
            mittag_leffler(beta, float("nan"), derivative=True)


def test_ml_infinite_argument_is_a_domain_error():
    # an infinite argument that would reach the series is named before any
    # summing (the series reported it as lost digits, with a ratio of inf)
    for beta, z in ((0.5, np.inf), (1.5, np.inf), (2.0, np.inf),
                    (1.5, -np.inf), (2.0, -np.inf),
                    (0.5, complex(0, np.inf)), (1.5, complex(0, np.inf))):
        with pytest.raises(DomainError, match="flat index 0 is infinite"):
            mittag_leffler(beta, z, derivative=True)
    # -inf at beta < 1 goes to the integral form, not the series
    with pytest.raises(DomainError, match="flat index 2 is infinite: inf"):
        mittag_leffler(0.5, [-1.0, -np.inf, np.inf, np.inf])
    with pytest.raises(DomainError, match=r"flat index 1 is infinite: infj"):
        mittag_leffler(1.5, np.array([[0.5j, complex(0, np.inf)],
                                      [np.inf, -1.0]]))
    assert mittag_leffler(0.5, -np.inf, derivative=True) == (0.0, 0.0)
    # beta = 1 is np.exp
    assert mittag_leffler(1.0, np.inf) == np.inf
    assert mittag_leffler(1.0, -np.inf) == 0.0


def test_ml_derivative_closed_forms():
    # beta = 1: exp on both sides of the series radius (to the series'
    # rounding inside it); beta = 1/2: E'(z) = 2 z E(z) + 2 / sqrt(pi);
    # arrays keep their shape and type
    for z in (-8.0, -2.0, 3.0, 7.0):
        val, der = mittag_leffler(1.0, z, derivative=True)
        assert val == pytest.approx(math.exp(z), rel=1e-12)
        assert der == pytest.approx(math.exp(z), rel=1e-12)
    z = np.array([[-1.0, -0.5], [0.5, 1.5]])
    val, der = mittag_leffler(0.5, z, derivative=True)
    assert val.shape == der.shape == z.shape and der.dtype == float
    assert np.allclose(der, 2 * z * val + 2 / math.sqrt(math.pi), rtol=1e-13,
                       atol=0)
    val, der = mittag_leffler(0.5, z + 0.5j, derivative=True)
    assert der.dtype == complex
    assert np.allclose(der, 2 * (z + 0.5j) * val + 2 / math.sqrt(math.pi),
                       rtol=1e-13, atol=0)


def test_ml_array_input():
    z = np.array([-1.0, 0.0, 1.0])
    out = mittag_leffler(1.0, z)
    assert np.allclose(out, np.exp(z), rtol=1e-12)


def test_ml_rejects_bad_beta():
    with pytest.raises(DomainError):
        mittag_leffler(0.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(2.5, 1.0)


def test_ml_cancellation_guard():
    # imaginary arguments at small beta lose all digits in double precision,
    # also inside |z| <= 5 (E_0.3(3i) = 0.0519+0.2517i, the series gave
    # 104+326i); the series must refuse rather than return noise
    for beta, z in ((0.25, 60j), (0.3, 3j)):
        with pytest.raises(ConvergenceError):
            mittag_leffler(beta, z)
