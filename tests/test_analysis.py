"""Diagnostics tests: dispersion extraction, the Laplace-symbol identity,
and convergence-order fitting."""

import math

import numpy as np
import pytest

from fracdyn import analysis
from fracdyn.analysis import dispersion_check
from fracdyn.errors import ConvergenceError, DomainError
from fracdyn.fields import FieldState, nls_evolve, nls_linear_mode_evolution
from fracdyn.fracops import mittag_leffler
from fracdyn.grids import GridSpec, TimeGrid
from oracles import (convergence_order, laplace_symbol_check,
                     ml_rate_least_squares, ml_rate_one_fit, mode_series)

TWO_PI = 2 * np.pi


# ------------------------------------------------------------ dispersion


def _nls_state(modes, n=256, steps=2000, dt=1e-3, amp=1.0):
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(steps, dt)
    u0 = np.zeros(n, dtype=complex)
    for m in modes:
        u0 += amp * np.exp(1j * m * grid.x)
    return FieldState.from_initial(grid, tg, u0)


def _nls_series(modes, alpha, g, a, b, **kw):
    state = _nls_state(modes, **kw)
    nls_evolve(state, alpha, g, a, b)
    return mode_series(state, modes)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
def test_dispersion_linear_modes_match_law(alpha):
    g, a = 0.8, 0.3
    modes = [1, 2, 3, 5, 8]
    report = dispersion_check(_nls_series(modes, alpha, g, a, 0.0),
                              alpha=alpha, beta=1.0, g=g, a=a, b=0.0)
    assert max(report.rel_err) < 1e-4
    assert abs(report.fitted_exponent - alpha) < 1e-4


def test_dispersion_nonlinear_shift():
    # single plane wave: the frequency shift is exactly b A^2
    alpha, g, a, b, amp = 1.5, 1.0, 0.0, 0.7, 0.6
    report = dispersion_check(_nls_series([3], alpha, g, a, b, amp=amp),
                              alpha=alpha, beta=1.0, g=g, a=a, b=b)
    assert report.rel_err[0] < 1e-6
    omega_nonlinear = report.measured[0]
    # rerun without the nonlinearity: shift = b amp^2
    r0 = dispersion_check(_nls_series([3], alpha, g, a, 0.0, amp=amp),
                          alpha=alpha, beta=1.0, g=g, a=a, b=0.0)
    shift = omega_nonlinear - r0.measured[0]
    assert shift == pytest.approx(b * amp ** 2, rel=1e-4)


def test_dispersion_exponent_sweep():
    for alpha in (1.2, 1.8):
        modes = [1, 2, 3, 4, 6, 8]
        source = _nls_series(modes, alpha, 1.0, 0.0, 0.0, steps=1000)
        report = dispersion_check(source, alpha=alpha, beta=1.0, g=1.0, a=0.0,
                                  b=0.0)
        assert abs(report.fitted_exponent - alpha) < 0.02


def test_dispersion_fractional_mode_source():
    alpha, beta, g, a = 1.5, 0.5, 1.0, 0.2
    times = np.linspace(0.0, 2.0, 41)
    mode_dict = {}
    for k in (0.5, 1.0, 2.0):
        mode_dict[k] = nls_linear_mode_evolution(alpha, beta, g, a, k,
                                                 1.0 + 0.0j, times)
    report = dispersion_check((times, mode_dict), alpha=alpha, beta=beta,
                              g=g, a=a)
    assert max(report.rel_err) < 1e-6
    for lam, k in zip(report.predicted, report.k):
        assert lam == pytest.approx(1j * (-g * k ** alpha + a))


def _perturbed_mode_law(beta, k, alpha=1.5, g=1.0, a=0.2):
    # a mode law off by ~1e-3, as a stepped run never follows it exactly
    times = np.linspace(0.0, 2.0, 41)
    exact = nls_linear_mode_evolution(alpha, beta, g, a, k, 1.0 + 0.0j, times)
    series = exact * (1 + 1e-3 * np.sin(3 * times) + 2e-3j * times ** 2)
    return times, series, 1j * (-g * k ** alpha + a)


def _misfit(times, series, beta, lam):
    tb = times ** beta
    val, der = mittag_leffler(beta, lam * tb, derivative=True)
    r, jac = val - series, tb * der
    return np.vdot(r, r).real, abs(np.vdot(jac, r)) / (
        np.linalg.norm(jac) * np.linalg.norm(series))


@pytest.mark.parametrize("beta, k", [(0.5, 0.5), (0.5, 1.0), (0.8, 0.5),
                                     (0.8, 1.0), (0.8, 2.0)])
def test_dispersion_rate_fit_matches_least_squares(beta, k):
    # complex rates: the holomorphic Gauss-Newton fit against SciPy's least
    # squares over the real and imaginary parts
    times, series, guess = _perturbed_mode_law(beta, k)
    lam = analysis._ml_rates([times], [series], beta, [guess])[0]
    assert isinstance(lam, complex)
    assert lam == pytest.approx(
        ml_rate_least_squares(times, series, beta, guess), rel=1e-9)
    assert _misfit(times, series, beta, lam)[1] <= 1e-14


def test_dispersion_rate_fit_where_the_series_cancels():
    # at beta = 1/2, k = 2 the arguments reach |z| = 3.7, where the series
    # terms peak 1e5-1e6 times above E and E': the Gauss-Newton fit stops
    # once its steps stall at that rounding (relative ~1e-12), while
    # least squares with a finite-difference Jacobian stops about 1.5e-7
    # away; the fit's misfit is the smaller and its gradient the nearer 0
    times, series, guess = _perturbed_mode_law(0.5, 2.0)
    lam = analysis._ml_rates([times], [series], 0.5, [guess])[0]
    ref = ml_rate_least_squares(times, series, 0.5, guess)
    cost, grad = _misfit(times, series, 0.5, lam)
    ref_cost, ref_grad = _misfit(times, series, 0.5, ref)
    assert cost <= ref_cost and grad <= 1e-11 < ref_grad
    assert lam == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rate_fit_names_a_non_finite_step(bad):
    # a non-finite step ends the fit at once, and the error says where,
    # rather than reporting a 50-iteration budget after one try
    times = np.linspace(0.1, 3.0, 24)
    ratio = mittag_leffler(0.9, -0.5 * times ** 0.9)
    ratio[5] = bad
    with pytest.raises(ConvergenceError, match=r"iteration 1 gave the non-finite "
                       r"Gauss-Newton step (nan|-?inf)"):
        analysis._ml_rates([times], [ratio], 0.9, [-0.4])


@pytest.mark.parametrize("beta", [0.5, 0.8])
def test_lockstep_dispersion_fits_equal_one_fit_at_a_time(beta):
    # the complex rate fits of dispersion_check, in one lockstep loop,
    # against each fit alone, bit for bit; at beta = 1/2, k = 2 the series
    # cancels and that fit stops on its stall rule
    laws = {k: _perturbed_mode_law(beta, k) for k in (0.5, 1.0, 2.0)}
    times = laws[0.5][0]
    report = dispersion_check((times, {k: law[1] for k, law in laws.items()}),
                              alpha=1.5, beta=beta, g=1.0, a=0.2)
    alone = [ml_rate_one_fit(times, series / series[0], beta, guess)[0]
             for _, series, guess in laws.values()]
    assert report.measured == [complex(lam) for lam in alone]


def test_lockstep_rate_fit_error_order(monkeypatch):
    # of two failing fits the error is the first in (round, fit) order: a
    # later fit that fails in round 1 before an earlier one whose budget
    # runs out in round 2, and the earlier of two that fail in one round,
    # whether both steps are non-finite or the earlier fit's budget runs
    # out in the round where the later one's step is non-finite
    times = np.linspace(0.1, 3.0, 24)
    ratio = mittag_leffler(0.9, -0.5 * times ** 0.9)
    broken = np.full(24, np.nan)
    monkeypatch.setattr(analysis, "_RATE_FIT_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match=r"from -0\.3 did not converge: "
                       r"iteration 1 gave the non-finite"):
        analysis._ml_rates([times, times], [ratio, broken], 0.9, [-0.1, -0.3])
    with pytest.raises(ConvergenceError, match=r"from -0\.1 did not converge "
                       r"within 2 iterations"):
        analysis._ml_rates([times, times], [ratio, ratio], 0.9, [-0.1, -0.3])
    with pytest.raises(ConvergenceError, match=r"from -0\.2 did not converge: "
                       r"iteration 1"):
        analysis._ml_rates([times, times], [broken, broken], 0.9, [-0.2, -0.3])
    monkeypatch.setattr(analysis, "_RATE_FIT_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match=r"from -0\.1 did not converge "
                       r"within 1 iterations"):
        analysis._ml_rates([times, times], [ratio, broken], 0.9, [-0.1, -0.3])


def test_dispersion_rejects_beta_mismatch():
    source = _nls_series([1], 1.5, 1.0, 0.0, 0.0, steps=10)
    # the Mittag-Leffler fit below beta = 1 has no nonlinear law
    with pytest.raises(DomainError, match="requires b = 0"):
        dispersion_check(source, alpha=1.5, beta=0.5, g=1.0, a=0.0, b=0.7)
    with pytest.raises(DomainError, match="temporal order"):
        dispersion_check(source, alpha=1.5, beta=1.5, g=1.0, a=0.0)


# ------------------------------------------------------------ Laplace identity


def test_laplace_identity_decaying_exponential():
    u = lambda t: math.exp(-t)
    du = lambda t: -math.exp(-t)
    rep = laplace_symbol_check(u, du, 0.5, [1.0, 2.0, 5.0], horizon=40.0)
    assert rep.max_discrepancy < 1e-6
    # independent closed form of the transform side: v(s) = 1/(s+1)
    for s, rhs in zip(rep.s, rep.rhs):
        assert rhs == pytest.approx(s ** 0.5 / (s + 1.0) - s ** (-0.5), rel=1e-9)


def test_laplace_identity_zero_start_reduces():
    u = lambda t: 1.0 - math.exp(-t)   # u(0) = 0
    du = lambda t: math.exp(-t)
    rep = laplace_symbol_check(u, du, 0.4, [2.0], horizon=40.0)
    assert rep.max_discrepancy < 1e-6
    v = 1.0 / 2.0 - 1.0 / 3.0  # int e^{-2t}(1 - e^{-t}) = 1/2 - 1/3
    assert rep.rhs[0] == pytest.approx(2.0 ** 0.4 * v, rel=1e-9)


def test_laplace_identity_beta_near_one_classical():
    u = lambda t: math.exp(-t)
    du = lambda t: -math.exp(-t)
    rep = laplace_symbol_check(u, du, 0.999, [2.0], horizon=40.0)
    classical = 2.0 * (1.0 / 3.0) - 1.0  # s v(s) - u(0)
    assert rep.lhs[0] == pytest.approx(classical, rel=2e-3)


def test_laplace_discrepancy_decreases_with_horizon():
    u = lambda t: math.exp(-t)
    du = lambda t: -math.exp(-t)
    vals = [laplace_symbol_check(u, du, 0.5, [1.0], horizon=h,
                                 tail_tol=1e-3).max_discrepancy
            for h in (10.0, 20.0, 40.0)]
    assert vals[0] > vals[1] > vals[2]


def test_laplace_horizon_guard():
    u = lambda t: 1.0 / (1.0 + t)
    du = lambda t: -1.0 / (1.0 + t) ** 2
    with pytest.raises(ConvergenceError):
        laplace_symbol_check(u, du, 0.5, [0.01], horizon=5.0, tail_tol=1e-10)


# ------------------------------------------------------------ convergence order


def test_convergence_order_exact_square():
    pts = [(h, 3.0 * h ** 2) for h in (0.1, 0.05, 0.025, 0.0125)]
    assert convergence_order(pts) == pytest.approx(2.0, abs=1e-12)


def test_convergence_order_noisy_three_halves():
    rng = np.random.default_rng(17)
    pts = [(h, h ** 1.5 * (1.0 + 0.01 * rng.standard_normal()))
           for h in (0.2, 0.1, 0.05, 0.025, 0.0125)]
    assert convergence_order(pts) == pytest.approx(1.5, abs=0.05)


def test_convergence_order_flat():
    pts = [(h, 0.37) for h in (0.1, 0.05, 0.025)]
    assert abs(convergence_order(pts)) < 1e-12


def test_convergence_order_validation():
    with pytest.raises(DomainError):
        convergence_order([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(DomainError):
        convergence_order([(0.1, 1.0), (0.05, 0.5), (0.03, 0.2)])
    with pytest.raises(DomainError):
        convergence_order([(0.1, 1.0), (0.05, -0.5), (0.025, 0.2)])
