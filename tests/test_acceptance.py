"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the measured quantities.  Tolerances are fixed here, not tuned at run
time.  Expected values come from independent oracles (closed forms, direct
quadrature, high-cutoff summation, reference integrators) built before the
code paths they check.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import gamma, zeta

from fracdyn.analysis import dispersion_check
from fracdyn.chain import ChainSpec, continuum_limit_compare
from fracdyn.cli import main as cli_main
from fracdyn.fields import (FieldState, ModelSpec, Potential, evolve_field,
                            field_mass, free_energy, nls_evolve,
                            sine_gordon_energy, stationary_residual)
from fracdyn.fracops import (caputo_left_l1, l1_weights, mittag_leffler,
                             riesz_derivative_spectral)
from fracdyn.grids import GridSpec, TimeGrid
from oracles import (caputo_left_quadrature_oracle, convergence_order,
                     cutoff_for_tolerance, interaction_sum_direct,
                     laplace_symbol_check, lattice_symbol_increment,
                     mode_series, power_law_memory_integral,
                     ring_coupling_sum)

TWO_PI = 2 * np.pi


def _report(name, ok, detail):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_riesz_mode_multipliers_exact():
    t0 = time.time()
    grid = GridSpec(256, TWO_PI)
    x = grid.x
    worst = 0.0
    for alpha in (1.2, 1.5, 1.8, 2.0):
        for m in range(-128, 128):
            u = np.exp(1j * m * x)
            out = riesz_derivative_spectral(u, alpha, grid)
            factor = np.vdot(u, out) / np.vdot(u, u)
            target = -abs(m) ** alpha
            if m == 0:
                err = abs(factor)
            else:
                err = abs(factor - target) / abs(target)
            worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _report("01 riesz-mode-multipliers", ok,
            f"worst rel err {worst:.2e} <= 1e-12, {elapsed:.2f}s < 1s")
    assert worst < 1e-12
    assert elapsed < 1.0


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
def test_02_l1_convergence_order(beta):
    t0 = time.time()
    exact = caputo_left_quadrature_oracle(lambda z: z ** 3, beta, 1.0,
                                          du=lambda z: 3.0 * z * z)
    pts = []
    dt = 1e-2
    for _ in range(5):  # dt halved 4 times from 1e-2
        n = int(round(1.0 / dt))
        t = np.arange(n + 1) * dt
        err = abs(caputo_left_l1(t ** 3, beta, dt)[-1] - exact)
        pts.append((dt, err))
        dt /= 2.0
    order = convergence_order(pts)
    elapsed = time.time() - t0
    ok = abs(order - (2.0 - beta)) < 0.2 and elapsed < 5.0
    _report("02 l1-convergence-order", ok,
            f"beta={beta}: fitted order {order:.3f} within {2-beta:.1f}+-0.2, "
            f"{elapsed:.2f}s < 5s")
    assert abs(order - (2.0 - beta)) < 0.2
    assert elapsed < 5.0


def test_03_caputo_analytic_values():
    t0 = time.time()
    dt = 1e-4
    n = 10_000
    t = np.arange(n + 1) * dt
    val = caputo_left_l1(t, 0.5, dt)[-1]
    target = 2.0 / math.sqrt(math.pi)
    err = abs(val - target)
    const = caputo_left_l1(np.full(n + 1, 4.2), 0.5, dt)
    const_max = float(np.max(np.abs(const)))
    elapsed = time.time() - t0
    ok = err < 1e-4 and const_max == 0.0 and elapsed < 1.0
    _report("03 caputo-analytic-values", ok,
            f"|D^0.5 t - 2/sqrt(pi)| = {err:.2e} < 1e-4, constant -> {const_max}, "
            f"{elapsed:.2f}s < 1s")
    assert err < 1e-4
    assert const_max == 0.0
    assert elapsed < 1.0


def _erfc_series(x):
    # independent evaluation: erf from its alternating Taylor series
    s = 0.0
    term = x
    k = 0
    while abs(term) > 1e-18:
        s += term / (2 * k + 1)
        k += 1
        term *= -x * x / k
    return 1.0 - 2.0 / math.sqrt(math.pi) * s


def test_04_mittag_leffler_values():
    t0 = time.time()
    err1 = abs(mittag_leffler(1.0, 1.0) - math.e)
    target = math.e * _erfc_series(1.0)
    err2 = abs(mittag_leffler(0.5, -1.0) - target)
    elapsed = time.time() - t0
    ok = err1 < 1e-12 and err2 < 1e-8 and elapsed < 1.0
    _report("04 mittag-leffler-values", ok,
            f"|E_1(1)-e| = {err1:.2e} < 1e-12, |E_0.5(-1)-e*erfc(1)| = {err2:.2e} "
            f"< 1e-8, {elapsed:.2f}s < 1s")
    assert err1 < 1e-12
    assert err2 < 1e-8
    assert elapsed < 1.0


def test_05_memory_power_law_is_scaled_caputo():
    # the memory integral int_0^t M(t - s) u'(s) ds with the power-law
    # kernel M(t) = g0 t^(-beta) / Gamma(1 - beta), by quadrature, is g0
    # times the Caputo derivative: to rounding on u = t, where L1 is exact,
    # and at L1's order 2 - beta on u = t^2 (relative error at t = 1/8,
    # 1/4, 1/2, 3/4 and 1, nodes of every grid)
    t0 = time.time()
    beta, g0 = 0.6, 1.7
    exact_err, errors = 0.0, []
    probe = np.array([0.125, 0.25, 0.5, 0.75, 1.0])
    ref = np.array([power_law_memory_integral(lambda s: 2.0 * s, beta, g0, tj)
                    for tj in probe])
    for n in (256, 512, 1024):
        dt = 1.0 / n
        t = np.arange(n + 1) * dt
        linear = g0 * caputo_left_l1(t, beta, dt)[1:]
        quad = np.array([power_law_memory_integral(lambda s: 1.0, beta, g0, tj)
                         for tj in t[1:]])
        exact_err = max(exact_err, float(np.max(np.abs(linear - quad) / quad)))
        square = g0 * caputo_left_l1(t ** 2, beta, dt)
        got = square[np.rint(probe * n).astype(int)]
        errors.append((dt, float(np.max(np.abs(got - ref) / ref))))
    order = convergence_order(errors)
    elapsed = time.time() - t0
    ok = exact_err < 1e-14 and abs(order - (2.0 - beta)) < 0.05 and elapsed < 1.0
    _report("05 memory-kernel-identity", ok,
            f"u = t: max rel err {exact_err:.1e} < 1e-14; u = t^2: rel err "
            + ", ".join(f"{e:.1e}" for _, e in errors)
            + f" at dt = 1/256..1/1024, order {order:.3f} = {2.0 - beta:.1f} "
            f"+- 0.05; {elapsed:.2f}s < 1s")
    assert exact_err < 1e-14
    assert abs(order - (2.0 - beta)) < 0.05
    assert elapsed < 1.0


def test_06_continuum_constant_from_lattice_sum():
    t0 = time.time()
    alpha, theta, tol = 1.5, 1e-3, 1e-10
    cutoff = cutoff_for_tolerance(alpha, tol)
    inc = lattice_symbol_increment(alpha, theta, 1.0, cutoff, tol=tol)
    target = 2.0 * gamma(-alpha) * math.cos(0.75 * math.pi)
    ratio = inc / (target * theta ** alpha)
    elapsed = time.time() - t0
    ok = abs(ratio - 1.0) < 0.02 and elapsed < 1.0
    _report("06 continuum-constant", ok,
            f"increment/(2 G(-1.5) cos(3pi/4) (k dx)^1.5) = {ratio:.5f} "
            f"within 1 +- 0.02, cutoff {cutoff}, {elapsed:.2f}s < 1s")
    assert abs(ratio - 1.0) < 0.02
    assert elapsed < 1.0


def test_07_linear_field_mode_law():
    t0 = time.time()
    results = {}
    for beta, tol in ((1.0, 1e-3), (0.5, 5e-3)):
        grid = GridSpec(64, TWO_PI)
        tg = TimeGrid(1000, 1e-3)
        state = FieldState.from_initial(grid, tg, np.cos(grid.x))
        evolve_field(ModelSpec(g0=1.0, spatial_terms=((1.5, 0.5),)), state, beta)
        amps = np.abs(np.fft.rfft(state.history, axis=1)[:, 1]) / 32.0
        exact = np.array([abs(mittag_leffler(beta, -0.5 * tt ** beta))
                          for tt in tg.t])
        rel = np.abs(amps[1:] - exact[1:]) / exact[1:]
        results[beta] = (float(rel.max()), tol)
    elapsed = time.time() - t0
    ok = all(err < tol for err, tol in results.values()) and elapsed < 10.0
    _report("07 linear-field-mode-law", ok,
            ", ".join(f"beta={b}: max rel err {e:.2e} < {t:g}"
                      for b, (e, t) in results.items()) + f", {elapsed:.2f}s < 10s")
    for err, tol in results.values():
        assert err < tol
    assert elapsed < 10.0


def test_08_chain_vs_continuum_dispersion():
    # For 1 < alpha < 2 the lattice symbol has the two-term small-theta
    # expansion (theta = k dx)
    #     J^(theta) - J^(0) = 2 Gamma(-alpha) cos(pi alpha / 2) |theta|^alpha
    #                         - zeta(alpha - 1) theta^2 + O(theta^4),
    # so the exact lattice rates reach the pure continuum law |k|^alpha only
    # like (k dx)^(2 - alpha).  At alpha = 1.5 that gap is ~0.437 sqrt(k dx):
    # 6.2%, 9.8%, 13.8% at the three wavenumbers below, with a fitted
    # exponent of ~1.449 over them, so no correct solver can hold a 5% bound
    # per mode or +-0.05 on the exponent against the pure law here.  The test
    # therefore checks (a) each measured rate against the two-term law lam2,
    # built from scipy's gamma and zeta so it stays independent of
    # fracdyn.kernels, and (b) the order of the gap to the pure law against
    # 2 - alpha.
    t0 = time.time()
    spec = ChainSpec(n_particles=4096, dx=1.0, alpha=1.5, g0=-1.0, beta=1.0)
    modes = [13, 33, 65]  # k dx = 0.0199, 0.0506, 0.0997
    report = continuum_limit_compare(spec, modes, dt=0.05, n_steps=4600)
    elapsed = time.time() - t0
    alpha, g0 = spec.alpha, spec.g0
    theta = 2 * np.pi * np.asarray(modes) / spec.n_particles
    lam2 = -g0 * (2 * gamma(-alpha) * math.cos(math.pi * alpha / 2) * theta ** alpha
                  - zeta(alpha - 1) * theta ** 2)
    dev2 = np.abs(np.asarray(report.rate_measured) - lam2) / np.abs(lam2)
    gap_order = float(np.polyfit(np.log(theta),
                                 np.log(report.deviation_vs_continuum), 1)[0])
    order_err = abs(gap_order - (2 - alpha))
    ok = bool(np.all(dev2 < 5e-3)) and order_err < 0.05 and elapsed < 60.0
    _report("08 chain-vs-continuum-dispersion", ok,
            "per-mode deviations vs corrected continuum law "
            + ", ".join(f"{d:.1e}" for d in dev2)
            + f" (bound 5e-3); continuum gap order {gap_order:.4f} "
            f"(target {2 - alpha} +- 0.05); for information: raw deviations "
            "vs |k|^alpha "
            + ", ".join(f"{d:.4f}" for d in report.deviation_vs_continuum)
            + f", raw fitted exponent {report.fitted_exponent:.4f}, "
            "stepper-vs-lattice deviations "
            + ", ".join(f"{d:.1e}" for d in report.deviation_vs_lattice)
            + f"; {elapsed:.1f}s < 60s")
    assert elapsed < 60.0
    for dev in dev2:
        assert dev < 5e-3
    assert order_err < 0.05


def test_09_interaction_sum_brute_force():
    t0 = time.time()
    spec = ChainSpec(n_particles=256, dx=1.0, alpha=1.5, g0=1.0, beta=1.0)
    u = np.random.default_rng(0).standard_normal(256)
    diff = float(np.max(np.abs(ring_coupling_sum(spec, u)
                               - interaction_sum_direct(spec, u))))
    elapsed = time.time() - t0
    ok = diff < 1e-12 and elapsed < 1.0
    _report("09 interaction-brute-force", ok,
            f"max |conv - double loop| = {diff:.2e} < 1e-12, {elapsed:.2f}s < 1s")
    assert diff < 1e-12
    assert elapsed < 1.0


def test_10_classical_sine_gordon_kink():
    t0 = time.time()
    n, length, v, dt = 1024, 80.0, 0.2, 0.01
    steps = int(round(length / v / dt))  # one crossing of the periodic box
    grid = GridSpec(n, length)
    gam = 1.0 / math.sqrt(1.0 - v * v)
    x = grid.x - length / 2

    def pair(tau):
        xx = (x - v * tau + length / 2) % length - length / 2
        return (4 * np.arctan(np.exp(gam * (xx + length / 4)))
                + 4 * np.arctan(np.exp(-gam * (xx - length / 4))) - TWO_PI)

    u0 = pair(0.0)
    kr = grid.wavenumbers_real
    v0 = -v * np.fft.irfft(1j * kr * np.fft.rfft(u0), n=n)
    # the energies read levels 0, 1, steps - 1 and steps only: a 2-row ring,
    # with the level-0 energy taken while the ring still holds level 0
    state = FieldState.from_initial(grid, TimeGrid(steps, dt), u0,
                                    initial_velocity=v0, rows=2)
    energy = {}

    def observe(j, u):
        if j == 1:
            energy[0] = sine_gordon_energy(state, 0)

    model = ModelSpec(spatial_terms=((2.0, 1.0),),
                      potential=Potential.SINE_GORDON)
    evolve_field(model, state, 2.0, observe)
    shape_err = float(np.max(np.abs(state.current() - pair(steps * dt))))
    e0 = energy[0]
    e1 = sine_gordon_energy(state, steps - 1)
    drift = abs(e1 - e0) / e0
    elapsed = time.time() - t0
    ok = shape_err < 1e-2 and drift < 1e-2 and elapsed < 30.0
    _report("10 sine-gordon-kink", ok,
            f"Linf shape err {shape_err:.2e} < 1e-2 after one crossing, "
            f"energy drift {drift:.2e} < 1e-2, {elapsed:.1f}s < 30s")
    assert shape_err < 1e-2
    assert drift < 1e-2
    assert elapsed < 30.0


def test_11_nls_plane_wave_and_mass():
    t0 = time.time()
    n = 256
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(1000, 1e-3)
    A, mode, alpha, g, a, b = 0.75, 3, 1.5, 0.8, 0.3, 0.5
    state = FieldState.from_initial(grid, tg, A * np.exp(1j * mode * grid.x))
    nls_evolve(state, alpha, g, a, b)
    series = np.fft.fft(state.history, axis=1)[:, mode] / n
    phase = np.unwrap(np.angle(series))
    omega_meas = -np.polyfit(tg.t, phase, 1)[0]
    omega_pred = -g * mode ** alpha + a + b * A * A
    freq_err = abs(omega_meas - omega_pred) / abs(omega_pred)
    m0 = field_mass(state.history[0], grid)
    m1 = field_mass(state.current(), grid)
    drift = abs(m1 - m0) / m0
    elapsed = time.time() - t0
    ok = freq_err < 1e-4 and drift < 1e-10 and elapsed < 10.0
    _report("11 nls-plane-wave", ok,
            f"freq rel err {freq_err:.2e} < 1e-4, mass drift {drift:.2e} < 1e-10 "
            f"per 1000 steps, {elapsed:.1f}s < 10s")
    assert freq_err < 1e-4
    assert drift < 1e-10
    assert elapsed < 10.0


def test_12_dispersion_exponent_sweep():
    t0 = time.time()
    fitted = {}
    for alpha in (1.2, 1.5, 1.8):
        grid = GridSpec(128, TWO_PI)
        tg = TimeGrid(1000, 1e-3)
        modes = [1, 2, 3, 4, 6, 8]
        u0 = np.zeros(128, dtype=complex)
        for m in modes:
            u0 += np.exp(1j * m * grid.x)
        state = FieldState.from_initial(grid, tg, u0)
        nls_evolve(state, alpha, 1.0, 0.0, 0.0)
        rep = dispersion_check(mode_series(state, modes), alpha=alpha,
                               beta=1.0, g=1.0, a=0.0, b=0.0)
        fitted[alpha] = rep.fitted_exponent
    elapsed = time.time() - t0
    ok = all(abs(fitted[a] - a) < 0.02 for a in fitted) and elapsed < 30.0
    _report("12 dispersion-exponent", ok,
            ", ".join(f"alpha={a}: fitted {fitted[a]:.4f}" for a in fitted)
            + f" (each within +-0.02), {elapsed:.1f}s < 30s")
    for a, f in fitted.items():
        assert abs(f - a) < 0.02
    assert elapsed < 30.0


def test_13_variational_consistency():
    t0 = time.time()
    n = 128
    grid = GridSpec(n, TWO_PI)
    model = ModelSpec(spatial_terms=((1.5, 0.7),), a=-0.4, b=0.9,
                      potential=Potential.GINZBURG_LANDAU)
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(2):
        coef = rng.standard_normal(9)
        u = sum(coef[j] * np.cos(j * grid.x + 0.3 * j) for j in range(9))
        # the gradient is the stationary residual with the spatial weight
        # negated, times dx
        grad = stationary_residual(u, grid, 1.5, -0.7, -0.4, 0.9) * grid.dx
        # error relative to the gradient scale: the pointwise ratio is
        # unbounded at nodes where the gradient crosses zero, which no
        # finite-difference can resolve at perturbation 1e-6 in doubles
        scale = float(np.max(np.abs(grad)))
        eps = 1e-6
        for i in range(n):
            up, um = u.copy(), u.copy()
            up[i] += eps
            um[i] -= eps
            fd = (free_energy(up, model, grid)
                  - free_energy(um, model, grid)) / (2 * eps)
            worst = max(worst, abs(fd - grad[i]) / scale)
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    _report("13 variational-consistency", ok,
            f"worst node rel err {worst:.2e} < 1e-6 at perturbation 1e-6, "
            f"{elapsed:.1f}s < 5s")
    assert worst < 1e-6
    assert elapsed < 5.0


def test_14_laplace_symbol_identity():
    t0 = time.time()
    rep = laplace_symbol_check(lambda t: math.exp(-t),
                               lambda t: -math.exp(-t),
                               0.5, [1.0, 2.0, 5.0], horizon=40.0)
    elapsed = time.time() - t0
    ok = rep.max_discrepancy < 1e-5 and elapsed < 5.0
    _report("14 laplace-symbol", ok,
            f"max rel discrepancy {rep.max_discrepancy:.2e} < 1e-5 over "
            f"s in {{1, 2, 5}}, horizon 40, {elapsed:.1f}s < 5s")
    assert rep.max_discrepancy < 1e-5
    assert elapsed < 5.0


DETERMINISM_CONFIG = """
[experiment]
kind = nls
seed = 99

[grid]
n_points = 128
length = 6.283185307179586

[time]
dt = 0.001
n_steps = 200

[nls]
alpha = 1.5
g = 1.0
a = 0.1
b = 0.5

[initial]
kind = random
amplitude = 0.1

[output]
snapshot_every = 50
"""


def test_15_cli_determinism(tmp_path):
    cfg = tmp_path / "config.ini"
    cfg.write_text(DETERMINISM_CONFIG)
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli_main(["nls", "--config", str(cfg), "--out", str(d1),
                    "--seed", "99"])
    rc2 = cli_main(["nls", "--config", str(cfg), "--out", str(d2),
                    "--seed", "99"])
    identical = all((d1 / f).read_bytes() == (d2 / f).read_bytes()
                    for f in ("metadata.json", "snapshots.csv", "summary.json"))
    ok = rc1 == rc2 == 0 and identical
    _report("15 cli-determinism", ok,
            f"exit codes {rc1}/{rc2}, byte-identical outputs: {identical}")
    assert rc1 == 0 and rc2 == 0
    assert identical
