"""Field-equation tests.  Independent oracles built first: a classical
semi-implicit spectral integrator, a dense-matrix Newton solver, the
Mittag-Leffler mode law, and manufactured solutions."""

import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn import fields, fracops
from fracdyn.errors import BlowUpError, ConvergenceError, DomainError
from fracdyn.fields import (FieldState, Interaction, ModelSpec, Potential,
                            evolve_field, field_mass, free_energy, nls_evolve,
                            nls_linear_mode_evolution, residual,
                            sine_gordon_energy, stationary_fgle_solve,
                            stationary_residual)
from fracdyn.fracops import HISTORY_BLOCK, mittag_leffler
from fracdyn.grids import GridSpec, TimeGrid
from oracles import (EXTENDED_PRECISION, assert_same_bits,
                     evolve_linear_implicit_direct,
                     evolve_linear_implicit_extended, l1_history,
                     place_per_level, residual_whole,
                     stationary_jacobian_three_fft)

TWO_PI = 2 * np.pi


def _sine_gordon(alpha):
    """``D^beta u - Riesz_alpha u + sin u = 0``, as the runner builds it."""
    return ModelSpec(g0=1.0, spatial_terms=((alpha, 1.0),),
                     potential=Potential.SINE_GORDON)


# ------------------------------------------------------------ model spec


def test_gl_force_pointwise():
    m = ModelSpec(a=-1.0, b=2.0, potential=Potential.GINZBURG_LANDAU)
    u = np.linspace(-2, 2, 11)
    assert np.allclose(m.force(u), -u + 2.0 * u ** 3, rtol=0, atol=0)


def test_gl_force_without_cubic_term_is_linear():
    # at b = 0 the force is a u exactly, also where u^3 overflows (|u| above
    # about 5.6e102), which made it 0 * inf = NaN
    u = np.concatenate([-np.logspace(-300, 300, 61), np.logspace(-300, 300, 61),
                        [0.0]])
    for a in (-500.0, 0.3, 1.0):
        m = ModelSpec(a=a, potential=Potential.GINZBURG_LANDAU)
        assert np.array_equal(m.force(u), a * u)


def test_sine_gordon_force():
    m = ModelSpec(potential=Potential.SINE_GORDON)
    u = np.linspace(-3, 3, 7)
    assert np.array_equal(m.force(u), np.sin(u))


def test_interaction_choices():
    u = np.array([0.5, -1.0])
    assert np.array_equal(ModelSpec(interaction=Interaction.SQUARE).interaction_apply(u), u ** 2)
    m = ModelSpec(interaction=Interaction.QUADRATIC_MIX, interaction_mix=0.3)
    assert np.allclose(m.interaction_apply(u), u - 0.3 * u ** 2)


def test_model_validation():
    with pytest.raises(DomainError):
        ModelSpec(spatial_terms=((2.5, 1.0),))


# ------------------------------------------------------------ evolve_field


def _single_mode_state(n, n_steps, dt, mode=1, amplitude=1.0):
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(n_steps, dt)
    u0 = amplitude * np.cos(mode * grid.x)
    return grid, tg, FieldState.from_initial(grid, tg, u0)


def test_zero_field_stays_zero():
    grid, tg, state = _single_mode_state(32, 50, 0.01, amplitude=0.0)
    model = ModelSpec(spatial_terms=((1.5, 1.0),), a=1.0, b=0.5,
                      potential=Potential.GINZBURG_LANDAU)
    evolve_field(model, state, 0.7)
    assert np.all(state.history == 0.0)


@pytest.mark.parametrize("beta,tol", [(0.5, 5e-3), (1.0, 1e-3)])
def test_single_mode_follows_mittag_leffler(beta, tol):
    grid, tg, state = _single_mode_state(64, 1000, 1e-3)
    model = ModelSpec(g0=1.0, spatial_terms=((1.5, 0.5),))
    evolve_field(model, state, beta)
    amps = np.abs(np.fft.rfft(state.history, axis=1)[:, 1]) / (64 / 2)
    rate = 0.5 * 1.0 ** 1.5  # g_s |k|^s / g0
    t = tg.t
    exact = np.array([abs(mittag_leffler(beta, -rate * tt ** beta)) for tt in t])
    rel = np.abs(amps[1:] - exact[1:]) / exact[1:]
    assert rel.max() < tol


def test_uniform_state_flows_to_gl_minimum():
    grid = GridSpec(16, TWO_PI)
    tg = TimeGrid(4000, 0.01)
    state = FieldState.from_initial(grid, tg, np.full(16, 0.1))
    # flow du/dt = g Riesz u + a u + b u^3 at g = 1, a = 1, b = -1, written
    # as du/dt + g (-Lap) u - a u - b u^3 = 0: fixed points u* with
    # a u + b u^3 = 0 -> u* = 1
    model = ModelSpec(g0=1.0, spatial_terms=((2.0, 1.0),), a=-1.0, b=1.0,
                      potential=Potential.GINZBURG_LANDAU)
    evolve_field(model, state, 1.0)
    assert np.allclose(state.current(), 1.0, atol=1e-8)


def test_classical_limit_matches_independent_integrator():
    # oracle: plain semi-implicit spectral stepper for
    # du/dt = -(g |k|^2 via fractional laplacian) u - (a u + b u^3), written
    # without any of the L1 machinery
    n, steps, dt = 64, 100, 0.01
    grid = GridSpec(n, TWO_PI)
    rng = np.random.default_rng(5)
    u0 = 0.3 * np.cos(grid.x) + 0.05 * rng.standard_normal(n)
    g, a, b = 0.7, -1.0, 1.0

    kr = grid.wavenumbers_real
    u_ref = u0.copy()
    for _ in range(steps):
        force = a * u_ref + b * u_ref ** 3
        u_ref = np.fft.irfft((np.fft.rfft(u_ref) / dt - np.fft.rfft(force))
                             / (1.0 / dt + g * kr ** 2), n=n)

    tg = TimeGrid(steps, dt)
    state = FieldState.from_initial(grid, tg, u0)
    model = ModelSpec(g0=1.0, spatial_terms=((2.0, g),), a=a, b=b,
                      potential=Potential.GINZBURG_LANDAU)
    evolve_field(model, state, 1.0)
    assert np.max(np.abs(state.current() - u_ref)) < 1e-8


def test_two_kernel_mode_rate():
    # two spatial terms: rate -(g_s |k|^2 + g_a |k|^a)/g0 against the mode law
    n, dt, steps = 64, 1e-3, 800
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(steps, dt)
    mode = 2
    state = FieldState.from_initial(grid, tg, np.cos(mode * grid.x))
    gs, ga, alpha, g0, beta = 0.05, 0.1, 1.5, 2.0, 0.6
    model = ModelSpec(g0=g0, spatial_terms=((2.0, gs), (alpha, ga)))
    evolve_field(model, state, beta)
    rate = (gs * mode ** 2 + ga * mode ** alpha) / g0
    amps = np.abs(np.fft.rfft(state.history, axis=1)[:, mode]) / (n / 2)
    t = tg.t
    exact = np.array([abs(mittag_leffler(beta, -rate * tt ** beta)) for tt in t])
    rel = np.abs(amps[1:] - exact[1:]) / exact[1:]
    assert rel.max() < 5e-3


def test_mode_law_error_orders():
    # the relaxation solution has a t^beta initial layer, so on a uniform
    # mesh the max-over-trajectory error of the L1 stepper converges at
    # order beta (first step) while the fixed-final-time error converges at
    # first order; the 2-beta rate is recovered only on smooth data (see the
    # operator-level order test on t^3)
    from oracles import convergence_order
    beta = 0.5
    dts = (4e-3, 2e-3, 1e-3, 5e-4)
    errs_max, errs_end = [], []
    for dt in dts:
        n = int(round(1.0 / dt))
        grid = GridSpec(16, TWO_PI)
        state = FieldState.from_initial(grid, TimeGrid(n, dt), np.cos(grid.x))
        evolve_field(ModelSpec(g0=1.0, spatial_terms=((1.5, 0.5),)), state, beta)
        amps = np.abs(np.fft.rfft(state.history, axis=1)[:, 1]) / 8.0
        exact = np.array([abs(mittag_leffler(beta, -0.5 * tt ** beta))
                          for tt in state.times])
        rel = np.abs(amps[1:] - exact[1:]) / exact[1:]
        errs_max.append(float(rel.max()))
        errs_end.append(float(rel[-1]))
    assert convergence_order(list(zip(dts, errs_max))) == pytest.approx(beta, abs=0.1)
    assert convergence_order(list(zip(dts, errs_end))) == pytest.approx(1.0, abs=0.1)


def test_translation_equivariance():
    n = 64
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(50, 0.01)
    rng = np.random.default_rng(1)
    u0 = rng.standard_normal(n)
    model = ModelSpec(g0=1.0, spatial_terms=((1.5, 0.4),), a=-0.5, b=0.2,
                      potential=Potential.GINZBURG_LANDAU)
    s1 = FieldState.from_initial(grid, tg, u0)
    evolve_field(model, s1, 0.7)
    s2 = FieldState.from_initial(grid, tg, np.roll(u0, 5))
    evolve_field(model, s2, 0.7)
    assert np.allclose(s2.history, np.roll(s1.history, 5, axis=1),
                       rtol=1e-11, atol=1e-11)


@EXTENDED_PRECISION
@pytest.mark.parametrize("field_kind", ["real", "complex"])
@pytest.mark.parametrize("beta", [0.6, 0.9, 1.0, 1.5, 2.0])
def test_stepper_matches_direct_memory_sum(beta, field_kind):
    # long enough for FFT products of two block sizes in the memory sum;
    # the oracle is the same scheme in extended precision, carrying the
    # increment in (1, 2] as the library does.  Measured: at most 3.2e-15
    # of max|u| at beta <= 1, 1.2e-15 at 1.5 and 1.0e-14 at 2, where
    # forming each level from the previous two reached 3.8e-14 and 4.2e-13
    n, steps = 32, 3 * HISTORY_BLOCK + 5
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(steps, 0.01)
    model = ModelSpec(g0=1.0, spatial_terms=((1.5, 0.5),), a=-1.0, b=1.0,
                      potential=Potential.GINZBURG_LANDAU)
    rng = np.random.default_rng(5)
    u0 = 0.3 * np.cos(grid.x) + 0.05 * rng.standard_normal(n)
    v0 = 0.1 * np.sin(grid.x)
    if field_kind == "complex":
        u0 = u0 + 0.2j * np.sin(2 * grid.x)
        v0 = v0 + 0j
    v0 = v0 if beta > 1.0 else None
    state = FieldState.from_initial(grid, tg, u0, initial_velocity=v0)
    evolve_field(model, state, beta)
    sym = model.spatial_symbol(state.wavenumbers)
    ref = evolve_linear_implicit_extended(state, beta, model, sym)
    err = np.max(np.abs(state.history - ref))
    assert err <= 1e-13 * np.max(np.abs(ref))
    if beta in (1.0, 2.0):
        # no memory sum: the double-precision oracle's arithmetic, bit for bit
        direct = FieldState.from_initial(grid, tg, u0, initial_velocity=v0)
        evolve_linear_implicit_direct(direct, beta, model, sym)
        assert np.array_equal(state.history, direct.history)


@pytest.mark.parametrize("beta, model", [
    (1.5, ModelSpec()),
    (0.8, ModelSpec(a=-2.0, potential=Potential.GINZBURG_LANDAU))])
def test_real_mode_ring_steps_its_memory_sum_in_real_rows(beta, model, caplog):
    # a real ring of mode coefficients is its own transform, so the memory
    # sum gets real rows and must sum them as real: complex sums made every
    # level complex and its write to a real ring row raised ComplexWarning
    # (a = -2 grows the first mode, so beta = 0.8 is stepped too).  The
    # direct memory sum is the oracle, in units of max|u|, as for the solve
    steps, sym = 3 * HISTORY_BLOCK + 5, np.array([1.0, 2.0, 3.0])
    u0, v0 = [1.0, 0.5, 0.2], np.zeros(3) if beta > 1.0 else None

    def start():
        return fields.LevelRing.start(TimeGrid(steps, 0.01), u0,
                                      initial_velocity=v0)

    ring = start()
    caplog.set_level(logging.DEBUG, logger="fracdyn")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fields._evolve_linear_implicit(ring, beta, model, sym)
    assert caplog.messages == [f"evolve: stepped {steps} steps × 3 modes"]
    direct = evolve_linear_implicit_direct(start(), beta, model, sym)
    assert ring.history.dtype == np.float64
    scale = np.max(np.abs(direct.history))
    assert np.max(np.abs(ring.history - direct.history)) <= 2e-14 * scale


@EXTENDED_PRECISION
def test_second_order_stepper_keeps_its_digits_over_a_long_run():
    # a kink pair of the classical sine-Gordon equation over 2,000 steps,
    # against the same scheme in extended precision, which carries the
    # increment as the library does.  Each step adds to the increment
    # u_{j+1} - u_j, so no step cancels terms of size c/dt |u| = 1e4 |u|.
    # Measured: 7.7e-14 of max|u| (4.2e-14 against the oracle that formed
    # each level from the previous two, itself 3.9e-14 off); the library
    # forming each level that way reached 7.3e-11
    n, length, v, dt, steps = 128, 40.0, 0.2, 0.01, 2000
    grid = GridSpec(n, length)
    gam = 1.0 / math.sqrt(1.0 - v * v)
    x = grid.x - length / 2
    u0 = (4 * np.arctan(np.exp(gam * (x + length / 4)))
          + 4 * np.arctan(np.exp(-gam * (x - length / 4))) - TWO_PI)
    kr = grid.wavenumbers_real
    v0 = -v * np.fft.irfft(1j * kr * np.fft.rfft(u0), n=n)
    state = FieldState.from_initial(grid, TimeGrid(steps, dt), u0,
                                    initial_velocity=v0)
    model = _sine_gordon(2.0)
    evolve_field(model, state, 2.0)
    ref = evolve_linear_implicit_extended(state, 2.0, model,
                                          model.spatial_symbol(kr))
    assert np.max(np.abs(state.history - ref)) <= 1e-12 * np.max(np.abs(ref))


def _recorder():
    """An ``observe`` callback that copies every level it sees."""
    seen = {}

    def observe(j, u):
        seen[j] = u.copy()
    return observe, seen


@pytest.mark.parametrize("beta", [0.6, 0.9, 1.5, 2.0])
def test_two_row_ring_matches_full_history(beta):
    # the full-history run is the oracle; the lagged force reads the newest
    # level back from its ring row
    n, steps = 32, 2 * HISTORY_BLOCK + 7
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(steps, 0.01)
    model = ModelSpec(g0=1.0, spatial_terms=((1.5, 0.5),), a=-1.0, b=1.0,
                      potential=Potential.GINZBURG_LANDAU)
    rng = np.random.default_rng(6)
    u0 = 0.3 * np.cos(grid.x) + 0.05 * rng.standard_normal(n)
    v0 = 0.1 * np.sin(grid.x) if beta > 1.0 else None
    full = FieldState.from_initial(grid, tg, u0, initial_velocity=v0)
    evolve_field(model, full, beta)
    ring = FieldState.from_initial(grid, tg, u0, initial_velocity=v0, rows=2)
    observe, seen = _recorder()
    evolve_field(model, ring, beta, observe)
    assert ring.history.shape == (2, n)
    assert sorted(seen) == list(range(1, steps + 1))
    for j, u in seen.items():
        assert np.array_equal(u, full.history[j])
    assert np.array_equal(ring.current(), full.history[steps])
    assert np.array_equal(ring.level(steps - 1), full.history[steps - 1])


_LINEAR_FORCES = {
    "none": {},
    "gl-a0.3": {"potential": Potential.GINZBURG_LANDAU, "a": 0.3},
    "gl-a-0.01": {"potential": Potential.GINZBURG_LANDAU, "a": -0.01},
}


@pytest.mark.parametrize("force", sorted(_LINEAR_FORCES))
@pytest.mark.parametrize("g0", [1.0, 2.0])
@pytest.mark.parametrize("beta", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("field_kind", ["real", "complex"])
def test_linear_solve_matches_stepper(field_kind, beta, g0, force, caplog):
    # a linear run below beta = 1 is solved for the whole run at once unless
    # a mode grows (a = -0.01 grows the mean, which is then stepped); the
    # stepper (over FFT products of two block sizes in its memory sum) and
    # the direct memory sum are its oracles, in units of max|u|.  Measured:
    # at most 5.9e-15 against either
    n, steps = 32, 3 * HISTORY_BLOCK + 5
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(steps, 0.01)
    model = ModelSpec(g0=g0, spatial_terms=((1.5, 0.5),),
                      **_LINEAR_FORCES[force])
    rng = np.random.default_rng(9)
    u0 = 0.3 * np.cos(grid.x) + 0.05 * rng.standard_normal(n)
    if field_kind == "complex":
        u0 = u0 + 0.2j * np.sin(2 * grid.x)
    caplog.set_level(logging.DEBUG, logger="fracdyn")
    solved = FieldState.from_initial(grid, tg, u0)
    evolve_field(model, solved, beta)
    modes = n if field_kind == "complex" else n // 2 + 1
    path = "stepped" if model.a < 0 else "solved"
    assert caplog.messages == [
        f"evolve: {path} {steps} steps × {modes} modes"
        + (" at once" if path == "solved" else "")]

    sym = model.spatial_symbol(solved.wavenumbers)
    stepped = FieldState.from_initial(grid, tg, u0)
    fields._step_linear_implicit(stepped, beta, model, sym)
    direct = FieldState.from_initial(grid, tg, u0)
    evolve_linear_implicit_direct(direct, beta, model, sym)
    scale = np.max(np.abs(stepped.history))
    for ref in (stepped, direct):
        assert np.max(np.abs(solved.history - ref.history)) <= 2e-14 * scale

    ring = FieldState.from_initial(grid, tg, u0, rows=2)
    seen = []

    def observe(j, u):
        assert ring.n_completed == j
        assert np.array_equal(u, solved.history[j])
        seen.append(j)

    evolve_field(model, ring, beta, observe)
    assert seen == list(range(1, steps + 1))
    assert np.array_equal(ring.current(), solved.history[steps])
    assert np.array_equal(ring.level(steps - 1), solved.history[steps - 1])


@EXTENDED_PRECISION
def test_linear_solve_error_is_absolute_in_initial_coefficients():
    # the whole-run solve's error is absolute: a small multiple of rounding
    # of each mode's initial coefficient, from the series reciprocal's
    # Newton rounds.  Relative accuracy is not promised on levels that have
    # decayed far below that coefficient: here modes decay to 6.4e-6 of it,
    # where the error reaches 4.7e-10 of the level (the stepper's stays
    # below 3.6e-14 of every level).  Measured against the same scheme in extended
    # precision: at most 4.5e-15 of the initial coefficient on this run and
    # 1.4e-14 on others; the bound is 2x the latter
    n, steps, beta, dt, a = 128, 1000, 0.9, 0.1, 5.0
    grid = GridSpec(n, TWO_PI)
    model = ModelSpec(g0=1.0, spatial_terms=((1.5, 0.5),), a=a,
                      potential=Potential.GINZBURG_LANDAU)
    # every mode's initial coefficient has modulus n / 2
    phases = np.exp(TWO_PI * 1j * np.random.default_rng(0).random(n // 2 + 1))
    phases[[0, -1]] = 1.0
    u0 = np.fft.irfft(phases * (n / 2), n=n)
    state = FieldState.from_initial(grid, TimeGrid(steps, dt), u0)
    sym = model.spatial_symbol(state.wavenumbers)
    assert fields._solve_linear_implicit(state, beta, model, a, sym,
                                         None) is None
    ref = evolve_linear_implicit_extended(state, beta, model, sym)
    err = np.abs(np.fft.rfft((state.history - ref).astype(float), axis=1))
    assert np.max(err) <= 2 * 1.4e-14 * (n / 2)


def test_linear_solve_blow_up_is_the_steppers(caplog):
    # a = -500 grows every mode until a u overflows: the run goes straight
    # to the stepper, whose error observe has seen only up to the level
    # before
    n, steps, beta = 64, 400, 0.9
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(steps, 0.1)
    model = ModelSpec(spatial_terms=((1.5, 0.5),), a=-500.0,
                      potential=Potential.GINZBURG_LANDAU)
    u0 = np.cos(3 * grid.x)
    caplog.set_level(logging.DEBUG, logger="fracdyn")
    seen = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # the stepper's overflow
        ref = FieldState.from_initial(grid, tg, u0)
        with pytest.raises(BlowUpError) as stepped:
            fields._step_linear_implicit(
                ref, beta, model, model.spatial_symbol(ref.wavenumbers))
        state = FieldState.from_initial(grid, tg, u0, rows=2)
        with pytest.raises(BlowUpError) as solved:
            evolve_field(model, state, beta, lambda j, u: seen.append(j))
    assert 1 < stepped.value.step < steps
    assert solved.value.step == stepped.value.step
    np.testing.assert_equal(solved.value.norm, stepped.value.norm)  # NaN here
    assert str(solved.value) == str(stepped.value)
    assert seen == list(range(1, stepped.value.step))
    assert caplog.messages == [f"evolve: stepped {steps} steps × 33 modes"]


@pytest.mark.parametrize("g0, a, message", [
    # a mode of the equation grows: stepped without a solve
    (1.0, -10.0, "evolve: stepped 100 steps × 33 modes"),
    # every mode of the equation decays, but the lagged a u at a = 50 beside
    # g0 dt^-beta / Gamma(2 - beta) = 16.7 makes a mode of the scheme grow
    (2.0, 50.0, "evolve: solve found a growing mode at step 1; stepped")])
def test_growing_linear_run_is_stepped(g0, a, message, caplog):
    # on a growing mode the reciprocal's rounding in a Newton round scales
    # with the round's largest, latest level, so a solved level could carry
    # the growth across its round as relative error; each level must match
    # the stepper's relative to that level
    n, steps, beta = 64, 100, 0.9
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(steps, 0.1)
    model = ModelSpec(g0=g0, spatial_terms=((1.5, 0.5),), a=a,
                      potential=Potential.GINZBURG_LANDAU)
    u0 = np.cos(grid.x) + 0.5 * np.cos(7 * grid.x)
    caplog.set_level(logging.DEBUG, logger="fracdyn")
    state = FieldState.from_initial(grid, tg, u0)
    evolve_field(model, state, beta)
    assert caplog.messages == [message]
    ref = FieldState.from_initial(grid, tg, u0)
    fields._step_linear_implicit(ref, beta, model,
                                 model.spatial_symbol(ref.wavenumbers))
    level_max = np.abs(ref.history).max(axis=1)
    assert level_max[-1] > 1e10 * level_max[0]
    err = np.abs(state.history - ref.history).max(axis=1)
    assert np.all(err <= 1e-14 * level_max)


def _assert_ring_holds_observed(state, observed):
    # a level the guard rejected overwrote no level the ring holds: each
    # held level after level 0 is still the one observe saw
    first = max(1, state.n_completed - state.history.shape[0] + 1)
    for j in range(first, state.n_completed + 1):
        assert np.array_equal(state.level(j), observed[j])


def _guard_violation(monkeypatch, caplog, rows):
    """A growth limit below 1 trips the guard on a decaying, solved run.
    Returns the stepper's error, then the solve's with the levels observe
    saw and the solved state.  Both runs take a ring of ``rows`` rows, and
    each still holds the levels observe saw."""
    monkeypatch.setattr(fields, "GROWTH_LIMIT", 0.9)
    n, steps, beta = 32, 50, 0.9
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(steps, 0.1)
    model = ModelSpec(spatial_terms=((1.5, 0.5),), a=5.0,
                      potential=Potential.GINZBURG_LANDAU)
    u0 = 0.3 * np.cos(grid.x) + 0.1 * np.cos(5 * grid.x)
    ref = FieldState.from_initial(grid, tg, u0, rows=rows)
    record, ref_levels = _recorder()
    with pytest.raises(BlowUpError) as stepped:
        fields._step_linear_implicit(ref, beta, model,
                                     model.spatial_symbol(ref.wavenumbers),
                                     record)
    _assert_ring_holds_observed(ref, ref_levels)
    caplog.set_level(logging.DEBUG, logger="fracdyn")
    seen, (record, levels) = [], _recorder()

    def observe(j, u):
        seen.append(j)
        record(j, u)

    state = FieldState.from_initial(grid, tg, u0, rows=rows)
    with pytest.raises(BlowUpError) as solved:
        evolve_field(model, state, beta, observe)
    assert caplog.messages == [f"evolve: solved {steps} steps × 17 modes at once"]
    _assert_ring_holds_observed(state, levels)
    return stepped.value, solved.value, seen, state


def test_solve_guard_violation_is_stepped(monkeypatch, caplog):
    # the solve places its levels through the stepper's guard: it raises at
    # the stepper's step, with the solved level's norm (measured 3.4e-15
    # relative from the stepped one), once observe has seen only up to the
    # level before
    stepped, solved, seen, state = _guard_violation(monkeypatch, caplog, 2)
    step = stepped.step
    assert 2 < step < 50
    assert solved.step == step
    assert solved.norm == pytest.approx(stepped.norm, rel=1e-13, abs=0)
    assert seen == list(range(1, step))
    assert state.n_completed == step - 1


@pytest.mark.parametrize("rows", [None, 2], ids=["full", "two-row"])
def test_solve_guard_violation_in_a_later_row_block(rows, monkeypatch, caplog):
    # row blocks of 4 levels: the failing level lies in a later block than
    # the first, and the levels before it in that block are still observed
    monkeypatch.setattr(fracops, "_FFT_BLOCK_BYTES", 16 * 17 * 4)
    stepped, solved, seen, state = _guard_violation(monkeypatch, caplog, rows)
    step = stepped.step
    assert step > 4 and step % 4 != 1
    assert (solved.step, seen) == (step, list(range(1, step)))
    assert state.n_completed == step - 1


def test_solve_forms_each_row_block_once(caplog):
    # a 2-row ring with observe: every row block is inverse-transformed
    # once, then written, guarded and observed level by level
    n, steps, beta = 128, 1000, 0.8
    grid = GridSpec(n, TWO_PI)
    state = FieldState.from_initial(grid, TimeGrid(steps, 0.01),
                                    np.cos(grid.x), rows=2)
    model = ModelSpec(spatial_terms=((1.5, 0.5),))
    fwd, inv = state.transforms()
    calls = []

    def counted(v):
        calls.append(v.shape[0])
        return inv(v)

    state.transforms = lambda: (fwd, counted)
    seen = []
    assert fields._solve_linear_implicit(
        state, beta, model, 0.0, model.spatial_symbol(state.wavenumbers),
        lambda j, u: seen.append(j)) is None
    block = fracops._FFT_BLOCK_BYTES // (16 * (n // 2 + 1))
    assert len(calls) == math.ceil(steps / block) and sum(calls) == steps
    assert seen == list(range(1, steps + 1))
    assert state.n_completed == steps


def test_complex_g0_is_stepped(caplog):
    # the solve is real: a complex g0 passes g0 (s + a) >= 0 in NumPy's
    # lexicographic order of complex numbers, but must be stepped
    grid = GridSpec(16, TWO_PI)
    tg = TimeGrid(500, 4e-3)
    model = ModelSpec(g0=1j, spatial_terms=((1.5, 1.0),))
    u0 = np.cos(grid.x) + 0.5j * np.sin(3 * grid.x)
    caplog.set_level(logging.DEBUG, logger="fracdyn")
    state = FieldState.from_initial(grid, tg, u0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve_field(model, state, 0.9)
    assert caplog.messages == ["evolve: stepped 500 steps × 16 modes"]
    ref = FieldState.from_initial(grid, tg, u0)
    fields._step_linear_implicit(ref, 0.9, model,
                                 model.spatial_symbol(ref.wavenumbers))
    assert np.array_equal(state.history, ref.history)


def test_non_finite_factors_are_stepped(monkeypatch, caplog):
    # a NaN factor is not at most 1 in magnitude: the run is stepped before
    # any level is placed, from the first step whose factor is NaN
    reciprocal = fields._series_reciprocal

    def nan_in_column_0(head, lags):
        out = reciprocal(head, lags)
        out[10, 0] = np.nan
        return out

    monkeypatch.setattr(fields, "_series_reciprocal", nan_in_column_0)
    grid = GridSpec(32, TWO_PI)
    tg = TimeGrid(100, 0.01)
    model = ModelSpec(spatial_terms=((1.5, 0.5),), a=0.3,
                      potential=Potential.GINZBURG_LANDAU)
    u0 = 0.3 + np.cos(grid.x)
    caplog.set_level(logging.DEBUG, logger="fracdyn")
    state = FieldState.from_initial(grid, tg, u0)
    evolve_field(model, state, 0.9)
    assert caplog.messages == [
        "evolve: solve found a growing mode at step 11; stepped"]
    ref = FieldState.from_initial(grid, tg, u0)
    fields._step_linear_implicit(ref, 0.9, model,
                                 model.spatial_symbol(ref.wavenumbers))
    assert np.array_equal(state.history, ref.history)


@pytest.mark.parametrize("beta, b", [(1.0, 0.0), (0.8, 1.0), (1.5, 0.0)])
def test_nonlinear_or_unit_order_runs_are_stepped(beta, b, caplog):
    grid = GridSpec(16, TWO_PI)
    tg = TimeGrid(10, 0.01)
    model = ModelSpec(spatial_terms=((1.5, 0.5),), a=0.3, b=b,
                      potential=Potential.GINZBURG_LANDAU)
    state = FieldState.from_initial(grid, tg, np.cos(grid.x),
                                    initial_velocity=np.zeros(16))
    caplog.set_level(logging.DEBUG, logger="fracdyn")
    evolve_field(model, state, beta)
    assert caplog.messages == ["evolve: stepped 10 steps × 9 modes"]


def test_ring_rows_validated():
    grid = GridSpec(8, TWO_PI)
    for rows in (1, 12):
        with pytest.raises(DomainError, match="rows must lie in"):
            FieldState.from_initial(grid, TimeGrid(10, 0.01), np.ones(8),
                                    rows=rows)


def test_levels_outside_the_ring_raise():
    grid = GridSpec(16, TWO_PI)
    tg = TimeGrid(10, 0.01)
    model = ModelSpec(spatial_terms=((2.0, 1.0),))
    full = FieldState.from_initial(grid, tg, np.cos(grid.x))
    evolve_field(model, full, 1.0)
    state = FieldState.from_initial(grid, tg, np.cos(grid.x), rows=3)
    evolve_field(model, state, 1.0)
    assert full.holds_trajectory and not state.holds_trajectory
    for j in (8, 9, 10):
        assert np.array_equal(state.level(j), full.history[j])
    for j in (-1, 0, 7, 11):
        with pytest.raises(DomainError, match=f"level {j} is not held"):
            state.level(j)
    with pytest.raises(DomainError, match="residual needs every level"):
        residual(model, state, 1.0)
    # a new run starts from level 0, which the ring no longer holds, and
    # is refused on a ring that holds it too, as its levels are all placed
    with pytest.raises(DomainError, match="level 0 is not held"):
        evolve_field(model, state, 1.0)
    with pytest.raises(DomainError, match="starts at level 0, not 10"):
        evolve_field(model, full, 1.0)


def test_rejected_level_leaves_a_wrapped_ring_as_it_was():
    # on a wrapped 2-row ring the new level's row holds level n_completed
    # - 1: the guard must reject the level before it is written there
    ring = fields.LevelRing.start(TimeGrid(10, 0.1), np.ones(3), rows=2)
    ring.place(np.full((1, 3), 2.0))
    ring.place(np.full((1, 3), 3.0))
    with pytest.raises(BlowUpError, match="at step 3"):
        ring.place(np.full((1, 3), 1e9))
    assert ring.n_completed == 2
    assert np.array_equal(ring.level(1), np.full(3, 2.0))
    assert np.array_equal(ring.level(2), np.full(3, 3.0))


def _placed(place, rows, before, block, observe):
    """Start a ring of ``rows`` rows at ones, make ``before`` with ``place``
    a level at a time, then ``block`` in one call.  Returns the ring, the
    ``observe`` calls of the block (each level and the one before it, as
    the observer read them) and its error, or None."""
    ring = fields.LevelRing.start(TimeGrid(40, 0.1), np.ones(block.shape[1]),
                           rows=rows)
    for level in before:
        place(ring, level[None])
    calls = []

    def record(j, u):
        calls.append((j, u.copy(), ring.level(j - 1).copy()))

    try:
        place(ring, block, record if observe else None)
    except BlowUpError as exc:
        return ring, calls, exc
    return ring, calls, None


@given(rows=st.integers(2, 6), n_before=st.integers(0, 8),
       length=st.integers(1, 12), width=st.integers(1, 3),
       observe=st.booleans(),
       scales=st.lists(st.floats(0.5, 2.0), min_size=20, max_size=20),
       zero=st.integers(-1, 19),
       fail=st.sampled_from([None, "nan", "growth", "limit"]),
       where=st.sampled_from(["first", "middle", "last"]))
@settings(max_examples=200, deadline=None)
def test_block_place_matches_per_level_place(rows, n_before, length, width,
                                             observe, scales, zero, fail,
                                             where):
    # the one-pass guard of a block against the per-level loop it replaced:
    # every held level, n_completed, the newest norm, the observe calls
    # (with the level before each, read from the ring) and the error.  The
    # level at ``where`` in the block is made NaN, or its norm one ulp
    # above the growth limit or exactly at it (which passes).  A zero level
    # lifts the growth rule from the level after it
    levels = np.asarray(scales)[:, None] * np.linspace(1.0, -0.5, width)
    if zero >= 0:
        levels[zero] = 0.0
    before = levels[:n_before]
    block = levels[n_before:n_before + length].copy()
    if fail is not None:
        k = {"first": 0, "middle": length // 2, "last": length - 1}[where]
        prev = block[k - 1] if k else levels[n_before - 1] if n_before \
            else np.ones(width)
        limit = fields.GROWTH_LIMIT * np.abs(prev).max()
        block[k] = 0.0
        block[k, -1] = {"nan": np.nan, "limit": limit,
                        "growth": np.nextafter(limit, np.inf)}[fail]
    new = _placed(fields.LevelRing.place, rows, before, block, observe)
    old = _placed(place_per_level, rows, before, block, observe)
    (ring, calls, err), (ref, ref_calls, ref_err) = new, old
    assert ring.n_completed == ref.n_completed
    assert ring._newest_norm == ref._newest_norm
    held = range(max(0, ref.n_completed - rows + 1), ref.n_completed + 1)
    for j in held:
        assert np.array_equal(ring.level(j), ref.level(j))
    if ref_err is None:
        # with no failure, the per-level loop writes no row no level holds
        assert np.array_equal(ring.history, ref.history)
    assert len(calls) == len(ref_calls)
    for call, ref_call in zip(calls, ref_calls):
        assert call[0] == ref_call[0]
        assert all(np.array_equal(a, b)
                   for a, b in zip(call[1:], ref_call[1:]))
    assert (err is None) == (ref_err is None)
    if err is not None:
        assert (str(err), err.step) == (str(ref_err), ref_err.step)
        assert np.array_equal(err.norm, ref_err.norm, equal_nan=True)
    if fail in ("nan", "growth") and where == "first" and not (
            n_before and zero == n_before - 1):
        # the failing level is the block's first: nothing is placed
        assert err is not None and ring.n_completed == n_before


@pytest.mark.parametrize("beta,coeff,match", [
    (1.0, -2.0, "at the first step"),     # c + g |k|^2 = 2 - 2
    (2.0, -4.0, "at the first step"),     # c/dt + g |k|^2 = 4 - 4
    (2.0, -8.0, "after the first step"),  # c/dt + g |k|^2 / 2 = 4 - 4
], ids=["beta-le-1", "beta-gt-1-first", "beta-gt-1-later"])
def test_singular_implicit_system_rejected_before_stepping(beta, coeff, match):
    # dt = 0.5 makes the time coefficient c = dt^(-q) / Gamma(2 - q) = 2 at
    # q = 1, and the k = 1 mode of a 2 pi grid cancels it exactly
    grid, tg, state = _single_mode_state(8, 5, 0.5)
    if beta > 1.0:
        state.initial_velocity = np.zeros(8)
    model = ModelSpec(g0=1.0, spatial_terms=((2.0, coeff),))
    with pytest.raises(DomainError, match=match):
        evolve_field(model, state, beta)
    assert state.n_completed == 0
    assert np.all(state.history[1:] == 0)


def test_blow_up_guard_trips():
    grid = GridSpec(16, TWO_PI)
    tg = TimeGrid(1000, 0.05)
    state = FieldState.from_initial(grid, tg, np.full(16, 10.0))
    # du/dt = +u^3 in flow form: finite-time blow-up from u = 10
    model = ModelSpec(g0=1.0, a=0.0, b=-1.0, potential=Potential.GINZBURG_LANDAU)
    with pytest.raises(BlowUpError) as info:
        evolve_field(model, state, 1.0)
    assert info.value.step == 3
    assert info.value.norm > 1e10


# ------------------------------------------------------------ sine-Gordon


def _kink_pair_state(n, length, v, n_steps, dt):
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
    state = FieldState.from_initial(grid, TimeGrid(n_steps, dt), u0,
                                    initial_velocity=v0)
    return grid, state, pair


def test_sine_gordon_zero_and_pi_equilibria():
    grid = GridSpec(32, 40.0)
    tg = TimeGrid(20, 0.05)
    z = FieldState.from_initial(grid, tg, np.zeros(32),
                                initial_velocity=np.zeros(32))
    evolve_field(_sine_gordon(2.0), z, 2.0)
    assert np.max(np.abs(z.history)) < 1e-14
    p = FieldState.from_initial(grid, tg, np.full(32, np.pi),
                                initial_velocity=np.zeros(32))
    evolve_field(_sine_gordon(2.0), p, 2.0)
    assert np.max(np.abs(p.current() - np.pi)) < 1e-10


def test_sine_gordon_reference_leapfrog_and_kink():
    # oracle built first: explicit leapfrog for u_tt = u_xx - sin u with a
    # spectral second derivative, run at small dt; the production stepper
    # must track both the oracle and the analytic kink shape
    n, length, v = 512, 80.0, 0.2
    dt_ref, steps_ref = 0.01, 2000  # t = 20
    grid, state, pair = _kink_pair_state(n, length, v, 1000, 0.02)

    kr = grid.wavenumbers_real

    def lap(u):
        return np.fft.irfft(-(kr ** 2) * np.fft.rfft(u), n=n)

    u_prev = pair(0.0)
    v0 = -v * np.fft.irfft(1j * kr * np.fft.rfft(u_prev), n=n)
    acc0 = lap(u_prev) - np.sin(u_prev)
    u_cur = u_prev + dt_ref * v0 + 0.5 * dt_ref ** 2 * acc0
    for _ in range(steps_ref - 1):
        u_new = 2 * u_cur - u_prev + dt_ref ** 2 * (lap(u_cur) - np.sin(u_cur))
        u_prev, u_cur = u_cur, u_new

    evolve_field(_sine_gordon(2.0), state, 2.0)  # dt = 0.02, t = 20
    assert np.max(np.abs(state.current() - u_cur)) < 5e-3
    assert np.max(np.abs(state.current() - pair(20.0))) < 5e-3


def test_fractional_sine_gordon_runs_and_preserves_parity():
    grid = GridSpec(128, 40.0)
    tg = TimeGrid(200, 0.02)
    x = grid.x
    u0 = 0.5 * np.sin(TWO_PI * x / 40.0)  # odd about x = 0 on the ring
    state = FieldState.from_initial(grid, tg, u0,
                                    initial_velocity=np.zeros(128))
    evolve_field(_sine_gordon(1.5), state, 1.7)
    u = state.current()
    assert np.all(np.isfinite(u))
    assert np.allclose(u, -np.roll(u[::-1], 1), atol=1e-10)


def test_sine_gordon_requires_velocity():
    grid = GridSpec(16, 10.0)
    state = FieldState.from_initial(grid, TimeGrid(5, 0.01), np.zeros(16))
    with pytest.raises(DomainError):
        evolve_field(_sine_gordon(2.0), state, 2.0)


# ------------------------------------------------------------ NLS


def test_nls_plane_wave_frequency():
    n = 256
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(1000, 1e-3)
    A, mode, alpha, g, a, b = 0.75, 3, 1.5, 0.8, 0.3, 0.5
    u0 = A * np.exp(1j * mode * grid.x)
    state = FieldState.from_initial(grid, tg, u0)
    nls_evolve(state, alpha, g, a, b)
    omega = -g * mode ** alpha + a + b * A ** 2
    exact = A * np.exp(1j * (mode * grid.x - omega * tg.t_final))
    assert np.max(np.abs(state.current() - exact)) < 1e-6  # phase-exact path


def test_nls_alpha2_matches_classical_symbol():
    n = 128
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(200, 1e-3)
    rng = np.random.default_rng(2)
    u0 = np.exp(-((grid.x - np.pi) ** 2)) * (1.0 + 0.1j)
    s_frac = FieldState.from_initial(grid, tg, u0.copy())
    nls_evolve(s_frac, 2.0, 0.5, 0.0, 0.0)
    # classical reference with the |k|^2 multiplier written directly
    k = grid.wavenumbers
    u = u0.copy()
    for _ in range(200):
        u = np.fft.ifft(np.exp(1j * 0.5 * k ** 2 * 1e-3) * np.fft.fft(u))
    assert np.max(np.abs(s_frac.current() - u)) < 1e-10


@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
def test_nls_mass_conservation(alpha):
    n = 128
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(1000, 1e-3)
    rng = np.random.default_rng(3)
    u0 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.1
    state = FieldState.from_initial(grid, tg, u0)
    nls_evolve(state, alpha, 1.0, 0.2, 1.0)
    m0 = field_mass(state.history[0], grid)
    m1 = field_mass(state.current(), grid)
    assert abs(m1 - m0) / m0 < 1e-10


def test_nls_two_row_ring_matches_full_history():
    n, steps = 64, 150
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(steps, 1e-3)
    rng = np.random.default_rng(4)
    u0 = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.3
    full = FieldState.from_initial(grid, tg, u0)
    nls_evolve(full, 1.5, 1.0, 0.2, 1.0)
    ring = FieldState.from_initial(grid, tg, u0, rows=2)
    observe, seen = _recorder()
    nls_evolve(ring, 1.5, 1.0, 0.2, 1.0, observe)
    assert sorted(seen) == list(range(1, steps + 1))
    for j, u in seen.items():
        assert np.array_equal(u, full.history[j])
    assert np.array_equal(ring.current(), full.history[steps])


def test_nls_zero_initial_stays_zero():
    grid = GridSpec(32, TWO_PI)
    state = FieldState.from_initial(grid, TimeGrid(10, 0.01),
                                    np.zeros(32, dtype=complex))
    nls_evolve(state, 1.5, 1.0, 0.1, 1.0)
    assert np.all(state.history == 0)


def test_nls_blow_up_guard_carries_step_and_norm():
    # |u|^2 overflows in the first phase rotation: the level is NaN, and the
    # guard the L1 stepper uses names its step and sup-norm before any
    # observer sees it
    grid = GridSpec(32, TWO_PI)
    state = FieldState.from_initial(grid, TimeGrid(10, 0.01),
                                    np.full(32, 1e200, dtype=complex))
    observe, seen = _recorder()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError, match="non-finite field at step 1") as info:
            nls_evolve(state, 1.5, 1.0, 0.0, 1.0, observe)
    assert info.value.step == 1
    assert math.isnan(info.value.norm)
    assert seen == {} and state.n_completed == 0


def test_nls_requires_complex():
    grid = GridSpec(32, TWO_PI)
    state = FieldState.from_initial(grid, TimeGrid(10, 0.01), np.zeros(32))
    with pytest.raises(DomainError):
        nls_evolve(state, 1.5, 1.0, 0.0, 0.0)


# ------------------------------------------------------------ linear modes


def test_linear_mode_beta_one_classical():
    val = nls_linear_mode_evolution(1.5, 1.0, 0.8, 0.3, 2.0, 1.0 + 0.0j, 0.7)
    x_rate = -0.8 * 2.0 ** 1.5 + 0.3
    assert val == pytest.approx(np.exp(1j * x_rate * 0.7), rel=1e-12)


def test_linear_mode_at_time_zero():
    u0 = 0.3 - 0.4j
    assert nls_linear_mode_evolution(1.2, 0.7, 1.0, 0.0, 1.0, u0, 0.0) == u0


def test_linear_mode_beta_half_vs_series():
    # independent series summation of the entire function at complex argument
    beta, g, a, k, t = 0.5, 1.0, 0.2, 1.5, 0.9
    lam = 1j * (-g * k ** 1.5 + a)
    z = lam * t ** beta
    series = sum(z ** j / math.gamma(beta * j + 1) for j in range(120))
    got = nls_linear_mode_evolution(1.5, beta, g, a, k, 1.0 + 0.0j, t)
    assert got == pytest.approx(series, rel=1e-11)


# ------------------------------------------------------------ stationary


def test_stationary_uniform_minimum():
    grid = GridSpec(64, TWO_PI)
    res = stationary_fgle_solve(grid, 1.5, 1.0, -1.0, 1.0,
                                np.full(64, 0.9))
    assert res.converged
    assert np.allclose(res.u, 1.0, atol=1e-10)
    assert res.residual_norm < 1e-12


def test_stationary_zero_root():
    grid = GridSpec(64, TWO_PI)
    res = stationary_fgle_solve(grid, 1.5, 1.0, 1.0, 1.0, np.full(64, 0.05))
    assert res.converged
    assert np.allclose(res.u, 0.0, atol=1e-10)


def test_stationary_zero_root_resonant_mode():
    # a = g |k|^alpha at the lattice mode k = 1, so the Jacobian is singular
    # at the root and Newton converges only linearly in that mode; in the
    # last steps GMRES reaches about 3e-10 relative against its 1e-10
    # forcing target, so the solve must end on its absolute target instead
    # (a dense Newton solve converges here in 12 iterations)
    grid = GridSpec(64, TWO_PI)
    guess = 0.05 + 0.02 * np.cos(grid.x)
    res = stationary_fgle_solve(grid, 1.5, 1.0, 1.0, 1.0, guess)
    assert res.converged
    assert np.max(np.abs(res.u)) < 1e-3
    assert res.krylov_iters < 1000


@pytest.mark.parametrize("alpha, length, amp, peak", [
    (2.0, 12.0, math.sqrt(2.0), math.sqrt(2.0)),
    (1.5, 24.0, 1.0, 1.5376),
], ids=["alpha2", "alpha1.5"])
def test_stationary_pulse_vs_dense_newton_oracle(alpha, length, amp, peak):
    # oracle: dense Fourier-differentiation-matrix Newton solve, built from
    # scratch (matrix columns from the transform of unit vectors, dense LU)
    n = 256
    grid = GridSpec(n, length)
    g, a, b = 1.0, -1.0, 1.0
    x = grid.x
    guess = amp / np.cosh(x - length / 2)

    k = grid.wavenumbers
    dmat = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        dmat[:, j] = np.real(np.fft.ifft(-np.abs(k) ** alpha * np.fft.fft(e)))
    u = guess.copy()
    for _ in range(60):
        r = g * (dmat @ u) + a * u + b * u ** 3
        if np.max(np.abs(r)) < 5e-12:
            break
        u = u + np.linalg.solve(g * dmat + np.diag(a + 3 * b * u ** 2), -r)

    res = stationary_fgle_solve(grid, alpha, g, a, b, guess, tol=5e-12)
    assert res.converged
    assert abs(res.u.max() - peak) < 1e-3  # pulse profile, not a uniform root
    # the equation is translation invariant and the spectral discretization
    # preserves that symmetry to rounding (the Jacobian's translation mode
    # sits at ~1e-13), so each solver lands on its own infinitesimal
    # translate; compare after projecting out the translation direction
    du = np.fft.irfft(1j * grid.wavenumbers_real * np.fft.rfft(res.u), n=n)
    diff = res.u - u
    diff = diff - (diff @ du) / (du @ du) * du
    assert np.max(np.abs(diff)) < 1e-8


def _fractional_pulse():
    grid = GridSpec(256, 24.0)
    return grid, 1.0 / np.cosh(grid.x - 12.0)


def test_stationary_reports_solver_counts():
    grid, guess = _fractional_pulse()
    first = stationary_fgle_solve(grid, 1.5, 1.0, -1.0, 1.0, guess)
    second = stationary_fgle_solve(grid, 1.5, 1.0, -1.0, 1.0, guess)
    counts = (first.n_iter, first.krylov_iters, first.line_search_halvings)
    assert counts == (second.n_iter, second.krylov_iters,
                      second.line_search_halvings)
    assert first.converged
    assert first.krylov_iters > 0 and first.line_search_halvings > 0


def test_stationary_krylov_miss_raises(monkeypatch):
    def stalled_gmres(matvec, rhs, rtol, atol, restart, max_cycles):
        return np.zeros_like(rhs), restart * max_cycles, False
    monkeypatch.setattr(fields, "_gmres", stalled_gmres)
    grid, guess = _fractional_pulse()
    with pytest.raises(ConvergenceError, match="Newton iteration 1") as exc:
        stationary_fgle_solve(grid, 1.5, 1.0, -1.0, 1.0, guess)
    assert exc.value.estimate == pytest.approx(1.0)


def test_stationary_krylov_miss_from_a_short_cycle(monkeypatch):
    # the real GMRES, cut to one cycle of two vectors, reduces the residual
    # but cannot reach the first Newton step's 1e-2 forcing target
    monkeypatch.setattr(fields, "GMRES_RESTART", 2)
    monkeypatch.setattr(fields, "GMRES_MAX_CYCLES", 1)
    grid, guess = _fractional_pulse()
    with pytest.raises(ConvergenceError, match="Newton iteration 1") as exc:
        stationary_fgle_solve(grid, 1.5, 1.0, -1.0, 1.0, guess)
    assert 1e-2 < exc.value.estimate < 1.0


def _pulse_jacobians():
    # right-preconditioned Jacobians J P^-1 of the solver's pulse problem
    # (alpha = 1.5, g = 1, a = -1, b = 1) at the guess and at two Newton
    # states, built by the oracle from the operator the solver documents
    grid, guess = _fractional_pulse()
    for n_iter in (0, 2, 4):
        u = guess if n_iter == 0 else stationary_fgle_solve(
            grid, 1.5, 1.0, -1.0, 1.0, guess, max_iter=n_iter).u

        def op(y, u=u):
            return stationary_jacobian_three_fft(u, y, grid, 1.5, 1.0, -1.0, 1.0)
        yield op, -stationary_residual(u, grid, 1.5, 1.0, -1.0, 1.0)


class _Matvec(Exception):
    """Carries the first Krylov operator out of the stationary solve."""


@pytest.mark.parametrize("a", [-1.0, 0.0])
@pytest.mark.parametrize("g", [1.0, -1.0])
@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
def test_stationary_jacobian_matches_three_fft_oracle(monkeypatch, alpha, g, a):
    # the solver applies J P^-1 y as y + (diag + sigma) irfft(rfft(y) / P);
    # the oracle transforms g Riesz_alpha P^-1 y and diag P^-1 y apart.  At
    # a = 0 the shift sigma is max |3 b u^2| of the first Newton state, the
    # guess.  The gap is rounding: measured at most 3.5e-16 relative in the
    # 2-norm on these 256 points, 4.4e-16 on the 3072-point pulse
    def capture(matvec, rhs, rtol, atol, restart, max_cycles):
        raise _Matvec(matvec)
    monkeypatch.setattr(fields, "_gmres", capture)
    grid, guess = _fractional_pulse()
    with pytest.raises(_Matvec) as exc:
        stationary_fgle_solve(grid, alpha, g, a, 1.0, guess)
    jac_prec = exc.value.args[0]
    rng = np.random.default_rng(18)
    for _ in range(8):
        y = rng.standard_normal(grid.n_points)
        want = stationary_jacobian_three_fft(guess, y, grid, alpha, g, a, 1.0)
        gap = np.linalg.norm(jac_prec(y) - want) / np.linalg.norm(want)
        assert gap < 1e-15


@pytest.mark.parametrize("width, counts", [(0.9, (5, 23, 2)), (1.0, (6, 30, 1))])
def test_stationary_3072_point_pulse_keeps_its_solver_counts(width, counts):
    # the benchmark's pulse; the counts are those of the three-FFT Jacobian
    # product, which the two-FFT one changes by rounding only
    grid = GridSpec(3072, 120.0)
    guess = 1.0 / np.cosh((grid.x - 60.0) / width)
    res = stationary_fgle_solve(grid, 1.5, 1.0, -1.0, 1.0, guess, tol=1e-10)
    assert res.converged and res.residual_norm < 1e-10
    assert (res.n_iter, res.krylov_iters, res.line_search_halvings) == counts


@pytest.mark.parametrize("restart", [60, 4])
@pytest.mark.parametrize("rtol", [1e-2, 1e-6, 1e-10])
def test_gmres_matches_scipy_on_pulse_jacobians(restart, rtol):
    # oracle: scipy.sparse.linalg.gmres with the same tolerances and restart
    import scipy.sparse.linalg
    for op, rhs in _pulse_jacobians():
        n = rhs.size
        target = rtol * np.linalg.norm(rhs)
        x, iters, solved = fields._gmres(op, rhs, rtol, 0.0, restart, 200)
        assert solved and iters > 0
        assert np.linalg.norm(rhs - op(x)) <= target
        ref, info = scipy.sparse.linalg.gmres(
            scipy.sparse.linalg.LinearOperator((n, n), matvec=op, dtype=float),
            rhs, rtol=rtol, atol=0.0, restart=restart, maxiter=200)
        assert info == 0
        # both meet the target, so they differ by at most twice it in the
        # residual norm
        assert np.linalg.norm(op(x - ref)) <= 2 * target


def test_gmres_invariant_subspace_and_zero_rhs():
    rhs = np.arange(1.0, 9.0)
    # b is an eigenvector: the first Arnoldi step spans an invariant subspace
    x, iters, solved = fields._gmres(lambda v: 3.0 * v, rhs, 1e-14, 0.0, 5, 1)
    assert solved and iters == 1
    assert np.allclose(x, rhs / 3.0, rtol=1e-15, atol=0)
    x, iters, solved = fields._gmres(lambda v: 3.0 * v, np.zeros(8), 1e-10,
                                     0.0, 5, 1)
    assert solved and iters == 0 and not x.any()


def test_stationary_rejects_nonpositive_tol():
    grid, guess = _fractional_pulse()
    for tol in (0.0, -1e-10):
        with pytest.raises(DomainError, match="tol"):
            stationary_fgle_solve(grid, 1.5, 1.0, -1.0, 1.0, guess, tol=tol)


def test_stationary_rejects_no_iteration():
    # max_iter = 0 once returned an unconverged result of 0 iterations
    grid, guess = _fractional_pulse()
    with pytest.raises(DomainError, match="max_iter") as exc:
        stationary_fgle_solve(grid, 1.5, 1.0, -1.0, 1.0, guess, max_iter=0)
    assert exc.value.key == "max_iter"


def test_stationary_reports_non_convergence():
    grid = GridSpec(32, TWO_PI)
    res = stationary_fgle_solve(grid, 1.5, 1.0, -1.0, 1.0,
                                np.full(32, 50.0), max_iter=1)
    assert not res.converged
    assert res.residual_norm > 0


# ------------------------------------------------------------ free energy


def test_free_energy_zero_and_uniform():
    grid = GridSpec(64, TWO_PI)
    model = ModelSpec(spatial_terms=((1.5, 0.8),), a=-1.0, b=2.0,
                      potential=Potential.GINZBURG_LANDAU)
    assert free_energy(np.zeros(64), model, grid) == 0.0
    c = 0.7
    got = free_energy(np.full(64, c), model, grid)
    expected = TWO_PI * (-1.0 * c ** 2 / 2 + 2.0 * c ** 4 / 4)
    assert got == pytest.approx(expected, rel=1e-12)


def test_free_energy_finite_difference_gradient():
    grid = GridSpec(128, TWO_PI)
    rng = np.random.default_rng(9)
    coef = rng.standard_normal(9)
    u = sum(coef[j] * np.cos(j * grid.x + 0.3 * j) for j in range(9))
    model = ModelSpec(spatial_terms=((1.5, 0.7),), a=-0.4, b=0.9,
                      potential=Potential.GINZBURG_LANDAU)
    grad = stationary_residual(u, grid, 1.5, -0.7, -0.4, 0.9) * grid.dx
    eps = 1e-6
    for i in (0, 17, 64, 100):
        up, um = u.copy(), u.copy()
        up[i] += eps
        um[i] -= eps
        fd = (free_energy(up, model, grid) - free_energy(um, model, grid)) / (2 * eps)
        assert abs(fd - grad[i]) / abs(grad[i]) < 1e-6


@pytest.mark.parametrize("beta, dt, steps, amplitude", [
    (0.8, 1e-3, 2000, 0.05), (0.5, 1e-2, 5000, 0.05),
    (0.3, 5e-2, 2000, 0.5), (0.9, 5e-2, 2000, 0.5)])
def test_stepped_ginzburg_landau_energy_stays_below_its_start(
        beta, dt, steps, amplitude):
    # the time-fractional gradient flow g0 D^beta u = -dE/du keeps its free
    # energy at or below the initial one, E(u(t)) <= E(u(0)); that law is
    # proved for the continuous equation only (Tang, Yu & Zhou, SIAM J. Sci.
    # Comput. 41, 2019), not for this scheme with its lagged cubic force, so
    # the test asserts it on every 10th level of stepped nonlinear runs up
    # to a rounding tolerance of 1e-12 (the energies are at most 0.3 in
    # magnitude).  Measured E_0 -> E_n: -1.96e-3 -> -1.45e-2, -1.96e-3 ->
    # -0.265, -0.160 -> -0.268 and -0.160 -> -0.274.  That no sampled level
    # rises above the one before it is pinned as a measurement, not a law.
    tol = 1e-12
    grid = GridSpec(128, TWO_PI)
    model = ModelSpec(spatial_terms=((1.5, 0.5),), a=-1.0, b=1.0,
                      potential=Potential.GINZBURG_LANDAU)
    state = FieldState.from_initial(grid, TimeGrid(steps, dt),
                                    amplitude * np.cos(grid.x), rows=2)
    energies = [free_energy(state.level(0), model, grid)]

    def observe(j, u):
        if j % 10 == 0:
            energies.append(free_energy(u, model, grid))

    evolve_field(model, state, beta, observe)
    assert len(energies) == steps // 10 + 1
    assert max(energies) <= energies[0] + tol
    assert np.all(np.diff(energies) <= tol)


# ------------------------------------------------------------ residual


def test_residual_zero_trajectory():
    grid = GridSpec(32, TWO_PI)
    tg = TimeGrid(20, 0.01)
    state = FieldState.from_initial(grid, tg, np.zeros(32))
    model = ModelSpec(spatial_terms=((1.5, 1.0),))
    evolve_field(model, state, 0.6)
    r = residual(model, state, 0.6)
    assert np.max(np.abs(r)) == 0.0


def test_residual_shrinks_with_dt():
    grid = GridSpec(32, TWO_PI)
    model = ModelSpec(g0=1.0, spatial_terms=((1.5, 0.5),), a=0.3, b=0.1,
                      potential=Potential.GINZBURG_LANDAU)
    norms = []
    for steps, dt in ((100, 1e-2), (200, 5e-3), (400, 2.5e-3)):
        state = FieldState.from_initial(grid, TimeGrid(steps, dt),
                                        0.5 * np.cos(grid.x))
        evolve_field(model, state, 0.6)
        r = residual(model, state, 0.6)
        norms.append(np.max(np.abs(r[1:])))
    assert norms[2] < norms[1] < norms[0]


def test_residual_manufactured_solution():
    # u(t, x) = t^2 cos x: time part Gamma(3)/Gamma(3-beta) t^(2-beta) cos x,
    # spatial part g |k=1|^alpha t^2 cos x, force a u + b u^3
    n, steps, dt, beta, alpha, g = 64, 400, 2.5e-3, 0.6, 1.5, 0.8
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(steps, dt)
    t = tg.t
    cosx = np.cos(grid.x)
    model = ModelSpec(g0=1.0, spatial_terms=((alpha, g),), a=0.4, b=0.2,
                      potential=Potential.GINZBURG_LANDAU)
    state = FieldState.from_initial(grid, tg, 0.0 * cosx)
    state.history[:] = np.outer(t ** 2, cosx)
    state.n_completed = steps
    r = residual(model, state, beta)
    uex = np.outer(t ** 2, cosx)
    analytic = (math.gamma(3.0) / math.gamma(3.0 - beta)
                * np.outer(t ** (2 - beta), cosx)
                + g * uex + 0.4 * uex + 0.2 * uex ** 3)
    scale = np.max(np.abs(analytic[-1]))
    assert np.max(np.abs(r[1:] - analytic[1:])) / scale < 5e-3


def test_residual_of_linear_trajectory_is_exact():
    # space-uniform u(t) = t: the residual is g0 t^(1-b)/Gamma(2-b), exact
    # for linear data
    n, steps, dt, beta = 8, 100, 0.01, 0.5
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(steps, dt)
    t = tg.t
    state = FieldState.from_initial(grid, tg, np.zeros(n))
    state.history[:] = np.outer(t, np.ones(n))
    state.n_completed = steps
    model = ModelSpec(g0=1.7)
    r = residual(model, state, beta)
    expected = 1.7 * t ** 0.5 / math.gamma(1.5)
    assert np.allclose(r, np.outer(expected, np.ones(n)), rtol=0, atol=1e-12)


def _residual_row_loop(model, state, beta):
    """``residual`` with its spatial and force terms applied row by row."""
    u = state.history
    out = model.g0 * fields.caputo_left_l1(u, beta, state.time.dt,
                                           initial_velocity=state.initial_velocity)
    fwd, inv = state.transforms()
    sym = model.spatial_symbol(state.wavenumbers)
    for j in range(u.shape[0]):
        out[j] += inv(sym * fwd(model.interaction_apply(u[j]))) + model.force(u[j])
    return out


@pytest.mark.parametrize("field_kind", ["real", "complex"])
def test_residual_matches_row_loop(field_kind):
    # more rows than one transform block holds, so several blocks run
    n, steps = 512, 700
    grid = GridSpec(n, TWO_PI)
    tg = TimeGrid(steps, 1e-3)
    model = ModelSpec(g0=1.0, spatial_terms=((1.5, 0.5),), a=-1.0, b=1.0,
                      potential=Potential.GINZBURG_LANDAU,
                      interaction=Interaction.QUADRATIC_MIX, interaction_mix=0.3)
    rng = np.random.default_rng(8)
    u = rng.standard_normal((steps + 1, n))
    if field_kind == "complex":
        u = u + 1j * rng.standard_normal((steps + 1, n))
    state = FieldState.from_initial(grid, tg, u[0])
    state.history[:] = u
    state.n_completed = steps
    out = residual(model, state, 0.7)
    ref = _residual_row_loop(model, state, 0.7)
    assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))


def _completed_state(u, v0):
    """A completed full-history state holding the levels ``u``."""
    grid = GridSpec(u.shape[1], TWO_PI)
    state = FieldState.from_initial(grid, TimeGrid(u.shape[0] - 1, 1e-3),
                                    u[0], initial_velocity=v0)
    state.history[:] = u
    state.n_completed = u.shape[0] - 1
    return state


# (levels, points): the Caputo derivative runs 1, 2 (3 complex) and many
# column blocks, the spatial term 1, 1 and 3 row blocks
@pytest.mark.parametrize("shape", [(101, 8), (101, 120), (3001, 16)])
@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("beta", [0.3, 0.8, 1.0, 1.5, 2.0])
def test_residual_streamed_matches_whole_arrays_bitwise(shape, is_complex, beta):
    # g0 applied in place and no zero force added give the bits of the
    # whole-array form
    state = _completed_state(*l1_history(shape, is_complex))
    for potential in (Potential.NONE, Potential.GINZBURG_LANDAU):
        model = ModelSpec(g0=1.7, spatial_terms=((1.5, 0.5),), a=-1.0, b=1.0,
                          potential=potential)
        assert_same_bits(residual(model, state, beta),
                         residual_whole(model, state, beta))


@pytest.mark.parametrize("beta", [0.8, 1.5])
def test_l1_operators_hold_their_output_plus_one_block(beta):
    # frac_relax's 3001 x 128 trajectory and model: beside its output, the
    # left derivative (and the residual built on it) allocates one column
    # block of increments and spectrum, not whole-array differences,
    # quotients or scaled copies (3.4 MB beyond the output at beta = 0.8,
    # 6.5 MB at beta = 1.5, when they were)
    u, v0 = l1_history((3001, 128), False)
    state = _completed_state(u, v0)
    model = ModelSpec(g0=1.0, spatial_terms=((1.5, 0.5),))
    for run in (lambda: fields.caputo_left_l1(u, beta, 1e-3, v0),
                lambda: residual(model, state, beta)):
        run()   # FFT plans and caches first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == u.shape
        assert peak <= out.nbytes + (1 << 20)


# ------------------------------------------------------------ energy helper


def test_sine_gordon_energy_positive_and_stable():
    grid, state, pair = _kink_pair_state(256, 80.0, 0.2, 400, 0.02)
    evolve_field(_sine_gordon(2.0), state, 2.0)
    e_start = sine_gordon_energy(state, 0)
    e_end = sine_gordon_energy(state, 399)
    assert e_start > 0
    assert abs(e_end - e_start) / e_start < 1e-4


def test_sine_gordon_energy_on_a_ring():
    grid, full, _ = _kink_pair_state(128, 80.0, 0.2, 50, 0.02)
    ring = FieldState.from_initial(grid, full.time, full.level(0),
                                   initial_velocity=full.initial_velocity,
                                   rows=2)
    evolve_field(_sine_gordon(2.0), full, 2.0)
    evolve_field(_sine_gordon(2.0), ring, 2.0)
    assert sine_gordon_energy(ring, 49) == sine_gordon_energy(full, 49)
    with pytest.raises(DomainError, match="level 0 is not held"):
        sine_gordon_energy(ring, 0)
    with pytest.raises(DomainError, match="level 51 is not held"):
        sine_gordon_energy(full, 50)
