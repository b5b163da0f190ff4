"""Chain tests.  Oracles: brute-force pair sums, the per-mode closed form
through the ring coupling's Fourier sum, and the Mittag-Leffler law."""

import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fracdyn import analysis, chain, fields
from fracdyn.chain import ChainSpec, continuum_limit_compare, evolve_chain
from fracdyn.errors import BlowUpError, ConvergenceError, DomainError
from fracdyn.fields import (FieldState, Interaction, LevelRing, ModelSpec,
                            Potential)
from fracdyn.fracops import HISTORY_BLOCK, mittag_leffler
from fracdyn.grids import TimeGrid
from oracles import (EXTENDED_PRECISION, evolve_linear_implicit_direct,
                     evolve_linear_implicit_extended, interaction_sum_direct,
                     l1_mode_levels_extended, ml_rate_least_squares,
                     ml_rate_one_fit, ring_coupling_sum)


def _spec(n=128, alpha=1.5, g0=-1.0, beta=1.0, cutoff=0, **local_kw):
    local = ModelSpec(**local_kw) if local_kw else ModelSpec()
    return ChainSpec(n_particles=n, dx=1.0, alpha=alpha, g0=g0, beta=beta,
                     coupling_cutoff=cutoff, local=local)


# ------------------------------------------------------------ coupling sums


@pytest.mark.parametrize("n, cutoff", [(16, 8), (17, 0), (33, 5), (64, 1)])
def test_ring_symbol_matches_pair_sum(n, cutoff):
    # the pair sums of a unit displacement at particle 0 are the ring
    # kernel minus its sum at 0, so their rfft is J^(k) - J^(0): minimal-
    # image distances, the antipode of an even ring counted once, nothing
    # beyond the cutoff
    spec = _spec(n=n, alpha=1.5, cutoff=cutoff)
    impulse = np.zeros(n)
    impulse[0] = 1.0
    want = np.fft.rfft(interaction_sum_direct(spec, impulse)).real
    got = chain._ring_symbol(spec)
    assert got.shape == (n // 2 + 1,)
    assert np.max(np.abs(got - want)) <= 1e-15 * n * np.max(np.abs(want))


def test_convolution_matches_double_loop():
    rng = np.random.default_rng(2)
    spec = _spec(n=256)
    u = rng.standard_normal(256)
    fast = ring_coupling_sum(spec, u)
    slow = interaction_sum_direct(spec, u)
    assert np.max(np.abs(fast - slow)) < 1e-12


def test_convolution_matches_double_loop_nonlinear():
    rng = np.random.default_rng(3)
    spec = _spec(n=64, interaction=Interaction.SQUARE)
    u = rng.standard_normal(64)
    assert np.max(np.abs(ring_coupling_sum(spec, u)
                         - interaction_sum_direct(spec, u))) < 1e-12


def test_convolution_matches_double_loop_small_cutoff():
    rng = np.random.default_rng(4)
    spec = _spec(n=64, cutoff=5)
    u = rng.standard_normal(64)
    assert np.max(np.abs(ring_coupling_sum(spec, u)
                         - interaction_sum_direct(spec, u))) < 1e-13


# ------------------------------------------------------------ evolution


def test_zero_chain_stays_zero():
    spec = _spec(potential=Potential.SINE_GORDON, interaction=Interaction.SQUARE)
    state = FieldState.from_initial(spec.grid, TimeGrid(50, 0.01), np.zeros(128))
    evolve_chain(spec, state)
    assert np.all(state.history == 0.0)


@pytest.mark.parametrize("beta", [0.6, 1.0, 1.5])
def test_lagged_nonlinear_coupling_matches_pair_sum(beta):
    # with f = u^2 the coupling lags a level, so the first step is explicit:
    # u1 = u0 - h (F(u0) + g0 S(u0)), S the brute-force pair sum
    n, dt = 64, 0.01
    spec = _spec(n=n, beta=beta, potential=Potential.SINE_GORDON,
                 interaction=Interaction.SQUARE)
    u0 = np.random.default_rng(6).standard_normal(n)
    v0 = np.zeros(n) if beta > 1.0 else None
    state = FieldState.from_initial(spec.grid, TimeGrid(1, dt), u0, initial_velocity=v0)
    evolve_chain(spec, state)
    h = math.gamma((2.0 if beta <= 1.0 else 3.0) - beta) * dt ** beta
    expected = u0 - h * (np.sin(u0) + spec.g0 * interaction_sum_direct(spec, u0))
    assert np.max(np.abs(state.history[1] - expected)) < 1e-14


def test_chain_blow_up_guard_trips():
    # du/dt = +u^3 on every particle: finite-time blow-up from u = 10
    spec = _spec(n=16, potential=Potential.GINZBURG_LANDAU, b=-1.0)
    state = FieldState.from_initial(spec.grid, TimeGrid(1000, 0.05), np.full(16, 10.0))
    with pytest.raises(BlowUpError) as info:
        evolve_chain(spec, state)
    assert info.value.step == 3
    assert info.value.norm > 1e10


@pytest.mark.parametrize("beta,tol", [(0.5, 1e-3), (1.0, 1e-3)])
def test_single_mode_follows_lattice_rate(beta, tol):
    n, mode = 128, 2  # k dx about 0.1: first-step scheme error stays small
    spec = _spec(n=n, beta=beta)
    u0 = np.cos(2 * np.pi * mode * np.arange(n) / n)
    state = FieldState.from_initial(spec.grid, TimeGrid(1000, 1e-3), u0)
    evolve_chain(spec, state)
    lam = -spec.g0 * chain._ring_symbol(spec)[mode]
    amps = np.abs(np.fft.rfft(state.history, axis=1)[:, mode]) / (n / 2)
    t = state.times
    exact = np.array([abs(mittag_leffler(beta, lam * tt ** beta)) for tt in t])
    rel = np.abs(amps[1:] - exact[1:]) / exact[1:]
    assert rel.max() < tol


def test_symmetric_bump_stays_symmetric():
    n = 64
    spec = _spec(n=n, beta=0.7, potential=Potential.GINZBURG_LANDAU, a=0.2, b=0.1)
    i = np.arange(n)
    u0 = np.exp(-0.05 * np.minimum(i, n - i) ** 2)  # even under n -> -n
    state = FieldState.from_initial(spec.grid, TimeGrid(100, 0.01), u0)
    evolve_chain(spec, state)
    u = state.current()
    assert np.allclose(u, np.roll(u[::-1], 1), atol=1e-12)


def test_translation_equivariance_on_ring():
    n = 64
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal(n)
    spec = _spec(n=n, beta=0.6, potential=Potential.GINZBURG_LANDAU,
                 a=-0.3, b=0.2)
    s1 = FieldState.from_initial(spec.grid, TimeGrid(60, 0.01), u0)
    evolve_chain(spec, s1)
    s2 = FieldState.from_initial(spec.grid, TimeGrid(60, 0.01), np.roll(u0, 1))
    evolve_chain(spec, s2)
    assert np.allclose(s2.history, np.roll(s1.history, 1, axis=1),
                       rtol=1e-11, atol=1e-11)


def test_cross_mode_leakage_linear():
    n, mode = 128, 5
    spec = _spec(n=n, beta=1.0)
    u0 = np.cos(2 * np.pi * mode * np.arange(n) / n)
    state = FieldState.from_initial(spec.grid, TimeGrid(500, 0.01), u0)
    evolve_chain(spec, state)
    mags = np.abs(np.fft.rfft(state.current())) / (n / 2)
    other = np.delete(mags, mode)
    assert np.max(other) < 1e-10 * mags[mode]


def test_chain_high_order_runs():
    n = 64
    spec = _spec(n=n, beta=1.5, g0=1.0)
    u0 = 0.1 * np.cos(2 * np.pi * 3 * np.arange(n) / n)
    state = FieldState.from_initial(spec.grid, TimeGrid(200, 0.01), u0,
                                    initial_velocity=np.zeros(n))
    evolve_chain(spec, state)
    assert np.all(np.isfinite(state.history))


@EXTENDED_PRECISION
@pytest.mark.parametrize("beta", [0.6, 0.9, 1.0, 1.5, 2.0])
def test_chain_stepper_matches_direct_memory_sum(beta):
    # lagged nonlinear coupling and on-site force, over FFT products of two
    # block sizes in the memory sum, against the same scheme in extended
    # precision, carrying the increment in (1, 2] as the library does.
    # Measured: at most 7e-16 of max|u| at beta <= 1, 1.3e-15 at 1.5 and
    # 1.6e-14 at 2, where forming each level from the previous two reached
    # 2.3e-14 and 2.7e-13
    n, steps = 64, 3 * HISTORY_BLOCK + 5
    spec = _spec(n=n, beta=beta, potential=Potential.SINE_GORDON,
                 interaction=Interaction.QUADRATIC_MIX, interaction_mix=0.2)
    rng = np.random.default_rng(12)
    u0 = 0.3 * np.cos(2 * np.pi * 3 * np.arange(n) / n) + 0.05 * rng.standard_normal(n)
    v0 = 0.1 * rng.standard_normal(n) if beta > 1.0 else None
    time = TimeGrid(steps, 0.01)
    state = FieldState.from_initial(spec.grid, time, u0, initial_velocity=v0)
    evolve_chain(spec, state)
    sym = spec.g0 * chain._ring_symbol(spec)
    ref = evolve_linear_implicit_extended(state, beta, spec.local, sym)
    err = np.max(np.abs(state.history - ref))
    assert err <= 1e-13 * np.max(np.abs(ref))
    if beta in (1.0, 2.0):
        # no memory sum: the double-precision oracle's arithmetic, bit for bit
        direct = FieldState.from_initial(spec.grid, time, u0,
                                         initial_velocity=v0)
        evolve_linear_implicit_direct(direct, beta, spec.local, sym)
        assert np.array_equal(state.history, direct.history)


def test_chain_two_row_ring_matches_full_history():
    n, steps = 64, 2 * HISTORY_BLOCK + 7
    spec = _spec(n=n, beta=0.9, potential=Potential.SINE_GORDON,
                 interaction=Interaction.QUADRATIC_MIX, interaction_mix=0.2)
    rng = np.random.default_rng(13)
    u0 = 0.3 * np.cos(2 * np.pi * 3 * np.arange(n) / n) + 0.05 * rng.standard_normal(n)
    time = TimeGrid(steps, 0.01)
    full = FieldState.from_initial(spec.grid, time, u0)
    evolve_chain(spec, full)
    ring = FieldState.from_initial(spec.grid, time, u0, rows=2)
    seen = {}

    def observe(j, u):
        seen[j] = u.copy()

    evolve_chain(spec, ring, observe)
    assert ring.history.shape == (2, n)
    assert sorted(seen) == list(range(1, steps + 1))
    for j, u in seen.items():
        assert np.array_equal(u, full.history[j])
    assert np.array_equal(ring.current(), full.history[steps])


def _chain_peak_memory(spec, steps):
    """Peak traced bytes of a full-history ``evolve_chain`` run, and the
    bound of the history plus one ``(steps, modes)`` complex buffer plus
    4 MiB."""
    n = spec.n_particles
    assert steps * (n // 2 + 1) * 16 > 4 << 20
    u0 = np.cos(2 * np.pi * 5 * np.arange(n) / n)
    tracemalloc.start()
    try:
        state = FieldState.from_initial(spec.grid, TimeGrid(steps, 0.05), u0)
        evolve_chain(spec, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, state.history.nbytes + steps * (n // 2 + 1) * 16 + (4 << 20)


def test_chain_stepper_memory_is_history_plus_one_buffer():
    # the linear chain is solved for the whole run at once: its factors, one
    # real (n_steps, modes) array, and block-sized work arrays.  A second
    # buffer of the stepper's size, or a reciprocal or FFT product taken
    # over all columns at once, each need more than the 4 MiB allowed on top
    peak, bound = _chain_peak_memory(_spec(n=2048, beta=0.8, g0=-1.0),
                                     4 * HISTORY_BLOCK + 45)
    assert peak <= bound


def test_chain_stepped_memory_is_history_plus_one_buffer():
    # a lagged cubic force sends the run to the stepper, whose memory sum
    # may hold one (n_steps, modes) complex buffer beside the history
    spec = _spec(n=2048, beta=0.8, g0=-1.0, potential=Potential.GINZBURG_LANDAU,
                 a=0.1, b=0.1)
    peak, bound = _chain_peak_memory(spec, 4 * HISTORY_BLOCK + 45)
    assert peak <= bound


def test_chain_validation():
    with pytest.raises(DomainError):
        _spec(n=4)
    with pytest.raises(DomainError):
        ChainSpec(n_particles=64, dx=1.0, alpha=1.5, g0=1.0, beta=0.5,
                  coupling_cutoff=40)
    with pytest.raises(DomainError):
        ChainSpec(n_particles=64, dx=1.0, alpha=1.5, g0=1.0, beta=0.5,
                  local=ModelSpec(spatial_terms=((1.5, 1.0),)))
    # the chain's time coefficient is 1: a local g0 would be ignored, so it
    # may not be set
    with pytest.raises(DomainError, match="time coefficient is 1"):
        ChainSpec(n_particles=64, dx=1.0, alpha=1.5, g0=1.0, beta=0.5,
                  local=ModelSpec(g0=5.0))
    spec = _spec(n=16, beta=1.5)
    with pytest.raises(DomainError):  # orders in (1, 2] need a velocity
        evolve_chain(spec, FieldState.from_initial(spec.grid, TimeGrid(10, 0.01),
                                                   np.ones(16)))
    # a complex ring has 16 modes, the ring symbol 9
    spec = _spec(n=16, beta=0.5)
    with pytest.raises(DomainError, match="must be real"):
        evolve_chain(spec, FieldState.from_initial(spec.grid, TimeGrid(10, 0.01),
                                                   np.ones(16, dtype=complex)))


# ------------------------------------------------------------ continuum limit


def test_continuum_compare_rates_and_exponent():
    spec = _spec(n=1024, beta=1.0)
    report = continuum_limit_compare(spec, [3, 6], dt=0.02, n_steps=4000)
    # the stepper reproduces the lattice closed form very closely
    assert max(report.deviation_vs_lattice) < 2e-3
    # the continuum power law is approached but carries the finite-k gap
    assert max(report.deviation_vs_continuum) < 0.12
    assert abs(report.fitted_exponent - 1.5) < 0.12


def test_continuum_deviation_decreases_with_kdx():
    # the lattice-to-continuum gap shrinks like (k dx)^(2 - alpha); the ring
    # needs enough particles that the coupling-cutoff tail (a k-independent
    # offset) stays below the gap at the smallest k
    for alpha in (1.25, 1.5, 1.75):
        spec = _spec(n=4096, alpha=alpha, beta=1.0)
        modes = [13, 33, 65, 130]  # k dx about 0.02, 0.05, 0.1, 0.2
        report = continuum_limit_compare(spec, modes, dt=0.02, n_steps=3800,
                                         fit_horizon=1.5)
        devs = report.deviation_vs_continuum
        assert devs[0] < devs[1] < devs[2] < devs[3], (alpha, devs)


def test_exponent_from_rate_doubling():
    # log-ratio of measured rates at k and 2k recovers the coupling exponent
    spec = _spec(n=4096, alpha=1.5, beta=1.0)
    report = continuum_limit_compare(spec, [13, 26], dt=0.05, n_steps=4600)
    r1, r2 = report.rate_measured
    k1, k2 = report.k
    fitted = math.log(abs(r2) / abs(r1)) / math.log(k2 / k1)
    assert abs(fitted - 1.5) < 0.05


def test_continuum_compare_nearest_neighbor_classical():
    # truncating the coupling to nearest neighbors gives the classical
    # dispersion 2(1 - cos k dx) ~ (k dx)^2 at small k
    n = 1024
    spec = ChainSpec(n_particles=n, dx=1.0, alpha=1.5, g0=-1.0, beta=1.0,
                     coupling_cutoff=1)
    sym = chain._ring_symbol(spec)
    for mode in (3, 8):
        k = 2 * np.pi * mode / n
        dispersive = -sym[mode]  # 2 (1 - cos k dx)
        assert dispersive / k ** 2 == pytest.approx(1.0, abs=0.02)


def test_continuum_compare_rejects_large_kdx():
    spec = _spec(n=64, beta=1.0)
    with pytest.raises(DomainError):
        continuum_limit_compare(spec, [8], dt=0.01, n_steps=100)


def test_continuum_compare_rejects_nonlinear_force():
    spec = _spec(n=1024, beta=1.0, potential=Potential.GINZBURG_LANDAU,
                 a=0.1, b=0.5)
    with pytest.raises(DomainError):
        continuum_limit_compare(spec, [3], dt=0.01, n_steps=100)


@pytest.mark.parametrize("modes", [[-3, 5], [0, 5]])
def test_continuum_compare_rejects_modes_outside_ring(modes):
    # mode -3 would read rfft mode 126 of a 256-particle ring; mode 0 is 0/0
    spec = _spec(n=256, beta=1.0)
    with pytest.raises(DomainError, match=r"modes must lie in \[1, 128\]"):
        continuum_limit_compare(spec, modes, dt=0.02, n_steps=100)


@pytest.mark.parametrize("a", [0.0, 0.3])
@pytest.mark.parametrize("beta", [0.6, 0.9, 1.0])
def test_continuum_compare_matches_full_ring(monkeypatch, beta, a):
    # the compare evolves only its modes' coefficients, by the stepper at
    # beta = 1 and by the whole-run solve below it; the oracle steps the
    # whole ring with evolve_chain's stepper (evolve_chain itself would
    # solve it below beta = 1).  The stepper on the compare's modes must
    # track the full ring's rfft(u)[modes], and the compare's rates must
    # match those it fits to the full ring's levels
    n, modes, dt, steps = 4096, [12, 30, 60], 0.1, 600
    local = {"potential": Potential.GINZBURG_LANDAU, "a": a} if a else {}
    spec = _spec(n=n, beta=beta, **local)
    u0 = sum(np.cos(2 * np.pi * m * np.arange(n) / n) for m in modes)
    full = {0: np.fft.rfft(u0)[modes]}

    def keep_modes(j, u):
        full[j] = np.fft.rfft(u)[modes]

    fields._step_linear_implicit(
        FieldState.from_initial(spec.grid, TimeGrid(steps, dt), u0, rows=2),
        beta, spec.local, spec.g0 * chain._ring_symbol(spec), keep_modes)
    want = np.array([full[j] for j in range(steps + 1)])
    evolve = chain._evolve_linear_implicit
    calls = []

    def spy(ring, *args):
        u0 = ring.level(0).copy()
        out = evolve(ring, *args)
        calls.append((u0, args, out.history.copy()))
        return out

    monkeypatch.setattr(chain, "_evolve_linear_implicit", spy)
    report = continuum_limit_compare(spec, modes, dt, steps)
    [(u0_modes, args, levels)] = calls
    stepped = fields._step_linear_implicit(
        LevelRing.start(TimeGrid(steps, dt), u0_modes), *args).history
    assert stepped.shape == levels.shape == (steps + 1, len(modes))
    assert np.max(np.abs(stepped - want)) <= 1e-14 * np.max(np.abs(want))
    if beta == 1.0:
        assert np.array_equal(levels, stepped)
    else:
        # measured at most 1.0e-14
        assert np.max(np.abs(levels - want)) <= 2e-14 * np.max(np.abs(want))

    def replay(ring, *args):
        ring.history[:] = want
        ring.n_completed = steps
        return ring

    monkeypatch.setattr(chain, "_evolve_linear_implicit", replay)
    ref = continuum_limit_compare(spec, modes, dt, steps)
    rel = np.abs(np.subtract(report.rate_measured, ref.rate_measured)
                 / np.array(ref.rate_measured))
    # beta = 1 takes the log of two amplitudes, so the series rounding
    # reaches the rate unamplified; the Mittag-Leffler least-squares fit
    # turns it into up to about 2e-11
    assert rel.max() <= (4e-16 if beta == 1.0 else 1e-10)
    assert report.fitted_exponent == pytest.approx(ref.fitted_exponent,
                                                   rel=1e-9)


@pytest.mark.parametrize("a", [0.0, 0.3, -0.01])
@pytest.mark.parametrize("beta", [0.3, 0.6, 0.9])
def test_mode_solve_and_stepper_match_extended_precision(beta, a):
    # the L1 mode equations solved by forward substitution in long double:
    # the whole-run solve and the stepper on the compare's modes (4,096
    # particles, modes 12/30/60, dt = 0.1, 600 steps), in units of max|u|.
    # Measured: solve at most 6.8e-15, stepper at most 9.1e-15
    n, modes, dt, steps = 4096, [12, 30, 60], 0.1, 600
    local = {"potential": Potential.GINZBURG_LANDAU, "a": a} if a else {}
    spec = _spec(n=n, beta=beta, **local)
    u0 = sum(np.cos(2 * np.pi * m * np.arange(n) / n) for m in modes)
    coeffs = np.fft.rfft(u0)[modes]
    sym = spec.g0 * chain._ring_symbol(spec)[modes]
    truth = l1_mode_levels_extended(coeffs, beta, dt, 1.0, sym, a, steps)
    scale = np.max(np.abs(truth))

    def levels(evolve):
        ring = LevelRing.start(TimeGrid(steps, dt), coeffs)
        return evolve(ring, beta, spec.local, sym).history

    solved = levels(fields._evolve_linear_implicit)
    stepped = levels(fields._step_linear_implicit)
    assert np.max(np.abs(solved - truth)) <= 2e-14 * scale
    assert np.max(np.abs(stepped - truth)) <= 2e-14 * scale


@pytest.mark.parametrize("a, step", [(-500.0, 172), (-50.0, 365)])
def test_continuum_compare_blow_up_names_the_overflow_step(a, step):
    # the mode grows until a u overflows; the solve's levels fail the guard
    # and the stepper names that step.  With 0 * u^3 in the force, u^3
    # overflowed first and the guard saw NaN at steps 58 and 122
    spec = _spec(n=256, beta=0.9, potential=Potential.GINZBURG_LANDAU, a=a)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(BlowUpError, match="non-finite") as info:
            continuum_limit_compare(spec, [3], dt=0.1, n_steps=400)
    assert info.value.step == step
    assert info.value.norm == np.inf
    assert str(seen[0].message) == "overflow encountered in multiply"


@pytest.mark.parametrize("modes", [[16, 44, 62], [11, 23, 27]])
def test_rate_fit_matches_least_squares(monkeypatch, modes):
    # chain_fit-sized compares (4,096 particles, beta = 0.9, dt = 0.1, fit
    # horizon 4): the Gauss-Newton rate against SciPy's least squares on the
    # same amplitudes, the normal equation J^T r = 0 at rounding level, and
    # at most 6 Mittag-Leffler passes per fit: the lockstep loop of all
    # three fits makes one pass per round, as many as its longest fit
    fits, calls = [], []
    fit, ml = chain._fit_mode_rate, analysis.mittag_leffler

    def spy_fit(times, amps, beta, guesses):
        lams = fit(times, amps, beta, guesses)
        fits.extend((t[1:], a[1:] / a[0], beta, guess, lam)
                    for t, a, guess, lam in zip(times, amps, guesses, lams))
        return lams

    def counted_ml(*args, **kwargs):
        calls.append(1)
        return ml(*args, **kwargs)

    monkeypatch.setattr(chain, "_fit_mode_rate", spy_fit)
    monkeypatch.setattr(analysis, "mittag_leffler", counted_ml)
    continuum_limit_compare(_spec(n=4096, beta=0.9), modes, 0.1, 3000,
                            fit_horizon=4.0)
    assert len(fits) == 3 and len(calls) <= 6
    for times, ratio, beta, guess, lam in fits:
        assert ml_rate_one_fit(times, ratio, beta, guess)[1] <= 6
        assert lam == pytest.approx(
            ml_rate_least_squares(times, ratio, beta, guess), rel=1e-9)
        tb = times ** beta
        val, der = mittag_leffler(beta, lam * tb, derivative=True)
        jac = tb * der
        assert abs(jac @ (val - ratio)) <= (
            2e-15 * np.linalg.norm(jac) * np.linalg.norm(ratio))


def test_rate_fit_logs_its_passes(monkeypatch, caplog):
    # one DEBUG record per rate fit, in mode order, with its own
    # Mittag-Leffler passes and its rate; the chain_fit-shaped compare
    # (4,096 particles, beta = 0.9, dt = 0.1, modes 20/30/60, fit horizon
    # 4) logs 14 passes over 3 fits, and the lockstep loop makes them in 5
    # shared passes, the most any one fit takes
    calls, ml = [], analysis.mittag_leffler

    def counted_ml(*args, **kwargs):
        calls.append(1)
        return ml(*args, **kwargs)

    monkeypatch.setattr(analysis, "mittag_leffler", counted_ml)
    caplog.set_level(logging.DEBUG, logger="fracdyn")
    report = continuum_limit_compare(_spec(n=4096, beta=0.9), [20, 30, 60],
                                     0.1, 3000, fit_horizon=4.0)
    fits = [r for r in caplog.records if r.msg.startswith("rate fit:")]
    assert all(r.name == "fracdyn" and r.levelno == logging.DEBUG
               for r in fits)
    assert [r.args[1] for r in fits] == report.rate_measured
    passes = [r.args[0] for r in fits]
    assert len(passes) == 3 and sum(passes) == 14
    assert len(calls) == max(passes) == 5


@pytest.mark.parametrize("beta, modes, horizon", [
    (0.9, [16, 44, 62], 4.0), (0.9, [11, 23, 27], 4.0),
    (0.9, [20, 30, 60], 4.0), (0.8, [30, 60, 120], 20.0)],
    ids=["chain_fit-a", "chain_fit-b", "chain_fit-c", "quadrature"])
def test_lockstep_rate_fits_equal_one_fit_at_a_time(monkeypatch, caplog,
                                                    beta, modes, horizon):
    # the lockstep loop against each fit alone (4,096 particles, dt = 0.1,
    # 3,000 steps), bit for bit: rates, and each fit's logged passes.  At
    # fit horizon 20 the fastest mode's arguments reach |z| = 8.1, past the
    # series radius 5, so its shared passes take the quadrature fallback
    inputs, largest, ml = [], [], analysis.mittag_leffler
    fit = chain._fit_mode_rate

    def spy_fit(times, amps, beta, guesses):
        inputs.extend(zip(times, amps, guesses))
        return fit(times, amps, beta, guesses)

    def spy_ml(beta, z, **kwargs):
        largest.append(np.max(np.abs(z)))
        return ml(beta, z, **kwargs)

    monkeypatch.setattr(chain, "_fit_mode_rate", spy_fit)
    monkeypatch.setattr(analysis, "mittag_leffler", spy_ml)
    caplog.set_level(logging.DEBUG, logger="fracdyn")
    report = continuum_limit_compare(_spec(n=4096, beta=beta), modes, 0.1,
                                     3000, fit_horizon=horizon)
    alone = [ml_rate_one_fit(t[1:], a[1:] / a[0], beta, guess)
             for t, a, guess in inputs]
    assert report.rate_measured == [float(lam) for lam, _ in alone]
    assert [r.args for r in caplog.records
            if r.msg.startswith("rate fit:")] == [(n, lam) for lam, n in alone]
    assert (max(largest) > 5.0) == (horizon > 4.0)


def test_rate_fit_failure_raises(monkeypatch):
    times = np.linspace(0.1, 3.0, 24)
    ratio = mittag_leffler(0.9, -0.5 * times ** 0.9)
    assert analysis._ml_rates([times], [ratio], 0.9, [-0.4])[0] == \
        pytest.approx(-0.5, rel=1e-13)
    with pytest.raises(ConvergenceError, match="did not converge"):
        analysis._ml_rates([times], [np.full(24, np.nan)], 0.9, [-0.4])
    monkeypatch.setattr(analysis, "_RATE_FIT_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="did not converge") as budget:
        analysis._ml_rates([times], [ratio], 0.9, [-0.4])
    # the estimate is the last step's size: one step from -0.4 towards -0.5
    assert budget.value.estimate == pytest.approx(0.1, rel=0.2)


def test_continuum_compare_guard_sees_mode_coefficients():
    # a = -1e5 grows every mode about 1.19e4-fold in the first step; the
    # full ring's guard sees the field's sup-norm (initially 1), the
    # compare's sees the largest mode coefficient (initially n / 2 = 128)
    n, mode, dt = 256, 3, 0.1
    spec = _spec(n=n, beta=0.9, potential=Potential.GINZBURG_LANDAU, a=-1e5)
    u0 = np.cos(2 * np.pi * mode * np.arange(n) / n)
    with pytest.raises(BlowUpError) as full:
        evolve_chain(spec, FieldState.from_initial(spec.grid, TimeGrid(100, dt), u0))
    with pytest.raises(BlowUpError) as modes:
        continuum_limit_compare(spec, [mode], dt=dt, n_steps=100)
    assert full.value.step == modes.value.step == 1
    assert full.value.norm == pytest.approx(1.19e4, rel=5e-3)
    assert modes.value.norm == pytest.approx(1.52e6, rel=5e-3)
    assert modes.value.norm / (n / 2) == pytest.approx(full.value.norm / 1.0,
                                                       rel=1e-12)


def test_mode_solve_growth_sends_the_compare_to_the_stepper():
    # at a = -1e5 the solved levels of 10 steps stay finite (about 1e46)
    # but grow about 1.19e4-fold per step: the growth rule alone must hand
    # the run to the stepper, whose guard raises at step 1
    spec = _spec(n=256, beta=0.9, potential=Potential.GINZBURG_LANDAU, a=-1e5)
    with pytest.raises(BlowUpError, match="grew") as info:
        continuum_limit_compare(spec, [3], dt=0.1, n_steps=10)
    assert info.value.step == 1


def test_continuum_compare_single_mode_has_no_exponent():
    # one mode cannot fix a power law: the exponent is NaN, not a line
    # through one point, and the rate is still fitted
    spec = _spec(n=256, beta=0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = continuum_limit_compare(spec, [3], dt=0.1, n_steps=300)
    assert math.isnan(report.fitted_exponent)
    assert report.deviation_vs_lattice[0] < 5e-3
