"""Periodic chain of oscillators with power-law long-range coupling and
power-law temporal memory, plus its quantitative comparison against the
continuum fractional field equation.

The equation of motion is

    D^beta_t u_n + g0 * sum_{m != n} J(|n - m|) [f(u_m) - f(u_n)] + F(u_n) = 0

with ``J(d) = 1/d^(alpha+1)`` on minimal-image ring distances up to the
coupling cutoff.  The coupling sum is a circular convolution and is
evaluated by FFT in O(N log N); the tests check it against a direct O(N^2)
pair sum in ``tests/oracles.py``.  Only the kinetic term carries memory;
the interaction acts at equal times.  In mode space the chain is the field
equation of ``fields.evolve_field`` with spatial multiplier
``g0 (J^(k) - J^(0))`` and time coefficient 1: its state is a real
``fields.FieldState`` on the ring's grid (``ChainSpec.grid``), advanced by
the same stepper.

For a single lattice mode the linear equation closes exactly:

    A(t) = A(0) * E_beta(lambda_k t^beta),
    lambda_k = -g0 (J^(k) - J^(0)) - a,

and as ``k dx -> 0`` the lattice rate approaches the continuum rate
``-g_alpha |k|^alpha - a`` with ``g_alpha`` the renormalized constant.  For
``1 < alpha < 2`` the lattice symbol has the two-term expansion (``theta = k dx``)

    J^(theta) - J^(0) = 2 Gamma(-alpha) cos(pi alpha / 2) |theta|^alpha
                        - zeta(alpha - 1) theta^2 + O(theta^4),

so the relative gap to the pure ``|k|^alpha`` law closes only like
``(k dx)^(2-alpha)``, which is what ``continuum_limit_compare`` measures.
Because its modes do not couple, it evolves only the compared modes'
coefficients, held in a ``fields.LevelRing`` (which is its own transform),
through the same stepper; below ``beta = 1`` their linear equations are
solved there for the whole run at once where no mode grows, as for any
linear field (see ``fields``).  The full ring, stepped, is the oracle of
both paths in the tests.
The ring's coupling cutoff adds a further small tail, nearly independent of
``k``, from the interactions beyond it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import _fit_exponent, _ml_rates
from .errors import ConvergenceError, DomainError
from .fields import (FieldState, Interaction, LevelRing, ModelSpec, Potential,
                     _evolve_linear_implicit)
from .grids import (GridSpec, TimeGrid, validate_spatial_order,
                    validate_temporal_order)
from .kernels import renormalized_constant

__all__ = [
    "ChainSpec",
    "evolve_chain",
    "continuum_limit_compare",
    "ChainContinuumReport",
]

_FIT_LEVELS = 25  # time levels per mode-rate fit
MAX_KDX = 0.2     # largest k dx of the asymptotic regime continuum_limit_compare fits


@dataclass(frozen=True)
class ChainSpec:
    """Ring of ``n_particles`` oscillators spaced ``dx`` apart, coupled with
    exponent ``alpha`` in (0, 2].

    ``local`` supplies the on-site force ``F`` and the interaction
    composition ``f``, and nothing else: its spatial terms must be empty
    (the chain's only spatial coupling is ``J``) and its ``g0`` 1 (the
    chain's time coefficient is 1).
    """

    n_particles: int
    dx: float
    alpha: float
    g0: float
    beta: float
    coupling_cutoff: int = 0  # 0 means n_particles // 2
    local: ModelSpec = field(default_factory=ModelSpec)

    def __post_init__(self):
        if self.n_particles < 8:
            raise DomainError("need at least 8 particles", key="n_particles")
        if not math.isfinite(self.dx) or self.dx <= 0:
            raise DomainError("dx must be positive and finite", key="dx")
        validate_spatial_order(self.alpha)
        validate_temporal_order(self.beta)
        if not 1 <= self.cutoff <= self.n_particles // 2:
            raise DomainError("coupling cutoff must lie in [1, n_particles/2]",
                              key="cutoff")
        if self.local.spatial_terms:
            raise DomainError("chain local model must not carry spatial terms")
        if self.local.g0 != 1.0:
            raise DomainError("chain local model must keep g0 = 1: "
                              "the chain's time coefficient is 1")

    @property
    def cutoff(self):
        return self.coupling_cutoff or self.n_particles // 2

    @property
    def grid(self):
        return GridSpec(self.n_particles, self.n_particles * self.dx)


def _ring_symbol(spec: ChainSpec):
    """Ring coupling increment ``J^(k) - J^(0)`` on rfft modes.

    ``J^`` is the rfft of the ring kernel, whose entry ``j`` holds ``J(d)``
    at the minimal-image distance ``d = min(j, N - j)``, zeroed beyond the
    cutoff; for even ``N`` the antipodal distance ``N/2`` appears once.
    """
    n = spec.n_particles
    d = np.minimum(np.arange(n), n - np.arange(n))
    kern = np.zeros(n)
    near = (d > 0) & (d <= spec.cutoff)
    kern[near] = 1.0 / d[near].astype(float) ** (spec.alpha + 1.0)
    return np.fft.rfft(kern).real - kern.sum()


def evolve_chain(spec: ChainSpec, state: FieldState, observe=None):
    """Advance the chain over the state's whole time grid.

    This is the field stepper of ``evolve_field`` with spatial multiplier
    ``g0 (J^(k) - J^(0))`` on rfft modes and time coefficient 1: memory sum
    explicit except its newest weight, the linear coupling implicit in mode
    space when ``f`` is the identity, on-site force and nonlinear coupling
    lagged one level; a linear chain below ``beta = 1`` is solved for the
    whole run at once, as ``evolve_field`` solves a linear field.  Orders in
    (1, 2] need an initial velocity.  ``state`` is a real
    :class:`~fracdyn.fields.FieldState` on ``spec.grid``, stepped on its
    ``rfft`` modes; ``spec.local`` supplies ``g0 = 1``.  ``observe(j, u)``,
    if given, sees every new level ``j >= 1``.
    """
    if state.history.shape[1] != spec.n_particles:
        raise DomainError("state does not match the chain size")
    if state.is_complex:
        # the ring symbol lives on the n // 2 + 1 rfft modes of a real ring
        raise DomainError("chain displacements must be real")
    return _evolve_linear_implicit(state, spec.beta, spec.local,
                                   spec.g0 * _ring_symbol(spec), observe)


@dataclass
class ChainContinuumReport:
    """Per-mode comparison of measured chain rates against the lattice
    closed form and the continuum power law.

    ``deviation_vs_continuum`` is measured against the leading law
    ``-g_alpha |k|^alpha - a`` only, without the lattice correction, so it
    carries the ``(k dx)^(2-alpha)`` gap described in the module docstring.
    """

    alpha: float
    beta: float
    dx: float
    g_alpha: float
    modes: list
    k: list
    kdx: list
    rate_measured: list
    rate_lattice: list
    rate_continuum: list
    deviation_vs_continuum: list
    deviation_vs_lattice: list
    fitted_exponent: float


def _fit_mode_rate(times, amps, beta, rate_guesses):
    """Rates ``lam`` of ``A(t) = A(0) E_beta(lam t^beta)`` from every
    mode's amplitude series, one per mode, each at its own times.
    Exponential ratio for ``beta = 1``; least squares against the
    Mittag-Leffler law otherwise, every mode's fit in one lockstep loop
    (``analysis._ml_rates``)."""
    if beta == 1.0:
        return [float(np.log(a[-1] / a[0]) / t[-1])
                for t, a in zip(times, amps)]
    return list(map(float, _ml_rates([t[1:] for t in times],
                                     [a[1:] / a[0] for a in amps],
                                     beta, rate_guesses)))


def _check_compare(spec: ChainSpec, modes, fit_horizon):
    """Reject what ``continuum_limit_compare`` cannot compare; returns the
    modes as ints, their wavenumbers and the continuum constant."""
    if spec.beta > 1.0:
        raise DomainError("rate comparison requires beta <= 1", key="beta")
    loc = spec.local
    if loc.potential not in (Potential.NONE, Potential.GINZBURG_LANDAU):
        raise DomainError("on-site force must be absent or linear",
                          key="potential")
    if loc.b != 0:
        raise DomainError("on-site force must be linear (b = 0)", key="b")
    if loc.interaction is not Interaction.IDENTITY:
        raise DomainError("rate comparison requires f = identity",
                          key="interaction")
    if not fit_horizon > 0:
        raise DomainError(f"fit_horizon must be positive, got {fit_horizon}",
                          key="fit_horizon")
    modes = [int(m) for m in modes]
    nn = spec.n_particles
    if not all(1 <= m <= nn // 2 for m in modes):
        raise DomainError(f"modes must lie in [1, {nn // 2}], got {modes}",
                          key="modes")
    kvals = 2.0 * math.pi * np.asarray(modes) / (nn * spec.dx)
    if np.any(kvals * spec.dx > MAX_KDX):
        raise DomainError("requested modes leave the asymptotic regime "
                          f"k dx <= {MAX_KDX}", key="modes")
    return modes, kvals, renormalized_constant(spec.alpha, spec.g0, spec.dx)


def continuum_limit_compare(spec: ChainSpec, modes, dt, n_steps,
                            fit_horizon=2.0):
    """Evolve lattice modes and compare their rates with the continuum law.

    ``modes`` are ring mode numbers in ``[1, n_particles // 2]``; each must
    satisfy ``k dx <= MAX_KDX`` (the asymptotic regime).  The on-site force
    must be absent or linear so the modes close on themselves.  Requires
    ``beta <= 1`` (monotone amplitude) and ``fit_horizon > 0``.
    Reports, per mode: the fitted rate, the exact lattice rate, the continuum
    rate ``-g_alpha |k|^alpha - a``, and relative deviations; plus the
    least-squares exponent of ``|rate + a|`` against ``|k|``, NaN for a
    single mode.

    Only the requested modes are evolved: their ``rfft`` coefficients,
    started from the sum of their cosines, with multiplier
    ``g0 (J^(k) - J^(0))`` on those modes and the linear force acting per
    mode, by the linear-implicit evolution on a ``LevelRing`` of those
    coefficients: stepped at ``beta = 1`` or where a mode grows, solved for
    the whole run at once otherwise, each mode's levels then matching the
    stepped ones to rounding of its initial coefficient (see ``fields``).
    The blow-up guard sees the largest mode coefficient, not the field's
    sup-norm: a ``BlowUpError``'s ``norm`` is in coefficient units,
    ``n_particles / 2`` times a cosine's amplitude.
    """
    modes, kvals, g_alpha = _check_compare(spec, modes, fit_horizon)
    beta, loc, nn = spec.beta, spec.local, spec.n_particles
    kdx = kvals * spec.dx
    ring_sym = _ring_symbol(spec)
    a_lin = loc.a if loc.potential is Potential.GINZBURG_LANDAU else 0.0
    # per-mode linear rate -g0 (J^(k) - J^(0)) - a on rfft modes
    rates_lattice_all = -spec.g0 * ring_sym - a_lin

    # the modes do not couple: evolve only their coefficients, with the
    # linear force acting per mode
    u0 = np.zeros(nn)
    for m in modes:
        u0 += np.cos(2.0 * math.pi * m * np.arange(nn) / nn)
    time = TimeGrid(n_steps=n_steps, dt=dt)
    ring = LevelRing.start(time, np.fft.rfft(u0)[modes])
    levels = _evolve_linear_implicit(ring, beta, loc,
                                     spec.g0 * ring_sym[modes]).history
    t = time.t
    latt = [float(rates_lattice_all[m]) for m in modes]
    times, amps = [], []
    for i, m in enumerate(modes):
        horizon = fit_horizon / max(abs(latt[i]), 1e-300)
        jmax = min(n_steps, max(2, int(round(horizon / dt))))
        # sorted(set()) rather than np.unique, which loads numpy.ma on first use
        sel = sorted(set(np.linspace(0, jmax, min(_FIT_LEVELS, jmax + 1))
                         .astype(int).tolist()))
        amps.append(np.abs(levels[sel, i]))
        if np.any(amps[-1] == 0):
            raise ConvergenceError(f"mode {m} amplitude vanished; cannot fit a rate")
        times.append(t[sel])
    meas = _fit_mode_rate(times, amps, beta, latt)
    cont = [-g_alpha * abs(k) ** spec.alpha - a_lin for k in kvals]
    devc = [abs(lm - lc) / abs(lc) for lm, lc in zip(meas, cont)]
    devl = [abs(lm - ll) / abs(ll) for lm, ll in zip(meas, latt)]

    slope = _fit_exponent(kvals, np.abs(np.array(meas) + a_lin))
    return ChainContinuumReport(
        alpha=spec.alpha, beta=beta, dx=spec.dx, g_alpha=g_alpha,
        modes=modes, k=list(map(float, kvals)), kdx=list(map(float, kdx)),
        rate_measured=meas, rate_lattice=latt, rate_continuum=cont,
        deviation_vs_continuum=devc, deviation_vs_lattice=devl,
        fitted_exponent=slope)
