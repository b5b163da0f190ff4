"""Time evolution and stationary solutions of fractional field equations on
periodic grids.

Equation convention
-------------------
``evolve_field`` advances

    g0 * D^beta_t u + sum_s g_s * (-Lap)^(s/2) [f(u)] + F(u) = 0

where ``D^beta_t`` is the left Caputo derivative, ``(-Lap)^(s/2)`` is the
fractional Laplacian with Fourier multiplier ``+|k|^s`` (the *negated* Riesz
derivative, so a positive coefficient is dissipative), ``f`` is an optional
pointwise interaction composition, and ``F = dU/du`` is the on-site force.
A single linear term therefore obeys the per-mode law

    u_k(t) = u_k(0) * E_beta(-(g_s |k|^s / g0) t^beta).

Sine-Gordon, ``D^beta_t u - Riesz_alpha u + sin u = 0``, is ``g0 = 1``,
the one term ``(alpha, 1)`` and the sine potential.

The stationary solver works instead with the equation in its conventional
written form ``g * Riesz_alpha u + a u + b u^3 = 0`` (Riesz multiplier
``-|k|^alpha``); with ``g = -g_s`` its residual, ``stationary_residual``,
is the gradient of ``free_energy`` over ``dx`` for the one term
``(alpha, g_s)``: ``g_s (-Lap)^(alpha/2) u + a u + b u^3``.

Time stepping is semi-implicit: the full memory sum is evaluated explicitly
except its newest-level weight, linear spatial terms are solved implicitly in
Fourier space, and nonlinear parts lag one level.  Every order runs the same
L1 loop over a memory variable ``y``: the field itself for ``beta <= 1``,
and for ``beta`` in (1, 2] the difference quotient ``(u_{j+1} - u_j) / dt``
at order ``beta - 1``, led by the required initial velocity.  The level
form solves for ``u_{j+1}``: every step at ``beta <= 1``, and the first one
above.  The increment form makes every later step above ``beta = 1``, where
the linear term is the symmetric average over levels ``j + 1`` and
``j - 1`` (a standard second-order implicit wave scheme at ``beta = 2``): it
updates the spectrum's increment ``d = u_{j+1} - u_j`` as ``d <- d - pull
u_j - c push h - push F_j`` (memory sum ``h``, lagged terms ``F_j``, factors
``push = dt / (c + dt lin / 2)`` and ``pull = lin push`` formed once per
run), then ``u_{j+1} = u_j + d``.  These terms are of the size of ``d``,
while solving for the level itself would form ``c (u_j / dt + y_j)``,
``c / dt`` times ``|u|`` (1e4 on the sine-Gordon config), and cancel most of
it every step.  One scheme serves this module, ``chain.evolve_chain`` and
``chain.continuum_limit_compare``: the chain is the same scheme with spatial
multiplier ``g0 (J^(k) - J^(0))`` in place of ``sum_s g_s |k|^s`` and time
coefficient 1.  The scheme takes ``g0`` from the model and its transforms
from the state: a :class:`FieldState` steps the FFT modes of its dtype
(``FieldState.transforms``), and a :class:`LevelRing` of mode coefficients
is its own transform.

When the equation is linear and first order (``beta < 1``, ``f`` the
identity, ``F`` absent or ``a u``) with real coefficients, every mode's L1
equations over the whole run form one lower-triangular Toeplitz system, so
the levels are solved at once by a power-series reciprocal
(``fracops._series_reciprocal``), O(n log n) per mode, instead of ``n``
Python steps.  The solve is kept only where no mode grows: the reciprocal's
rounding in each Newton round is relative to that round's largest
coefficient, so on a growing mode the round's early levels would carry the
growth across it as relative error.  A run with a growing mode of the
equation (``g0 (s_k + a) < 0`` for a mode ``k`` with multiplier ``s_k``) or
a complex coefficient is stepped at once; one whose solved factors are not
all finite and at most 1 in magnitude (the lagged ``a u`` lets a mode of
the scheme grow where ``a`` is large beside ``g0 dt^(-beta)``) is stepped
before any level is placed.  Where the solve is kept, each mode's levels
match the stepped ones to rounding of its initial coefficient and are
placed once each, through the stepper's blow-up guard and ``observe`` in
step order; relative to a level that has decayed far below it the stepper
is the more accurate (see the README's performance notes).

The stepper's memory sum over all earlier increment spectra is kept by
``fracops.HistorySum``: exact, direct within base blocks of
``HISTORY_BLOCK = 64`` steps and by FFT products between blocks, so a run of
``n`` steps over ``m`` modes costs O(n log^2 n * m) instead of the
O(n^2 * m) of a direct sum per step, and holds one ``n x m`` buffer, real
for the real rows of a real ring of mode coefficients.  It serves only the stepped runs that have a memory sum: nonlinear ones and
linear ones with a growing mode below ``beta = 1``, and every run at orders
in (1, 2).

Level policy: ``LevelRing.history``, and so ``FieldState.history``, is a
ring of ``rows`` levels, with level ``j`` in row ``j % rows``.  By default
it holds all ``n_steps + 1`` levels, which only ``residual`` still needs.
The steppers themselves read only the newest level (the memory sum and the
spectrum live in the stepper, the solve's factors in the solve), so a
caller that does not need the trajectory asks for 2 rows and collects what
it keeps through the steppers' ``observe(j, u)`` callback.  Reading a level
the ring no longer holds raises ``DomainError``.  ``LevelRing.place`` is the
one place a level is made: the L1 stepper, the whole-run solve and the NLS
splitting only compute levels, and ``place`` passes the sup-norms of the
levels it is handed through the blow-up guard (``_guard``) in one pass,
each against the level before it, and only then writes each level that
passes to its ring row, counts it in ``n_completed`` and calls
``observe``, in step order, up to the first level that fails.
"""

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, ConvergenceError, DomainError
from .fracops import (HistorySum, _blocks, _series_reciprocal,
                      caputo_left_l1, l1_weights,
                      mittag_leffler, riesz_derivative_spectral)
from .grids import (GridSpec, TimeGrid, validate_spatial_order,
                    validate_temporal_order)

__all__ = [
    "Potential",
    "Interaction",
    "ModelSpec",
    "FieldState",
    "evolve_field",
    "nls_evolve",
    "nls_linear_mode_evolution",
    "stationary_residual",
    "stationary_fgle_solve",
    "StationaryResult",
    "free_energy",
    "residual",
    "sine_gordon_energy",
    "field_mass",
]

log = logging.getLogger("fracdyn")

GROWTH_LIMIT = 1.0e3  # per-step sup-norm growth that aborts an evolution
GMRES_RESTART = 60      # Krylov vectors per GMRES restart cycle
GMRES_MAX_CYCLES = 200  # restart cycles before a Newton step's solve fails


class Potential(enum.Enum):
    NONE = "none"
    GINZBURG_LANDAU = "ginzburg_landau"   # U = a u^2/2 + b u^4/4
    SINE_GORDON = "sine_gordon"           # U = -cos u


class Interaction(enum.Enum):
    IDENTITY = "identity"
    SQUARE = "square"                     # f(u) = u^2
    QUADRATIC_MIX = "quadratic_mix"       # f(u) = u - mix * u^2


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients and closures of a field equation.

    ``spatial_terms`` is a tuple of ``(order, coefficient)`` pairs, each
    applying ``coefficient * (-Lap)^(order/2)`` (multiplier ``+|k|^order``).
    """

    g0: float = 1.0
    spatial_terms: tuple = ()
    a: float = 0.0
    b: float = 0.0
    potential: Potential = Potential.NONE
    interaction: Interaction = Interaction.IDENTITY
    interaction_mix: float = 0.0

    def __post_init__(self):
        for order, _ in self.spatial_terms:
            validate_spatial_order(order)

    def force(self, u):
        """On-site force ``F(u) = dU/du``."""
        if self.potential is Potential.NONE:
            return np.zeros_like(u)
        if self.potential is Potential.GINZBURG_LANDAU:
            if self.b == 0:   # 0 * u^3 would be NaN once u^3 overflows
                return self.a * u
            return self.a * u + self.b * u ** 3
        return np.sin(u)

    def interaction_apply(self, u):
        if self.interaction is Interaction.IDENTITY:
            return u
        if self.interaction is Interaction.SQUARE:
            return u ** 2
        return u - self.interaction_mix * u ** 2

    def spatial_symbol(self, wavenumbers):
        """``sum_s g_s |k|^s`` on the given wavenumber set."""
        sym = np.zeros_like(np.asarray(wavenumbers, dtype=float))
        for order, coeff in self.spatial_terms:
            sym += coeff * np.abs(wavenumbers) ** order
        return sym


def _identity(v):
    return v


@dataclass
class LevelRing:
    """Levels of a uniform time grid, each a vector of the same length.

    ``history`` is a ring: the level at ``t_j`` lives in row
    ``j % len(history)``, and only the newest ``len(history)`` levels up to
    ``n_completed`` are held.  Read levels through :meth:`level`; make
    them through :meth:`place`.  ``initial_velocity`` is required by
    temporal orders in (1, 2].  This is all the linear-implicit stepper
    reads and writes, so a level may hold grid values (:class:`FieldState`)
    or the coefficients of modes that do not couple.
    """

    time: TimeGrid
    history: np.ndarray = field(repr=False)
    initial_velocity: np.ndarray = None
    n_completed: int = 0
    _newest_norm: float = field(default=0.0, init=False, repr=False)

    @classmethod
    def start(cls, time, u0, initial_velocity=None, rows=None, **extra):
        """Ring at level 0; ``rows`` levels are held, all ``n_steps + 1``
        by default, at least 2.  ``extra`` goes to the constructor."""
        u0 = np.asarray(u0)
        if u0.ndim != 1:
            raise DomainError("initial level must be a vector")
        if not np.all(np.isfinite(u0)):
            raise DomainError("initial condition must be finite")
        rows = time.n_steps + 1 if rows is None else rows
        if not 2 <= rows <= time.n_steps + 1:
            raise DomainError(f"rows must lie in [2, n_steps + 1 = "
                              f"{time.n_steps + 1}], got {rows}")
        dtype = np.complex128 if np.iscomplexobj(u0) else np.float64
        hist = np.zeros((rows, u0.size), dtype=dtype)
        hist[0] = u0
        v0 = None
        if initial_velocity is not None:
            v0 = np.asarray(initial_velocity, dtype=dtype)
            if v0.shape != u0.shape:
                raise DomainError("initial velocity does not match the "
                                  "initial level")
        ring = cls(time=time, history=hist, initial_velocity=v0, **extra)
        ring._newest_norm = float(np.abs(hist[0]).max())
        return ring

    @property
    def is_complex(self):
        return np.iscomplexobj(self.history)

    @property
    def times(self):
        return self.time.t

    @property
    def holds_trajectory(self):
        """Whether every level ``0..n_completed`` is still held."""
        return self.n_completed < self.history.shape[0]

    def level(self, j):
        """The field at ``t_j``, a view of its ring row."""
        rows = self.history.shape[0]
        first = max(0, self.n_completed - rows + 1)
        if not first <= j <= self.n_completed:
            raise DomainError(f"level {j} is not held: levels "
                              f"{first}..{self.n_completed} are")
        return self.history[j % rows]

    def current(self):
        return self.level(self.n_completed)

    def place(self, levels, observe=None):
        """Make levels ``n_completed + 1, ...`` from the rows of ``levels``,
        the one place levels are made.  The blow-up guard takes the block's
        sup-norms in one pass, each against the level before it; every
        level before the first that fails is then written to its ring row,
        counted and passed to ``observe(j, row)``, in step order, and that
        level's ``BlowUpError`` is raised.  Without ``observe`` a block that
        fits the ring without wrapping goes in one slice write; otherwise
        each level is written in turn, just before its call, as an observer
        may read other held levels."""
        first, rows = self.n_completed + 1, self.history
        norms = np.abs(levels).max(axis=1)
        passed, error = _guard(norms, first, self._newest_norm)
        if observe is None and passed > 1 and first + passed <= len(rows):
            rows[first:first + passed] = levels[:passed]
            self.n_completed = first + passed - 1
            self._newest_norm = float(norms[passed - 1])
        else:
            for j in range(first, first + passed):
                i = j % len(rows)
                rows[i] = levels[j - first]
                self.n_completed = j
                self._newest_norm = float(norms[j - first])
                if observe is not None:
                    observe(j, rows[i])
        if error is not None:
            raise error

    def transforms(self):
        """Forward and inverse transform between a level and the modes the
        stepper solves for: the identity, as each column is a mode."""
        return _identity, _identity


@dataclass
class FieldState(LevelRing):
    """Field levels over a periodic grid: one ring column per grid node."""

    grid: GridSpec = field(kw_only=True)

    @classmethod
    def from_initial(cls, grid, time, u0, initial_velocity=None, rows=None):
        """State at level 0; see :meth:`LevelRing.start`."""
        if np.shape(u0) != (grid.n_points,):
            raise DomainError("initial condition does not match the grid")
        return cls.start(time, u0, initial_velocity, rows, grid=grid)

    @property
    def wavenumbers(self):
        """Wavenumbers of the modes of :meth:`transforms`."""
        grid = self.grid
        return grid.wavenumbers if self.is_complex else grid.wavenumbers_real

    def transforms(self):
        """Forward and inverse FFT along the last axis for the field's dtype:
        ``fft``/``ifft`` for a complex field, ``rfft``/``irfft`` for a real
        one."""
        if self.is_complex:
            return np.fft.fft, np.fft.ifft
        n = self.grid.n_points
        return np.fft.rfft, lambda v: np.fft.irfft(v, n=n)


def _guard(norms, step, prev_norm):
    """The blow-up rule over the sup-norms ``norms`` of new levels ``step,
    step + 1, ...``: each must be finite and at most ``GROWTH_LIMIT`` times
    the one before it, the first ``prev_norm`` (no growth limit after a
    zero level).  One level takes scalar arithmetic, a block one vector
    pass.  Returns how many levels pass before the first that fails, and
    that level's ``BlowUpError``, or None if every level passes."""
    if len(norms) == 1:
        norm, passed = float(norms[0]), 0
        if math.isfinite(norm) and not (prev_norm > 0
                                        and norm > GROWTH_LIMIT * prev_norm):
            return 1, None
    else:
        prev = np.empty_like(norms)
        prev[0], prev[1:] = prev_norm, norms[:-1]
        with np.errstate(over="ignore"):   # as Python's float product does
            bad = ~np.isfinite(norms) | ((prev > 0)
                                         & (norms > GROWTH_LIMIT * prev))
        passed = int(bad.argmax())
        if not bad[passed]:
            return len(norms), None
        norm, prev_norm = float(norms[passed]), float(prev[passed])
    step += passed
    if not math.isfinite(norm):
        return passed, BlowUpError(f"non-finite field at step {step}",
                                   step=step, norm=norm)
    return passed, BlowUpError(
        f"sup-norm grew by {norm / prev_norm:.3g} in one step at step {step}",
        step=step, norm=norm)


def _explicit_terms(model, u, sym, fwd, inv):
    """Force plus the spatial multiplier ``sym`` applied to f(u) when f is
    not the identity."""
    out = model.force(u)
    if model.interaction is not Interaction.IDENTITY:
        out = out + inv(sym * fwd(model.interaction_apply(u)))
    return out


def evolve_field(model: ModelSpec, state: FieldState, beta, observe=None):
    """Advance the field over the whole time grid with the semi-implicit L1
    pseudo-spectral scheme, solved for the whole run at once where it is
    linear, first order and without a growing mode (see the module
    docstring).  ``observe(j, u)``, if given, sees every new level
    ``j >= 1`` once, in order, after its blow-up guard.
    """
    beta = _check_evolve_field(model, beta)
    return _evolve_linear_implicit(state, beta, model,
                                   model.spatial_symbol(state.wavenumbers),
                                   observe)


def _check_evolve_field(model, beta):
    """Reject what ``evolve_field`` cannot step; returns ``beta``."""
    beta = validate_temporal_order(beta)
    if model.g0 == 0:
        raise DomainError("g0 must be nonzero for time stepping", key="g0")
    return beta


def _evolve_linear_implicit(state, beta, model, sym, observe=None):
    """Advance ``g0 D^beta_t u + S[f(u)] + F(u) = 0``, with ``g0``, ``f``
    and ``F`` those of ``model``, over the time grid of the
    :class:`LevelRing` ``state`` from level 0, where ``S`` is the spatial
    operator with multiplier ``sym`` on the modes of ``state.transforms()``:
    the levels of :func:`_step_linear_implicit`, solved for the whole run at
    once by :func:`_solve_linear_implicit` when the equation is linear and
    first order (``beta < 1``, ``f`` the identity, ``F`` absent or
    ``a u``), its coefficients are real and no mode grows (see the module
    docstring), and stepped otherwise.  Logs the path taken at DEBUG.
    ``state`` must be at level 0: every level depends on all before it (a
    ring that no longer holds level 0 fails on reading it)."""
    if state.n_completed and state.holds_trajectory:
        raise DomainError(f"evolution starts at level 0, not {state.n_completed}")
    n, m = state.time.n_steps, sym.shape[0]
    gl = model.potential is Potential.GINZBURG_LANDAU
    a = model.a if gl else 0.0
    linear = (model.interaction is Interaction.IDENTITY
              and (model.potential is Potential.NONE or (gl and model.b == 0)))
    rates = model.g0 * (sym + a)   # the solve is real: complex rates are stepped
    if beta < 1.0 and linear and np.isrealobj(rates) and np.all(rates >= 0):
        grows = _solve_linear_implicit(state, beta, model, a, sym, observe)
        if grows is None:
            return state
        log.debug("evolve: solve found a growing mode at step %d; stepped",
                  grows)
    else:
        log.debug("evolve: stepped %d steps × %d modes", n, m)
    return _step_linear_implicit(state, beta, model, sym, observe)


def _step_linear_implicit(state, beta, model, sym, observe=None):
    """Step ``g0 D^beta_t u + S[f(u)] + F(u) = 0`` one level at a time, on
    the modes of ``state.transforms()`` with ``model``'s ``g0``.  ``S`` is
    implicit when ``f`` is the identity and lags one level otherwise; the
    on-site force ``F`` always lags.  A step takes the level form (every
    step at ``q = beta``, and the first at ``q = beta - 1``, led by the
    initial velocity's modes ``v0``) or the increment form (every later
    step at ``q = beta - 1``).  Each new level is made by
    :meth:`LevelRing.place`, which guards it before writing it, with
    ``observe``."""
    second_order = beta > 1.0
    if second_order and state.initial_velocity is None:
        raise DomainError("orders in (1, 2] require an initial velocity")
    implicit = model.interaction is Interaction.IDENTITY
    lin = sym if implicit else np.zeros_like(sym)
    no_force = model.potential is Potential.NONE and implicit
    n, dt = state.time.n_steps, state.time.dt
    u, rows = state.history, state.history.shape[0]
    fwd, inv = state.transforms()
    uhat = fwd(state.level(0))
    # L1 scheme of order q on the memory variable y (see the module docstring)
    q = beta - 1.0 if second_order else beta
    c = model.g0 * dt ** (-q) / math.gamma(2.0 - q)
    level_denom = c / dt + lin if second_order else c + lin
    if np.any(level_denom == 0):
        raise DomainError("implicit system singular at the first step")
    if second_order:   # per-mode factors of the increment form
        v0 = fwd(state.initial_velocity.astype(u.dtype))
        denom = c + 0.5 * dt * lin
        if np.any(denom == 0):
            raise DomainError("implicit system singular after the first step")
        push = dt / denom
        pull, mem_push = lin * push, c * push
    # at q = 1 every weight beyond the newest vanishes: no memory sum
    mem = HistorySum(l1_weights(q, n), n, sym.shape[0]) if q < 1.0 else None
    for j in range(n):
        force = (None if no_force else
                 fwd(_explicit_terms(model, u[j % rows], sym, fwd, inv)))
        h = None if mem is None else mem.history(j)
        if second_order and j:   # increment form: d = u_{j+1} - u_j
            step = pull * uhat
            if force is not None:
                step += push * force
            if h is not None:
                step += mem_push * h
                mem.push(j, step / -dt)
            d -= step
            uhat += d
        else:   # level form: solve for u_{j+1}
            v = uhat / dt + v0 if second_order else uhat
            rhs = c * (v if h is None else v - h)
            if force is not None:
                rhs = rhs - force
            new_hat = rhs / level_denom
            if second_order:
                d = new_hat - uhat
            if mem is not None:   # the memory variable's increment
                mem.push(j, d / dt - v0 if second_order else new_hat - uhat)
            uhat = new_hat
        state.place(inv(uhat)[None], observe)
    return state


def _solve_linear_implicit(state, beta, model, a, sym, observe):
    """The levels of :func:`_step_linear_implicit` at ``beta < 1`` for
    ``g0 D^beta_t u + S u + a u = 0`` with real ``g0`` (``model``'s), ``a``
    and ``S``, solved for the whole run at once.

    With ``c = g0 dt^(-beta) / Gamma(2 - beta)``, L1 weights ``w`` (``w_0 =
    1``) and increments ``d_i = u_{i+1} - u_i``, the stepper solves, per
    mode with multiplier ``s``,

        c sum_{i<=j} w_{j-i} d_i + s u_{j+1} + a u_j = 0,   j = 0..n-1,

    a lower-triangular Toeplitz system.  As power series it reads
    ``D(z) = -(s + a) u_0 / P(z)`` with ``P(z) = c (1 - z) W(z) + s + a z``,
    so one real series reciprocal per mode gives every increment, and
    level ``j + 1`` is ``u_0 (1 - (s + a) sum_{i<=j} [z^i] 1/P)``.  Every
    mode's ``P`` has the coefficients ``lags`` of ``c (1 - z) W(z)`` from
    ``z^2`` on, and ``lags[0] + s`` and ``lags[1] + a`` before, so the
    reciprocal takes that one series and each mode's two leading
    coefficients, for every mode in one call that blocks its own FFT work.

    Those factors, one real ``n x modes`` array (held contiguous in time),
    are all the solve holds beside the ring.  Every factor must be finite and at most 1 in
    magnitude (no mode grows; see the module docstring); otherwise no level
    is placed and the first step with such a factor is returned, for the
    stepper to run the whole run.  Else the solve logs that it solved the
    run and places each level once: levels are formed and
    inverse-transformed in the row blocks of ``fracops._blocks``, and each
    block is made by one :meth:`LevelRing.place`, which guards its levels
    in step order as the stepper's are guarded, so a ``BlowUpError`` leaves
    the state and ``observe`` where the stepper's would.  Returns None.
    """
    n, dt = state.time.n_steps, state.time.dt
    fwd, inv = state.transforms()
    u0_hat = fwd(state.level(0))
    c = model.g0 * dt ** (-beta) / math.gamma(2.0 - beta)
    lags = c * np.diff(l1_weights(beta, n), prepend=0.0)  # c (1 - z) W(z)
    m = sym.shape[0]
    head = np.empty((2, m))   # each mode's leading two coefficients of P
    head[0] = lags[0] + sym
    head[1] = lags[1] + a if n > 1 else 0.0
    if np.any(head[0] == 0):
        raise DomainError("implicit system singular at the first step")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # every mode at once: each Newton round transforms the shared lags
        # once and sizes its own column blocks
        fac = _series_reciprocal(head, lags)
        np.cumsum(fac, axis=0, out=fac)
        fac *= -(sym + a)
        fac += 1.0
    if not (fac.max() <= 1.0 and fac.min() >= -1.0):   # False on NaN too
        bounded = (np.abs(fac) <= 1.0).all(axis=1)
        return int(np.argmin(bounded)) + 1
    log.debug("evolve: solved %d steps × %d modes at once", n, m)
    for rows in _blocks(n, 16 * m):
        state.place(inv(u0_hat * fac[rows]), observe)
    return None


def nls_evolve(state: FieldState, alpha, g, a, b, observe=None):
    """Advance ``i du/dt = -g (-Lap)^(alpha/2) u + a u + b |u|^2 u`` from the
    last completed level to the end of the time grid by Strang splitting.

    Each step is a half-step pointwise phase rotation, a full linear step
    with multiplier ``exp(i g |k|^alpha dt)`` and a second half rotation.
    Every substep preserves ``|u|`` pointwise or ``sum |u_k|^2``, so the
    discrete mass is conserved to rounding.  Each new level is made by
    :meth:`LevelRing.place`, guarded as the L1 stepper's are (the first
    against the level it resumes from), then passed to ``observe(j, u)``.
    """
    if not state.is_complex:
        raise DomainError("NLS stepping needs a complex field")
    alpha = validate_spatial_order(alpha)
    dt = state.time.dt
    linear = np.exp(1j * g * np.abs(state.grid.wavenumbers) ** alpha * dt)

    def rotate(v):
        return v * np.exp(-1j * (a + b * np.abs(v) ** 2) * (0.5 * dt))

    for _ in range(state.n_completed, state.time.n_steps):
        u = np.fft.ifft(linear * np.fft.fft(rotate(state.current())))
        state.place(rotate(u)[None], observe)
    return state


def nls_linear_mode_evolution(alpha, beta, g, a, k, u0, t):
    """Closed-form single-mode solution of the linear time-fractional
    Schroedinger-type equation, ``u0 * E_beta(i (-g |k|^alpha + a) t^beta)``.

    This is the Caputo-mode surrogate for the transform-side symbol
    ``(i omega)^beta``: time-domain stepping with that symbol's native
    derivative needs non-classical initial data, so the identity is verified
    in the frequency domain (see ``analysis``) while time-domain checks use
    this mode law.  ``beta = 1`` reduces to ``u0 * exp(i (-g |k|^alpha + a) t)``.
    """
    beta = validate_temporal_order(beta, allow_high=False)
    lam = 1j * (-g * abs(k) ** float(alpha) + a)
    return u0 * mittag_leffler(beta, lam * np.asarray(t, dtype=float) ** beta)


def stationary_residual(u, grid: GridSpec, alpha, g, a, b):
    """Residual of the stationary equation ``g Riesz_alpha u + a u + b u^3``."""
    return g * riesz_derivative_spectral(u, alpha, grid) + a * u + b * u ** 3


@dataclass
class StationaryResult:
    u: np.ndarray
    residual_norm: float
    n_iter: int
    converged: bool
    krylov_iters: int
    line_search_halvings: int


def _gmres(matvec, b, rtol, atol, restart, max_cycles):
    """Restarted GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7,
    1986) for ``A x = b`` from ``x = 0``.

    Each cycle builds an Arnoldi basis of at most ``restart`` vectors by
    modified Gram-Schmidt and reduces the Hessenberg matrix to triangular
    form with Givens rotations; the last entry of the rotated right-hand
    side is then the residual norm of the cycle's current iterate.  A cycle
    ends once that norm reaches ``max(rtol ||b||, atol)`` or the basis spans
    an invariant subspace, and updates ``x`` by back substitution.  The true
    residual ``||b - A x||`` decides whether another of the ``max_cycles``
    cycles runs.  Returns ``(x, inner iterations, converged)``.
    """
    eps = np.finfo(float).eps
    target = max(rtol * np.linalg.norm(b), atol)
    x = np.zeros_like(b)
    r = b
    rnorm = np.linalg.norm(r)
    iters = 0
    basis = np.empty((restart + 1, b.size))
    hess = np.zeros((restart + 1, restart))
    cs, sn, rhs = np.zeros(restart), np.zeros(restart), np.zeros(restart + 1)
    for _ in range(max_cycles):
        if rnorm <= target:
            return x, iters, True
        basis[0] = r / rnorm
        rhs[:] = 0.0
        rhs[0] = rnorm
        for j in range(restart):
            w = matvec(basis[j])
            w_norm = np.linalg.norm(w)
            for i in range(j + 1):
                hess[i, j] = basis[i] @ w
                w -= hess[i, j] * basis[i]
            h_next = np.linalg.norm(w)
            invariant = h_next <= eps * w_norm
            if not invariant:
                basis[j + 1] = w / h_next
            for i in range(j):
                hess[i, j], hess[i + 1, j] = (
                    cs[i] * hess[i, j] + sn[i] * hess[i + 1, j],
                    cs[i] * hess[i + 1, j] - sn[i] * hess[i, j])
            rho = math.hypot(hess[j, j], h_next)
            cs[j], sn[j] = (hess[j, j] / rho, h_next / rho) if rho else (1.0, 0.0)
            hess[j, j] = rho
            rhs[j + 1] = -sn[j] * rhs[j]
            rhs[j] *= cs[j]
            iters += 1
            if abs(rhs[j + 1]) <= target or invariant:
                break
        k = j + 1
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):   # back substitution
            if hess[i, i]:
                y[i] = (rhs[i] - hess[i, i + 1:k] @ y[i + 1:]) / hess[i, i]
        x = x + y @ basis[:k]
        r = b - matvec(x)
        rnorm = np.linalg.norm(r)
    return x, iters, rnorm <= target


def _check_stationary(alpha, a, b, tol, max_iter):
    """Reject what ``stationary_fgle_solve`` cannot solve; returns ``alpha``."""
    alpha = validate_spatial_order(alpha)
    if a == 0 and b == 0:
        raise DomainError("need a != 0 or b != 0", key="a")
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}", key="tol")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}",
                          key="max_iter")
    return alpha


def stationary_fgle_solve(grid: GridSpec, alpha, g, a, b, initial_guess,
                          tol=1e-10, max_iter=100):
    """Damped Newton-Krylov solve of ``g Riesz_alpha u + a u + b u^3 = 0``.

    Each Newton step solves ``J s = -r`` for the Jacobian
    ``J v = g Riesz_alpha v + (a + 3 b u^2) v`` by restarted GMRES
    (restart ``GMRES_RESTART``, at most ``GMRES_MAX_CYCLES`` cycles) on
    matrix-free FFT products, so a Krylov iteration costs O(N log N) time
    and the solve holds O(N) memory (``GMRES_RESTART + 1`` basis vectors).
    The right preconditioner is the spectral inverse of
    ``P(k) = -g |k|^alpha - sigma`` with ``sigma = copysign(c, g)``,
    ``c = |a|``, or ``max |3 b u^2|`` when ``a = 0``; ``P`` keeps the sign
    of the spatial term on every mode, so it cannot vanish unless ``a = 0``
    and ``u = 0``, where the residual is already zero.  As
    ``-g |k|^alpha / P = 1 + sigma / P``, the preconditioned product is
    ``J P^-1 y = y + (a + 3 b u^2 + sigma) irfft(rfft(y) / P)``, one forward
    and one inverse real FFT per Krylov iteration.  Inexact-Newton forcing
    asks GMRES for the relative residual
    ``max(1e-10, min(1e-2, 1e-2 ||r||_inf))``, or the absolute 2-norm
    residual ``1e-2 tol`` if that is larger: a linear residual below 1 % of
    the Newton target cannot change the outcome, and near a singular
    Jacobian the relative target alone can lie below rounding.  Steps are
    halved (at most 30 times) while the residual sup-norm does not decrease.

    Non-convergence within ``max_iter`` Newton iterations is reported in the
    result rather than raised; a GMRES solve that misses its tolerance
    raises ``ConvergenceError`` naming the Newton iteration, with the
    achieved relative Krylov residual as ``estimate``.  ``tol`` must be
    positive and ``max_iter`` at least 1.
    """
    alpha = _check_stationary(alpha, a, b, tol, max_iter)
    u = np.asarray(initial_guess, dtype=float).copy()
    if u.shape != (grid.n_points,):
        raise DomainError("initial guess does not match the grid")
    n = grid.n_points
    sym = -g * grid.wavenumbers_real ** alpha   # g Riesz_alpha on rfft modes

    res = stationary_residual(u, grid, alpha, g, a, b)
    rnorm = float(np.max(np.abs(res)))
    it = krylov_iters = halvings = 0
    for it in range(1, max_iter + 1):
        if rnorm < tol:
            return StationaryResult(u=u, residual_norm=rnorm, n_iter=it - 1,
                                    converged=True, krylov_iters=krylov_iters,
                                    line_search_halvings=halvings)
        shift = abs(a) if a != 0 else float(np.max(np.abs(3.0 * b * u ** 2)))
        sigma = math.copysign(shift, g)
        pinv = 1.0 / (sym - sigma)
        diag = a + 3.0 * b * u ** 2 + sigma

        def jac_prec(y):   # sym pinv = 1 + sigma pinv
            return y + diag * np.fft.irfft(pinv * np.fft.rfft(y), n=n)

        rtol = max(1e-10, min(1e-2, 1e-2 * rnorm))
        y, inner, solved = _gmres(jac_prec, -res, rtol, 1e-2 * tol,
                                  GMRES_RESTART, GMRES_MAX_CYCLES)
        krylov_iters += inner
        if not solved:
            achieved = float(np.linalg.norm(res + jac_prec(y))
                             / np.linalg.norm(res))
            raise ConvergenceError(
                f"GMRES missed its tolerance at Newton iteration {it}: "
                f"relative residual {achieved:.3e}, target {rtol:.1e}",
                estimate=achieved)
        step = np.fft.irfft(pinv * np.fft.rfft(y), n=n)
        lam = 1.0
        for _ in range(30):
            trial = u + lam * step
            tres = stationary_residual(trial, grid, alpha, g, a, b)
            tnorm = float(np.max(np.abs(tres)))
            if tnorm < rnorm:
                break
            lam *= 0.5
            halvings += 1
        u, res, rnorm = trial, tres, tnorm
    return StationaryResult(u=u, residual_norm=rnorm, n_iter=it,
                            converged=rnorm < tol, krylov_iters=krylov_iters,
                            line_search_halvings=halvings)


def free_energy(u, model: ModelSpec, grid: GridSpec):
    """Free energy relative to the uniform zero state.

    Interaction part ``(1/2) sum_s g_s (L/N^2) sum_k |k|^s |u_k|^2`` (the
    quadratic form whose variation is ``sum_s g_s (-Lap)^(s/2) u``), plus the
    periodic trapezoid rule of ``a u^2/2 + b u^4/4``.
    """
    if model.potential is not Potential.GINZBURG_LANDAU:
        raise DomainError("free energy is defined for the Ginzburg-Landau potential")
    u = np.asarray(u)
    k = grid.wavenumbers
    uh = np.fft.fft(u)
    n = grid.n_points
    f_int = 0.5 * (grid.length / n ** 2) * float(
        np.sum(model.spatial_symbol(k) * np.abs(uh) ** 2))
    f_pot = grid.dx * float(np.sum(0.5 * model.a * np.abs(u) ** 2
                                   + 0.25 * model.b * np.abs(u) ** 4))
    return f_int + f_pot


def residual(model: ModelSpec, state: FieldState, beta):
    """Field-equation residual on a completed trajectory.

    Evaluates ``g0 D^beta u + sum_s g_s (-Lap)^(s/2) f(u) + F(u)`` at
    every node.  Beside its output it holds one block: the Caputo
    derivative streams its increments over column blocks and is scaled in
    place, and the spatial and force terms are added a row block at a time
    (no force term where the model has none), each block one of
    ``fracops._blocks``.
    """
    beta = validate_temporal_order(beta)
    if state.n_completed != state.time.n_steps:
        raise DomainError("residual needs a completed trajectory")
    if not state.holds_trajectory:
        raise DomainError("residual needs every level; this state holds "
                          f"only the last {state.history.shape[0]}")
    u = state.history
    out = caputo_left_l1(u, beta, state.time.dt,
                         initial_velocity=state.initial_velocity)
    out *= model.g0
    fwd, inv = state.transforms()
    sym = model.spatial_symbol(state.wavenumbers)
    # rows in blocks, one transform along the grid axis per block
    for rows in _blocks(u.shape[0], 16 * u.shape[1]):
        ur = u[rows]
        term = inv(sym * fwd(model.interaction_apply(ur)))
        if model.potential is not Potential.NONE:
            term += model.force(ur)
        out[rows] += term
    return out


def sine_gordon_energy(state: FieldState, j):
    """Discrete wave energy at the half level between ``t_j`` and ``t_{j+1}``:
    ``sum dx [ ut^2/2 + ux^2/2 + (1 - cos u_mid) ]``.  Both levels must be
    computed and still held by the state's ring."""
    dt = state.time.dt
    grid = state.grid
    ua, ub = state.level(j), state.level(j + 1)
    ut = (ub - ua) / dt
    umid = 0.5 * (ua + ub)
    kr = grid.wavenumbers_real
    ux = np.fft.irfft(1j * kr * np.fft.rfft(umid), n=grid.n_points)
    dens = 0.5 * ut ** 2 + 0.5 * ux ** 2 + (1.0 - np.cos(umid))
    return float(np.sum(dens) * grid.dx)


def field_mass(u, grid: GridSpec):
    """Discrete mass ``sum |u|^2 dx``."""
    return float(np.sum(np.abs(u) ** 2) * grid.dx)
