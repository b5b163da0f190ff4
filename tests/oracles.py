"""Independent reference implementations used only by the tests.

Each function here evaluates a quantity the library computes by a faster or
transform-based route, directly from its definition: adaptive quadrature of
the Caputo and Riesz integrals and of the power-law memory integral, the
Laplace-transform identity of the Caputo derivative, brute-force pair sums
on the chain, truncated lattice cosine sums, the time stepper with its
memory sum formed directly at every step (also in extended precision, with
dense DFT matrices for its transforms), the L1
operators and the trajectory residual on whole-array increments, the
per-mode series of a whole stored trajectory transformed at once, the L1
mode equations by forward substitution in extended precision, the power
series reciprocal with every column's whole series held and transformed, the
Mittag-Leffler series one term at a time over the argument array, the
Mittag-Leffler quadrature one argument at a time, the Mittag-Leffler
rate fit by SciPy's trust-region least squares and by Gauss-Newton one fit
at a time, the preconditioned stationary Jacobian with its two terms
transformed apart, the CSV writer that formats one value at a time, the
placing of a block of levels with one blow-up guard call per level, and
the least-squares line by ``np.polyfit``.
Nothing in ``fracdyn`` calls them; they exist so that every operator is
checked against a path written separately from the one under test.  One
helper is the path under test instead: ``ring_coupling_sum`` forms the
chain's coupling sums from its ring symbol, as the stepper does, for the
pair sums to check.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from fracdyn import analysis, chain, fields, fracops
from fracdyn.chain import ChainSpec
from fracdyn.errors import (BlowUpError, ConvergenceError, DomainError,
                            FracdynError)
from fracdyn.fields import Interaction, Potential
from fracdyn.fracops import _series_ratios, l1_weights, mittag_leffler
from fracdyn.grids import GridSpec, validate_temporal_order


class TailBoundError(FracdynError, ValueError):
    """A truncated lattice sum cannot meet the requested tail tolerance."""


def _require(fn, name, beta):
    if fn is None:
        raise DomainError(f"{name} is required for order beta = {beta}")
    return fn


def caputo_left_quadrature_oracle(u_fn, beta, t, du=None, d2u=None,
                                  epsabs=1e-12, epsrel=1e-11):
    """Left Caputo derivative at time ``t`` by adaptive quadrature.

    Evaluates the defining memory integral directly.  The endpoint
    singularity is removed by the substitution ``z = t - s^(1/(n-beta))``,
    after which the integrand is smooth:

        D^beta u(t) = 1/Gamma(n-beta+1) * int_0^(t^(n-beta)) u^(n)(t - s^(1/(n-beta))) ds

    with ``n = ceil(beta)``.  Callables for the required derivative must be
    supplied (``du`` for beta in (0,1), ``d2u`` for beta in (1,2)).  Integer
    orders return the classical derivative.  Raises ``ConvergenceError`` with
    the achieved error estimate if the quadrature does not converge.
    """
    beta = validate_temporal_order(beta)
    if t < 0:
        raise DomainError("t must be nonnegative")
    if beta == 1.0:
        return _require(du, "du", beta)(t)
    if beta == 2.0:
        return _require(d2u, "d2u", beta)(t)
    n = math.ceil(beta)
    g = _require(du, "du", beta) if n == 1 else _require(d2u, "d2u", beta)
    if t == 0:
        return 0.0
    q = n - beta
    upper = t ** q
    val, err = scipy.integrate.quad(lambda s: g(t - s ** (1.0 / q)), 0.0, upper,
                                    epsabs=epsabs, epsrel=epsrel, limit=200)
    val /= math.gamma(n - beta + 1.0)
    err /= math.gamma(n - beta + 1.0)
    if err > 1e-7 * max(1.0, abs(val)):
        raise ConvergenceError(
            f"Caputo quadrature did not converge (error estimate {err:.2e})",
            estimate=err)
    return val


def power_law_memory_integral(du, beta, g0, t):
    """The memory integral ``int_0^t M(t - s) u'(s) ds`` at time ``t`` for
    the power-law memory function ``M(t) = g0 t^(-beta) / Gamma(1-beta)``,
    ``beta`` in (0, 1), by SciPy's QUADPACK quadrature with the algebraic
    weight ``(t - s)^(-beta)`` (``weight='alg'``), which integrates the
    kernel's endpoint singularity exactly.  ``du`` is the callable ``u'``.
    Raises ``ConvergenceError`` if the error estimate exceeds ``1e-12``
    relative."""
    if t == 0:
        return 0.0
    val, err = scipy.integrate.quad(du, 0.0, t, weight="alg",
                                    wvar=(0.0, -beta))
    if err > 1e-12 * max(1.0, abs(val)):
        raise ConvergenceError(
            f"memory quadrature did not converge (error estimate {err:.2e})",
            estimate=err)
    return g0 * val / math.gamma(1.0 - beta)


def riesz_quadrature_oracle(u_fn, alpha, x, d2u=None, support_radius=None,
                            epsabs=1e-11, epsrel=1e-10):
    """Riesz derivative on the line by quadrature of the two-sided kernel.

    Independent of any transform: differentiates under the integral, i.e.
    convolves ``u''`` with ``|x - z|^(1 - alpha)`` and applies the
    ``-1/(2 cos(pi alpha/2) Gamma(2 - alpha))`` normalization.  Each side is
    regularized by ``z = x +- s^(1/(2-alpha))``.  Requires ``alpha`` in
    (1, 2) (the normalization vanishes at ``alpha = 1`` and the substitution
    degenerates at 2) and a decaying ``u''`` (``d2u``).

    ``support_radius`` marks where ``u''`` is negligible; it bounds the
    quadrature window so that far-off evaluation points still see the
    function's support (used when summing periodic images).
    """
    alpha = float(alpha)
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"quadrature oracle requires alpha in (1, 2), got {alpha}")
    if d2u is None:
        raise DomainError("d2u (second derivative callable) is required")
    q = 2.0 - alpha
    p = 1.0 / q

    def side(sign):
        if support_radius is None:
            val, err = scipy.integrate.quad(lambda s: d2u(x + sign * s ** p),
                                            0.0, np.inf, epsabs=epsabs,
                                            epsrel=epsrel, limit=400)
            return val, err
        # window in s where x + sign*s^p intersects [-R, R]
        lo = sign * x - support_radius
        hi = sign * x + support_radius
        a = max(0.0, -hi) ** q if -hi > 0 else 0.0
        b = max(0.0, -lo) ** q
        if b <= a:
            return 0.0, 0.0
        val, err = scipy.integrate.quad(lambda s: d2u(x + sign * s ** p), a, b,
                                        epsabs=epsabs, epsrel=epsrel, limit=400)
        return val, err

    (vr, er) = side(+1.0)
    (vl, el) = side(-1.0)
    pref = -1.0 / (2.0 * math.cos(math.pi * alpha / 2.0) * math.gamma(q))
    val = pref * (vr + vl) / q
    err = abs(pref) * (er + el) / q
    if err > 1e-6 * max(1.0, abs(val)):
        raise ConvergenceError(
            f"Riesz quadrature did not converge (error estimate {err:.2e})",
            estimate=err)
    return val


@dataclass
class LaplaceSymbolReport:
    beta: float
    horizon: float
    s: list
    lhs: list
    rhs: list
    rel_discrepancy: list

    @property
    def max_discrepancy(self):
        return max(self.rel_discrepancy)

    def to_dict(self):
        return {"beta": self.beta, "horizon": self.horizon, "s": list(self.s),
                "lhs": list(self.lhs), "rhs": list(self.rhs),
                "rel_discrepancy": list(self.rel_discrepancy),
                "max_discrepancy": self.max_discrepancy}


def laplace_symbol_check(u_fn, du_fn, beta, s_values, horizon=40.0,
                         tail_tol=1e-8):
    """Forward-direction check of the Laplace symbol of the Caputo derivative.

    For each ``s``: the left side transforms the quadrature-oracle derivative,
    ``int_0^T exp(-s t) D^beta u dt``; the right side is
    ``s^beta v(s) - s^(beta-1) u(0)`` with ``v`` the numerical transform of
    ``u``.  Two independent quadratures, agreeing when the symbol relation
    holds.  The horizon must make the truncated tails negligible; the
    estimated tail is checked against ``tail_tol``.  Only the forward
    direction is verified; no contour inversion is attempted.
    """
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise DomainError("laplace_symbol_check requires beta in (0, 1)")
    u0 = float(u_fn(0.0))
    svals, lhs_all, rhs_all, rel = [], [], [], []
    for s in s_values:
        s = float(s)
        if s <= 0:
            raise DomainError("Laplace variable s must be positive")
        tail = abs(u_fn(horizon)) * math.exp(-s * horizon) / s
        if tail > tail_tol:
            raise ConvergenceError(
                f"truncation horizon too short: tail estimate {tail:.2e}",
                estimate=tail)
        lhs, _ = scipy.integrate.quad(
            lambda t: math.exp(-s * t)
            * caputo_left_quadrature_oracle(u_fn, beta, t, du=du_fn),
            0.0, horizon, epsabs=1e-13, epsrel=1e-12, limit=400)
        v, _ = scipy.integrate.quad(lambda t: math.exp(-s * t) * u_fn(t),
                                    0.0, horizon, epsabs=1e-14, epsrel=1e-13,
                                    limit=400)
        rhs = s ** beta * v - s ** (beta - 1.0) * u0
        svals.append(s)
        lhs_all.append(lhs)
        rhs_all.append(rhs)
        rel.append(abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return LaplaceSymbolReport(beta=beta, horizon=horizon, s=svals,
                               lhs=lhs_all, rhs=rhs_all, rel_discrepancy=rel)


def convergence_order(errors):
    """Least-squares slope of ``log(error)`` against ``log(step)``.

    ``errors`` is a sequence of ``(step_size, error)`` pairs, at least three,
    with step sizes in geometric progression and positive errors.
    """
    pts = [(float(h), float(e)) for h, e in errors]
    if len(pts) < 3:
        raise DomainError("need at least 3 (step, error) points")
    hs = np.array([p[0] for p in pts])
    es = np.array([p[1] for p in pts])
    if np.any(hs <= 0):
        raise DomainError("step sizes must be positive")
    if np.any(es <= 0):
        raise DomainError("errors must be positive")
    ratios = hs[:-1] / hs[1:]
    if np.max(np.abs(ratios / ratios[0] - 1.0)) > 1e-6:
        raise DomainError("step sizes must form a geometric progression")
    return float(np.polyfit(np.log(hs), np.log(es), 1)[0])


def line_fit_polyfit(x, y):
    """``(slope, rms residual)`` of the least-squares line through the
    points ``(x, y)`` by ``np.polyfit`` (LAPACK's SVD least squares), the
    fit the library made before its closed-form one."""
    x = np.asarray(x, dtype=float)
    coef, res = np.polyfit(x, y, 1, full=True)[:2]
    return float(coef[0]), math.sqrt(res[0] / x.size) if len(res) else 0.0


def interaction_sum_direct(spec: ChainSpec, u):
    """Brute-force double loop over particle pairs (test oracle)."""
    u = np.asarray(u, dtype=float)
    n = spec.n_particles
    fu = spec.local.interaction_apply(u).tolist()
    cutoff = spec.cutoff
    expo = spec.alpha + 1.0
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for m in range(n):
            if m == i:
                continue
            d = abs(i - m)
            d = min(d, n - d)
            if d > cutoff:
                continue
            acc += (fu[m] - fu[i]) / float(d) ** expo
        out[i] = acc
    return out


def ring_coupling_sum(spec: ChainSpec, u):
    """The chain's coupling sums ``S_n = sum_m J[f(u_m) - f(u_n)]`` as its
    stepper forms them, ``irfft(_ring_symbol(spec) * rfft(f(u)))``: the
    product that ``interaction_sum_direct`` checks."""
    fu = spec.local.interaction_apply(np.asarray(u, dtype=float))
    return np.fft.irfft(chain._ring_symbol(spec) * np.fft.rfft(fu),
                        n=spec.n_particles)


def evolve_linear_implicit_direct(state, beta, model, sym):
    """The linear-implicit L1 stepper with its memory sum formed directly.

    Same scheme as ``fields._evolve_linear_implicit``, and its signature
    without ``observe``: ``g0`` from ``model``, transforms from
    ``state.transforms()``.  At step ``j`` the memory sum is the dot
    product ``w[j..1] @ inc[:j]``, O(j) rows per step and O(n^2) over a
    run.  Fills ``state.history`` without the blow-up guard.  Where no
    memory sum exists (``beta`` 1 or 2) the arithmetic is that of the
    library stepper operation for operation; in (1, 2] it carries the
    increment ``u_{j+1} - u_j`` as the library does.
    """
    fwd, inv = state.transforms()
    state.history[:] = _direct_levels(state, beta, model, sym, fwd, inv,
                                      np.float64)
    state.n_completed = state.time.n_steps
    return state


def _direct_levels(state, beta, model, sym, fwd, inv, real):
    """The levels of the L1 stepper with its memory sum formed directly,
    every array in the float type ``real`` (its complex type for spectra
    and complex fields): the body of :func:`evolve_linear_implicit_direct`
    and :func:`evolve_linear_implicit_extended`."""
    def explicit(u):
        out = model.force(u)
        if model.interaction is not Interaction.IDENTITY:
            out = out + inv(sym * fwd(model.interaction_apply(u)))
        return out

    cplx = np.promote_types(real, np.complex64)
    implicit = model.interaction is Interaction.IDENTITY
    sym = np.asarray(sym, dtype=real)
    lin = sym if implicit else np.zeros_like(sym)
    no_force = model.potential is Potential.NONE and implicit
    n = state.time.n_steps
    dt = state.time.dt
    u = np.zeros((n + 1, state.history.shape[1]),
                 dtype=cplx if state.is_complex else real)
    u[0] = state.level(0)
    uhat = fwd(u[0])
    # L1 scheme of order q on the memory variable y, whose increments are
    # inc_hat: u itself at beta <= 1, the difference quotient above
    q = beta - 1.0 if beta > 1.0 else beta
    c = real(model.g0 * dt ** (-q) / math.gamma(2.0 - q))
    w = l1_weights(q, n)
    # real where the modes are: a real ring of mode coefficients
    inc_hat = np.zeros((n, sym.shape[0]), dtype=np.result_type(uhat, real))

    def memory(j):
        return (w[1:j + 1][::-1] @ inc_hat[:j]) if (q < 1.0 and j) else 0.0

    if beta <= 1.0:
        denom = c + lin
        for j in range(n):
            rhs = c * (uhat - memory(j))
            if not no_force:
                rhs = rhs - fwd(explicit(u[j]))
            new_hat = rhs / denom
            u[j + 1] = inv(new_hat)
            inc_hat[j] = new_hat - uhat
            uhat = new_hat
        return u
    # the first level from the initial velocity, then each later one by its
    # increment d = u_{j+1} - u_j: d <- d - pull u_j - c push h - push F_j
    y = fwd(state.initial_velocity.astype(u.dtype))
    rhs = c * (uhat / dt + y)
    if not no_force:
        rhs = rhs - fwd(explicit(u[0]))
    new_hat = rhs / (c / dt + lin)
    d = new_hat - uhat
    inc_hat[0] = d / dt - y
    uhat = new_hat
    u[1] = inv(uhat)
    push = dt / (c + 0.5 * dt * lin)
    pull, mem_push = lin * push, c * push
    for j in range(1, n):
        step = pull * uhat
        if not no_force:
            step = step + push * fwd(explicit(u[j]))
        if q < 1.0:
            step = step + mem_push * memory(j)
        inc_hat[j] = step / -dt
        d = d - step
        uhat = uhat + d
        u[j + 1] = inv(uhat)
    return u


def _dft_extended(n, is_complex):
    """``fwd, inv``: the DFT of length ``n`` and its inverse as products with
    dense ``np.clongdouble`` matrices, on the modes of ``np.fft.fft`` for a
    complex field and of ``np.fft.rfft`` for a real one, where ``inv`` sums
    the Hermitian half spectrum as ``np.fft.irfft`` does (the imaginary
    parts of the mean and Nyquist modes drop out)."""
    ld = np.longdouble
    modes = n if is_complex else n // 2 + 1
    # angles 2 pi (j k mod n) / n, with pi in extended precision
    theta = (8 * np.arctan(ld(1)) / n) * (
        np.outer(np.arange(modes), np.arange(n)) % n).astype(ld)
    fwd_mat = np.empty((modes, n), dtype=np.clongdouble)
    fwd_mat.real, fwd_mat.imag = np.cos(theta), -np.sin(theta)
    if is_complex:
        inv_mat = fwd_mat.conj() / n
        return (lambda v: fwd_mat @ v), (lambda v: v @ inv_mat)
    weight = np.full(modes, 2, dtype=ld)
    weight[0] = 1
    if n % 2 == 0:
        weight[-1] = 1
    inv_mat = fwd_mat.conj() * (weight / n)[:, None]
    return (lambda v: fwd_mat @ v), (lambda v: (v @ inv_mat).real)


EXTENDED_PRECISION = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-16,
    reason="np.longdouble is no wider than float64 on this platform, so the "
           "extended-precision oracle would round as the library does")


def evolve_linear_implicit_extended(state, beta, model, sym):
    """:func:`evolve_linear_implicit_direct` in ``np.longdouble``: the same
    scheme, memory sum formed directly, with every level and spectrum in
    extended precision and the transforms those of :func:`_dft_extended`
    (``np.fft`` casts its input to double under NumPy 1.x).  It starts from
    the same float64 ``c``, L1 weights and multipliers ``sym`` the library
    uses, so it solves the same discrete equations with less rounding.
    ``state`` is only read; returns its ``(n_steps + 1, points)`` levels,
    ``np.longdouble`` for a real field and ``np.clongdouble`` for a complex
    one.  Use it under :data:`EXTENDED_PRECISION`.  In (1, 2] it carries
    the increment ``u_{j+1} - u_j`` in extended precision as the library
    carries it in float64, so its own rounding does not grow like the
    square of the step count, as it did when it formed each level from the
    previous two (3.9e-14 of max|u| over 2,000 kink-pair steps).
    """
    fwd, inv = _dft_extended(state.history.shape[1], state.is_complex)
    return _direct_levels(state, beta, model, sym, fwd, inv, np.longdouble)


def l1_mode_levels_extended(u0, beta, dt, g0, sym, a, n):
    """Levels ``u_0..u_n`` of uncoupled modes under the L1 mode equations

        c sum_{i<=j} w[j-i] d_i + s u_{j+1} + a u_j = 0,   j = 0..n-1,

    with ``c = g0 dt^(-beta) / Gamma(2 - beta)``, ``d_i = u_{i+1} - u_i``,
    multiplier ``s = sym`` per mode and linear force ``a``: the equations
    the linear-implicit stepper solves for a ring of mode coefficients.
    Forward substitution in ``np.longdouble``, O(n^2) per mode, from the
    same float64 ``c`` and weights ``w = l1_weights(beta, n)`` the library
    uses, so it solves the same discrete equations with less rounding.
    Returns ``(n + 1, modes)`` complex ``np.clongdouble`` levels."""
    ld = np.longdouble
    c = ld(g0 * dt ** (-beta) / math.gamma(2.0 - beta))
    w = l1_weights(beta, n).astype(ld)
    s = np.asarray(sym, dtype=ld)
    u = np.zeros((n + 1, s.size), dtype=np.clongdouble)
    u[0] = np.asarray(u0)
    d = np.zeros((n, s.size), dtype=np.clongdouble)
    for j in range(n):
        hist = w[j:0:-1] @ d[:j] if j else 0
        u[j + 1] = ((c - ld(a)) * u[j] - c * hist) / (c + s)
        d[j] = u[j + 1] - u[j]
    return u


def series_reciprocal_columns(p):
    """The first ``n`` coefficients ``g`` of ``1 / P(z)`` for the real power
    series ``P`` with coefficients ``p``, ``(n, m)``, one series per column,
    with ``p[0]`` nonzero.

    ``fracops._series_reciprocal`` before its columns shared their series
    from ``z^2`` on: the same Newton doubling, with the whole ``(n, m)``
    tail of ``P`` copied and transformed column by column in every round.
    On series that share that tail the two must agree bit for bit.
    """
    p = np.asarray(p, dtype=np.float64)
    n = p.shape[0]
    g = np.empty_like(p)
    g[0] = 1.0 / p[0]
    tail = p.copy()
    tail[:2] = 0.0
    k = 1
    while k < n:
        m = min(2 * k, n)
        nfft = fracops._fast_len(m)
        g_hat = np.fft.rfft(g[:k], nfft, axis=0)
        err = np.fft.irfft(np.fft.rfft(tail[:m], nfft, axis=0) * g_hat, nfft,
                           axis=0)[k:m]
        err[0] += p[1] * g[k - 1]
        lead = err[0].copy()
        err[0] = 0.0
        g[k:m] = -(np.fft.irfft(np.fft.rfft(err, nfft, axis=0) * g_hat, nfft,
                                axis=0)[:m - k] + lead * g[:m - k])
        k = m
    return g


def ml_integral_negative_scalar(beta, x):
    """``(E_beta(-x), E_beta'(-x))`` for one float ``x >= 0`` at ``0 < beta
    < 1``: the library's tanh-sinh quadrature of the integral form (see
    ``fracops._ml_integral_negative``) on the same node levels, one argument
    at a time, with the interval split only where the denominator peaks
    inside it.  Raises ``ConvergenceError`` on the same ``1e-9`` rule."""
    sinb = math.sin(beta * math.pi)
    cosb = math.cos(beta * math.pi)
    end = 50.0 ** beta
    edges = [0.0, -cosb * x, end] if 0.0 < -cosb * x < end else [0.0, end]
    left = np.array(edges[:-1])[:, None]
    width = np.diff(edges)[:, None]
    total = err = None
    for frac, weight in fracops._DE_NODES:
        z = (left + width * frac).ravel()
        w = (width * weight).ravel()
        u = z ** (1.0 / beta)
        y = z / x
        g = np.exp(-u) / (y * y + 2.0 * y * cosb + 1.0)
        part = np.array([w @ g, w @ (u * g)])
        if total is None:
            total = part
            continue
        err, total = np.abs(part - total / 2), total / 2 + part
        if np.all(err <= 1e-13 * total):
            break
    scale = np.array([sinb / (math.pi * beta * x),
                      sinb / (math.pi * beta * beta * x * x)])
    val, err = total * scale, err * scale
    if np.any(err > 1e-9 * np.maximum(1.0, val)):
        e = float(np.max(err))
        raise ConvergenceError(
            f"Mittag-Leffler integral representation error {e:.2e}", estimate=e)
    return float(val[0]), float(val[1])


# (rows, columns): at 101 rows an FFT block holds 81 real or 40 complex
# columns, at 3001 rows 2 real or 1 complex, so these shapes run 1, 1, 2
# and 5 real blocks and 1, 2, 3 and 9 complex ones
L1_BLOCK_SHAPES = [(101, 1), (101, 70), (101, 120), (3001, 9)]


def l1_history(shape, is_complex, seed=4):
    """Samples of ``shape`` and an initial velocity for one level."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(shape)
    v0 = rng.standard_normal(shape[1:])
    if is_complex:
        u = u + 1j * rng.standard_normal(shape)
        v0 = v0 + 1j * rng.standard_normal(shape[1:])
    return u, v0


def assert_same_bits(got, ref):
    """``got`` and ``ref`` hold the same bits, in the same dtype and shape."""
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)


def l1_apply_whole(increments, weights, scale):
    """``fracops.l1_apply`` on a whole increment array, 1-D or 2-D: the
    array is converted to float64 or complex128 at once, then convolved in
    blocks of its real columns.  The L1 operators below feed it whole
    arrays of increments, as the library did before it formed them a column
    block at a time; each yields the same bits as the library's operator."""
    is_complex = np.iscomplexobj(increments)
    inc = np.ascontiguousarray(increments,
                               dtype=np.complex128 if is_complex else np.float64)
    squeeze = inc.ndim == 1
    if squeeze:
        inc = inc[:, None]
    n = inc.shape[0]
    out = np.zeros((n + 1, inc.shape[1]), dtype=inc.dtype)
    if n:
        nfft = fracops._fast_len(2 * n - 1)
        w_hat = np.fft.rfft(scale * np.asarray(weights, dtype=np.float64)[:n],
                            nfft)
        x = inc.view(np.float64) if is_complex else inc
        flat = out.view(np.float64) if is_complex else out
        block = max(1, fracops._FFT_BLOCK_BYTES // (16 * nfft))
        for c in range(0, x.shape[1], block):
            spec = np.fft.rfft(x[:, c:c + block], nfft, axis=0)
            spec *= w_hat[:, None]
            flat[1:, c:c + block] = np.fft.irfft(spec, nfft, axis=0)[:n]
    return out[:, 0] if squeeze else out


def caputo_left_whole(u, beta, dt, initial_velocity=None):
    """``caputo_left_l1`` with its increments differenced over the whole
    history at once (at ``beta > 1`` the quotients concatenated behind
    ``u'(0)`` first)."""
    u = np.asarray(u)
    q, y = beta, u
    if beta > 1.0:
        v0 = np.asarray(initial_velocity, dtype=np.result_type(u, float))
        q = beta - 1.0
        y = np.concatenate([v0.reshape((1,) + u.shape[1:]),
                            np.diff(u, axis=0) / dt], axis=0)
    scale = dt ** (-q) / math.gamma(2.0 - q)
    return l1_apply_whole(np.diff(y, axis=0), l1_weights(q, u.shape[0] - 1),
                          scale)


def residual_whole(model, state, beta):
    """``fields.residual`` from whole-array copies: ``g0`` times the Caputo
    derivative, plus the spatial and force terms (the force added where it
    is zero too)."""
    u = state.history
    out = model.g0 * caputo_left_whole(u, beta, state.time.dt,
                                       state.initial_velocity)
    fwd, inv = state.transforms()
    sym = model.spatial_symbol(state.wavenumbers)
    rows = max(1, fracops._FFT_BLOCK_BYTES // (16 * u.shape[1]))
    for r in range(0, u.shape[0], rows):
        ur = u[r:r + rows]
        fu = model.interaction_apply(ur)
        out[r:r + rows] += inv(sym * fwd(fu)) + model.force(ur)
    return out


def mode_series(state, modes):
    """The ``(times, {k: series})`` input of ``analysis.dispersion_check``
    for grid modes ``modes`` of a completed full-history complex state,
    with every level transformed at once along the grid axis."""
    if not (state.holds_trajectory and state.n_completed == state.time.n_steps):
        raise DomainError("mode series need a completed full-history state")
    series = np.fft.fft(state.history, axis=1) / state.grid.n_points
    k = state.grid.wavenumbers
    return state.times, {k[m]: series[:, m] for m in modes}


def ml_series_loop(beta, z):
    """``(E, E', loss)``: the series of ``E_beta(z)`` and ``E_beta'(z) =
    sum_k (k + 1) z^k / Gamma(beta (k + 1) + 1)`` over the 1-D array ``z``.

    Each element stops on its own rule: ``E`` once its next term is at most
    ``1e-17 max(1, |sum|)``, ``E'`` once its current term is.  ``loss`` is
    the larger ratio ``largest term / max(1, |sum|)`` of the two, infinite
    where a sum is not finite or has not stopped within ``_MAX_TERMS``.

    ``fracops._ml_series``, which takes the arguments in blocks and sums
    each block over all its terms at once, must match it bit for bit.
    """
    term = np.ones_like(z)
    s, ds = np.zeros_like(z), np.zeros_like(z)
    peak, dpeak = np.zeros(z.shape), np.zeros(z.shape)
    on, don = np.ones(z.shape, bool), np.ones(z.shape, bool)
    # a diverging element may overflow to inf or nan; its loss is then inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k, ratio in enumerate(_series_ratios(beta)):
            dterm = (k + 1) * ratio * term
            dsize = np.abs(dterm)
            don &= ~(dsize <= 1e-17 * np.maximum(1.0, np.abs(ds)))
            np.add(ds, dterm, out=ds, where=don)
            np.maximum(dpeak, dsize, out=dpeak, where=don)
            np.add(s, term, out=s, where=on)
            np.maximum(peak, np.abs(term), out=peak, where=on)
            term = term * z * ratio
            on &= ~(np.abs(term) <= 1e-17 * np.maximum(1.0, np.abs(s)))
            if not (on.any() or don.any()):
                break
        loss = np.maximum(peak / np.maximum(1.0, np.abs(s)),
                          dpeak / np.maximum(1.0, np.abs(ds)))
    loss[on | don | ~np.isfinite(s) | ~np.isfinite(ds)] = np.inf
    return s, ds, loss


def ml_series_scalar(beta, z):
    """``(E_beta(z), E_beta'(z))`` for one Python ``float`` or ``complex``
    ``z``: two scalar series loops, ``E`` stopping once its next term is at
    most ``1e-17 max(1, |sum|)``, ``E'`` once its current term is.  No
    cancellation guard: use it only where the series keeps its digits."""
    ratios = _series_ratios(beta)
    term, s = z ** 0, 0 * z
    for ratio in ratios:
        s += term
        term = term * z * ratio
        if abs(term) <= 1e-17 * max(1.0, abs(s)):
            break
    term, ds = z ** 0, 0 * z
    for k, ratio in enumerate(ratios):
        dterm = (k + 1) * ratio * term
        if abs(dterm) <= 1e-17 * max(1.0, abs(ds)):
            break
        ds += dterm
        term = term * z * ratio
    return s, ds


def ml_rate_least_squares(times, ratio, beta, guess):
    """The ``lam`` whose ``E_beta(lam t^beta)`` is nearest ``ratio`` by
    ``scipy.optimize.least_squares`` from ``guess``, the fit the library
    made before its own Gauss-Newton one; a complex ``guess`` fits the real
    and imaginary parts of a complex rate as two parameters."""
    is_complex = np.iscomplexobj(guess)
    tb = np.asarray(times, dtype=float) ** beta

    def misfit(p):
        lam = complex(p[0], p[1]) if is_complex else p[0]
        d = mittag_leffler(beta, lam * tb) - ratio
        return np.concatenate([d.real, d.imag]) if is_complex else d

    x0 = [guess.real, guess.imag] if is_complex else [guess]
    sol = scipy.optimize.least_squares(misfit, x0=x0, xtol=1e-14, ftol=1e-14)
    if not sol.success:
        raise DomainError("least-squares rate fit failed")
    return complex(*sol.x) if is_complex else float(sol.x[0])


def ml_rate_one_fit(times, ratio, beta, guess):
    """``(lam, passes)``: one Mittag-Leffler rate fit by Gauss-Newton from
    ``guess``, alone, with a Mittag-Leffler pass of its own per iteration,
    and the number of those passes.  This is the per-fit loop that
    ``analysis._ml_rates`` runs in lockstep with the other fits of a call;
    every fit there must return this ``lam`` bit for bit.  It reads the
    fit's iteration budget and tolerances from ``analysis`` at each call."""
    tb = np.asarray(times, dtype=float) ** beta
    ratio = np.asarray(ratio)
    lam, prev = guess, math.inf
    for it in range(1, analysis._RATE_FIT_MAX_ITER + 1):
        val, der = mittag_leffler(beta, lam * tb, derivative=True)
        jac = tb * der
        jj = np.vdot(jac, jac).real
        step = -np.vdot(jac, val - ratio) / jj
        if not np.isfinite(step):
            raise ConvergenceError(
                f"Mittag-Leffler rate fit from {guess} did not converge: "
                f"iteration {it} gave the non-finite Gauss-Newton step {step}")
        lam = lam + step
        size = abs(step)
        if (size <= analysis._RATE_FIT_STEP_TOL * (
                abs(lam) + np.linalg.norm(ratio) / math.sqrt(jj))
                or prev / 2 <= size
                <= analysis._RATE_FIT_STALL_TOL * abs(lam)):
            return lam, it
        prev = size
    raise ConvergenceError(f"Mittag-Leffler rate fit from {guess} did not "
                           f"converge within {analysis._RATE_FIT_MAX_ITER} "
                           f"iterations", estimate=size)


def _guard_one_level(norm, step, prev_norm):
    """The blow-up rule on one level's sup-norm ``norm`` against the
    previous level's; returns ``norm`` for the next call."""
    if not math.isfinite(norm):
        raise BlowUpError(f"non-finite field at step {step}", step=step, norm=norm)
    if prev_norm > 0 and norm > fields.GROWTH_LIMIT * prev_norm:
        raise BlowUpError(
            f"sup-norm grew by {norm / prev_norm:.3g} in one step at step {step}",
            step=step, norm=norm)
    return norm


def place_per_level(ring, levels, observe=None):
    """``LevelRing.place`` one level at a time: each level in turn passes
    the blow-up guard with its sup-norm against the newest level's, and
    only then is written to its ring row, counted and passed to
    ``observe(j, row)``.  Rows no level holds yet take the block in one
    slice first.  ``LevelRing.place``, which guards the whole block in one
    pass, must leave every held level, ``n_completed``, the newest norm,
    the ``observe`` calls and the ``BlowUpError`` as this loop does."""
    first, rows = ring.n_completed + 1, ring.history
    at_once = first + len(levels) <= len(rows)   # the ring has not wrapped
    if at_once:
        rows[first:first + len(levels)] = levels
    for j, norm in enumerate(np.abs(levels).max(axis=1).tolist(), first):
        ring._newest_norm = _guard_one_level(norm, j, ring._newest_norm)
        i = j % len(rows)
        if not at_once:
            rows[i] = levels[j - first]
        ring.n_completed = j
        if observe is not None:
            observe(j, rows[i])


def cutoff_for_tolerance(alpha, tol):
    """Smallest cutoff whose tail bound ``2 N^(-alpha) / alpha`` is below ``tol``."""
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    return int(math.ceil((2.0 / (alpha * tol)) ** (1.0 / alpha)))


def _check_tail(alpha, cutoff, tol):
    tail = 2.0 * float(cutoff) ** (-alpha) / alpha
    if tail > tol:
        raise TailBoundError(
            f"cutoff {cutoff} gives tail bound {tail:.3e} > tolerance {tol:.3e}; "
            f"need at least {cutoff_for_tolerance(alpha, tol)}")


_CHUNK = 4_000_000


def _coupling_cosine_sum(alpha, theta, cutoff, increment):
    """Chunked evaluation of ``2 sum_{n=1..cutoff} c_n / n^(alpha+1)`` with
    ``c_n = cos(n theta)`` (symbol) or ``cos(n theta) - 1`` (increment)."""
    total = 0.0
    for start in range(1, cutoff + 1, _CHUNK):
        n = np.arange(start, min(start + _CHUNK, cutoff + 1), dtype=np.float64)
        c = np.cos(n * theta)
        if increment:
            c -= 1.0
        total += 2.0 * np.sum(c / n ** (alpha + 1.0))
    return total


def lattice_symbol(alpha, k, dx, cutoff, tol=1e-10):
    """Lattice Fourier sum ``J^(k) = 2 sum_{n>=1} cos(k n dx) / n^(alpha+1)``.

    Real and even in k; ``J^(0) = 2 zeta(alpha+1)``.  Raises
    ``TailBoundError`` when the cutoff cannot meet ``tol``.
    """
    if alpha <= 0:
        raise DomainError("lattice symbol requires alpha > 0")
    _check_tail(alpha, cutoff, tol)
    return _coupling_cosine_sum(alpha, k * dx, int(cutoff), increment=False)


def lattice_symbol_increment(alpha, k, dx, cutoff, tol=1e-10):
    """Cancellation-free evaluation of ``J^(k) - J^(0)``.

    Sums ``2 (cos(k n dx) - 1) / n^(alpha+1)`` directly, which preserves full
    relative precision in the small-k regime where the increment is tiny
    against the symbol itself.
    """
    if alpha <= 0:
        raise DomainError("lattice symbol requires alpha > 0")
    _check_tail(alpha, cutoff, tol)
    return _coupling_cosine_sum(alpha, k * dx, int(cutoff), increment=True)


def stationary_jacobian_three_fft(u, y, grid: GridSpec, alpha, g, a, b):
    """``J P^-1 y`` of ``fields.stationary_fgle_solve`` at the state ``u``,
    with ``v = P^-1 y`` formed in Fourier space and the two terms of
    ``J v = g Riesz_alpha v + (a + 3 b u^2) v`` inverse-transformed apart:
    one forward and two inverse real FFTs.  ``P`` is the solver's documented
    preconditioner ``-g |k|^alpha - copysign(c, g)``, ``c = |a|`` or, when
    ``a = 0``, ``max |3 b u^2|``."""
    n = grid.n_points
    sym = -g * grid.wavenumbers_real ** alpha
    shift = abs(a) if a != 0 else float(np.max(np.abs(3.0 * b * u ** 2)))
    vhat = np.fft.rfft(y) / (sym - math.copysign(shift, g))
    return (np.fft.irfft(sym * vhat, n=n)
            + (a + 3.0 * b * u ** 2) * np.fft.irfft(vhat, n=n))


def write_csv_per_value(path, header, rows):
    """A CSV file of ``header`` and ``rows`` (iterables of numbers), each
    value written alone by ``format``: integers as ``str``, floats with 17
    significant digits."""
    def fmt(x):
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return format(float(x), ".17g")

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
