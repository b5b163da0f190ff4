"""Independent reference implementations used only by the tests.

Each function here evaluates a quantity the library computes by a faster or
transform-based route, directly from its definition: adaptive quadrature of
the Caputo and Riesz integrals, the Laplace-transform identity of the Caputo
derivative, brute-force pair sums on the chain, truncated lattice cosine sums,
the time stepper with its memory sum formed directly at every step, the
per-mode series of a whole stored trajectory transformed at once, and the
Mittag-Leffler rate fit by SciPy's trust-region least squares.
Nothing in ``fracdyn`` calls them; they exist so that every operator is
checked against a path written separately from the one under test.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.optimize

from fracdyn.chain import ChainSpec
from fracdyn.errors import ConvergenceError, DomainError, FracdynError
from fracdyn.fields import Interaction, Potential
from fracdyn.fracops import _series_ratios, l1_weights, mittag_leffler
from fracdyn.grids import validate_temporal_order


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


def evolve_linear_implicit_direct(state, beta, g0, model, sym, fwd, inv):
    """The linear-implicit L1 stepper with its memory sum formed directly.

    Same scheme and signature as ``fields._evolve_linear_implicit``, but at
    step ``j`` the memory sum is the dot product ``w[j..1] @ inc[:j]``, O(j)
    rows per step and O(n^2) over a run.  Fills ``state.history`` without
    the blow-up guard.  At ``beta`` in {1, 2} no memory sum exists, and the
    arithmetic is that of the library stepper operation for operation.
    """
    def explicit(u):
        out = model.force(u)
        if model.interaction is not Interaction.IDENTITY:
            out = out + inv(sym * fwd(model.interaction_apply(u)))
        return out

    implicit = model.interaction is Interaction.IDENTITY
    lin = sym if implicit else np.zeros_like(sym)
    no_force = model.potential is Potential.NONE and implicit
    n = state.time.n_steps
    dt = state.time.dt
    u = state.history
    uhat = fwd(u[0])
    if beta <= 1.0:
        c = g0 * dt ** (-beta) / math.gamma(2.0 - beta)
        w = l1_weights(beta, n)
        denom = c + lin
        has_memory = beta < 1.0
        inc_hat = np.zeros((n, sym.shape[0]), dtype=complex)
        for j in range(n):
            hist = (w[1:j + 1][::-1] @ inc_hat[:j]) if (has_memory and j) else 0.0
            rhs = c * (uhat - hist)
            if not no_force:
                rhs = rhs - fwd(explicit(u[j]))
            new_hat = rhs / denom
            u[j + 1] = inv(new_hat)
            inc_hat[j] = new_hat - uhat
            uhat = new_hat
    else:
        bp = beta - 1.0
        cp = g0 * dt ** (-bp) / math.gamma(2.0 - bp)
        w = l1_weights(bp, n)
        first_denom = cp / dt + lin
        denom = cp / dt + 0.5 * lin
        has_memory = bp < 1.0
        dq_prev = fwd(state.initial_velocity.astype(u.dtype))
        dinc_hat = np.zeros((n, sym.shape[0]), dtype=complex)
        uhat_prev = None
        for j in range(n):
            rhs_force = 0.0
            if not no_force:
                rhs_force = fwd(explicit(u[j]))
            if j == 0:
                new_hat = (cp * (uhat / dt + dq_prev) - rhs_force) / first_denom
            else:
                hist = (w[1:j + 1][::-1] @ dinc_hat[:j]) if has_memory else 0.0
                rhs = (cp * (uhat / dt + dq_prev - hist) - 0.5 * lin * uhat_prev
                       - rhs_force)
                new_hat = rhs / denom
            u[j + 1] = inv(new_hat)
            dq_new = (new_hat - uhat) / dt
            dinc_hat[j] = dq_new - dq_prev
            dq_prev = dq_new
            uhat_prev, uhat = uhat, new_hat
    state.n_completed = n
    return state


def mode_series(state, modes):
    """The ``(times, {k: series})`` input of ``analysis.dispersion_check``
    for grid modes ``modes`` of a completed full-history complex state,
    with every level transformed at once along the grid axis."""
    if not (state.holds_trajectory and state.n_completed == state.time.n_steps):
        raise DomainError("mode series need a completed full-history state")
    series = np.fft.fft(state.history, axis=1) / state.grid.n_points
    k = state.grid.wavenumbers
    return state.times, {k[m]: series[:, m] for m in modes}


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
