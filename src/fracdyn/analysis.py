"""Dispersion-law extraction from per-mode histories.

``dispersion_check`` reads each mode's coefficients over time, as the
``dispersion`` runner collects them level by level, never a trajectory.

The Laplace-symbol identity of the Caputo derivative and the empirical
convergence-order fit that the tests use live in ``tests/oracles.py``.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .fracops import mittag_leffler
from .grids import validate_temporal_order

__all__ = [
    "DispersionReport",
    "dispersion_check",
]

log = logging.getLogger("fracdyn")


@dataclass
class DispersionReport:
    """Measured vs predicted mode rates or frequencies.

    For oscillatory (``beta = 1``) sources the entries are real frequencies
    ``omega`` in the ``u ~ exp(-i omega t)`` convention; for fractional-mode
    sources they are the complex rate coefficients of the Mittag-Leffler
    law.  ``rel_err`` is ``|measured - predicted| / |predicted|``, or the
    absolute error where the prediction is exactly 0.  ``fitted_exponent``
    is the least-squares power of ``|k|`` in the dispersive part.
    """

    beta: float
    k: list
    measured: list
    predicted: list
    rel_err: list
    fitted_exponent: float


def _fit_exponent(kvals, dispersive):
    kvals = np.asarray(kvals, dtype=float)
    disp = np.asarray(dispersive, dtype=float)
    good = (kvals > 0) & (disp > 0)
    if good.sum() < 2:
        return float("nan")  # exponent undefined for a single mode
    return float(np.polyfit(np.log(kvals[good]), np.log(disp[good]), 1)[0])


def _phase_slope(times, series):
    phase = np.unwrap(np.angle(series))
    coef, res = np.polyfit(times, phase, 1, full=True)[:2]
    resid = math.sqrt(res[0] / len(times)) if len(res) else 0.0
    if resid > 0.05:
        raise ConvergenceError(f"phase unwrapping failure (rms residual "
                               f"{resid:.3g} rad)", estimate=resid)
    return coef[0]


_RATE_FIT_MAX_ITER = 50
_RATE_FIT_STEP_TOL = 64 * np.finfo(float).eps
_RATE_FIT_STALL_TOL = math.sqrt(np.finfo(float).eps)


def _ml_rates(times, ratios, beta, guesses):
    """For each fit ``i``, the ``lam`` whose ``E_beta(lam t^beta)`` is
    nearest ``ratios[i]`` at ``times[i]`` in least squares, by Gauss-Newton
    from ``guesses[i]``; returns them as a list.

    Real guesses and ratios fit real rates; complex ones fit complex rates,
    and the fits of one call are all of one kind.  The model is holomorphic
    in ``lam``, so its Jacobian is ``J = t^beta E_beta'(lam t^beta)`` in
    either case, and the Gauss-Newton step ``-J^H r / |J|^2`` is the real
    two-parameter step in complex form.

    The fits run in lockstep: each round makes one Mittag-Leffler pass,
    returning both ``E_beta`` and ``E_beta'``, over the arguments of every
    fit still running, and each fit takes its step from its own slice of
    it, exactly as it would alone.  A fit stops once its step is at
    rounding level: within a few ulps of ``lam`` or of the resolution
    ``eps |ratio| / |J|`` of its data, or, once below ``sqrt(eps) |lam|``,
    no longer contracting, which is the rounding of the Mittag-Leffler
    values themselves (the alternating series loses digits to cancellation
    at larger arguments).  Once every fit has stopped, each logs its passes
    and rate at DEBUG, in fit order.

    Raises ``ConvergenceError`` at a non-finite step, or for a fit that has
    not stopped within ``_RATE_FIT_MAX_ITER`` rounds (then with its last
    step's size as ``estimate``).  Of several failing fits the error names
    the first in (round, fit) order: the earliest round, and in that round
    the first fit in order; an error of the shared pass itself surfaces in
    its round.
    """
    tbs = [np.asarray(t, dtype=float) ** beta for t in times]
    ratios = [np.asarray(r) for r in ratios]
    lams, passes = list(guesses), [0] * len(tbs)
    prev = [math.inf] * len(tbs)
    running = list(range(len(tbs)))
    for it in range(1, _RATE_FIT_MAX_ITER + 1):
        if not running:
            break
        val, der = mittag_leffler(
            beta, np.concatenate([lams[i] * tbs[i] for i in running]),
            derivative=True)
        still, end = [], 0
        for i in running:
            start, end = end, end + tbs[i].size
            jac = tbs[i] * der[start:end]
            jj = np.vdot(jac, jac).real
            step = -np.vdot(jac, val[start:end] - ratios[i]) / jj
            if not np.isfinite(step):
                raise ConvergenceError(
                    f"Mittag-Leffler rate fit from {guesses[i]} did not "
                    f"converge: iteration {it} gave the non-finite "
                    f"Gauss-Newton step {step}")
            lams[i] = lam = lams[i] + step
            size = abs(step)
            if (size <= _RATE_FIT_STEP_TOL * (abs(lam) + np.linalg.norm(
                    ratios[i]) / math.sqrt(jj))
                    or prev[i] / 2 <= size <= _RATE_FIT_STALL_TOL * abs(lam)):
                passes[i] = it
            elif it == _RATE_FIT_MAX_ITER:
                raise ConvergenceError(
                    f"Mittag-Leffler rate fit from {guesses[i]} did not "
                    f"converge within {_RATE_FIT_MAX_ITER} iterations",
                    estimate=size)
            else:
                prev[i] = size
                still.append(i)
        running = still
    for n, lam in zip(passes, lams):
        log.debug("rate fit: %d Mittag-Leffler passes, rate %s", n, lam)
    return lams


def dispersion_check(source, *, alpha, beta, g, a, b=0.0):
    """Compare per-mode histories against the dispersion law.

    ``source`` is a pair ``(times, {k: series})``: each complex ``series``
    is the coefficient of wavenumber ``k`` at ``times``.  ``beta`` picks the
    law:

    * ``beta = 1`` (nonlinearity allowed): each mode's frequency is the
      slope of its unwrapped phase, reported in the plane-wave convention
      ``omega = -g |k|^alpha + a + b A^2`` with ``A = |series[0]|``.
    * ``beta < 1`` (``b = 0``): each mode's complex rate is fit against
      ``E_beta(lam t^beta)`` and compared with ``lam = i (-g |k|^alpha + a)``;
      through the principal branch this is the statement
      ``(i omega)^beta = -g |k|^alpha + a`` of the transform-side law.

    The dispersive part ``(a (+ b A^2) - omega)`` or ``Im(lam)/i``-shift is
    also fit for its ``|k|`` exponent (expected: ``alpha``).
    """
    beta = validate_temporal_order(beta, allow_high=False)
    if beta != 1.0 and b != 0.0:
        raise DomainError("fractional-mode source requires b = 0")
    times, mode_dict = source
    times = np.asarray(times, dtype=float)
    series_all = [np.asarray(series) for series in mode_dict.values()]
    if beta != 1.0:   # every mode's rate fit in one lockstep loop
        guesses = [1j * (-g * abs(k) ** alpha + a) for k in mode_dict]
        rates = _ml_rates([times] * len(series_all),
                          [series / series[0] for series in series_all],
                          beta, guesses)
    meas, pred, rel, kv, disp = [], [], [], [], []
    for i, (k, series) in enumerate(zip(mode_dict, series_all)):
        if beta == 1.0:
            amp = float(np.abs(series[0]))
            m = -_phase_slope(times, series)
            p = -g * abs(k) ** alpha + a + b * amp ** 2
            d = (a + b * amp ** 2 - m) / g if g != 0 else np.nan
        else:
            p, m = guesses[i], complex(rates[i])
            d = a - (m / 1j).real if g == 0 else (a - (m / 1j).real) / g
        meas.append(m)
        pred.append(p)
        rel.append(abs(m - p) / abs(p) if p != 0 else abs(m - p))
        kv.append(abs(k))
        disp.append(d)
    return DispersionReport(beta=beta, k=kv, measured=meas, predicted=pred,
                            rel_err=rel,
                            fitted_exponent=_fit_exponent(kv, disp))
