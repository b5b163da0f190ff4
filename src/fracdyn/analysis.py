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


def _ml_rate(times, ratio, beta, guess):
    """The ``lam`` whose ``E_beta(lam t^beta)`` is nearest ``ratio`` at
    ``times`` in least squares, by Gauss-Newton from ``guess``.

    Real ``guess`` and ``ratio`` fit a real rate; a complex ``guess`` fits a
    complex one.  The model is holomorphic in ``lam``, so its Jacobian is
    ``J = t^beta E_beta'(lam t^beta)`` in either case, and the Gauss-Newton
    step ``-J^H r / |J|^2`` is the real two-parameter step in complex form.
    Each iteration makes one Mittag-Leffler pass returning both ``E_beta``
    and ``E_beta'``; a converged fit logs its passes and rate at DEBUG.

    The fit stops once the step is at rounding level: within a few ulps of
    ``lam`` or of the resolution ``eps |ratio| / |J|`` of the data, or, once
    below ``sqrt(eps) |lam|``, no longer contracting, which is the rounding
    of the Mittag-Leffler values themselves (the alternating series loses
    digits to cancellation at larger arguments).  It raises
    ``ConvergenceError`` at a non-finite step, or if neither happens within
    ``_RATE_FIT_MAX_ITER`` iterations (then with the last step's size as
    ``estimate``).
    """
    tb = np.asarray(times, dtype=float) ** beta
    ratio = np.asarray(ratio)
    lam, prev = guess, math.inf
    for it in range(1, _RATE_FIT_MAX_ITER + 1):
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
        if (size <= _RATE_FIT_STEP_TOL * (abs(lam) + np.linalg.norm(ratio)
                                          / math.sqrt(jj))
                or prev / 2 <= size <= _RATE_FIT_STALL_TOL * abs(lam)):
            log.debug("rate fit: %d Mittag-Leffler passes, rate %s", it, lam)
            return lam
        prev = size
    raise ConvergenceError(f"Mittag-Leffler rate fit from {guess} did not "
                           f"converge within {_RATE_FIT_MAX_ITER} iterations",
                           estimate=size)


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
    meas, pred, rel, kv, disp = [], [], [], [], []
    for k, series in mode_dict.items():
        series = np.asarray(series)
        if beta == 1.0:
            amp = float(np.abs(series[0]))
            m = -_phase_slope(times, series)
            p = -g * abs(k) ** alpha + a + b * amp ** 2
            d = (a + b * amp ** 2 - m) / g if g != 0 else np.nan
        else:
            p = 1j * (-g * abs(k) ** alpha + a)
            m = complex(_ml_rate(times, series / series[0], beta, p))
            d = a - (m / 1j).real if g == 0 else (a - (m / 1j).real) / g
        meas.append(m)
        pred.append(p)
        rel.append(abs(m - p) / abs(p) if p != 0 else abs(m - p))
        kv.append(abs(k))
        disp.append(d)
    return DispersionReport(beta=beta, k=kv, measured=meas, predicted=pred,
                            rel_err=rel,
                            fitted_exponent=_fit_exponent(kv, disp))
