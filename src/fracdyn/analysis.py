"""Dispersion-law extraction from per-mode histories.

``dispersion_check`` reads each mode's coefficients over time, as the
``dispersion`` runner collects them level by level, never a trajectory.

The Laplace-symbol identity of the Caputo derivative and the empirical
convergence-order fit that the tests use live in ``tests/oracles.py``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fracops import mittag_leffler
from .grids import validate_temporal_order

__all__ = [
    "DispersionReport",
    "dispersion_check",
]


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

    def to_dict(self):
        def _ser(v):
            return [[z.real, z.imag] if isinstance(z, complex) else float(z) for z in v]
        return {"beta": self.beta, "k": list(map(float, self.k)),
                "measured": _ser(self.measured), "predicted": _ser(self.predicted),
                "rel_err": list(map(float, self.rel_err)),
                "fitted_exponent": self.fitted_exponent}


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
        raise DomainError(f"phase unwrapping failure (rms residual {resid:.3g} rad)")
    return coef[0]


def _ml_rate(times, series, beta, lam_pred, k):
    """The ``lam`` of the ``E_beta(lam t^beta)`` nearest ``series / series[0]``,
    searched from ``lam_pred``."""
    import scipy.optimize

    def misfit(p):
        lam = p[0] + 1j * p[1]
        d = mittag_leffler(beta, lam * times ** beta) - series / series[0]
        return np.concatenate([d.real, d.imag])

    sol = scipy.optimize.least_squares(
        misfit, x0=[lam_pred.real, lam_pred.imag], xtol=1e-14, ftol=1e-14)
    if not sol.success:
        raise DomainError(f"rate fit failed for mode k = {k}")
    return complex(sol.x[0], sol.x[1])


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
            m = _ml_rate(times, series, beta, p, k)
            d = a - (m / 1j).real if g == 0 else (a - (m / 1j).real) / g
        meas.append(m)
        pred.append(p)
        rel.append(abs(m - p) / abs(p) if p != 0 else abs(m - p))
        kv.append(abs(k))
        disp.append(d)
    return DispersionReport(beta=beta, k=kv, measured=meas, predicted=pred,
                            rel_err=rel,
                            fitted_exponent=_fit_exponent(kv, disp))
