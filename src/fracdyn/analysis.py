"""Dispersion-law extraction from trajectories.

The Laplace-symbol identity of the Caputo derivative and the empirical
convergence-order fit that the tests use live in ``tests/oracles.py``.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import DomainError
from .fields import FieldState
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
    law.  ``fitted_exponent`` is the least-squares power of ``|k|`` in the
    dispersive part.
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


def dispersion_check(source, *, alpha, beta, g, a, b=0.0, amplitude=None,
                     modes=None):
    """Compare per-mode behavior of a trajectory against the dispersion law.

    Two trajectory sources are accepted:

    * a complex :class:`FieldState` produced by the split-step integrator
      (``beta`` must be 1; nonlinearity allowed).  Each mode's frequency is
      the slope of its unwrapped phase, reported in the plane-wave
      convention ``omega = -g |k|^alpha + a + b A^2``.
    * a pair ``(times, {k: series})`` of closed-form fractional mode
      histories (``beta <= 1``, ``b = 0``).  Each mode's complex rate is fit
      against ``E_beta(lam t^beta)`` and compared with
      ``lam = i (-g |k|^alpha + a)``; through the principal branch this is
      the statement ``(i omega)^beta = -g |k|^alpha + a`` of the transform-
      side law.

    The dispersive part ``(a (+ b A^2) - omega)`` or ``Im(lam)/i``-shift is
    also fit for its ``|k|`` exponent (expected: ``alpha``).
    """
    beta = validate_temporal_order(beta, allow_high=False)
    if isinstance(source, FieldState):
        if beta != 1.0:
            raise DomainError("split-step trajectories carry beta = 1")
        if not source.is_complex:
            raise DomainError("dispersion check needs a complex trajectory")
        if not source.holds_trajectory:
            raise DomainError("dispersion check needs every level; this state "
                              f"holds only the last {source.history.shape[0]}")
        times = source.times[:source.n_completed + 1]
        hist = source.history[:source.n_completed + 1]
        series = np.fft.fft(hist, axis=1) / source.grid.n_points
        kall = source.grid.wavenumbers
        if modes is None:
            p0 = np.abs(series[0])
            modes = [int(m) for m in np.nonzero(p0 > 1e-8 * p0.max())[0]]
        meas, pred, rel, kv, disp = [], [], [], [], []
        for m in modes:
            amp = amplitude if amplitude is not None else float(np.abs(series[0, m]))
            omega = -_phase_slope(times, series[:, m])
            omega_pred = -g * abs(kall[m]) ** alpha + a + b * amp ** 2
            meas.append(omega)
            pred.append(omega_pred)
            rel.append(abs(omega - omega_pred) / max(abs(omega_pred), 1e-300))
            kv.append(abs(kall[m]))
            disp.append((a + b * amp ** 2 - omega) / g if g != 0 else np.nan)
        expo = _fit_exponent(kv, disp) if g != 0 else float("nan")
        return DispersionReport(beta=beta, k=kv, measured=meas, predicted=pred,
                                rel_err=rel, fitted_exponent=expo)

    if b != 0.0:
        raise DomainError("fractional-mode source requires b = 0")
    times, mode_dict = source
    times = np.asarray(times, dtype=float)
    meas, pred, rel, kv, disp = [], [], [], [], []
    for k, series in mode_dict.items():
        series = np.asarray(series)
        lam_pred = 1j * (-g * abs(k) ** alpha + a)

        def misfit(p):
            lam = p[0] + 1j * p[1]
            d = mittag_leffler(beta, lam * times ** beta) - series / series[0]
            return np.concatenate([d.real, d.imag])

        sol = scipy.optimize.least_squares(
            misfit, x0=[lam_pred.real, lam_pred.imag], xtol=1e-14, ftol=1e-14)
        if not sol.success:
            raise DomainError(f"rate fit failed for mode k = {k}")
        lam_meas = complex(sol.x[0], sol.x[1])
        meas.append(lam_meas)
        pred.append(lam_pred)
        rel.append(abs(lam_meas - lam_pred) / max(abs(lam_pred), 1e-300))
        kv.append(abs(k))
        disp.append(a - (lam_meas / 1j).real if g == 0 else (a - (lam_meas / 1j).real) / g)
    expo = _fit_exponent(kv, disp)
    return DispersionReport(beta=beta, k=kv, measured=meas, predicted=pred,
                            rel_err=rel, fitted_exponent=expo)
