"""Range checks for fractional orders, and validated periodic spatial grids
and uniform time grids.

All solvers in this package work on a uniform periodic grid ``[0, L)`` with
the standard FFT wavenumber set, and on uniform time grids ``t_j = j dt``.
"""

from dataclasses import dataclass

import numpy as np
import numpy.fft  # the package's one eager load; NumPy 2 would load it in a run

from .errors import DomainError

__all__ = ["GridSpec", "TimeGrid", "validate_spatial_order",
           "validate_temporal_order"]


def validate_spatial_order(alpha):
    """Check a spatial order ``alpha``.

    ``alpha`` must lie in (0, 2]; ``alpha = 2`` is the classical limit.  The
    spectral multiplier ``|k|^alpha`` is regular at ``alpha = 1`` too.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"spatial order alpha must be in (0, 2], got {alpha}",
                          key="alpha")
    return alpha


def validate_temporal_order(beta, *, allow_high=True):
    """Check a temporal order ``beta`` in (0, 1] or, when allowed, (1, 2].

    ``beta = 1`` and ``beta = 2`` are the classical first- and second-order
    limits and are accepted.
    """
    beta = float(beta)
    hi = 2.0 if allow_high else 1.0
    if not 0.0 < beta <= hi:
        raise DomainError(f"temporal order beta must be in (0, {hi:g}], got {beta}",
                          key="beta")
    return beta


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on ``[0, length)`` with ``n_points`` nodes."""

    n_points: int
    length: float

    def __post_init__(self):
        if self.n_points < 2:
            raise DomainError("grid needs at least 2 points", key="n_points")
        if not np.isfinite(self.length) or self.length <= 0:
            raise DomainError("grid length must be positive and finite",
                              key="length")
        if abs(self.dx * self.n_points - self.length) > 8 * np.finfo(float).eps * self.length:
            raise DomainError("dx * n_points must equal length to machine "
                              "precision", key="length")

    @property
    def dx(self):
        return self.length / self.n_points

    @property
    def x(self):
        """Node coordinates ``x_i = i dx``."""
        return np.arange(self.n_points) * self.dx

    @property
    def wavenumbers(self):
        """FFT-ordered wavenumbers ``k_m = 2 pi m / L`` (k = 0 first)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @property
    def wavenumbers_real(self):
        """Wavenumbers of the real-input (rfft) transform."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.dx)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid ``t_j = j dt`` for ``j = 0..n_steps``."""

    n_steps: int
    dt: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise DomainError("time grid needs at least 1 step", key="n_steps")
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise DomainError("dt must be positive and finite", key="dt")

    @property
    def t(self):
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def t_final(self):
        return self.n_steps * self.dt

