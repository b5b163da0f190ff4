"""Power-law memory and interaction kernels, lattice coupling sums, and the
renormalized continuum coupling constant.

The memory kernel ``M(t) = g0 t^(-beta) / Gamma(1-beta)`` turns the time
convolution of a rate history into a Caputo derivative of order ``beta``.
The spatial interaction kernel decays as ``|r|^(1-alpha)``; its lattice
counterpart ``J(n) = 1/|n|^(alpha+1)`` has a Fourier sum whose small-k
increment behaves as ``|k dx|^alpha``, which is the mechanism by which a
long-range chain acquires a fractional spatial derivative in the continuum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TailBoundError
from .fracops import l1_apply, l1_weights

__all__ = [
    "MemoryKernel",
    "InteractionKernel",
    "LatticeCoupling",
    "memory_convolution",
    "lattice_symbol",
    "lattice_symbol_increment",
    "renormalized_constant",
    "gamma_negative",
    "zeta_sum",
    "cutoff_for_tolerance",
]


@dataclass(frozen=True)
class MemoryKernel:
    """Power-law memory function ``M(t) = g0 t^(-beta) / Gamma(1-beta)``.

    ``is_delta`` marks the memoryless limit ``M = delta(t)``, under which the
    memory convolution returns the instantaneous rate unchanged.
    """

    beta: float = 0.5
    g0: float = 1.0
    is_delta: bool = False

    def __post_init__(self):
        if self.is_delta:
            return
        if not 0.0 < self.beta < 1.0:
            raise DomainError(f"memory kernel requires beta in (0, 1), got {self.beta}")

    @classmethod
    def delta(cls):
        return cls(is_delta=True)

    def __call__(self, t):
        if self.is_delta:
            raise DomainError("the delta kernel has no pointwise values")
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise DomainError("memory kernel is defined for t > 0")
        return self.g0 * t ** (-self.beta) / math.gamma(1.0 - self.beta)


@dataclass(frozen=True)
class InteractionKernel:
    """Spatial power-law kernel ``C(r) = -g1 |r|^(1-alpha) / (cos(pi a/2) Gamma(2-a))``."""

    alpha: float
    g1: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise DomainError(f"interaction kernel requires alpha in (1, 2), got {self.alpha}")

    def __call__(self, r):
        r = np.abs(np.asarray(r, dtype=float))
        if np.any(r == 0):
            raise DomainError("interaction kernel is singular at r = 0")
        pref = -self.g1 / (math.cos(math.pi * self.alpha / 2.0)
                           * math.gamma(2.0 - self.alpha))
        return pref * r ** (1.0 - self.alpha)


@dataclass(frozen=True)
class LatticeCoupling:
    """Interparticle coupling ``J(n) = 1 / |n|^(alpha+1)`` with a cutoff."""

    alpha: float
    cutoff: int = 10_000

    def __post_init__(self):
        if self.alpha <= 0:
            raise DomainError("lattice coupling requires alpha > 0")
        if self.cutoff < 1:
            raise DomainError("cutoff must be a positive integer")

    def __call__(self, n):
        n = np.abs(np.asarray(n))
        if np.any(n == 0):
            raise DomainError("J(0) is not defined (self-coupling excluded)")
        return 1.0 / n.astype(float) ** (self.alpha + 1.0)

    def total(self):
        """Full two-sided sum ``sum_{n != 0} J(n) = 2 zeta(alpha+1)``."""
        return 2.0 * zeta_sum(self.alpha + 1.0)

    def ring_kernel(self, n_particles):
        """Length-N circular kernel with minimal-image distances.

        Entry j holds ``J(d)`` with ``d = min(j, N - j)``, zeroed beyond the
        cutoff; for even N the antipodal distance ``N/2`` appears once.
        """
        if self.cutoff > n_particles // 2:
            raise DomainError("cutoff exceeds n_particles / 2")
        d = np.minimum(np.arange(n_particles), n_particles - np.arange(n_particles))
        k = np.zeros(n_particles)
        mask = (d > 0) & (d <= self.cutoff)
        k[mask] = 1.0 / d[mask].astype(float) ** (self.alpha + 1.0)
        return k


def memory_convolution(kernel: MemoryKernel, du_dt, dt):
    """Convolve a rate history with a memory kernel.

    ``du_dt`` holds the rate on each step interval (``(u_i - u_{i-1}) / dt``
    for sampled data, or analytic derivative values).  Product-integration
    with the power-law kernel uses exactly the L1 weights, so the result
    equals ``g0 * caputo_left_l1(u, beta, dt)`` operation for operation; the
    delta kernel returns the rate unchanged.
    """
    du_dt = np.asarray(du_dt)
    if kernel.is_delta:
        return du_dt
    if dt <= 0:
        raise DomainError("dt must be positive")
    increments = du_dt * dt
    scale = dt ** (-kernel.beta) / math.gamma(2.0 - kernel.beta)
    return kernel.g0 * l1_apply(increments, l1_weights(kernel.beta, du_dt.shape[0]), scale)


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


def gamma_negative(alpha):
    """``Gamma(-alpha)`` for non-integer ``alpha > 0`` via reflection.

    ``Gamma(-a) = -pi / (sin(pi a) Gamma(1 + a))`` keeps the evaluation on
    the positive axis.
    """
    alpha = float(alpha)
    if alpha <= 0 or alpha == int(alpha):
        raise DomainError(f"Gamma(-alpha) has poles at nonnegative integers; got alpha = {alpha}")
    return -math.pi / (math.sin(math.pi * alpha) * math.gamma(1.0 + alpha))


def renormalized_constant(alpha, g0, dx):
    """Continuum coupling ``g_alpha = 2 g0 dx^alpha Gamma(-alpha) cos(pi alpha / 2)``.

    Carries the lattice coupling ``1/|n|^(alpha+1)`` into the coefficient of
    the order-``alpha`` spatial derivative of the continuum equation:
    ``J^(k) - J^(0) -> (g_alpha / g0) |k|^alpha`` as ``k dx -> 0``.  Negative
    for ``g0 > 0`` and ``alpha`` in (1, 2).
    """
    alpha = float(alpha)
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"renormalized constant requires alpha in (1, 2), got {alpha}")
    if dx <= 0:
        raise DomainError("dx must be positive")
    return 2.0 * g0 * dx ** alpha * gamma_negative(alpha) * math.cos(math.pi * alpha / 2.0)


def zeta_sum(s, terms=20_000):
    """``zeta(s)`` for ``s > 1`` by direct summation with an Euler-Maclaurin
    tail correction (no special-function dependency)."""
    if s <= 1.0:
        raise DomainError("zeta_sum requires s > 1")
    n = np.arange(1, terms + 1, dtype=np.float64)
    m = float(terms)
    head = float(np.sum(n ** (-s)))
    tail = m ** (1.0 - s) / (s - 1.0) - 0.5 * m ** (-s) + s * m ** (-s - 1.0) / 12.0
    return head + tail
