"""Power-law memory kernel and the renormalized continuum coupling
constant.

The memory kernel ``M(t) = g0 t^(-beta) / Gamma(1-beta)`` turns the time
convolution of a rate history into a Caputo derivative of order ``beta``.
The lattice coupling ``J(n) = 1/|n|^(alpha+1)`` of the chain has a Fourier
sum whose small-k increment behaves as ``|k dx|^alpha``, which is the
mechanism by which a long-range chain acquires a fractional spatial
derivative in the continuum; ``renormalized_constant`` is the coefficient
of that limit.  The chain evaluates the sum on its ring by FFT
(``chain._ring_symbol``); the truncated cosine sums on the infinite lattice
that the tests check it against live in ``tests/oracles.py``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fracops import _l1_output, l1_apply, l1_weights

__all__ = [
    "MemoryKernel",
    "memory_convolution",
    "renormalized_constant",
]


@dataclass(frozen=True)
class MemoryKernel:
    """Power-law memory function ``M(t) = g0 t^(-beta) / Gamma(1-beta)``."""

    beta: float = 0.5
    g0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise DomainError(f"memory kernel requires beta in (0, 1), got {self.beta}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise DomainError("memory kernel is defined for t > 0")
        return self.g0 * t ** (-self.beta) / math.gamma(1.0 - self.beta)


def memory_convolution(kernel: MemoryKernel, du_dt, dt):
    """Convolve a rate history with a memory kernel.

    ``du_dt`` holds the rate on each step interval (``(u_i - u_{i-1}) / dt``
    for sampled data, or analytic derivative values).  Product-integration
    with the power-law kernel uses exactly the L1 weights, so the result
    equals ``g0 * caputo_left_l1(u, beta, dt)`` operation for operation.
    The increments ``du_dt * dt`` are formed a column block at a time and
    ``g0`` is applied in place, so beside its output the convolution holds
    one block.
    """
    du_dt = np.asarray(du_dt)
    if dt <= 0:
        raise DomainError("dt must be positive")
    n = du_dt.shape[0]
    rates = du_dt.reshape(n, math.prod(du_dt.shape[1:]))
    scale = dt ** (-kernel.beta) / math.gamma(2.0 - kernel.beta)
    out = l1_apply(lambda cols: rates[:, cols] * dt,
                   l1_weights(kernel.beta, n), scale, _l1_output(n, rates))
    out *= kernel.g0
    return out.reshape((n + 1,) + du_dt.shape[1:])


def renormalized_constant(alpha, g0, dx):
    """Continuum coupling ``g_alpha = 2 g0 dx^alpha Gamma(-alpha) cos(pi alpha / 2)``.

    Carries the lattice coupling ``1/|n|^(alpha+1)`` into the coefficient of
    the order-``alpha`` spatial derivative of the continuum equation:
    ``J^(k) - J^(0) -> (g_alpha / g0) |k|^alpha`` as ``k dx -> 0``.  Negative
    for ``g0 > 0`` and ``alpha`` in (1, 2).
    """
    alpha = float(alpha)
    if not 1.0 < alpha < 2.0:
        raise DomainError("renormalized constant requires alpha in (1, 2), "
                          f"got {alpha}", key="alpha")
    if dx <= 0:
        raise DomainError("dx must be positive", key="dx")
    return 2.0 * g0 * dx ** alpha * math.gamma(-alpha) * math.cos(math.pi * alpha / 2.0)
