"""The renormalized continuum coupling constant of the long-range chain.

The lattice coupling ``J(n) = 1/|n|^(alpha+1)`` of the chain has a Fourier
sum whose small-k increment behaves as ``|k dx|^alpha``, which is the
mechanism by which a long-range chain acquires a fractional spatial
derivative in the continuum; ``renormalized_constant`` is the coefficient
of that limit, which ``chain.continuum_limit_compare`` compares against.
The chain evaluates the sum on its ring by FFT (``chain._ring_symbol``);
the truncated cosine sums on the infinite lattice that the tests check it
against live in ``tests/oracles.py``.

The function keeps a module of its own because the layer timings of
``perfbench`` look it up as ``fracdyn.kernels.renormalized_constant``.
"""

import math

from .errors import DomainError

__all__ = [
    "renormalized_constant",
]


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
