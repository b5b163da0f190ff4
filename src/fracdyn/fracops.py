"""Fractional derivative operators and the Mittag-Leffler function.

Time-fractional derivatives use the Caputo form (the memory integral acts on
integer-order derivatives, so initial data keep their classical meaning).
Discrete operators use the L1 product-integration scheme on uniform grids:
the function is interpolated piecewise-linearly, which makes the scheme exact
on linear data and convergent at order ``2 - beta`` on smooth data.  Orders
in (1, 2) are reduced to order ``beta - 1`` acting on difference quotients,
with the supplied initial velocity as the leading entry.

Every discrete time-fractional operator reduces to the L1 history sum
``out[j] = scale * sum_{i=1..j} w[j-i] inc[i-1]``, a truncated linear
convolution along the time axis.  :func:`l1_apply` evaluates it with one
zero-padded FFT product, O(n log n) per history instead of O(n^2).  Its
rounding error is absolute: a small multiple of machine epsilon (growing
like ``log n``) times the largest entry of the output, not of each entry.

The Mittag-Leffler function sums its series over the whole argument array
under one cancellation guard, with an integral form as fallback.

Space-fractional derivatives use the symmetric (Riesz) form.  On a periodic
grid the operator is defined by its Fourier multiplier ``-|k|^alpha``.

The quadrature forms of the defining Caputo and Riesz integrals, which the
tests use as independent cross-checks, live in ``tests/oracles.py``.
"""

import functools
import math

import numpy as np
import numpy.fft  # eager: NumPy 2 loads it on first use, inside a run

from .errors import ConvergenceError, DomainError
from .grids import GridSpec, validate_temporal_order

__all__ = [
    "l1_weights",
    "HistorySum",
    "caputo_left_l1",
    "caputo_right_l1",
    "riemann_liouville_left",
    "riesz_derivative_spectral",
    "mittag_leffler",
]


def l1_weights(beta, n):
    """First ``n`` L1 weights ``b_m = (m+1)^(1-beta) - m^(1-beta)``.

    Built from powers of the nonnegative integers with ``0^(1-beta) := 0`` so
    that ``beta = 1`` degenerates exactly to backward differences.
    """
    p = 1.0 - beta
    pows = np.concatenate(([0.0], np.arange(1, n + 1, dtype=np.float64) ** p))
    return np.diff(pows)


# Bytes of spectrum transformed at once: the columns of a time convolution
# are taken in blocks this size so that the FFT work buffers stay small beside
# the arrays they fill.  256 KiB kept the peak RSS of a 3000-step, 128-point
# relaxation below that of 1 MiB blocks, at the same speed.
_FFT_BLOCK_BYTES = 1 << 18

# Rows summed directly by HistorySum before its FFT products take over.
HISTORY_BLOCK = 64


def _fast_len(n):
    """The smallest ``2^a 3^b 5^c >= n``, a length pocketfft's real
    transforms factor fully; equal to ``scipy.fft.next_fast_len(n,
    real=True)``."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            # the smallest power-of-two multiple of f35 that is >= n
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def _real_columns(x):
    """``x`` as float64 columns: a complex ``(n, m)`` array becomes its
    ``(n, 2m)`` real and imaginary parts, a view that shares its memory.
    Convolution with real weights acts on each of these columns alone."""
    return x.view(np.float64) if np.iscomplexobj(x) else x


def _convolve_columns(x, weights, nfft, start, stop):
    """Rows ``start:stop`` of the length-``nfft`` circular convolution of the
    real ``weights`` with every column of the real ``(rows, m)`` array ``x``.

    ``weights`` is the real FFT of the zero-padded weight sequence.  Yields
    ``(columns, rows)`` pairs, one per column block of ``_FFT_BLOCK_BYTES``.
    """
    block = max(1, _FFT_BLOCK_BYTES // (16 * nfft))
    for c in range(0, x.shape[1], block):
        spec = np.fft.rfft(x[:, c:c + block], nfft, axis=0)
        spec *= weights[:, None]
        yield slice(c, c + block), np.fft.irfft(spec, nfft, axis=0)[start:stop]


def l1_apply(increments, weights, scale):
    """Weighted history sums ``out[j] = scale * sum_{i=1..j} w[j-i] inc[i-1]``.

    ``increments`` may be 1-D (a single history) or 2-D ``(n, m)`` with time
    along axis 0; the output has one more row than the input, and row 0 is
    zero.  ``weights`` needs at least ``n`` entries.

    The sums are the first ``n`` terms of the linear convolution of the
    weights with each column, computed by a real FFT of length at least
    ``2n - 1``, so that no circular wrap-around reaches them; complex columns
    are convolved as their real and imaginary parts.  Cost is O(n log n) per
    column.  FFT rounding is spread over the whole output: the error of every
    entry is a small multiple of machine epsilon times ``max|out|`` (tests
    bound it by ``1e-14 * max|out|`` against the direct row-by-row sum), so
    entries far below the maximum do not keep their own relative accuracy.
    """
    is_complex = np.iscomplexobj(increments)
    inc = np.ascontiguousarray(increments,
                               dtype=np.complex128 if is_complex else np.float64)
    squeeze = inc.ndim == 1
    if squeeze:
        inc = inc[:, None]
    n = inc.shape[0]
    out = np.zeros((n + 1, inc.shape[1]), dtype=inc.dtype)
    if n:
        nfft = _fast_len(2 * n - 1)
        w_hat = np.fft.rfft(scale * np.asarray(weights, dtype=np.float64)[:n], nfft)
        flat = _real_columns(out)
        for cols, rows in _convolve_columns(_real_columns(inc), w_hat, nfft, 0, n):
            flat[1:, cols] = rows
    return out[:, 0] if squeeze else out


class HistorySum:
    """Causal memory sums ``h[j] = sum_{i<j} w[j-i] x[i]`` of rows pushed
    one time step at a time, as an implicit stepper needs them.

    For ``j = 0, 1, ..., n-1`` call :meth:`history` for step ``j``, then
    :meth:`push` with that step's row ``x[j]``.  The sums are exact (no
    approximation), computed by the recursive splitting of Hairer, Lubich
    and Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985) in O(n log^2 n) per
    column instead of the O(n^2) of a direct sum per step:

    * inside a base block of ``HISTORY_BLOCK`` steps, :meth:`history` adds
      the direct sum over the rows of the current block;
    * when :meth:`push` completes a block ``[p - s, p)`` of ``s`` rows with
      ``p / s`` odd (``s`` a power-of-two multiple of ``HISTORY_BLOCK``),
      one zero-padded FFT product adds its contribution to the sums of steps
      ``[p, p + s)``, clipped at ``n``.  Every pair ``i < j`` in different
      base blocks is covered by exactly one such product.

    The sums still pending for steps ``>= j`` accumulate in rows ``>= j`` of
    the row buffer itself, which no pushed row occupies yet, so the object
    holds one ``(n, m)`` array.  ``weights`` needs at least ``n`` entries;
    ``w[0]`` is not used.  Rounding of the FFT products is a small multiple
    of machine epsilon times the largest sum, as for :func:`l1_apply`.
    """

    def __init__(self, weights, n, m):
        self._w = np.asarray(weights, dtype=np.float64)
        self._n = n
        self._rows = np.zeros((n, m), dtype=np.complex128)
        self._flat = self._rows.view(np.float64)
        self._w_rev = self._w[1:HISTORY_BLOCK][::-1].copy()

    def history(self, j):
        """The sum ``h[j]``; pushed rows ``0..j-1`` must be in place."""
        start = j - j % HISTORY_BLOCK
        direct = self._w_rev[self._w_rev.size - (j - start):] @ self._flat[start:j]
        return (self._flat[j] + direct).view(np.complex128)

    def push(self, j, x):
        """Store row ``x[j]`` once ``history(j)`` has been read."""
        self._rows[j] = x
        p = j + 1
        if p % HISTORY_BLOCK or p >= self._n:
            return
        q = p // HISTORY_BLOCK
        s = HISTORY_BLOCK * (q & -q)
        count = min(s, self._n - p)
        # target p + t needs w[s + t - i] for source row p - s + i: the middle
        # of the convolution of the block with w[1:], free of wrap-around
        # when nfft >= s + count - 1
        nfft = _fast_len(s + count - 1)
        w_hat = np.fft.rfft(self._w[1:1 + nfft], nfft)
        target = self._flat[p:p + count]
        for cols, rows in _convolve_columns(self._flat[p - s:p], w_hat, nfft,
                                            s - 1, s - 1 + count):
            target[:, cols] += rows


def _check_history(u):
    u = np.asarray(u)
    if u.shape[0] < 2:
        raise DomainError("need at least 2 time samples")
    if not np.all(np.isfinite(u)):
        raise DomainError("time samples must be finite")
    return u


def caputo_left_l1(u, beta, dt, initial_velocity=None):
    """Left Caputo derivative of order ``beta`` on a uniform time grid.

    ``u`` holds samples ``u(t_j)`` along axis 0 (trailing axes are treated as
    independent histories).  Returns the derivative at every node; the value
    at ``t_0`` is 0 by convention.  Orders in (1, 2] require
    ``initial_velocity`` = ``u'(0)`` with the shape of one time level.
    Every order is the L1 sum of order ``q`` over the increments of a memory
    variable ``y``: ``y = u`` at ``q = beta <= 1``, and at ``q = beta - 1``
    the quotients ``y_j = (u_j - u_{j-1}) / dt`` led by ``y_0 = u'(0)``.
    """
    beta = validate_temporal_order(beta)
    if dt <= 0:
        raise DomainError("dt must be positive")
    u = _check_history(u)
    q, y = beta, u
    if beta > 1.0:
        if initial_velocity is None:
            raise DomainError("orders in (1, 2] require initial_velocity")
        v0 = np.asarray(initial_velocity, dtype=np.result_type(u, float))
        q = beta - 1.0
        y = np.concatenate([v0.reshape((1,) + u.shape[1:]),
                            np.diff(u, axis=0) / dt], axis=0)
    scale = dt ** (-q) / math.gamma(2.0 - q)
    return l1_apply(np.diff(y, axis=0), l1_weights(q, u.shape[0] - 1), scale)


def caputo_right_l1(u, beta, dt):
    """Right Caputo derivative on ``[0, T]`` via time reversal.

    A change of variables turns the right derivative of ``u`` into the left
    derivative of the reversed samples, read back in reversed order.  Used
    for residual evaluation of completed trajectories only; a right (future-
    looking) derivative cannot drive causal stepping.  Orders are in (0, 1].
    """
    beta = validate_temporal_order(beta, allow_high=False)
    u = _check_history(u)
    return caputo_left_l1(u[::-1], beta, dt)[::-1]


def riemann_liouville_left(u, beta, dt):
    """Left Riemann-Liouville derivative for ``beta`` in (0, 1).

    Computed as the Caputo value plus the initial-value correction
    ``u(0) t^(-beta) / Gamma(1-beta)``.  The correction is singular at
    ``t_0 = 0`` unless ``u(0) = 0``; the returned node-0 entry is the signed
    infinite limit in that case.
    """
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise DomainError(f"Riemann-Liouville path requires beta in (0, 1), got {beta}")
    u = _check_history(u)
    out = caputo_left_l1(u, beta, dt).astype(np.result_type(u, float), copy=True)
    n = u.shape[0] - 1
    t = np.arange(1, n + 1) * dt
    corr = t ** (-beta) / math.gamma(1.0 - beta)
    out[1:] += corr.reshape((-1,) + (1,) * (u.ndim - 1)) * u[0]
    u0 = np.asarray(u[0])
    with np.errstate(invalid="ignore"):   # 0 * inf where u0 = 0
        origin = np.where(u0 == 0, 0.0, np.sign(u0) * np.inf)
    out[0] = origin if u.ndim > 1 else float(origin)
    return out


def riesz_derivative_spectral(u, alpha, grid: GridSpec):
    """Riesz derivative of a periodic sample set via its Fourier multiplier.

    Mode ``m`` is multiplied by ``-|k_m|^alpha`` (the ``k = 0`` mode by 0).
    Real input returns real output.  The multiplier is regular for every
    ``alpha > 0``, so ``alpha = 1`` is admissible here even though the
    real-space kernel form excludes it; ``alpha = 2`` reproduces the
    classical second derivative.
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    u = np.asarray(u)
    if u.shape[-1] != grid.n_points:
        raise DomainError("sample count does not match grid")
    if not np.all(np.isfinite(u)):
        raise DomainError("input contains non-finite values")
    if np.iscomplexobj(u):
        sym = -np.abs(grid.wavenumbers) ** alpha
        return np.fft.ifft(sym * np.fft.fft(u, axis=-1), axis=-1)
    sym = -grid.wavenumbers_real ** alpha
    return np.fft.irfft(sym * np.fft.rfft(u, axis=-1), n=grid.n_points, axis=-1)


_SERIES_RADIUS = 5.0
_MAX_TERMS = 600
# The largest series term may exceed max(1, |sum|) at most this much: with
# each term rounded to eps relative, the sum then keeps about 1e-10.
_CANCELLATION_LIMIT = 1e6


@functools.lru_cache(maxsize=16)
def _series_ratios(beta):
    """``Gamma(beta k + 1) / Gamma(beta (k + 1) + 1)`` for ``k < _MAX_TERMS``:
    the ratio of consecutive series coefficients."""
    lg = [math.lgamma(beta * k + 1.0) for k in range(_MAX_TERMS + 1)]
    return tuple(math.exp(lg[k] - lg[k + 1]) for k in range(_MAX_TERMS))


def _ml_series(beta, z):
    """``(E, E', loss)``: the series of ``E_beta(z)`` and ``E_beta'(z) =
    sum_k (k + 1) z^k / Gamma(beta (k + 1) + 1)`` over the 1-D array ``z``.

    Each element stops on its own rule: ``E`` once its next term is at most
    ``1e-17 max(1, |sum|)``, ``E'`` once its current term is.  ``loss`` is
    the larger ratio ``largest term / max(1, |sum|)`` of the two, infinite
    where a sum is not finite or has not stopped within ``_MAX_TERMS``.
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


# Tanh-sinh (double-exponential) quadrature of Takahasi and Mori (1974) on
# [0, 1]: offsets t in [-4, 4] (beyond, the weights fall below 1e-35) at
# spacing 2^-level; each level past 0 holds only the new, odd offsets, so a
# level halves the spacing at the cost of its own nodes.  Each entry is
# (fraction of the interval from its left end, weight), both free of
# cancellation next to either end.
_DE_LEVELS = 9


def _de_level(level):
    h = 2.0 ** -level
    if level == 0:
        t = np.arange(-4.0, 4.0 + h / 2, h)
    else:
        t = np.arange(-4.0 + h, 4.0, 2 * h)
    s = math.pi * np.sinh(t)
    weight = h * math.pi / 4 * np.cosh(t) / np.cosh(s / 2) ** 2
    return 1.0 / (1.0 + np.exp(-s)), weight


_DE_NODES = [_de_level(level) for level in range(_DE_LEVELS)]


def _ml_integral_negative(beta, x):
    # completely monotone spectral form of E_beta(-x), 0 < beta < 1, x >= 0:
    # with t = x^(1/b), E_beta(-t^b) is the Laplace transform at t of the
    # density sin(b pi)/pi * r^(b-1) / (r^(2b) + 2 r^b cos(b pi) + 1).  The
    # substitution r = (z/x)^(1/b) removes the endpoint singularity and
    # fixes the integrand's scale, leaving exp(-z^(1/b)) decay:
    #   E_beta(-x)  = sin(b pi) / (pi b x)     int g(z) dz,
    #   E_beta'(-x) = sin(b pi) / (pi b^2 x^2) int z^(1/b) g(z) dz
    # with g(z) = exp(-z^(1/b)) / (y^2 + 2 y cos(b pi) + 1), y = z / x (the
    # second is d/dt of the transform, whose integrand stays positive).
    # Both integrals run over [0, 50^b], beyond which exp(-z^(1/b)) < 2e-22,
    # split where the denominator peaks (y = -cos(b pi), for b > 1/2).
    sinb = math.sin(beta * math.pi)
    cosb = math.cos(beta * math.pi)
    end = 50.0 ** beta
    edges = [0.0, -cosb * x, end] if 0.0 < -cosb * x < end else [0.0, end]
    left = np.array(edges[:-1])[:, None]
    width = np.diff(edges)[:, None]
    total = err = None
    for frac, weight in _DE_NODES:
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


def mittag_leffler(beta, z, derivative=False):
    """Mittag-Leffler function ``E_beta(z) = sum_k z^k / Gamma(beta k + 1)``.

    ``beta = 1`` is ``np.exp``.  Other orders sum the series of ``E_beta``
    and ``E_beta'`` over the whole argument array in one pass, and keep a
    sum only if it converged within ``_MAX_TERMS`` terms, none of them above
    ``_CANCELLATION_LIMIT`` (1e6) times ``max(1, |sum|)``.  Real negative
    arguments at ``beta < 1`` that fail this guard, or lie beyond ``|z| = 5``,
    use tanh-sinh quadrature of the completely monotone integral form (a
    Laplace transform of an explicit spectral density) with its own error
    estimate; any other failure raises ``ConvergenceError``.

    ``derivative=True`` returns ``(E_beta(z), E_beta'(z))`` from that pass,
    the value being the one ``derivative=False`` gives.  A scalar argument
    gives Python scalars.

    Solves the fractional relaxation problem: ``u(t) = E_beta(lam * t^beta)``
    satisfies ``D^beta u = lam * u`` with ``u(0) = 1``, which is the per-mode
    law every linear solver in this package is tested against.
    """
    beta = float(beta)
    if not 0.0 < beta <= 2.0:
        raise DomainError(f"mittag_leffler requires beta in (0, 2], got {beta}")
    zarr = np.asarray(z)
    zf = zarr.astype(np.result_type(zarr, float)).ravel()
    if beta == 1.0:
        val, der = np.exp(zf), np.exp(zf)
    else:
        val, der = np.empty_like(zf), np.empty_like(zf)
        loss = np.full(zf.shape, np.inf)
        negative = (zf.imag == 0) & (zf.real < 0) & (beta < 1.0)
        series = ~negative | (np.abs(zf) <= _SERIES_RADIUS)
        val[series], der[series], loss[series] = _ml_series(beta, zf[series])
        lost = ~(loss <= _CANCELLATION_LIMIT)
        bad = np.flatnonzero(lost & ~negative)
        if bad.size:
            i = bad[0]
            raise ConvergenceError(
                f"Mittag-Leffler series at z = {zf[i]:.6g} lost its digits: "
                f"largest term / max(1, |sum|) = {loss[i]:.3g} (inf: no "
                f"convergence in {_MAX_TERMS} terms)")
        for i in np.flatnonzero(lost):
            val[i], der[i] = _ml_integral_negative(beta, -zf[i].real)
    val, der = (v.reshape(zarr.shape) if zarr.ndim else v.item()
                for v in (val, der))
    return (val, der) if derivative else val
