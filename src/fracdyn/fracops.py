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
It takes the columns in blocks, and each operator forms the increments of
a block from its own samples inside that block (differences, or
difference quotients led by the initial velocity), so beside its
output an operator holds one block, never a whole-history temporary.  The
FFTs take a block as lanes contiguous in time, one per real column: the
differences are formed in that layout, and other increments are transposed
once.  ``_blocks`` is the one rule that sizes a block of FFT or series
work, here and in ``fields``: ``_FFT_BLOCK_BYTES`` per block.

Where the L1 equations of a linear mode are solved for a whole run at once
(``fields``, for linear first-order runs without a growing mode), the
lower-triangular Toeplitz system is a power-series reciprocal, computed by
Newton doubling on the same zero-padded FFT products in O(n log n).  The
modes' series differ only in their first two coefficients, so the shared
rest is held and transformed once per Newton round, not once per mode.  The
rounds are the outer loop, and each round takes the modes in blocks sized
by its own FFT length, its coefficients held contiguous in time.

The Mittag-Leffler function sums its series in the argument blocks of
``_blocks``, every block over all the terms the largest argument's sums need
to stop, bit for bit as a loop over single terms, under one cancellation
guard, with an integral form as fallback, itself evaluated for all fallback
arguments at once.

Space-fractional derivatives use the symmetric (Riesz) form.  On a periodic
grid the operator is defined by its Fourier multiplier ``-|k|^alpha``.

The quadrature forms of the defining Caputo and Riesz integrals, which the
tests use as independent cross-checks, live in ``tests/oracles.py``.
"""

import functools
import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .grids import GridSpec, validate_temporal_order

__all__ = [
    "l1_weights",
    "HistorySum",
    "caputo_left_l1",
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


# Bytes of spectrum transformed at once: columns or rows are taken in blocks
# this size (see _blocks) so that the FFT work buffers stay small beside the
# arrays they fill.  256 KiB kept the peak RSS of a 3000-step, 128-point
# relaxation below that of 1 MiB blocks, at the same speed.
_FFT_BLOCK_BYTES = 1 << 18


def _blocks(n, item_bytes):
    """Slices that cover ``range(n)`` in blocks of ``_FFT_BLOCK_BYTES``, an
    item (a row, column or Mittag-Leffler argument) taking ``item_bytes`` of
    spectrum or series terms; at least one item per block.  The one rule
    that sizes every block of FFT or series work."""
    size = max(1, _FFT_BLOCK_BYTES // item_bytes)
    return (slice(i, i + size) for i in range(0, n, size))


# Rows summed directly by HistorySum before its FFT products take over.
HISTORY_BLOCK = 64


@functools.lru_cache(maxsize=256)
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


def _series_reciprocal(head, lags):
    """The first ``n`` coefficients ``g`` of ``1 / P(z)`` for real power
    series ``P`` that share their coefficients from ``z^2`` on:
    ``sum_{i<=j} p[j-i] g[i]`` is 1 at ``j = 0`` and 0 for ``0 < j < n``.

    ``lags`` is the length-``n`` series all columns share; ``head`` is the
    ``(2, m)`` pair of leading coefficients ``p[0]``, nonzero, and ``p[1]``
    of each of the ``m`` columns, which replace ``lags[0]`` and ``lags[1]``
    (``head[1]`` is unused at ``n = 1``).  Newton doubling (Kung, Numer.
    Math. 22, 1974): the first ``k`` coefficients ``g_k`` are final, and
    the next ``k`` are those of ``-g_k (P g_k - 1)``, where ``P g_k - 1``
    starts at ``z^k``.  Each round forms only the coefficients ``[k, 2k)``
    of both products, by real FFTs of length ``_fast_len(2k)``, so the
    whole reciprocal costs O(n log n) per column in ``ceil(log2 n)``
    rounds.  The rounds are the outer loop: each transforms the shared tail
    of ``P`` once, then takes the columns in the blocks of :func:`_blocks`
    sized by its own FFT length, so the short early rounds take every
    column at once and the work arrays of a late round stay block-sized.
    Each column's coefficients are held contiguous in time, as the lanes
    the FFTs take; the ``(n, m)`` result is a transposed view of them.
    """
    n, m = lags.shape[0], head.shape[1]
    g = np.empty((m, n))
    g[:, 0] = 1.0 / head[0]
    # lag 0 of P never reaches the coefficients [k, 2k) of P g_k, and lag 1
    # only at k: both stay out of the FFT products, whose rounding then
    # scales with the tail of P alone
    tail = lags.copy()
    tail[:2] = 0.0
    k = 1
    while k < n:
        top = min(2 * k, n)
        nfft = _fast_len(top)
        tail_hat = np.fft.rfft(tail[:top], nfft)
        for cols in _blocks(m, 16 * nfft):
            g_k = g[cols]
            g_hat = np.fft.rfft(g_k[:, :k], nfft)
            # coefficients [k, top) of P g_k; the product's circular
            # wrap-around reaches only coefficients below k
            err = np.fft.irfft(tail_hat * g_hat, nfft)[:, k:top]
            err[:, 0] += head[1, cols] * g_k[:, k - 1]
            # the first k coefficients of g_k err, its leading term directly
            lead = err[:, :1].copy()
            err[:, 0] = 0.0
            g_k[:, k:top] = -(np.fft.irfft(np.fft.rfft(err, nfft) * g_hat,
                                           nfft)[:, :top - k]
                              + lead * g_k[:, :top - k])
        k = top
    return g.T


def _real_columns(x):
    """``x`` as float64 columns: a complex ``(n, m)`` array becomes its
    ``(n, 2m)`` real and imaginary parts, a view that shares its memory.
    Convolution with real weights acts on each of these columns alone."""
    return x.view(np.float64) if np.iscomplexobj(x) else x


def _convolve_columns(increments, target, weights, nfft, start):
    """Rows ``start:start + len(target)`` of the length-``nfft`` circular
    convolution of the real ``weights`` with every column of an
    ``(rows, m)`` history, ``m`` and the dtype being those of ``target``.

    ``weights`` is the real FFT of the zero-padded weight sequence.  The
    history is never held whole: ``increments(cols)`` returns its columns
    ``cols``, formed by the caller from its own samples, one block of
    :func:`_blocks` at a time.  Each block is copied once into lanes, one
    per real column with time along the last axis (complex columns as their
    real and imaginary parts), which the FFTs take whole; a real block the
    caller forms in Fortran order is already laid out so and is not copied.
    Yields ``(cols, rows)`` pairs, one per block: ``rows`` are the float64
    columns ``cols`` of ``_real_columns(target)``, a transposed view of the
    lanes, which the caller writes before the next block is formed.
    """
    width = 2 if target.dtype.kind == "c" else 1
    stop = start + target.shape[0]
    for cols in _blocks(target.shape[1], 16 * nfft * width):
        x = np.asarray(increments(cols), dtype=target.dtype).T
        if width == 2:   # each column as its real, then its imaginary lane
            x = np.stack((x.real, x.imag), axis=1).reshape(-1, x.shape[1])
        spec = np.fft.rfft(np.ascontiguousarray(x), nfft)
        spec *= weights
        yield (slice(width * cols.start, width * cols.stop),
               np.fft.irfft(spec, nfft)[:, start:stop].T)


def _time_diff(x):
    """``np.diff(x, axis=0)`` of the 2-D ``x``, in Fortran order: time runs
    along memory, as in the lanes of :func:`_convolve_columns`."""
    return np.subtract(x[1:], x[:-1], order="F")


def _l1_output(n, columns):
    """An unfilled ``(n + 1, m)`` array for the L1 sums over the 2-D
    ``columns``: complex128 where they are complex, else float64."""
    return np.empty((n + 1, columns.shape[1]),
                    dtype=np.complex128 if np.iscomplexobj(columns) else np.float64)


def l1_apply(increments, weights, scale, out):
    """Weighted history sums ``out[j] = scale * sum_{i=1..j} w[j-i] inc[i-1]``
    of ``m`` histories with time along axis 0.

    ``out`` is the float64 or complex128 ``(n + 1, m)`` array that receives
    the sums and is returned; row 0 is zero.  ``increments(cols)`` forms
    the ``(n, k)`` increments of the columns ``cols`` (a slice) from the
    caller's own samples.  Each column block is formed, transformed and
    written before the next, so the sums hold ``out`` plus one block.
    ``weights`` needs at least ``n`` entries.

    The sums are the first ``n`` terms of the linear convolution of the
    weights with each column, computed by a real FFT of length at least
    ``2n - 1``, so that no circular wrap-around reaches them; complex columns
    are convolved as their real and imaginary parts.  Cost is O(n log n) per
    column.  FFT rounding is spread over the whole output: the error of every
    entry is a small multiple of machine epsilon times ``max|out|`` (tests
    bound it by ``1e-14 * max|out|`` against the direct row-by-row sum), so
    entries far below the maximum do not keep their own relative accuracy.
    """
    n = out.shape[0] - 1
    out[0] = 0
    if n:
        nfft = _fast_len(2 * n - 1)
        w_hat = np.fft.rfft(scale * np.asarray(weights, dtype=np.float64)[:n], nfft)
        flat = _real_columns(out)
        for cols, rows in _convolve_columns(increments, out[1:], w_hat, nfft, 0):
            flat[1:, cols] = rows
    return out


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
    holds one ``(n, m)`` array.  The first :meth:`push` allocates it in its
    row's dtype, float64 for a real row and complex128 for a complex one,
    and the sums keep that dtype; every later row must be real if the first
    was.  ``weights`` needs at least ``n`` entries; ``w[0]`` is not used.
    Rounding of the FFT products is a small multiple of machine epsilon
    times the largest sum, as for :func:`l1_apply`.
    """

    def __init__(self, weights, n, m):
        self._w = np.asarray(weights, dtype=np.float64)
        self._n, self._m = n, m
        self._rows = self._flat = None
        self._w_rev = self._w[1:HISTORY_BLOCK][::-1].copy()

    def history(self, j):
        """The sum ``h[j]``; pushed rows ``0..j-1`` must be in place."""
        if self._rows is None:   # step 0: nothing pushed, nothing to sum
            return np.zeros(self._m)
        start = j - j % HISTORY_BLOCK
        direct = self._w_rev[self._w_rev.size - (j - start):] @ self._flat[start:j]
        return (self._flat[j] + direct).view(self._rows.dtype)

    def push(self, j, x):
        """Store row ``x[j]`` once ``history(j)`` has been read."""
        if self._rows is None:
            self._rows = np.zeros((self._n, self._m),
                                  np.result_type(x, np.float64))
            self._flat = _real_columns(self._rows)
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
        source = self._flat[p - s:p]
        target = self._flat[p:p + count]
        for cols, rows in _convolve_columns(lambda c: source[:, c],
                                            target, w_hat, nfft, s - 1):
            target[:, cols] += rows


def _check_history(u):
    """``u`` as an array of numeric samples along axis 0, checked before
    any arithmetic: a scalar, a boolean or a non-numeric history is
    rejected, as are fewer than 2 samples and non-finite ones."""
    u = np.asarray(u)
    if u.ndim == 0:
        raise DomainError("time samples must lie along axis 0, got a scalar")
    if not np.issubdtype(u.dtype, np.number):   # bool is not a number
        raise DomainError(f"time samples must be numeric, got dtype {u.dtype}")
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
    The increments are formed a column block at a time, inside the block
    loop of :func:`l1_apply`, so beside its output the derivative holds one
    block.
    """
    beta = validate_temporal_order(beta)
    if dt <= 0:
        raise DomainError("dt must be positive")
    u = _check_history(u)
    n = u.shape[0] - 1
    hist = u.reshape(n + 1, math.prod(u.shape[1:]))
    q = beta
    if beta > 1.0:
        if initial_velocity is None:
            raise DomainError("orders in (1, 2] require initial_velocity")
        v0 = np.asarray(initial_velocity, dtype=np.result_type(u, float))
        v0 = v0.reshape(1, hist.shape[1])
        q = beta - 1.0

        def increments(cols):
            quotients = _time_diff(hist[:, cols]) / dt
            return _time_diff(np.concatenate([v0[:, cols], quotients]))
    else:
        def increments(cols):
            return _time_diff(hist[:, cols])
    scale = dt ** (-q) / math.gamma(2.0 - q)
    out = l1_apply(increments, l1_weights(q, n), scale, _l1_output(n, hist))
    return out.reshape(u.shape)


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


@functools.lru_cache(maxsize=16)
def _derivative_coefficients(beta):
    """``(k + 1) r_k`` for the ratios ``r_k`` of ``_series_ratios``: term
    ``k`` of ``E_beta'`` over term ``k`` of ``E_beta``."""
    coef = np.arange(1, _MAX_TERMS + 1) * np.array(_series_ratios(beta))
    coef.flags.writeable = False
    return coef


def _terms_to_stop(beta, z):
    """Terms a series pass over the 1-D ``z`` forms before both sums stop,
    found from the largest non-NaN ``|z|``, up to ``_MAX_TERMS + 2``:
    ``|z|^k / Gamma(beta k + 1)`` bounds term ``k`` of ``E``, and ``k + 1``
    times the next coefficient ratio of it that of ``E'``.  Their logs are
    concave in ``k``, so once both bounds are at most ``1e-17`` (at most
    ``1e-17 max(1, |sum|)``) they stay so, and both sums have stopped.  Two
    terms more cover that bound and the rounding of the terms."""
    r = float(np.fmax.reduce(np.abs(z), initial=0.0))
    ratios = _series_ratios(beta)
    term, k = 1.0, 0
    while k < _MAX_TERMS and max(term, (k + 1) * ratios[k] * term) > 1e-17:
        term *= r * ratios[k]
        k += 1
    return k + 2


def _ml_series(beta, z):
    """``(E, E', loss)``: the series of ``E_beta(z)`` and ``E_beta'(z) =
    sum_k (k + 1) z^k / Gamma(beta (k + 1) + 1)`` over the 1-D array ``z``.

    Each element stops on its own rule: ``E`` once its next term is at most
    ``1e-17 max(1, |sum|)``, ``E'`` once its current term is.  ``loss`` is
    the larger ratio ``largest term / max(1, |sum|)`` of the two, infinite
    where a sum is not finite or has not stopped within its ``n`` terms.

    Every element takes the same ``n`` terms, at most ``_MAX_TERMS``: as
    many as :func:`_terms_to_stop` finds the largest non-NaN ``|z|`` needs,
    so every finite element's sums stop within them.  Each argument block of
    :func:`_blocks` (``32 (n + 1)`` bytes an argument: both series, complex)
    forms its terms ``term_{k+1} = term_k z r_k`` one row at a time, then
    takes for both series at once the running sums (``np.cumsum``, adding
    in term order), the stop tests, their running ``and`` and the running
    peaks; each element keeps its sums and peaks at its own stops.  Every
    operation on an element is the one a loop over single terms makes, in
    the same order, so the results are bit for bit those of that loop
    (``tests/oracles.ml_series_loop``).
    """
    ratios = _series_ratios(beta)
    n = min(_MAX_TERMS, _terms_to_stop(beta, z))
    dcoef = _derivative_coefficients(beta)[:n, None]
    pair = np.arange(2)[:, None]
    s, ds, loss = np.empty_like(z), np.empty_like(z), np.empty(z.shape)
    # a diverging element may overflow to inf or nan; its loss is then inf
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(z.size, 32 * (n + 1)):
            zb = z[block]
            cols = np.arange(zb.size)
            # row 0 holds the 0 both sums start from, rows 1..n the terms
            # 0..n - 1 of E and E'
            w = np.empty((2, n + 1, zb.size), z.dtype)
            w[:, 0] = 0
            w[0, 1] = 1
            for i in range(1, n):
                np.multiply(w[0, i], zb, out=w[0, i + 1])
                np.multiply(w[0, i + 1], ratios[i - 1], out=w[0, i + 1])
            np.multiply(dcoef, w[0, 1:], out=w[1, 1:])
            size = np.abs(w)
            part = np.cumsum(w, axis=1)
            # A term joins its sum while neither it nor an earlier one is at
            # most 1e-17 max(1, |sum before it|): E's next-term rule is this
            # rule on its next term, and its term 0 (= 1) never meets it.
            go = np.logical_and.accumulate(
                ~(size[:, 1:] <= 1e-17 * np.maximum(1.0, np.abs(part[:, :n]))),
                axis=1)
            added = go.sum(axis=1)
            sums = part[pair, added, cols]
            peaks = np.maximum.accumulate(size, axis=1)[pair, added, cols]
            on = go[:, -1]
            if n == _MAX_TERMS:   # E's rule also tests its term _MAX_TERMS
                last = w[0, n] * zb * ratios[n - 1]
                on[0] &= ~(np.abs(last)
                           <= 1e-17 * np.maximum(1.0, np.abs(sums[0])))
            s[block], ds[block] = sums
            loss[block] = np.where(on[0] | on[1], np.inf, np.max(
                peaks / np.maximum(1.0, np.abs(sums)), axis=0))
    loss[~np.isfinite(s) | ~np.isfinite(ds)] = np.inf
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


# Arguments integrated together: their (arguments, 2, nodes) work arrays
# stay near 1 MB each at the finest level's 1,024 nodes.
_ML_QUADRATURE_BLOCK = 64


def _ml_integral_negative(beta, x):
    """``(E_beta(-x), E_beta'(-x))`` over the 1-D array ``x >= 0`` at
    ``0 < beta < 1``, by tanh-sinh quadrature of the integral form.

    The completely monotone spectral form: with ``t = x^(1/b)``,
    ``E_beta(-t^b)`` is the Laplace transform at ``t`` of the density
    ``sin(b pi)/pi * r^(b-1) / (r^(2b) + 2 r^b cos(b pi) + 1)``.  The
    substitution ``r = (z/x)^(1/b)`` removes the endpoint singularity and
    fixes the integrand's scale, leaving ``exp(-z^(1/b))`` decay:

        E_beta(-x)  = sin(b pi) / (pi b x)     int g(z) dz,
        E_beta'(-x) = sin(b pi) / (pi b^2 x^2) int z^(1/b) g(z) dz

    with ``g(z) = exp(-z^(1/b)) / (y^2 + 2 y cos(b pi) + 1)``, ``y = z / x``
    (the second is d/dt of the transform, whose integrand stays positive).
    Both integrals run over ``[0, 50^b]``, beyond which ``exp(-z^(1/b)) <
    2e-22``, split where the denominator peaks (``y = -cos(b pi)``, for
    ``b > 1/2``; elsewhere one of the two pieces has zero width).

    All arguments of a block share the nodes of each level; an argument
    stops refining once both level-to-level error estimates are at most
    ``1e-13`` of its sums.  An estimate above ``1e-9 max(1, value)`` raises
    ``ConvergenceError``.
    """
    x = np.asarray(x, dtype=np.float64)
    sinb = math.sin(beta * math.pi)
    cosb = math.cos(beta * math.pi)
    end = 50.0 ** beta
    val, der = np.empty_like(x), np.empty_like(x)
    for b in range(0, x.size, _ML_QUADRATURE_BLOCK):
        xb = x[b:b + _ML_QUADRATURE_BLOCK]
        split = np.clip(-cosb * xb, 0.0, end)
        left = np.stack([np.zeros_like(split), split], axis=1)[:, :, None]
        width = np.stack([split, end - split], axis=1)[:, :, None]
        total = np.zeros((xb.size, 2))
        err = np.full((xb.size, 2), np.inf)
        on = np.arange(xb.size)
        for level, (frac, weight) in enumerate(_DE_NODES):
            z = left[on] + width[on] * frac
            u = z ** (1.0 / beta)
            y = z / xb[on, None, None]
            wg = width[on] * weight * np.exp(-u) / (y * y + 2.0 * y * cosb + 1.0)
            part = np.stack([wg.sum(axis=(1, 2)), (wg * u).sum(axis=(1, 2))],
                            axis=1)
            if level == 0:
                total[on] = part
                continue
            half = total[on] / 2
            err[on], total[on] = np.abs(part - half), half + part
            on = on[~np.all(err[on] <= 1e-13 * total[on], axis=1)]
            if not on.size:
                break
        # past |x| ~ 1e154 the derivative's x^2 overflows and E' underflows
        # to 0, as its true value ~ 1 / (x^2 Gamma(1 - beta)) does
        with np.errstate(over="ignore"):
            scale = np.stack([sinb / (math.pi * beta * xb),
                              sinb / (math.pi * beta * beta * xb * xb)],
                             axis=1)
        vals, err = total * scale, err * scale
        if np.any(err > 1e-9 * np.maximum(1.0, vals)):
            e = float(np.max(err))
            raise ConvergenceError(
                f"Mittag-Leffler integral representation error {e:.2e}",
                estimate=e)
        val[b:b + _ML_QUADRATURE_BLOCK] = vals[:, 0]
        der[b:b + _ML_QUADRATURE_BLOCK] = vals[:, 1]
    return val, der


def mittag_leffler(beta, z, derivative=False):
    """Mittag-Leffler function ``E_beta(z) = sum_k z^k / Gamma(beta k + 1)``.

    ``beta = 1`` is ``np.exp``.  Other orders sum the series of ``E_beta``
    and ``E_beta'`` over the whole argument array in one pass, and keep a
    sum only if it converged within ``_MAX_TERMS`` terms, none of them above
    ``_CANCELLATION_LIMIT`` (1e6) times ``max(1, |sum|)``.  The pass takes
    the arguments in blocks; each forms its terms one at a time and takes
    sums, stop tests and peaks over all of them at once, bit for bit as a
    loop over single terms would.  Real negative arguments at ``beta < 1``
    that fail this guard, or lie beyond ``|z| = 5``, use tanh-sinh
    quadrature of the completely monotone integral form (a Laplace
    transform of an explicit spectral density) with its own error
    estimate; any other failure raises ``ConvergenceError``.  A NaN
    argument, real or complex, raises ``DomainError`` naming the first one,
    and so does an infinite argument that would reach the series: any but a
    real ``-inf`` at ``beta < 1``, which the integral form takes to 0.

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
    nan = np.flatnonzero(np.isnan(zf))
    if nan.size:
        raise DomainError(f"mittag_leffler argument at flat index {nan[0]} is "
                          f"NaN: {zf[nan[0]]}")
    if beta == 1.0:
        val, der = np.exp(zf), np.exp(zf)
    else:
        val, der = np.empty_like(zf), np.empty_like(zf)
        loss = np.full(zf.shape, np.inf)
        negative = (zf.imag == 0) & (zf.real < 0) & (beta < 1.0)
        series = ~negative | (np.abs(zf) <= _SERIES_RADIUS)
        inf = np.flatnonzero(series & np.isinf(zf))
        if inf.size:
            raise DomainError(f"mittag_leffler argument at flat index {inf[0]} "
                              f"is infinite: {zf[inf[0]]}")
        val[series], der[series], loss[series] = _ml_series(beta, zf[series])
        lost = ~(loss <= _CANCELLATION_LIMIT)
        bad = np.flatnonzero(lost & ~negative)
        if bad.size:
            i = bad[0]
            raise ConvergenceError(
                f"Mittag-Leffler series at z = {zf[i]:.6g} lost its digits: "
                f"largest term / max(1, |sum|) = {loss[i]:.3g} (inf: no "
                f"convergence in {_MAX_TERMS} terms)")
        if lost.any():
            val[lost], der[lost] = _ml_integral_negative(beta, -zf[lost].real)
    val, der = (v.reshape(zarr.shape) if zarr.ndim else v.item()
                for v in (val, der))
    return (val, der) if derivative else val
