"""Jacobi, Gegenbauer and Chebyshev polynomials plus Jacobi machinery.

Evaluation goes through the standard three-term recurrences (O(n), stable on
[-1, 1] and for z > 1); the terminating hypergeometric definitions serve as
test oracles only.  All evaluators accept scalar or ndarray arguments.

The whole-column evaluators `jacobi_p_all` and `gegenbauer_c_all` are two
steps each.  `jacobi_recurrence` and `gegenbauer_recurrence` build the
angle-free half, a `Recurrence`: the coefficients of row 1 and of P_k =
(a_k P_{k-1} - down_k P_{k-2}) / div_k, a_k = lin_k x + const_k, which
depend only on the degree and the parameters, so a caller that meets the
same parameters at many x (a cached fold plan) builds them once.
`orthonormal_recurrence` builds the same half for the orthonormal Jacobi
polynomials, whose row 0 the caller gives.  `recurrence_table` runs the
half that depends on x: it writes rows 0 and 1 and every a_k, in bulk, and
the kernel `_three_term` fills each row.  The kernel runs a table of at
most `_NARROW` entries per row on Python floats, where numpy's per-call
overhead would set the cost, and a wider table in place, four ufunc calls
per degree on contiguous rows of one shape; both do the same IEEE
operations, so every column is the same bit for bit on either path.
The per-degree `jacobi_p` and `gegenbauer_c` keep their own loops as the
independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ZeroParameterError
from .specfun import gamma_signed_log, hyp_3f2_unit, pochhammer


def _validate_jacobi_params(alpha, beta):
    if np.any(alpha <= -1.0) or np.any(beta <= -1.0):
        raise ValueError(f"Jacobi parameters must exceed -1, got ({alpha}, {beta})")
    if np.any((-1.0 < alpha) & (alpha < 0.0) & (-1.0 < beta) & (beta < 0.0)
              & (alpha + beta + 1.0 == 0.0)):
        raise ValueError("alpha + beta + 1 = 0 with both parameters in (-1, 0)")


def _jacobi_step(k, alpha, beta, x, p_prev, p):
    """P_k^{(alpha,beta)}(x) from p = P_{k-1} and p_prev = P_{k-2}, k >= 2."""
    ab = alpha + beta
    c1 = 2.0 * k * (k + ab) * (2.0 * k + ab - 2.0)
    c2 = (2.0 * k + ab - 1.0) * (alpha * alpha - beta * beta)
    c3 = (2.0 * k + ab - 2.0) * (2.0 * k + ab - 1.0) * (2.0 * k + ab)
    c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + ab)
    return ((c2 + c3 * x) * p - c4 * p_prev) / c1


def _jacobi_p1(alpha, beta, x):
    return 0.5 * ((alpha + beta + 2.0) * x + (alpha - beta))


# A table whose rows hold at most this many entries runs its recurrence on
# Python floats, one entry at a time: numpy's per-call overhead, not
# arithmetic, sets the cost of a narrow step.
_NARROW = 8


# Above this many bytes, `_scale_rows` builds a factor half the rows at a
# time: it then costs half of its array's memory, for twice the ufunc calls.
# `_three_term` sizes its operand blocks from it.
_SPLIT_BYTES = 1 << 20


class Recurrence(NamedTuple):
    """The angle-free half of one whole-column pass, for `recurrence_table`
    to run at an x that broadcasts to the row shape.

    first is (lin_1, const_1, div_1): row 1 is (lin_1 x + const_1) row0 /
    div_1.  Rows k = 2..nmax follow `_three_term` with down and div, from
    a_k = lin_k x + const_k.  A lin of None reads as 1 and a const of None
    as 0, so that no add turns a -0.0 into 0.0.
    """

    nmax: int
    shape: tuple
    first: tuple
    lin: np.ndarray | None
    const: np.ndarray | None
    down: object
    div: object


def _three_term(out, down, div):
    """Fill out[2:] by out[k] = (a_k out[k-1] - down_k out[k-2]) / div_k.

    On entry out[0] and out[1] hold the first two terms and out[2:] the
    multipliers a_k, which `recurrence_table` writes there in bulk.  down
    and div hold rows k = 2..nmax, arrays that broadcast to out's rows; for
    a table of at most _NARROW entries per row they may instead be the
    lists the narrow path reads, one per entry (`_columns`).  Both paths do
    the same IEEE operations in the same order, so the table is the same
    bit for bit whichever path fills it.
    """
    nmax = len(out) - 1
    if nmax < 2:
        return
    if out[0].size > _NARROW:
        # Four in-place calls per degree, every operand a contiguous row of
        # the row's own shape: down and div are copied into two buffers a
        # block of rows at a time, and d_k out[k-2] is formed in d_k's own
        # copy.  The two buffers take at most _SPLIT_BYTES / 16 (64 KiB)
        # together, or one row each, under the 128 KiB past which glibc
        # maps an allocation afresh on each call.
        rows = list(out)
        block = min(nmax - 1, max(1, _SPLIT_BYTES // (32 * out[0].nbytes)))
        downs, divs = np.empty((2, block) + out.shape[1:])
        down_rows, div_rows = list(downs), list(divs)
        for start in range(2, nmax + 1, block):
            stop = min(start + block, nmax + 1)
            np.copyto(downs[:stop - start], down[start - 2:stop - 2])
            np.copyto(divs[:stop - start], div[start - 2:stop - 2])
            for k, d, v in zip(range(start, stop), down_rows, div_rows):
                row = rows[k]
                np.multiply(row, rows[k - 1], row)
                np.multiply(d, rows[k - 2], d)
                np.subtract(row, d, row)
                np.divide(row, v, row)
        return
    down_cols, div_cols = (c if isinstance(c, list) else _columns(c, out.shape[1:])
                           for c in (down, div))
    cols = []
    for c, downs, divs in zip(out.reshape(nmax + 1, -1).T.tolist(), down_cols, div_cols):
        a, b = c[0], c[1]
        col = []
        for ak, d, v in zip(c[2:], downs, divs):
            a, b = b, (ak * b - d * a) / v
            col.append(b)
        cols.append(col)
    out[2:] = np.reshape(np.transpose(cols), out[2:].shape)


def _columns(c, row):
    """c's rows at this row shape, as one list of Python floats over k per
    entry of a row."""
    rows = np.broadcast_to(c, (len(c),) + row)
    return rows.reshape(len(c), math.prod(row)).T.tolist()


def _scale_rows(c, factor):
    """c *= factor(rows), where factor(rows) builds the factor's rows."""
    if c.nbytes <= _SPLIT_BYTES:
        c *= factor(slice(None))
        return
    half = len(c) // 2
    for rows in (slice(None, half), slice(half, None)):
        c[rows] *= factor(rows)


def jacobi_p(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_n^{(alpha,beta)}(x) by three-term recurrence."""
    if n < 0:
        raise ValueError("degree must be a nonnegative integer")
    _validate_jacobi_params(alpha, beta)
    xa = np.asarray(x, dtype=float)
    p0 = np.ones_like(xa)
    if n == 0:
        return p0 if np.ndim(x) else 1.0
    p1 = _jacobi_p1(alpha, beta, xa)
    for k in range(2, n + 1):
        p0, p1 = p1, _jacobi_step(k, alpha, beta, xa, p0, p1)
    return p1 if np.ndim(x) else float(p1)


def jacobi_p_all(nmax: int, alpha, beta, x):
    """All of P_0^{(alpha,beta)}(x) .. P_nmax^{(alpha,beta)}(x) in one recurrence pass.

    alpha, beta and x broadcast against each other, so one pass runs the
    recurrence for many parameter pairs at once; the result has shape
    ``(nmax + 1,) + np.broadcast_shapes(np.shape(alpha), np.shape(beta),
    np.shape(x))``.  Each column is bit-for-bit ``jacobi_p(n, alpha, beta,
    x)`` at its own parameters: the same recurrence, run once.
    """
    return recurrence_table(jacobi_recurrence(nmax, alpha, beta, np.shape(x)), x)


def jacobi_recurrence(nmax: int, alpha, beta, shape=()) -> Recurrence:
    """The angle-free half of `jacobi_p_all` at an x of this shape.

    _jacobi_step's coefficients for every k at once, with its arithmetic:
    c1 = 2k (k + ab) (s - 2), c2 = (s - 1) (alpha^2 - beta^2),
    c3 = (s - 2) (s - 1) s, c4 = 2 (k + alpha - 1) (k + beta - 1) s, with
    ab = alpha + beta and s = 2k + ab; row 1 is _jacobi_p1's.  When alpha
    and beta vary along one axis, a factor that adds k to them has their
    full size, so a large one is built half the rows at a time
    (`_scale_rows`).
    """
    if nmax < 0:
        raise ValueError("degree must be a nonnegative integer")
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    _validate_jacobi_params(alpha, beta)
    ab = alpha + beta
    row = np.broadcast_shapes(alpha.shape, beta.shape, shape)
    ks = np.arange(2.0, nmax + 1.0).reshape((-1,) + (1,) * len(row))
    s = 2.0 * ks + ab
    s_minus_2 = s - 2.0
    lin = s_minus_2 * (s - 1.0)
    lin *= s                          # c3
    div = ks + ab
    div *= 2.0 * ks
    div *= s_minus_2                  # c1
    const = s - 1.0
    const *= alpha * alpha - beta * beta     # c2

    def beta_factor(rows):            # k + beta - 1
        f = ks[rows] + beta
        f -= 1.0
        return f

    c = np.add(ks, alpha, out=np.empty_like(s))
    c -= 1.0
    c *= 2.0
    _scale_rows(c, beta_factor)
    s *= c                            # c4
    return Recurrence(nmax, row, (ab + 2.0, alpha - beta, 2.0), lin, const, s, div)


def orthonormal_recurrence(nmax: int, alpha, beta, shape=()) -> Recurrence:
    """The angle-free half of a pass over the orthonormal Jacobi
    polynomials p_n = P_n^{(alpha,beta)} / sqrt(h_n), h_n their squared
    norms (DLMF 18.3), at an x of this shape.

    They satisfy x p_n = A_{n+1} p_{n+1} + B_n p_n + A_n p_{n-1}, the
    recurrence DLMF 18.9.1-2 rescaled by the norms, with ab = alpha + beta,
    s = 2n + ab and
    B_n = (beta - alpha) ab / (s (s + 2)),
    A_n = 2 / s sqrt(n (n + alpha) (n + beta) (n + ab) / ((s - 1) (s + 1))),
    where B_0 = (beta - alpha) / (ab + 2), which holds at ab = 0 too, and
    A_1 = 2 / (ab + 2) sqrt((alpha + 1) (beta + 1) / (ab + 3)) are taken
    with the common factors ab and n + ab cancelled.  So row 1 is
    (x - B_0) row0 / A_1 and a_k = x - B_{k-1}, down_k = A_{k-1} and
    div_k = A_k: down and div are two views of one array.  The caller's
    row 0 carries 1 / sqrt(h_0) and any factor common to the column, which
    every later row takes from it.
    """
    if nmax < 0:
        raise ValueError("degree must be a nonnegative integer")
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    _validate_jacobi_params(alpha, beta)
    ab = alpha + beta
    row = np.broadcast_shapes(alpha.shape, beta.shape, shape)
    ns = np.arange(1.0, nmax + 1.0).reshape((-1,) + (1,) * len(row))
    s = 2.0 * ns + ab                 # s_n, n = 1..nmax
    b = (beta - alpha) * ab / (s[:-1] * s[1:])                   # B_1 .. B_{nmax-1}
    n = ns[1:]
    a = n * (n + alpha) * (n + beta) * (n + ab) / ((s[1:] - 1.0) * (s[1:] + 1.0))
    a = 2.0 / s[1:] * np.sqrt(a)                                 # A_2 .. A_nmax
    a_one = 2.0 / (ab + 2.0) * np.sqrt((alpha + 1.0) * (beta + 1.0) / (ab + 3.0))
    a = np.concatenate([np.broadcast_to(a_one, a.shape[1:])[None], a])
    first = (None, (alpha - beta) / (ab + 2.0), a_one)           # const_1 = -B_0
    return Recurrence(nmax, row, first, None, -b, a[:-1], a[1:])


def jacobi_norm(n: int, alpha: float, beta: float) -> float:
    """Normalization N_n^{alpha,beta} making sqrt-weighted P_n unit norm."""
    if n < 0:
        raise ValueError("degree must be a nonnegative integer")
    _validate_jacobi_params(alpha, beta)
    return math.exp(0.5 * jacobi_norm_log(n, alpha, beta))


def jacobi_norm_log(n: int, alpha: float, beta: float) -> float:
    """log of (N_n^{alpha,beta})^2, safe for large parameters."""
    ab = alpha + beta
    # (2n+ab+1) Gamma(n+ab+1) = Gamma(n+ab+2) (2n+ab+1)/(n+ab+1); the second
    # form stays finite at n = 0 when ab + 1 -> 0.  At n = 0 with ab + 1 < 0
    # both ratio factors are negative, so absolute values are safe.
    _, lg_top = gamma_signed_log(n + ab + 2.0)
    return (math.log(abs(2.0 * n + ab + 1.0)) - math.log(abs(n + ab + 1.0)) + lg_top
            + math.lgamma(n + 1.0) - (ab + 1.0) * math.log(2.0)
            - math.lgamma(n + alpha + 1.0) - math.lgamma(n + beta + 1.0))


def _validate_gegenbauer(n, mu):
    if n < 0:
        raise ValueError("degree must be a nonnegative integer")
    if np.any(mu == 0.0):
        raise ZeroParameterError(
            "C_n^0 vanishes identically; use chebyshev_t with the Neumann factor")
    if np.any(mu <= -0.5):
        raise ValueError(f"Gegenbauer order must exceed -1/2, got {mu}")


def gegenbauer_c(n: int, mu: float, x):
    """Gegenbauer polynomial C_n^{mu}(x) by recurrence; mu > -1/2, mu != 0."""
    _validate_gegenbauer(n, mu)
    xa = np.asarray(x, dtype=float)
    c0 = np.ones_like(xa)
    if n == 0:
        return c0 if np.ndim(x) else 1.0
    c1 = 2.0 * mu * xa
    for k in range(2, n + 1):
        c0, c1 = c1, (2.0 * xa * (k + mu - 1.0) * c1 - (k + 2.0 * mu - 2.0) * c0) / k
    return c1 if np.ndim(x) else float(c1)


def gegenbauer_c_all(nmax: int, mu, x):
    """All of C_0^mu(x) .. C_nmax^mu(x) in one recurrence pass.

    mu and x broadcast against each other; the result has shape
    ``(nmax + 1,) + np.broadcast_shapes(np.shape(mu), np.shape(x))``.  Each
    column is bit-for-bit ``gegenbauer_c(n, mu, x)`` at its own order.
    """
    return recurrence_table(gegenbauer_recurrence(nmax, mu, np.shape(x)), x)


def gegenbauer_recurrence(nmax: int, mu, shape=()) -> Recurrence:
    """The angle-free half of `gegenbauer_c_all` at an x of this shape:
    C_1 = 2 mu x and C_k = (2 (k+mu-1) x C_{k-1} - (k+2mu-2) C_{k-2}) / k."""
    _validate_gegenbauer(nmax, mu)
    mu = np.asarray(mu, dtype=float)
    row = np.broadcast_shapes(mu.shape, shape)
    ks = np.arange(2.0, nmax + 1.0).reshape((-1,) + (1,) * len(row))
    return Recurrence(nmax, row, (2.0 * mu, None, 1.0), 2.0 * (ks + mu - 1.0), None,
                      ks + 2.0 * mu - 2.0, ks)


def reusable(rec: Recurrence) -> Recurrence:
    """rec in the form a cache keeps it: a narrow table's down and div as
    the lists that `_three_term` would otherwise build on every call."""
    if math.prod(rec.shape) > _NARROW:
        return rec
    return rec._replace(down=_columns(rec.down, rec.shape), div=_columns(rec.div, rec.shape))


def recurrence_table(rec: Recurrence, x, row0=1.0):
    """The per-angle half of a whole-column pass: row 0, row 1, the
    multipliers a_k in bulk, then `_three_term`.  The table has shape
    ``(nmax + 1,) + rec.shape``, which x and row0 (1 by default) must
    broadcast to; every later row is built from row 0, so a factor common
    to a column rides on its row 0."""
    xa = np.asarray(x, dtype=float)
    out = np.empty((rec.nmax + 1,) + rec.shape)
    out[0] = row0
    if rec.nmax >= 1:
        lin, const, div = rec.first
        row1 = out[1:2]
        _multipliers(lin, const, xa, row1)
        row1 *= out[0]
        row1 /= div
    _multipliers(rec.lin, rec.const, xa, out[2:])
    _three_term(out, rec.down, rec.div)
    return out


def _multipliers(lin, const, x, out):
    """out = lin x + const, a lin of None read as 1 and a const of None as 0."""
    if lin is None:
        np.copyto(out, x)
    else:
        np.multiply(lin, x, out=out)
    if const is not None:
        out += const


def chebyshev_t(n: int, x):
    """Chebyshev polynomial of the first kind T_n(x) by recurrence."""
    if n < 0:
        raise ValueError("degree must be a nonnegative integer")
    xa = np.asarray(x, dtype=float)
    t0 = np.ones_like(xa)
    if n == 0:
        return t0 if np.ndim(x) else 1.0
    t1 = xa.copy()
    for _ in range(2, n + 1):
        t0, t1 = t1, 2.0 * xa * t1 - t0
    return t1 if np.ndim(x) else float(t1)


@dataclass(frozen=True)
class ConnectionTable:
    """Coefficients expanding P_n^{(gamma,delta)} over the P_k^{(alpha,beta)}."""

    source: tuple[float, float]
    target: tuple[float, float]
    degree: int
    coefficients: tuple[float, ...]

    def reconstruct(self, x):
        alpha, beta = self.target
        return sum(c * jacobi_p(k, alpha, beta, x)
                   for k, c in enumerate(self.coefficients))


def connection_coeffs(n: int, gamma_: float, delta: float,
                      alpha: float, beta: float) -> ConnectionTable:
    """Two-free-parameter Jacobi connection coefficients c_{n,k}.

    Each c_{n,k} is a terminating 3F2 at unit argument; results are cached
    per parameter tuple because the same table is reused across expansion
    degrees.
    """
    if n < 0:
        raise ValueError("degree must be a nonnegative integer")
    _validate_jacobi_params(gamma_, delta)
    _validate_jacobi_params(alpha, beta)
    return _connection_table(n, gamma_, delta, alpha, beta)


@lru_cache(maxsize=None)
def _connection_table(n, gamma_, delta, alpha, beta):
    coeffs = []
    for k in range(n + 1):
        front = (pochhammer(gamma_ + k + 1.0, n - k)
                 * pochhammer(n + gamma_ + delta + 1.0, k)
                 * math.gamma(alpha + beta + k + 1.0)
                 / (math.factorial(n - k) * math.gamma(alpha + beta + 2.0 * k + 1.0)))
        f = hyp_3f2_unit(-(n - k), n + k + gamma_ + delta + 1.0, alpha + k + 1.0,
                         gamma_ + k + 1.0, alpha + beta + 2.0 * k + 2.0)
        coeffs.append(front * f)
    return ConnectionTable(source=(gamma_, delta), target=(alpha, beta),
                           degree=n, coefficients=tuple(coeffs))
