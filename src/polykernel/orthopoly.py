"""Jacobi, Gegenbauer and Chebyshev polynomials plus Jacobi machinery.

Evaluation goes through the standard three-term recurrences (O(n), stable on
[-1, 1] and for z > 1); the terminating hypergeometric definitions serve as
test oracles only.  All evaluators accept scalar or ndarray arguments.

The whole-column evaluators `jacobi_p_all` and `gegenbauer_c_all` run the
per-degree step of `jacobi_p` and `gegenbauer_c` once, on arrays that
broadcast, so each column is theirs bit for bit.

The orthonormal Jacobi pass that builds the node pair tables is two steps.
`orthonormal_recurrence` builds the angle-free half, a `Recurrence`: its
coefficients depend only on the degree and the parameters, so a caller that
meets the same parameters at many x (a cached fold plan) builds them once.
`recurrence_table` runs the half that depends on x from a given row 0: it
writes every multiplier a_k = (x - B_{k-1}) / A_k in bulk, and the kernel
`_three_term` fills each row by a_k row(k-1) - r_k row(k-2), with the
angle-free ratios r_k = A_{k-1} / A_k and no division.  The kernel runs a
table of at most `_NARROW` entries per row on Python floats, where numpy's
per-call overhead would set the cost, and a wider table in place, three
ufunc calls per degree on contiguous rows of one shape; both do the same
IEEE operations, so every column is the same bit for bit on either path.
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


# `_three_term` sizes the operand blocks of a wider table from this many bytes.
_SPLIT_BYTES = 1 << 20


class Recurrence(NamedTuple):
    """The angle-free half of an orthonormal Jacobi pass, for
    `recurrence_table` to run at an x that broadcasts to the row shape.

    Rows k = 1..nmax follow `_three_term` from the multipliers
    a_k = (x - b[k - 1]) / a[k - 1] and the ratios r_k = ratio[k - 1], b
    the array of B_0 .. B_{nmax-1}, a that of A_1 .. A_nmax and ratio that
    of r_1 = A_0 / A_1 = 0, r_k = A_{k-1} / A_k.  On a table of at most
    _NARROW entries per row, ratio is instead the lists that the narrow
    path reads, one per entry of a row.
    """

    nmax: int
    shape: tuple
    b: np.ndarray
    a: np.ndarray
    ratio: object


def _three_term(out, ratio):
    """Fill out[2:] by out[k] = a_k out[k-1] - r_k out[k-2].

    On entry out[0] and out[1] hold the first two terms and out[2:] the
    multipliers a_k, which `recurrence_table` writes there in bulk.  ratio
    holds r_k for rows k = 2..len(out) - 1, in the form that
    `orthonormal_recurrence` chose for the table's width: an array that
    broadcasts to out's rows, which the numpy path reads, or lists of
    Python floats, one per entry of a row, which the narrow path reads.
    Both paths do the same IEEE operations in the same order, so the table
    is the same bit for bit whichever path fills it.
    """
    nmax = len(out) - 1
    if nmax < 2:
        return
    if isinstance(ratio, np.ndarray):
        # Three in-place calls per degree, every operand a contiguous row of
        # the row's own shape: ratio is copied into a buffer a block of rows
        # at a time, and r_k out[k-2] is formed in r_k's own copy.  The
        # buffer takes at most _SPLIT_BYTES / 32 (32 KiB), or one row,
        # under the 128 KiB past which glibc maps an allocation afresh on
        # each call.
        rows = list(out)
        block = min(nmax - 1, max(1, _SPLIT_BYTES // (32 * out[0].nbytes)))
        ratios = np.empty((block,) + out.shape[1:])
        ratio_rows = list(ratios)
        for start in range(2, nmax + 1, block):
            stop = min(start + block, nmax + 1)
            np.copyto(ratios[:stop - start], ratio[start - 2:stop - 2])
            for k, r in zip(range(start, stop), ratio_rows):
                row = rows[k]
                np.multiply(row, rows[k - 1], row)
                np.multiply(r, rows[k - 2], r)
                np.subtract(row, r, row)
        return
    cols = []
    for c, ratios in zip(out.reshape(nmax + 1, -1).T.tolist(), ratio):
        a, b = c[0], c[1]
        col = []
        for ak, r in zip(c[2:], ratios):
            a, b = b, ak * b - r * a
            col.append(b)
        cols.append(col)
    out[2:] = np.reshape(np.transpose(cols), out[2:].shape)


def _step_table(nmax, p1, step):
    """Rows 1, p1 and step(k, row k-2, row k-1) for k = 2..nmax, at p1's
    shape: a per-degree recurrence run once on whole rows."""
    out = np.empty((nmax + 1,) + np.shape(p1))
    out[0] = 1.0
    out[1:2] = p1
    for k in range(2, nmax + 1):
        out[k] = step(k, out[k - 2], out[k - 1])
    return out


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
    if nmax < 0:
        raise ValueError("degree must be a nonnegative integer")
    alpha, beta, xa = (np.asarray(v, dtype=float) for v in (alpha, beta, x))
    _validate_jacobi_params(alpha, beta)
    return _step_table(nmax, _jacobi_p1(alpha, beta, xa),
                       lambda k, p0, p1: _jacobi_step(k, alpha, beta, xa, p0, p1))


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
    with the common factors ab and n + ab cancelled.  So row k >= 1 is
    a_k row(k-1) - r_k row(k-2) with the multiplier a_k = (x - B_{k-1}) /
    A_k and the ratio r_k = A_{k-1} / A_k, where r_1 = A_0 / A_1 = 0 meets
    a row -1 of zeros.  The caller's row 0 carries 1 / sqrt(h_0) and any
    factor common to the column, which every later row takes from it.

    B, A and the ratios are built in place on arrays of the shape of s,
    (nmax, 1, columns) at parameters of shape (columns,) and x of shape
    (2, columns), with one more temporary.  On a table of at most _NARROW
    entries per row, the ratios are built here, once, as the lists the
    narrow path reads.
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
    a, b, ratio = np.empty_like(s), np.empty_like(s), np.empty_like(s)
    # A_2 .. A_nmax, with b and ratio as working space
    n, an, tn, un, sn = ns[1:], a[1:], b[1:], ratio[1:], s[1:]
    np.add(n, alpha, out=an)
    an *= n
    np.add(n, beta, out=tn)
    an *= tn
    np.add(n, ab, out=tn)
    an *= tn
    np.subtract(sn, 1.0, out=tn)
    np.add(sn, 1.0, out=un)
    tn *= un
    an /= tn
    np.sqrt(an, out=an)
    np.divide(2.0, sn, out=tn)
    an *= tn
    a[:1] = 2.0 / (ab + 2.0) * np.sqrt((alpha + 1.0) * (beta + 1.0) / (ab + 3.0))
    # -(alpha - beta), -0.0 at alpha = beta: x - B_0 is then x + 0.0, so
    # row 1 at x = -0.0 reads 0.0, not -0.0
    b[:1] = -(alpha - beta) / (ab + 2.0)
    np.multiply(s[:-1], s[1:], out=tn)
    np.divide((beta - alpha) * ab, tn, out=tn)
    ratio[:1] = 0.0
    np.divide(a[:-1], a[1:], out=un)
    width = math.prod(row)
    if width > _NARROW:
        return Recurrence(nmax, row, b, a, ratio)
    ratio = np.broadcast_to(ratio, (nmax,) + row).reshape(nmax, width).T.tolist()
    return Recurrence(nmax, row, b, a, ratio)


def recurrence_table(rec: Recurrence, x, row0):
    """The per-angle half of an orthonormal Jacobi pass: the table of
    shape ``(nmax + 1,) + rec.shape``, which x and row0 must broadcast to.
    Every later row is built from row 0, so a factor common to a column
    rides on its row 0.  The pass fills a table with a row -1 of zeros in
    front, its multipliers a_k = (x - B_{k-1}) / A_k written by one
    `np.subtract` and one `np.divide`, and returns the view past that
    row."""
    out = np.empty((rec.nmax + 2,) + rec.shape)
    out[0] = 0.0
    out[1] = row0
    multipliers = out[2:]
    np.subtract(x, rec.b, out=multipliers)
    np.divide(multipliers, rec.a, out=multipliers)
    _three_term(out, rec.ratio)
    return out[1:]


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


def _gegenbauer_step(k, mu, x, c_prev, c):
    """C_k^mu(x) from c = C_{k-1} and c_prev = C_{k-2}, k >= 2."""
    return (2.0 * x * (k + mu - 1.0) * c - (k + 2.0 * mu - 2.0) * c_prev) / k


def gegenbauer_c(n: int, mu: float, x):
    """Gegenbauer polynomial C_n^{mu}(x) by recurrence; mu > -1/2, mu != 0."""
    _validate_gegenbauer(n, mu)
    xa = np.asarray(x, dtype=float)
    c0 = np.ones_like(xa)
    if n == 0:
        return c0 if np.ndim(x) else 1.0
    c1 = 2.0 * mu * xa
    for k in range(2, n + 1):
        c0, c1 = c1, _gegenbauer_step(k, mu, xa, c0, c1)
    return c1 if np.ndim(x) else float(c1)


def gegenbauer_c_all(nmax: int, mu, x):
    """All of C_0^mu(x) .. C_nmax^mu(x) in one recurrence pass.

    mu and x broadcast against each other; the result has shape
    ``(nmax + 1,) + np.broadcast_shapes(np.shape(mu), np.shape(x))``.  Each
    column is bit-for-bit ``gegenbauer_c(n, mu, x)`` at its own order.
    """
    mu, xa = (np.asarray(v, dtype=float) for v in (mu, x))
    _validate_gegenbauer(nmax, mu)
    return _step_table(nmax, 2.0 * mu * xa,
                       lambda k, c0, c1: _gegenbauer_step(k, mu, xa, c0, c1))


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
