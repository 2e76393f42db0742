"""Jacobi, Gegenbauer and Chebyshev polynomials plus Jacobi machinery.

Evaluation goes through the standard three-term recurrences (O(n), stable on
[-1, 1] and for z > 1); the terminating hypergeometric definitions serve as
test oracles only.  All evaluators accept scalar or ndarray arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    _validate_jacobi_params(alpha, beta)
    xa = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + np.broadcast_shapes(alpha.shape, beta.shape, xa.shape))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = _jacobi_p1(alpha, beta, xa)
    for k in range(2, nmax + 1):
        out[k] = _jacobi_step(k, alpha, beta, xa, out[k - 2], out[k - 1])
    return out


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
    ``(nmax + 1,) + np.broadcast_shapes(np.shape(mu), np.shape(x))``.
    """
    _validate_gegenbauer(nmax, mu)
    mu = np.asarray(mu, dtype=float)
    xa = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + np.broadcast_shapes(mu.shape, xa.shape), dtype=float)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 2.0 * mu * xa
    # C_k = (2x (k+mu-1) C_{k-1} - (k+2mu-2) C_{k-2}) / k, coefficients for every k at once
    ks = np.arange(nmax + 1.0).reshape((-1,) + (1,) * mu.ndim)
    up, down = ks + mu - 1.0, ks + 2.0 * mu - 2.0
    x2 = 2.0 * xa
    for k in range(2, nmax + 1):
        out[k] = (x2 * up[k] * out[k - 1] - down[k] * out[k - 2]) / k
    return out


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
