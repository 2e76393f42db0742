"""Scalar special functions: gamma, hypergeometric series, Legendre and
Ferrers functions, and the Jacobi function of the second kind.

All functions work in real double precision.  Legendre functions of the
second kind are returned phase-free: Qhat_nu^mu(z) := e^{-i pi mu} Q_nu^mu(z),
which is real for z > 1.  Every expansion elsewhere in the package is stated
in terms of Qhat, with the originating phase factors cancelled analytically.
"""

from __future__ import annotations

import marshal
import math
import threading
from collections import OrderedDict, namedtuple

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    NonTerminatingError,
    ParameterPoleError,
    PoleError,
    SlowConvergenceError,
)

_MAX_TERMS = 100_000
_STOP_REL = 1e-16
_NEAR_ONE_GUARD = 1e-6
_LOG_1E100 = 100.0 * math.log(10.0)
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _nonpositive_int(x, tol=1e-12):
    """Return the integer n <= 0 with x ~= n, or None."""
    if x > 0.5:
        return None
    n = round(x)
    if n <= 0 and abs(x - n) <= tol * max(1.0, abs(x)):
        return int(n)
    return None


def _is_int(x, tol=1e-12):
    return abs(x - round(x)) <= tol * max(1.0, abs(x))


def gamma(x: float) -> float:
    """Gamma function on the real line, poles excluded."""
    if _nonpositive_int(x) is not None:
        raise PoleError(f"gamma pole at x = {x}")
    return math.gamma(x)  # raises OverflowError past ~171.6


def gamma_signed_log(x: float) -> tuple[float, float]:
    """(sign, log|Gamma(x)|); usable where Gamma itself would overflow."""
    if _nonpositive_int(x) is not None:
        raise PoleError(f"gamma pole at x = {x}")
    sign = 1.0
    if x < 0.0:
        # Gamma alternates sign between consecutive negative integers:
        # negative on (-1, 0), positive on (-2, -1), ...
        sign = -1.0 if math.floor(x) % 2 != 0 else 1.0
    try:
        return sign, math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log Gamma({x}) leaves double range") from None


def pochhammer(z: float, n: int) -> float:
    """Rising factorial (z)_n = z (z+1) ... (z+n-1), with (z)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer order must be a nonnegative integer")
    out = 1.0
    for i in range(n):
        out *= z + i
    return out


def _hyp2f1_series(a, b, c, x, max_terms=_MAX_TERMS):
    """Sum the Gauss series with Kahan compensation and dynamic rescaling.

    Returns (mantissa, log_scale, terms) with value = mantissa * exp(log_scale).
    Rescaling keeps partial sums representable when the value itself would
    overflow a double (large-degree Legendre/Jacobi prefactors cancel it).

    Invariant: each term does the same IEEE operations in the same order as
    the reference loop in tests/oracle_sums.py, and the stop rule, the term
    cap and the rescale act on the same terms, so the result and any error
    are the reference's bit for bit.  The convergent loop counts n in a
    float (a + n is exact below 2^53).
    """
    stops = [-n for n in (_nonpositive_int(a), _nonpositive_int(b)) if n is not None]
    n_stop = min(stops) if stops else None
    nc = _nonpositive_int(c)
    if nc is not None and (n_stop is None or n_stop > -nc):
        raise ParameterPoleError(
            f"2F1 lower parameter c = {c} is a non-positive integer")
    if n_stop is None and abs(x) >= 1.0:
        raise ConvergenceError(
            f"2F1 series diverges for |x| = {abs(x)} >= 1 without termination")

    s, comp, t, log_scale = 1.0, 0.0, 1.0, 0.0
    if n_stop is not None:
        for n in range(n_stop):
            t *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
            y = t - comp
            tmp = s + y
            comp = (tmp - s) - y
            s = tmp
            if abs(s) > 1e250 or abs(t) > 1e250:
                s, comp, t = s * 1e-100, comp * 1e-100, t * 1e-100
                log_scale += _LOG_1E100
        return s, log_scale, n_stop
    stop, cap = _STOP_REL, float(max_terms)
    small_run = 0
    n = 0.0
    while True:
        n1 = n + 1.0
        t *= (a + n) * (b + n) / ((c + n) * n1) * x
        n = n1
        y = t - comp
        tmp = s + y
        comp = (tmp - s) - y
        s = tmp
        abs_t = abs(t)
        abs_s = abs(s)
        if abs_t < stop * abs_s:
            small_run += 1
            if small_run == 3:
                return s, log_scale, int(n)
        else:
            small_run = 0
        if n >= cap:
            raise ConvergenceError(f"2F1 did not converge within {max_terms} terms")
        if abs_s > 1e250 or abs_t > 1e250:
            s, comp, t = s * 1e-100, comp * 1e-100, t * 1e-100
            log_scale += _LOG_1E100


def gauss_2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; x) for real parameters.

    Terminates exactly when a or b is a non-positive integer; otherwise
    requires |x| < 1.
    """
    s, log_scale, _ = _hyp2f1_series(a, b, c, x)
    if log_scale == 0.0:
        return s
    return _signed_exp(*_signed_log(1.0, log_scale, s))


def hyp_3f2_unit(a1: float, a2: float, a3: float, b1: float, b2: float) -> float:
    """Terminating 3F2(a1, a2, a3; b1, b2; 1).

    One of the upper parameters must be a non-positive integer; the exact
    finite sum is returned.
    """
    stops = [-n for n in map(_nonpositive_int, (a1, a2, a3)) if n is not None]
    if not stops:
        raise NonTerminatingError(
            "3F2 at unit argument needs a non-positive-integer upper parameter")
    n_stop = min(stops)
    for b in (b1, b2):
        nb = _nonpositive_int(b)
        if nb is not None and -nb < n_stop:
            raise ParameterPoleError(
                f"3F2 lower parameter {b} hits a pole before termination")
    s = 1.0
    comp = 0.0
    t = 1.0
    for n in range(n_stop):
        t *= (a1 + n) * (a2 + n) * (a3 + n) / ((b1 + n) * (b2 + n) * (n + 1.0))
        y = t - comp
        tmp = s + y
        comp = (tmp - s) - y
        s = tmp
    return s


def _signed_log(sign, log_scale, mantissa):
    """(sign, log|value|) of value = sign * mantissa * e^{log_scale}, and
    (0.0, -inf) for a mantissa of 0."""
    if mantissa == 0.0:
        return 0.0, -math.inf
    return sign * math.copysign(1.0, mantissa), log_scale + math.log(abs(mantissa))


def _signed_exp(sign, log_value):
    """The double sign * e^{log_value}: OverflowError past double range, and
    0 (math.exp underflows to it) far below it."""
    if log_value > 709.0:
        raise OverflowError("value exceeds double range")
    return sign * math.exp(log_value)


def _exp_sum(a, b, b_low=0.0, exp=math.exp):
    """e^{a + b + b_low}, for floats or (exp=np.exp) arrays b, b_low, with the
    rounding of a + b (half an ulp of it in e^{fl(a + b)}) corrected."""
    s = a + b
    b_part = s - a
    low = (a - (s - b_part)) + (b - b_part) + b_low
    e = exp(s)
    return e + e * low


def _column_values(column, log_scale=0.0):
    """sign e^{log_scale + log + low} over a (signs, logs, lows) column; inf past range."""
    signs, logs, lows = column
    with np.errstate(over="ignore", invalid="ignore"):
        return signs * _exp_sum(log_scale, logs, lows, np.exp)


def log_z2m1_power(z: float, p: float) -> float:
    """p log(z^2 - 1), the log of (z^2 - 1)^p, at z > 1.  Where z * z
    overflows, z^2 - 1 is z^2 to the last bit, so it is p (2 log z)."""
    zz = z * z
    if zz < math.inf:
        return p * math.log(zz - 1.0)
    return p * (2.0 * math.log(z))


def legendre_q_hat(nu: float, mu: float, z: float) -> float:
    """Phase-free associated Legendre function of the second kind, z > 1:
    `legendre_q_hat_signed_log` taken out of log space."""
    return _signed_exp(*legendre_q_hat_signed_log(nu, mu, z))


def legendre_q_hat_signed_log(nu: float, mu: float, z: float) -> tuple[float, float]:
    """(sign, log|Qhat_nu^mu(z)|), z > 1; overflow-free at large degree.

    Uses the hypergeometric series in 1/z^2.  It converges for every z > 1
    in exact arithmetic, but its terms shrink only like z^{-2n}, so it needs
    on the order of 20 / (z - 1) terms: above z - 1 of about 2e-4 it ends
    within the 100 000-term budget, below that it raises `ConvergenceError`
    for some (nu, mu), and below z - 1 = 1e-6 it raises `SlowConvergenceError`
    without trying.  Degrees nu in {-3/2, -5/2, ...} raise `PoleError`: there
    both that series and the 2/(1-z) one have gamma poles (2nu+2 is a
    negative odd integer).
    """
    if z <= 1.0:
        raise DomainError(f"legendre_q_hat requires z > 1, got {z}")
    if z - 1.0 < _NEAR_ONE_GUARD:
        raise SlowConvergenceError(
            f"z - 1 = {z - 1.0:.3e} below the {_NEAR_ONE_GUARD} guard")
    if _nonpositive_int(nu + mu + 1.0) is not None:
        raise PoleError(f"Q pole: nu + mu = {nu + mu} is a negative integer")
    if _is_int(nu + 0.5) and nu < -1.0:
        raise PoleError(
            f"Q representation degenerates at degree nu = {nu}: both the"
            " 1/z^2 and the 2/(1-z) hypergeometric forms have gamma poles")
    sign_t, log_t = gamma_signed_log(nu + mu + 1.0)
    sign_b, log_b = gamma_signed_log(nu + 1.5)
    log_pref = (0.5 * math.log(math.pi) + log_t - log_b
                + log_z2m1_power(z, 0.5 * mu)
                - (nu + 1.0) * math.log(2.0)
                - (nu + mu + 1.0) * math.log(z))
    f, log_scale, _ = _hyp2f1_series(0.5 * (nu + mu + 1.0),
                                     0.5 * (nu + mu + 2.0),
                                     nu + 1.5, 1.0 / (z * z))
    return _signed_log(sign_t * sign_b, log_pref + log_scale, f)


def _minimal_ratios(coeffs, k0: int, n: int, z: float) -> np.ndarray:
    """[y_{k0}/y_{k0-1}, ..., y_{k0+n-1}/y_{k0+n-2}] for the minimal solution y
    of a_k y_{k+1} = b_k y_k - c_k y_{k-1}.

    ``coeffs(k)`` returns the arrays (a_k, b_k, c_k) for an integer array k.
    The ratios come from the continued fraction r_k = c_k / (b_k - a_k r_{k+1}),
    started at r = 0 (Miller's algorithm) far enough above the top that the
    start no longer shows: for the second-kind Legendre and Jacobi functions
    at z > 1 the dominant share of the ratio shrinks by e^{-2 acosh z} per
    degree, so the extra degrees take it below 1e-17.
    """
    if n < 1:
        return np.empty(0)
    top = k0 + n + 8 + int(20.0 / math.acosh(z))
    # |b_k| grows with z and with the distance of the degree from the origin,
    # so at the ends of the run it is largest; past double range the
    # continued fraction would divide by inf
    if not (math.isfinite(coeffs(k0)[1]) and math.isfinite(coeffs(top)[1])):
        raise DomainError(f"z = {z}: the degree recurrence's coefficients leave double range")
    k = np.arange(top, k0 - 1, -1)
    a, b, c = coeffs(k)
    out = []
    r = 0.0
    for ai, bi, ci in zip(a.tolist(), b.tolist(), c.tolist()):
        r = ci / (bi - ai * r)
        out.append(r)
    out.reverse()
    return np.array(out[:n])


def _degree_column(coeffs, seed, z, n, below):
    """(signs, logs, lows): the minimal solution y of the recurrence
    ``coeffs`` (see `_minimal_ratios`) at indices 0 .. n - 1, as sign and
    log|y| = logs + lows, scaled by the (sign, log) pair ``seed()`` at index
    0 or ``below`` at index -1.  The logs are a Kahan-compensated running sum
    of log|ratio| (a plain one's rounding grows with the degree), the lows
    each entry's compensation; the column neither overflows nor underflows."""
    if n < 1:
        raise ValueError(f"column length must be positive, got {n}")
    if below is None:
        below = seed()
        ratios = np.concatenate(([1.0], _minimal_ratios(coeffs, 1, n - 1, z)))
    else:
        ratios = _minimal_ratios(coeffs, 0, n, z)
    logs = np.log(np.abs(ratios)).tolist()
    lows = [0.0] * n
    total, comp = below[1], 0.0
    for k, step in enumerate(logs):
        y = step - comp
        t = total + y
        comp = (t - total) - y if math.isfinite(t) else 0.0
        total = logs[k] = t
        lows[k] = -comp
    return below[0] * np.cumprod(np.sign(ratios)), np.array(logs), np.array(lows)


def legendre_q_hat_column(nu0: float, mu: float, z: float, n: int,
                          below: tuple[float, float] | None = None
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(signs, logs, lows): the sign of Qhat_nu^mu(z) and log|Qhat_nu^mu(z)|
    = logs + lows for nu = nu0, ..., nu0+n-1, from one downward recurrence.

    The recurrence is (nu+mu) Q_{nu-1} = (2nu+1) z Q_nu - (nu-mu+1) Q_{nu+1}
    (DLMF 14.10; Qhat obeys it too, since the stripped phase e^{-i pi mu}
    does not depend on the degree).  For z > 1, Q is the minimal solution as
    nu -> infinity and P the dominant one, so run downward the P component
    of any error decays relative to Q by e^{-2 acosh z} per degree, and the
    recurrence is stable (Gil, Segura & Temme, J. Comput. Phys. 161, 2000).
    The ratios Q_nu/Q_{nu-1} come from `_minimal_ratios` and the column from
    `_degree_column`, as `jacobi_q2_column`'s do.  One
    `legendre_q_hat_signed_log` value at the bottom degree, where a degree
    sum's terms are largest, fixes the scale (the series loses accuracy with
    the degree: 8e-13 at degree 1000, z = 1.25); given ``below``, the (sign,
    log) pair at nu0 - 1, the column continues it and makes no series call.

    Raises the typed error `legendre_q_hat` raises for any degree of the
    column: Q poles (nu + mu + 1 in {0, -1, ...}) and the degenerate degrees
    {-3/2, -5/2, ...} stay bad one degree down, so the bottom one is bad if
    any is (a continued column is not checked again).
    """
    def coeffs(k):
        nu = nu0 + k
        return nu - mu + 1.0, (2.0 * nu + 1.0) * z, nu + mu

    return _degree_column(coeffs, lambda: legendre_q_hat_signed_log(nu0, mu, z), z, n, below)


def legendre_p_gt1(nu: float, mu: float, z: float) -> float:
    """Associated Legendre function of the first kind for real z > 1."""
    if z <= 1.0:
        raise DomainError(f"legendre_p_gt1 requires z > 1, got {z}")
    nu_int = _is_int(nu) and nu >= 0
    mu_int = _is_int(mu)
    if nu_int and mu_int and mu >= 0:
        return _legendre_p_recurrence(int(round(nu)), int(round(mu)), z)
    if mu_int and mu < 0:
        # Order -n: the defining series has no gamma pole and, for integer
        # degree, terminates, so it is valid for every z > 1.
        n = int(round(-mu))
        pref = ((z - 1.0) / (z + 1.0)) ** (0.5 * n) / math.gamma(n + 1.0)
        return pref * gauss_2f1(-nu, nu + 1.0, 1.0 + n, 0.5 * (1.0 - z))
    if _nonpositive_int(1.0 - mu) is not None:
        raise ParameterPoleError(
            f"legendre_p_gt1 pole: 1 - mu = {1.0 - mu} is a non-positive"
            " integer and the series does not terminate")
    pref = ((z + 1.0) / (z - 1.0)) ** (0.5 * mu) / math.gamma(1.0 - mu)
    return pref * gauss_2f1(-nu, nu + 1.0, 1.0 - mu, 0.5 * (1.0 - z))


def _legendre_p_recurrence(l, m, z):
    # P_m^m = (2m-1)!! (z^2-1)^{m/2}, then upward in degree (stable: P grows).
    if m > l:
        return 0.0
    pmm = 1.0
    for k in range(1, m + 1):
        pmm *= (2 * k - 1) * math.sqrt(z * z - 1.0)
    if l == m:
        return pmm
    prev, cur = pmm, z * (2 * m + 1) * pmm
    for ll in range(m + 2, l + 1):
        prev, cur = cur, ((2 * ll - 1) * z * cur - (ll + m - 1) * prev) / (ll - m)
    return cur


def ferrers_p(l: int, m: int, x) -> float:
    """Ferrers function of the first kind for integer degree and order.

    Accepts scalar or ndarray x on [-1, 1]; includes the (-1)^m
    Condon-Shortley factor of the on-the-cut definition.
    """
    if l < 0 or abs(m) > l:
        raise ValueError(f"ferrers_p needs 0 <= |m| <= l, got l={l}, m={m}")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0) or (m != 0 and np.any(np.abs(xa) >= 1.0)):
        raise DomainError("ferrers_p requires x in (-1, 1) (closed for m = 0)")
    if m < 0:
        n = -m
        scale = (-1.0) ** n * math.factorial(l - n) / math.factorial(l + n)
        return scale * ferrers_p(l, n, x)
    pmm = np.ones_like(xa)
    if m > 0:
        s = np.sqrt(1.0 - xa * xa)
        for k in range(1, m + 1):
            pmm = pmm * (-(2 * k - 1)) * s
    out = pmm
    if l > m:
        prev, out = pmm, xa * (2 * m + 1) * pmm
        for ll in range(m + 2, l + 1):
            prev, out = out, ((2 * ll - 1) * xa * out - (ll + m - 1) * prev) / (ll - m)
    return out if np.ndim(x) else float(out)


def jacobi_q2_signed_log(gamma_deg: float, alpha: float, beta: float,
                         z: float) -> tuple[float, float]:
    """(sign, log|Q_gamma^{(alpha,beta)}(z)|); overflow-free at large degree.

    Sums the Gauss series in 2/(1+z).  It converges for every z > 1 in exact
    arithmetic, but its terms shrink only like (2/(1+z))^n, about
    e^{-n (z-1)/2}, so it needs on the order of 50 / (z - 1) terms: above
    z - 1 of about 6e-4 it ends within the 100 000-term budget, below that
    it raises `ConvergenceError` for some (gamma, alpha, beta), and below
    z - 1 = 1e-6 it raises `SlowConvergenceError` without trying.
    """
    if z <= 1.0:
        raise DomainError(f"jacobi_q2 requires z > 1, got {z}")
    if z - 1.0 < _NEAR_ONE_GUARD:
        raise SlowConvergenceError(
            f"z - 1 = {z - 1.0:.3e} below the {_NEAR_ONE_GUARD} guard")
    for name, val in (("alpha+gamma", alpha + gamma_deg),
                      ("beta+gamma", beta + gamma_deg)):
        if _nonpositive_int(val + 1.0) is not None:
            raise PoleError(f"jacobi_q2 pole: {name} = {val} is a negative integer")
    c = alpha + beta + 2.0 * gamma_deg + 2.0
    if _nonpositive_int(c) is not None:
        raise PoleError(f"jacobi_q2 pole: alpha+beta+2gamma+2 = {c}")
    sign1, log1 = gamma_signed_log(alpha + gamma_deg + 1.0)
    sign2, log2 = gamma_signed_log(beta + gamma_deg + 1.0)
    sign3, log3 = gamma_signed_log(c)
    log_pref = ((alpha + beta + gamma_deg) * math.log(2.0) + log1 + log2 - log3
                - alpha * math.log(z - 1.0)
                - (beta + gamma_deg + 1.0) * math.log(z + 1.0))
    f, log_scale, _ = _hyp2f1_series(gamma_deg + 1.0, beta + gamma_deg + 1.0,
                                     c, 2.0 / (1.0 + z))
    return _signed_log(sign1 * sign2 * sign3, log_pref + log_scale, f)


def jacobi_q2_column(gamma0: float, alpha: float, beta: float, z: float, n: int,
                     below: tuple[float, float] | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(signs, logs, lows): the sign of Q_gamma^{(alpha,beta)}(z) and its log
    logs + lows for gamma = gamma0, ..., gamma0+n-1.

    The Jacobi function of the second kind obeys the degree recurrence of
    P_n^{(alpha,beta)} (DLMF 18.9.1; Szego 4.62) with n -> gamma,
      2(g+1)(g+s+1)(2g+s) Q_{g+1} = (2g+s+1)((2g+s+2)(2g+s) z + alpha^2 - beta^2) Q_g
                                    - 2(g+alpha)(g+beta)(2g+s+2) Q_{g-1},  s = alpha+beta,
    and is its minimal solution for z > 1, so the column is built as
    `legendre_q_hat_column` is: `_minimal_ratios` and `_degree_column`, one
    `jacobi_q2_signed_log` value at the bottom degree, or given ``below``
    the (sign, log) pair at gamma0 - 1 and no series call.

    Raises the typed error `jacobi_q2_signed_log` raises for any degree of
    the column: every pole set (alpha+gamma or beta+gamma a negative integer,
    alpha+beta+2gamma+2 a non-positive one) stays a pole one degree down.
    """
    s = alpha + beta
    ab = alpha * alpha - beta * beta

    def coeffs(k):
        g = gamma0 + k
        g2 = 2.0 * g + s
        return (2.0 * (g + 1.0) * (g + s + 1.0) * g2,
                (g2 + 1.0) * ((g2 + 2.0) * g2 * z + ab),
                2.0 * (g + alpha) * (g + beta) * (g2 + 2.0))

    return _degree_column(coeffs, lambda: jacobi_q2_signed_log(gamma0, alpha, beta, z), z, n,
                          below)


class BoundedCache:
    """A cross-call cache of at most ``size`` values and ``budget`` units of
    weight in all, least recently used evicted first.  On a miss, ``get(key,
    build, *args)`` returns the value of ``build(*args)``, which gives
    ``(value, weight)``, and keeps it if that weight alone fits the budget.
    Errors are not kept; one lock guards the state.  ``cache_info()`` and
    ``cache_clear()`` are `functools.lru_cache`'s."""

    def __init__(self, size: int, budget: int):
        self.size, self.budget, self.weight = size, budget, 0
        self._held = OrderedDict()      # key -> (value, weight), oldest first
        self._hits = self._misses = 0
        self._lock = threading.Lock()

    def get(self, key, build, *args):
        with self._lock:
            held = self._held.get(key)
            if held is not None:
                self._held.move_to_end(key)
                self._hits += 1
                return held[0]
            self._misses += 1
        value, weight = build(*args)
        if weight <= self.budget:
            with self._lock:
                if key not in self._held:       # another thread may have kept it
                    self._held[key] = value, weight
                    self.weight += weight
                    while len(self._held) > self.size or self.weight > self.budget:
                        self.weight -= self._held.popitem(last=False)[1][1]
        return value

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self._hits, self._misses, self.size, len(self._held))

    def cache_clear(self):
        with self._lock:
            self._held.clear()
            self._hits = self._misses = self.weight = 0


# Second-kind factors kept across calls, for a caller that tabulates a kernel
# over its evaluation point at fixed (nu, mu, z): at least the degrees one
# multipole sum reads one value at a time, in 512 KiB of floats.
SECOND_KIND_SIZE = 256
SECOND_KIND_FLOATS = 1 << 16
_second_kind = BoundedCache(SECOND_KIND_SIZE, SECOND_KIND_FLOATS)


def second_kind(build, args, floats=1):
    """``build(*args)``, a second-kind factor of ``floats`` floats (a Qhat
    value, or a Legendre or Jacobi Q column), read through a `BoundedCache`
    with the SECOND_KIND_* bounds, weighed by its floats and keyed on
    ``build`` and marshal's version 2 form of the arguments as given, which
    keeps apart 1 and 1.0, 0.0 and -0.0 (arguments marshal cannot write are
    not kept).  Its arrays are read-only: a hit is the object a miss built."""
    try:
        key = build, marshal.dumps(args, 2)
    except ValueError:
        return _read_only(build, args, floats)[0]
    return _second_kind.get(key, _read_only, build, args, floats)


def _read_only(build, args, floats):
    out = build(*args)
    for part in out if type(out) is tuple else (out,):
        if type(part) is np.ndarray:
            part.flags.writeable = False
    return out, floats


def jacobi_q2(gamma_deg: float, alpha: float, beta: float, z: float) -> float:
    """Jacobi function of the second kind Q_gamma^{(alpha,beta)}(z), z > 1.

    Evaluated through the Pfaff-transformed Gauss series in 2/(1+z), which
    converges for every z > 1 (the classical 2/(1-z) series only converges
    for z > 3 and serves as a far-field cross-check in the test suite).
    """
    return _signed_exp(*jacobi_q2_signed_log(gamma_deg, alpha, beta, z))
