"""Series expansions of the power-law kernels.

Covers the finite and infinite Fourier cosine series of (z - x)^{+-p}, the
Jacobi / Gegenbauer / Chebyshev expansions of the Euler kernel (z - x)^{-nu},
and the multipole and azimuthal expansions of ||x - x'||^nu.  Each infinite
series checks its input, forms its prefactor and hands a lazy sequence of
terms to one driver, `_degree_sum`: compensated summation in ascending
degree, stopping once three consecutive terms drop below tol * |partial sum|
or the sequence ends (a terminating Jacobi series).  Two mode series are
written once each, as in the paper's derivations: `_cosine_series` is the
Chebyshev series, at nu = q the Fourier cosine series of (z - x)^{-q}, and
composed with the toroidal factorization the azimuthal one;
`_gegenbauer_series`, which steps C_n^mu(x) with orthopoly's one Gegenbauer
recurrence step, is the Gegenbauer series, and composed with
(2rr')^{nu/2} (z - cos gamma)^{nu/2} the multipole one.

The Chebyshev, Gegenbauer and azimuthal series read their Legendre-Q factors,
and the Jacobi series its Jacobi-Q factors, from degree columns
(`legendre_q_hat_column`, `jacobi_q2_column`) built in chunks as the sum runs:
one series value at the bottom degree, then the minimal-solution recurrence.
The multipole series reads `legendre_q_hat` one degree at a time: on the
column its near-field calls are far cheaper, so the benchmark would run many
more of them, and the worker's record of each operation would push its peak
memory past the benchmark's bound.  The bases (C_n^mu, P_n^{(alpha,beta)},
cos n theta) stay scalar recurrences in the term loop, since a numpy
column's fixed setup costs more than the few dozen terms most sums take.

Every Q factor is read through `specfun.second_kind`, a cache kept across
calls, since these factors depend on (nu, mu, z) and not on the evaluation
point x, cos gamma or the azimuth: a caller that tabulates a kernel over
that point at fixed parameters sums each seed series once.  The cache is
keyed on the function and every argument as given, the continuation value
``below`` included, so a hit holds the very floats a miss computes and every
value, ``terms_used`` and trace row is the one a cold cache gives.

All Legendre-Q factors appear in their phase-free real form Qhat; the
complex unit prefactors these expansions normally carry cancel exactly
against the phase stripped from Q (checked analytically once per formula,
asserted by the oracle tests).
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
from .specfun import (
    _is_int,
    _nonpositive_int,
    gamma_signed_log,
    jacobi_q2_column,
    legendre_q_hat,
    legendre_q_hat_column,
    second_kind,
    z2m1_power,
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


def _degree_sum(terms, tr: Truncation, trace) -> PartialSum:
    """Sum a series' terms in ascending degree with compensated summation.

    Stops once three consecutive terms fall below tol * |partial sum| (or
    are 0 while it is not), or
    when ``terms`` ends (a terminating series); raises ConvergenceError when
    max_terms terms pass without the stop.  ``trace``, when a list, gets one
    row (0, n, term, partial sum) per term.
    """
    s = c = last = 0.0
    n = small_run = 0
    for term in islice(terms, tr.max_terms):
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        last = abs(term)
        if trace is not None:
            trace.append((0, n, term, s))
        n += 1
        # tol * |s| underflows to 0 where s is subnormal, so a term of 0
        # counts as small on its own once the sum is nonzero
        small_run = small_run + 1 if last < tr.tol * abs(s) or (last == 0.0 and s != 0.0) else 0
        if small_run >= 3:
            break
    else:
        if n >= tr.max_terms:
            raise ConvergenceError(
                f"series not converged after {n} terms"
                f" (last |term| = {last:.3e}, partial = {s:.6e})")
    return PartialSum(value=s, terms_used=n, last_term_magnitude=last, converged=True)


def _degree_column(column, z, limit):
    """Yield the entries n = 0, 1, ..., limit - 1 of a second-kind degree
    column at argument z, built in chunks as the caller consumes them.

    ``column(n0, length, below)`` returns the entries n0 .. n0+length-1, and
    ``below`` is entry n0 - 1 (None for the first chunk).  The first chunk
    covers the degrees a sum to about 1e-14 takes, since the terms fall
    like e^{-n acosh z}; each later chunk is twice as long as the one
    before and continues from its last entry, so a whole sum pays for one
    series value at the bottom degree.
    """
    n0, length, below = 0, 16 + int(32.0 / math.acosh(z)), None
    while n0 < limit:
        length = min(length, limit - n0)
        chunk = column(n0, length, below)
        yield from chunk
        below = chunk[-1]
        n0 += length
        length *= 2


def _q_hat_terms(nu0, mu, z, limit):
    """Qhat_{nu0+n}^mu(z) for n = 0 .. limit - 1, chunk by chunk."""
    return _degree_column(
        lambda n0, length, below: second_kind(
            legendre_q_hat_column, (nu0 + n0, mu, z, length, below), length).tolist(), z, limit)


def _jacobi_q_terms(gamma0, alpha, beta, z, limit):
    """(sign, log|Q_{gamma0+n}^{(alpha,beta)}(z)|) for n = 0 .. limit - 1,
    chunk by chunk."""
    def column(n0, length, below):
        signs, logs = second_kind(jacobi_q2_column, (gamma0 + n0, alpha, beta, z, length, below),
                                  2 * length)
        return list(zip(signs.tolist(), logs.tolist()))
    return _degree_column(column, z, limit)


def _cosine_series(pref, angle, mu, z, tr, trace):
    """pref sum_n eps_n cos(n angle) Qhat_{n-1/2}^mu(z), eps_0 = 1 and
    eps_n = 2 after: the Chebyshev series at angle = acos x."""
    qhats = _q_hat_terms(-0.5, mu, z, tr.max_terms)
    return _degree_sum((pref * (2.0 if n else 1.0) * math.cos(n * angle) * qhat
                        for n, qhat in enumerate(qhats)), tr, trace)


def _gegenbauer_series(pref, scale, mu, x, qhats, tr, trace):
    """pref sum_n scale (n + mu) Qhat_n C_n^mu(x) over the values qhats,
    with C_n^mu(x) by its three-term recurrence.  scale is exact (1 or 2),
    so it rides on the coefficient, where 2 pref alone could overflow."""
    def terms():
        c_prev, c_cur = 0.0, 1.0
        for n, qhat in enumerate(qhats):
            if n == 1:
                c_prev, c_cur = c_cur, 2.0 * mu * x
            elif n >= 2:
                c_prev, c_cur = c_cur, _gegenbauer_step(n, mu, x, c_prev, c_cur)
            yield pref * (scale * (n + mu)) * qhat * c_cur
    return _degree_sum(terms(), tr, trace)


def _gamma(x, **param):
    """math.gamma(x) for a prefactor, x a function of the one parameter in
    param, which DomainError names where Gamma leaves double range: a
    prefactor that divides by a Gamma of 0 would divide by zero."""
    return in_range(lambda: math.gamma(x), f"Gamma({x}) leaves double range (Gamma overflows past"
                    " about 171.6 and next to 0, and underflows to 0 below about -177.8)", **param)


def _check_scale(pref, nu, z, x, /, tiny=0.0, **params):
    """Raise DomainError naming params where the kernel (z - x)^{-nu}, or
    the scale kernel / pref that a series' Q factors carry, leaves double
    range, or where the scale has magnitude at most tiny: every term would
    be 0 or overflow, and the sum would run to max_terms."""
    kernel = in_range(lambda: (z - x) ** -nu, "the kernel (z - x)^-nu leaves double range",
                      **params)
    in_range(lambda: kernel / pref, "the kernel over the series prefactor leaves double range",
             tiny, **params)


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
    if not z > 1.0:
        raise ValueError("need z > 1")
    pref = in_range(lambda: math.sqrt(2.0) / (math.sqrt(math.pi) * _gamma(q, q=q)
                                              * z2m1_power(z, 0.5 * q - 0.25)),
                    "the series prefactor leaves double range", q=q, z=z)
    _check_scale(pref, q, z, x, q=q, z=z)
    return _cosine_series(pref, math.acos(x), q - 0.5, z, tr, trace)


# The log magnitude below which a Jacobi term, before its product with the
# prefactor, is taken as 0: its exp stays a normal double with room to spare.
_LOG_TINY = -700.0


def euler_kernel_jacobi(nu: float, alpha: float, beta: float, z: float, x: float,
                        tr: Truncation = DEFAULT_TRUNCATION,
                        trace=None) -> PartialSum:
    """Jacobi expansion of (z - x)^{-nu}.

    For nu = -n (n in N0) the Pochhammer factor kills every term past n, so
    the sum reconstructs the binomial (z - x)^n exactly in n + 1 terms.
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
    params = dict(nu=nu, alpha=alpha, beta=beta, z=z)
    pref = in_range(lambda: ((z - 1.0) ** (alpha + 1.0 - nu) * (z + 1.0) ** (beta + 1.0 - nu)
                             / 2.0 ** (ab + 1.0 - nu)),
                    "the series prefactor leaves double range", **params)
    # The Q factors carry the scale in log space, and a term below
    # e^_LOG_TINY of it is 0.
    _check_scale(pref, nu, z, x, math.exp(_LOG_TINY), **params)
    q_terms = _jacobi_q_terms(nu - 1.0, alpha + 1.0 - nu, beta + 1.0 - nu, z, limit)

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
            coef_log = (math.log(ab + 2.0 * n + 1.0) + lg_top + log_poch
                        - math.lgamma(alpha + 1.0 + n) - math.lgamma(beta + 1.0 + n))
            mag = coef_log + q_log
            term = 0.0
            if pn != 0.0 and q_sign != 0.0 and mag > _LOG_TINY:
                term = pref * poch_sign * sg_top * q_sign * math.exp(mag) * pn
            yield term
    return _degree_sum(terms(), tr, trace)


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
    pref = in_range(lambda: 2.0 ** (mu + 0.5) * _gamma(mu, mu=mu)
                    / (math.sqrt(math.pi) * _gamma(nu, nu=nu)
                       * z2m1_power(z, 0.5 * (nu - mu) - 0.25)),
                    "the series prefactor leaves double range", nu=nu, mu=mu, z=z)
    _check_scale(pref, nu, z, x, nu=nu, mu=mu, z=z)
    qhats = _q_hat_terms(mu - 0.5, nu - mu - 0.5, z, tr.max_terms)
    return _gegenbauer_series(pref, 1.0, mu, x, qhats, tr, trace)


def euler_kernel_chebyshev(nu: float, z: float, x: float,
                           tr: Truncation = DEFAULT_TRUNCATION,
                           trace=None) -> PartialSum:
    """Chebyshev expansion of (z - x)^{-nu}; phase-cancelled real form."""
    _check_euler_arguments(z, x, nu=nu)
    if _nonpositive_int(nu) is not None:
        raise ExclusionSetError(f"nu = {nu} lies in the excluded set -N0")
    if not z > 1.0:
        raise ValueError("need z > 1")
    pref = in_range(lambda: math.sqrt(2.0) / (math.sqrt(math.pi) * _gamma(nu, nu=nu)
                                              * z2m1_power(z, 0.5 * nu - 0.25)),
                    "the series prefactor leaves double range", nu=nu, z=z)
    _check_scale(pref, nu, z, x, nu=nu, z=z)
    return _cosine_series(pref, math.acos(x), nu - 0.5, z, tr, trace)


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
    mu = 0.5 * d - 1.0
    gammas = _gamma(0.5 * (d - 2.0), d=d) / (2.0 * math.sqrt(math.pi) * _gamma(-0.5 * nu, nu=nu))
    radial_range = "the radial factors leave double range"
    z = in_range(lambda: (r * r + rp * rp) / (2.0 * r * rp), radial_range, r=r, rp=rp)
    pref = in_range(lambda: (gammas * (r_greater ** 2 - r_less ** 2) ** (0.5 * (nu + d - 1.0))
                             / (r * rp) ** (0.5 * (d - 1.0))), radial_range, r=r, rp=rp)
    # 2n + d - 2 = 2 (n + mu)
    qhats = (second_kind(legendre_q_hat, (n + 0.5 * (d - 3.0), 0.5 * (1.0 - nu - d), z))
             for n in count())
    return _gegenbauer_series(pref, 2.0, mu, cos_gamma, qhats, tr, trace)


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
    den = math.sqrt(math.pi) * _gamma(-0.5 * nu, nu=nu)
    radial_range = "the radial factors leave double range"
    in_range(lambda: chi, radial_range, R=g.R, Rp=g.Rp, chi=chi)
    pref = in_range(lambda: (math.sqrt(2.0) * (2.0 * g.R * g.Rp) ** (0.5 * nu)
                             * (chi * chi - 1.0) ** (0.25 * (nu + 1.0)) / den),
                    radial_range, R=g.R, Rp=g.Rp, chi=chi)
    return _cosine_series(pref, g.delta_phi, -0.5 * (nu + 1.0), chi, tr, trace)
