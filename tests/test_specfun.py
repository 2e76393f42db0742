"""Scalar special functions against closed forms and high-precision oracles."""

import math
import os
import sys
import threading
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracle_sums
from polykernel import specfun as sf
from polykernel.errors import (
    ConvergenceError,
    DomainError,
    NonTerminatingError,
    ParameterPoleError,
    PoleError,
    PolyKernelError,
    SlowConvergenceError,
)

mp.mp.dps = 50


def mp_qhat(nu, mu, z):
    """Oracle: e^{-i pi mu} Q_nu^mu(z) via mpmath's type-3 Legendre Q."""
    val = mp.expjpi(-mu) * mp.legenq(mp.mpf(nu), mp.mpf(mu), mp.mpf(z), type=3)
    assert abs(mp.im(val)) < mp.mpf("1e-35") * max(1, abs(val))
    return float(mp.re(val))


class TestGamma:
    def test_half_integer(self):
        assert sf.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_factorial(self):
        assert sf.gamma(5.0) == 24.0

    def test_reflection_side(self):
        # Gamma(-1/2) = -2 sqrt(pi) by the recurrence
        assert sf.gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-15)

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                sf.gamma(x)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            sf.gamma(200.0)

    def test_recurrence_property(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 1000:
            x = float(rng.uniform(-5.0, 5.0))
            if abs(x - round(x)) < 1e-3 and round(x) <= 0:
                continue
            if abs(x + 1 - round(x + 1)) < 1e-3 and round(x + 1) <= 0:
                continue
            lhs = sf.gamma(x + 1.0)
            rhs = x * sf.gamma(x)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
            checked += 1

    def test_signed_log(self):
        for x in (0.25, 3.7, -0.5, -1.5, -2.25):
            sign, lg = sf.gamma_signed_log(x)
            assert sign * math.exp(lg) == pytest.approx(math.gamma(x), rel=1e-13)


class TestPochhammer:
    def test_basic(self):
        assert sf.pochhammer(3.0, 2) == 12.0
        assert sf.pochhammer(1.234, 0) == 1.0

    def test_negative_base(self):
        # (-n-k)_k = (-1)^k (n+k)!/n! at n = 5, k = 2
        assert sf.pochhammer(-7.0, 2) == 42.0
        assert sf.pochhammer(-7.0, 2) == (-1) ** 2 * math.factorial(7) / math.factorial(5)

    def test_gamma_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = float(rng.uniform(0.05, 8.0))
            n = int(rng.integers(0, 21))
            lhs = sf.pochhammer(z, n) * sf.gamma(z)
            rhs = sf.gamma(z + n)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_splitting_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            z = float(rng.uniform(-4.0, 4.0))
            n = int(rng.integers(0, 10))
            k = int(rng.integers(0, 10))
            lhs = sf.pochhammer(z, n + k)
            rhs = sf.pochhammer(z, k) * sf.pochhammer(z + k, n)
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))


# Property tests of gauss_2f1 against the Gauss series summed at 30 digits.
# A sum of alternating terms cancels, so the budget is relative to the sum of
# the term magnitudes: |got - want| <= 1e-13 * sum |t_n| (6e-15 was the
# largest of 3000 random draws over these ranges).  The only error a draw
# may raise is ParameterPoleError, where c is a non-positive integer that
# the series reaches before it terminates.

_2F1_BUDGET = 1e-13
_2F1_PARAM = st.floats(-6.0, 6.0)
# c at a pole exactly, or at least 1e-3 away from every non-positive integer
_2F1_LOWER = st.one_of(st.integers(-5, 0).map(float), st.floats(-5.9, 6.0).filter(
    lambda c: round(c) > 0 or abs(c - round(c)) > 1e-3))


def _nonterminal(p):
    """p is no non-positive integer, nor within 1e-9 of one."""
    return p > 0.5 or abs(p - round(p)) > 1e-9


def _check_2f1(a, b, c, x):
    stops = [int(-p) for p in (a, b) if p <= 0.0 and p.is_integer()]
    n_stop = min(stops) if stops else None
    if c <= 0.0 and c.is_integer() and (n_stop is None or n_stop > -c):
        with pytest.raises(ParameterPoleError):
            sf.gauss_2f1(a, b, c, x)
        return
    got = sf.gauss_2f1(a, b, c, x)
    with mp.workdps(30):
        a, b, c, x = map(mp.mpf, (a, b, c, x))
        t = total = want = mp.mpf(1)
        n = 0
        while n_stop is None or n < n_stop:
            t *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
            n += 1
            total += abs(t)
            want += t
            if n_stop is None and n > 5 and abs(t) < mp.mpf(10) ** -25 * total:
                break
        assert abs(got - want) <= _2F1_BUDGET * total, (got, want, total)


class TestGauss2F1:
    def test_binomial_case(self):
        # (a, b; b; x) = (1-x)^{-a}
        assert sf.gauss_2f1(2.5, 1.7, 1.7, 0.3) == pytest.approx(
            2.4392420598661095, rel=1e-14)

    def test_zero_argument(self):
        assert sf.gauss_2f1(1.3, -0.4, 2.2, 0.0) == 1.0

    def test_terminating(self):
        # hand-summed three-term series
        assert sf.gauss_2f1(-2.0, 3.0, 1.5, 0.4) == pytest.approx(-0.088, rel=1e-14)

    def test_terminating_outside_disc(self):
        assert sf.gauss_2f1(-3.0, 2.0, 4.0, 2.5) == pytest.approx(
            float(mp.hyp2f1(-3, 2, 4, 2.5)), rel=1e-13)

    def test_parameter_pole(self):
        with pytest.raises(ParameterPoleError):
            sf.gauss_2f1(0.5, 0.5, -1.0, 0.3)

    def test_divergent(self):
        with pytest.raises(ConvergenceError):
            sf.gauss_2f1(0.5, 0.5, 1.5, 1.0)

    def test_random_against_mpmath(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = float(rng.uniform(-3.0, 3.0))
            b = float(rng.uniform(-3.0, 3.0))
            c = float(rng.uniform(0.3, 4.0))
            x = float(rng.uniform(-0.9, 0.9))
            want = float(mp.hyp2f1(a, b, c, x))
            got = sf.gauss_2f1(a, b, c, x)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @given(n=st.integers(0, 25), b=_2F1_PARAM, c=_2F1_LOWER, x=st.floats(-4.0, 4.0))
    def test_terminating_property(self, n, b, c, x):
        assume(_nonterminal(b) or b.is_integer())
        _check_2f1(-float(n), b, c, x)

    @given(a=_2F1_PARAM, b=_2F1_PARAM, c=_2F1_LOWER, x=st.floats(-0.9, 0.9))
    def test_non_terminating_property(self, a, b, c, x):
        assume(_nonterminal(a) and _nonterminal(b))
        _check_2f1(a, b, c, x)


# The Gauss-series kernel against its reference loop (tests/oracle_sums.py):
# the same (mantissa, log_scale, terms) bit for bit, with the same types, or
# the same error type and message.  The draws cover the argument maps of
# legendre_q_hat (1/z^2) and jacobi_q2_signed_log (2/(1+z)) with z - 1 from
# 2e-4 to 10, terminating series, sums past the 1e250 rescale, a term cap
# that runs out, and lower parameters at a pole.

_Z = st.floats(math.log10(2e-4), 1.0).map(lambda e: 1.0 + 10.0 ** e)


def _outcome(fn, args, max_terms=sf._MAX_TERMS):
    try:
        out = fn(*args, max_terms=max_terms)
    except PolyKernelError as exc:
        return type(exc), str(exc)
    return tuple((type(v), v.hex() if isinstance(v, float) else v) for v in out)


def _assert_same_as_reference(args, max_terms=sf._MAX_TERMS):
    want = _outcome(oracle_sums.hyp2f1_series_reference, args, max_terms)
    assert _outcome(sf._hyp2f1_series, args, max_terms) == want, args
    return want


@pytest.mark.parity
class TestSeriesKernelParity:
    @given(nu=st.floats(-0.95, 1000.0), mu=st.floats(-6.0, 6.0), z=_Z)
    @example(nu=1000.0, mu=6.0, z=1.0002)        # runs out of its 100 000 terms
    @example(nu=0.5, mu=-0.5, z=1.0002)          # converges after 48 534 terms
    def test_legendre_map(self, nu, mu, z):
        assume(sf._nonpositive_int(nu + mu + 1.0) is None)
        _assert_same_as_reference((0.5 * (nu + mu + 1.0), 0.5 * (nu + mu + 2.0),
                                   nu + 1.5, 1.0 / (z * z)))

    @given(g=st.floats(-0.5, 200.0), a=st.floats(-0.9, 5.0), b=st.floats(-0.9, 5.0), z=_Z)
    @example(g=200.0, a=-0.9, b=5.0, z=1.0002)  # runs out of its 100 000 terms
    def test_jacobi_map(self, g, a, b, z):
        _assert_same_as_reference((g + 1.0, b + g + 1.0, a + b + 2.0 * g + 2.0,
                                   2.0 / (1.0 + z)))

    @given(n=st.integers(0, 25), b=_2F1_PARAM, c=_2F1_LOWER, x=st.floats(-4.0, 4.0),
           swap=st.booleans())
    def test_terminating(self, n, b, c, x, swap):
        _assert_same_as_reference((b, -float(n), c, x) if swap else (-float(n), b, c, x))

    @given(a=st.floats(200.0, 400.0), b=st.floats(200.0, 400.0), c=st.floats(0.5, 5.0),
           x=st.floats(0.8, 0.95))
    def test_rescale(self, a, b, c, x):
        # (1-x)^{c-a-b} > 1e275: every draw passes the 1e250 rescale
        _, (_, log_scale), _ = _assert_same_as_reference((a, b, c, x))
        assert float.fromhex(log_scale) > 0.0

    @given(a=_2F1_PARAM, b=_2F1_PARAM, c=st.floats(0.5, 6.0), x=st.floats(-0.9, 0.9),
           shift=st.integers(-2, 1))
    def test_term_cap(self, a, b, c, x, shift):
        # a cap one or two terms short of what the series needs raises, and
        # a cap at or past it does not
        assume(_nonterminal(a) and _nonterminal(b))
        n = oracle_sums.hyp2f1_series_reference(a, b, c, x)[2]
        out = _assert_same_as_reference((a, b, c, x), n + shift)
        assert (out[0] is ConvergenceError) == (shift < 0)

    @given(a=_2F1_PARAM, b=_2F1_PARAM, c=st.integers(-5, 0).map(float),
           x=st.floats(-0.9, 0.9))
    def test_lower_pole(self, a, b, c, x):
        assume(_nonterminal(a) and _nonterminal(b))
        assert _assert_same_as_reference((a, b, c, x))[0] is ParameterPoleError


class TestHyp3F2Unit:
    def test_single_term(self):
        assert sf.hyp_3f2_unit(0.0, 1.2, 3.4, 2.1, 0.7) == 1.0

    def test_two_term_closed_form(self):
        a2, a3, b1, b2 = 1.3, 2.6, 0.9, 1.8
        assert sf.hyp_3f2_unit(-1.0, a2, a3, b1, b2) == pytest.approx(
            1.0 - a2 * a3 / (b1 * b2), rel=1e-14)

    def test_reference_summation(self):
        # 50-digit reference: 3F2(-3, 5, 1.5; 2.5, 4; 1) = 2/21
        assert sf.hyp_3f2_unit(-3.0, 5.0, 1.5, 2.5, 4.0) == pytest.approx(
            0.09523809523809523810, rel=1e-13)

    def test_non_terminating(self):
        with pytest.raises(NonTerminatingError):
            sf.hyp_3f2_unit(0.5, 1.0, 2.0, 3.0, 4.0)


class TestLegendreQHat:
    def test_q0_log_form(self):
        # oracle: Q_0(z) = 0.5 log((z+1)/(z-1)), cross-checked by quadrature
        got = sf.legendre_q_hat(0.0, 0.0, 2.0)
        assert got == pytest.approx(0.5493061443340548457, rel=1e-13)
        quad = float(mp.quad(lambda t: 1.0 / (2.0 - t), [-1, 1]) / 2)
        assert got == pytest.approx(quad, rel=1e-12)

    def test_q1_closed_form(self):
        # Q_1(z) = z/2 log((z+1)/(z-1)) - 1
        want = 1.5 * math.log(2.0) - 1.0
        assert sf.legendre_q_hat(1.0, 0.0, 3.0) == pytest.approx(want, rel=1e-13)

    def test_whipple_point(self):
        nu, mu, z = 1.3, 0.4, 1.7
        qhat = sf.legendre_q_hat(nu, mu, z)
        lhs = sf.legendre_p_gt1(-mu - 0.5, -nu - 0.5, z / math.sqrt(z * z - 1.0))
        rhs = math.sqrt(2.0 / math.pi) * (z * z - 1.0) ** 0.25 / sf.gamma(nu + mu + 1.0) * qhat
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_whipple_grid(self):
        rng = np.random.default_rng(19)
        count = 0
        while count < 100:
            nu = float(rng.uniform(-1.0, 3.0))
            mu = float(rng.uniform(-1.0, 3.0))
            z = float(rng.uniform(1.1, 10.0))
            if nu + mu <= -0.9:  # stay off the Gamma(nu+mu+1) pole line
                continue
            qhat = sf.legendre_q_hat(nu, mu, z)
            lhs = sf.legendre_p_gt1(-mu - 0.5, -nu - 0.5, z / math.sqrt(z * z - 1.0))
            rhs = (math.sqrt(2.0 / math.pi) * (z * z - 1.0) ** 0.25
                   / sf.gamma(nu + mu + 1.0) * qhat)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
            count += 1

    def test_half_integer_order_closed_forms(self):
        # Qhat_nu^{1/2} and Qhat_nu^{-1/2} reduce to elementary functions
        for nu, z in ((0.5, 1.7), (3.0, 2.2), (2.5, 1.3)):
            u = z + math.sqrt(z * z - 1.0)
            base = math.sqrt(0.5 * math.pi) * (z * z - 1.0) ** -0.25 * u ** (-nu - 0.5)
            assert sf.legendre_q_hat(nu, 0.5, z) == pytest.approx(base, rel=1e-12)
            assert sf.legendre_q_hat(nu, -0.5, z) == pytest.approx(
                base / (nu + 0.5), rel=1e-12)

    def test_against_mpmath_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            nu = float(rng.uniform(-0.9, 6.0))
            mu = float(rng.uniform(-2.0, 2.0))
            z = float(rng.uniform(1.05, 8.0))
            if sf._nonpositive_int(nu + mu + 1.0) is not None:
                continue
            got = sf.legendre_q_hat(nu, mu, z)
            want = mp_qhat(nu, mu, z)
            assert abs(got - want) <= 1e-11 * max(1e-300, abs(want))

    def test_pole(self):
        with pytest.raises(PoleError):
            sf.legendre_q_hat(0.0, -2.0, 1.5)  # nu + mu = -2

    def test_slow_convergence_guard(self):
        with pytest.raises(SlowConvergenceError):
            sf.legendre_q_hat(1.0, 0.0, 1.0 + 1e-8)

    def test_degenerate_degree(self):
        # both hypergeometric representations collapse at nu = -3/2, on
        # either side of z = 3
        for z in (2.0, 5.0):
            with pytest.raises(PoleError, match="degenerates"):
                sf.legendre_q_hat(-1.5, 0.25, z)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.legendre_q_hat(1.0, 0.0, 0.5)

    # z^2 overflows: mu < 0 read 0.0, mu = 0 NaN, and mu > 0 raised
    # OverflowError, where each value is a normal double
    @pytest.mark.parametrize("nu, mu, z", [
        (0.0, -0.5, 1e160), (0.5, -1.0, 1e200), (0.0, 0.0, 1e160), (-0.25, 0.0, 1e300),
        (0.0, 0.5, 1e160), (-0.5, 1.0, 1e250),
    ])
    def test_z_squared_past_double_range(self, nu, mu, z):
        want = mp_qhat(nu, mu, z)
        assert abs(sf.legendre_q_hat(nu, mu, z) - want) <= 2e-13 * abs(want)

    # within the reach the docstring states (z - 1 >= 1e-3, well above the
    # 2e-4 where the series can run out of terms): relative error at most
    # 2e-12 against mpmath at 30 digits (1.5e-13, near z - 1 = 1e-3, was the
    # largest of 600 random draws), or PoleError on a Q pole line
    @given(nu=st.floats(-0.95, 40.0), mu=st.floats(-3.0, 3.0),
           z=st.one_of(st.floats(1.001, 10.0), st.floats(-3.0, 1.0).map(lambda e: 1.0 + 10.0 ** e)))
    def test_per_degree_property(self, nu, mu, z):
        s = nu + mu + 1.0
        if s <= 0.0 and abs(s - round(s)) <= 1e-12 * max(1.0, abs(s)):
            with pytest.raises(PoleError):
                sf.legendre_q_hat(nu, mu, z)
            return
        got = sf.legendre_q_hat(nu, mu, z)
        with mp.workdps(30):
            want = mp.re(mp.expjpi(-mu) * mp.legenq(nu, mu, z, type=3))
        assert abs(got - want) <= 2e-12 * abs(want), (got, want)


@pytest.mark.parity
class TestBoundedCache:
    @staticmethod
    def _counted(built):
        # a build that records its argument and weighs it by its value
        def build(x, weight):
            built.append(x)
            return x * x, weight
        return build

    def test_count_bound_lru_order(self):
        cache, built = sf.BoundedCache(3, 100), []
        build = self._counted(built)
        for x in (1, 2, 3):
            assert cache.get(x, build, x, 1) == x * x
        assert cache.get(1, build, 1, 1) == 1        # 1 is now the most recent
        cache.get(4, build, 4, 1)                     # evicts 2, the least recent
        assert built == [1, 2, 3, 4] and cache.cache_info().currsize == 3
        for x in (1, 3, 4, 2):
            cache.get(x, build, x, 1)
        assert built == [1, 2, 3, 4, 2]

    def test_weight_bound(self):
        cache, built = sf.BoundedCache(10, 10), []
        build = self._counted(built)
        for x in (1, 2):
            cache.get(x, build, x, 4)
        cache.get(1, build, 1, 4)
        cache.get(3, build, 3, 4)                     # 12 > 10: evicts 2
        assert cache.weight == 8 and cache.cache_info().currsize == 2
        cache.get(4, build, 4, 10)                    # evicts every other
        assert cache.weight == 10 and cache.cache_info().currsize == 1
        assert cache.get(4, build, 4, 10) == 16 and built == [1, 2, 3, 4]

    def test_overweight_returned_not_kept(self):
        cache, built = sf.BoundedCache(4, 10), []
        build = self._counted(built)
        cache.get(1, build, 1, 10)
        for _ in range(2):
            assert cache.get(2, build, 2, 11) == 4
        # built on every call, and the kept value stays
        assert built == [1, 2, 2] and cache.get(1, build, 1, 10) == 1
        assert cache.cache_info() == (1, 3, 4, 1) and cache.weight == 10

    def test_errors_not_kept(self):
        cache, calls = sf.BoundedCache(4, 10), []

        def failing():
            calls.append(None)
            raise PoleError("no value")

        for _ in range(3):
            with pytest.raises(PoleError):
                cache.get("k", failing)
        assert len(calls) == 3 and cache.cache_info() == (0, 3, 4, 0)

    def test_cache_info_and_clear(self):
        cache = sf.BoundedCache(4, 10)
        build = self._counted([])
        for x in (1, 2, 1, 1, 3):
            cache.get(x, build, x, 2)
        info = cache.cache_info()
        assert info == (2, 3, 4, 3) and (info.hits, info.misses) == (2, 3)
        assert (info.maxsize, info.currsize) == (4, 3)
        cache.cache_clear()
        assert cache.cache_info() == (0, 0, 4, 0) and cache.weight == 0
        cache.get(1, build, 1, 2)
        assert cache.cache_info() == (0, 1, 4, 1)

    def test_threads(self):
        # more threads than cores read overlapping keys through one small
        # cache; every call is counted once, the bounds hold and every
        # result is the one its key computes
        cache, calls, n_threads = sf.BoundedCache(8, 6), 2000, (os.cpu_count() or 1) + 2
        errors = []

        def square(v):
            return v * v, 1.0 if v % 2 else 0.5

        def work(seed):
            try:
                for k in range(calls):
                    x = float((seed + k // 2) % 13)     # each key twice in a row
                    if cache.get(x, square, x) != x * x:
                        errors.append(x)
            except Exception as exc:    # a thread's failure fails the test
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        info = cache.cache_info()
        assert info.hits + info.misses == n_threads * calls and info.currsize <= 8
        assert info.hits > 0 and cache.weight <= 6
        assert cache.weight == sum(w for _, w in cache._held.values())


def _from_top_max(values):
    """max |values[j]| over j >= k, for every k: the scale of the downward
    recurrence, which stays meaningful where Q crosses zero at low degree."""
    return np.maximum.accumulate(np.abs(values)[::-1])[::-1]


def _checked_degrees(n):
    return sorted(set(range(0, n, max(1, n // 12))) | {n - 1})


COLUMN_ARGS = dict(nu0=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5]),
                   mu=st.floats(-3.25, 1.0),
                   z=st.floats(1.0006, 4.0),
                   n=st.integers(1, 250))


def _pole_degrees(nu0, mu, n):
    return [k for k in range(n) if sf._nonpositive_int(nu0 + k + mu + 1.0) is not None]


class TestLegendreQHatColumn:
    @given(**COLUMN_ARGS)
    def test_matches_per_degree(self, nu0, mu, z, n):
        if _pole_degrees(nu0, mu, n):
            with pytest.raises(PoleError):
                sf.legendre_q_hat_column(nu0, mu, z, n)
            return
        col = sf.legendre_q_hat_column(nu0, mu, z, n)
        assert col.shape == (n,)
        scale = _from_top_max(col)
        for k in _checked_degrees(n):
            want = sf.legendre_q_hat(nu0 + k, mu, z)
            assert abs(col[k] - want) <= 1e-12 * scale[k], (k, col[k], want)

    @given(**COLUMN_ARGS)
    def test_matches_mpmath(self, nu0, mu, z, n):
        assume(not _pole_degrees(nu0, mu, n))
        col = sf.legendre_q_hat_column(nu0, mu, z, n)
        scale = _from_top_max(col)
        for k in sorted({0, n // 2, n - 1}):
            want = mp_qhat(nu0 + k, mu, z)
            assert abs(col[k] - want) <= 2e-12 * scale[k], (k, col[k], want)

    def test_underflowing_top(self):
        # Q falls by about 2 per degree at z = 1.25: degrees past ~1010 are
        # subnormal, past ~1065 zero.
        nu0, mu, z, n = 0.5, -0.5, 1.25, 3000
        col = sf.legendre_q_hat_column(nu0, mu, z, n)
        ref = np.array([sf.legendre_q_hat(nu0 + k, mu, z) for k in range(n)])
        assert ref[-1] == 0.0 and 0.0 < abs(ref[1050]) < sys.float_info.min
        assert np.count_nonzero(col) == np.count_nonzero(ref)
        # The per-degree series loses about 1e-12 to its log prefactor out
        # at degree 1000, hence the budget; mpmath pins the column tighter.
        assert np.all(np.abs(col - ref) <= 1e-11 * _from_top_max(ref))
        assert abs(col[1000] - mp_qhat(nu0 + 1000, mu, z)) <= 2e-12 * abs(col[1000])

    @pytest.mark.parametrize("nu0, mu, z, n", [
        (0.0, 0.0, 0.5, 4),          # z <= 1
        (-3.0, 0.0, 0.5, 6),         # z <= 1 reported before the poles
        (0.0, 0.0, 1.0 + 1e-8, 4),   # inside the near-one guard
        (-3.0, 0.0, 2.0, 6),         # Q poles at degrees -3, -2, -1
        (1.0, -3.0, 2.0, 4),         # Q poles at degrees 1, 2
        (-3.5, 0.25, 5.0, 4),        # degenerate degrees -3.5, -2.5, -1.5
    ])
    def test_errors_match_per_degree(self, nu0, mu, z, n):
        raised = []
        for k in range(n):
            try:
                sf.legendre_q_hat(nu0 + k, mu, z)
            except PolyKernelError as exc:
                raised.append(type(exc))
        assert raised
        with pytest.raises(raised[0]):
            sf.legendre_q_hat_column(nu0, mu, z, n)

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError):
            sf.legendre_q_hat_column(0.5, 0.0, 2.0, 0)

    @pytest.mark.parametrize("below", [None, 1e-308])
    def test_recurrence_past_double_range_rejected(self, below):
        # (2 nu + 1) z overflowed in a numpy multiply: a RuntimeWarning, then
        # a column of NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^z = 1e\+308: the degree recurrence's"
                                                  " coefficients leave double range$"):
                sf.legendre_q_hat_column(-0.5, 0.0, 1e308, 8, below)


    def test_continued_column_matches_one_column(self, monkeypatch):
        # a column continued from the last entry of the one below equals one
        # long column, and makes no series call
        nu0, mu, z, n = -0.5, 1.3, 1.05, 300
        whole = sf.legendre_q_hat_column(nu0, mu, z, n)
        calls = []
        series = sf.legendre_q_hat
        monkeypatch.setattr(sf, "legendre_q_hat", lambda *a: calls.append(a) or series(*a))
        upper = sf.legendre_q_hat_column(nu0 + 100, mu, z, n - 100, below=whole[99])
        assert calls == []
        assert np.all(np.abs(upper - whole[100:]) <= 1e-14 * np.abs(whole[100:]))


def mp_jacobi_q2(g, a, b, z):
    """Oracle: Q_g^{(a,b)}(z) from the Pfaff-transformed Gauss series in
    2/(1+z), summed by mpmath at 30 digits."""
    with mp.workdps(30):
        g, a, b, z = map(mp.mpf, (g, a, b, z))
        val = (2 ** (a + b + g) * mp.gamma(a + g + 1) * mp.gamma(b + g + 1)
               / mp.gamma(a + b + 2 * g + 2) * (z - 1) ** (-a) * (z + 1) ** (-b - g - 1)
               * mp.hyp2f1(g + 1, b + g + 1, a + b + 2 * g + 2, 2 / (1 + z)))
        return mp.sign(val), mp.log(abs(val))


# Parameters of the Jacobi expansion of (z - x)^{-nu}: its Q factors are
# Q_{n+nu-1}^{(alpha+1-nu, beta+1-nu)}(z), n = 0, 1, ...
JACOBI_ARGS = dict(nu=st.floats(0.25, 3.5), alpha=st.floats(-0.9, 2.5),
                   beta=st.floats(-0.9, 2.5), z=st.floats(1.001, 4.0))


def _jacobi_column(nu, alpha, beta, z, n):
    return sf.jacobi_q2_column(nu - 1.0, alpha + 1.0 - nu, beta + 1.0 - nu, z, n)


def _assert_close_in_log(sign, log, want_sign, want_log, scale_log, budget):
    """|value - want| <= budget * e^{scale_log}, with each value given as
    (sign, log|value|) and compared relative to the scale, so neither side
    needs to be representable; signs must agree unless the value is
    negligible on that scale."""
    got = sign * math.exp(log - scale_log)
    want = want_sign * math.exp(want_log - scale_log)
    if abs(want) > 1e-10:
        assert sign == want_sign, (sign, want_sign)
    assert abs(got - want) <= budget, (got, want)


class TestJacobiQ2Column:
    @given(n=st.integers(1, 150), **JACOBI_ARGS)
    def test_matches_per_degree(self, nu, alpha, beta, z, n):
        # n stops at 150: the per-degree series is the less accurate side at
        # high degree (7e-13 relative at degree 150, where the column is 1e-14
        # from mpmath), so longer columns are pinned against mpmath below
        signs, logs = _jacobi_column(nu, alpha, beta, z, n)
        assert signs.shape == logs.shape == (n,)
        scale = np.maximum.accumulate(logs[::-1])[::-1]
        for k in _checked_degrees(n):
            want = sf.jacobi_q2_signed_log(nu - 1.0 + k, alpha + 1.0 - nu,
                                           beta + 1.0 - nu, z)
            _assert_close_in_log(signs[k], logs[k], *want, scale[k], 1e-12)

    @given(n=st.integers(1, 250), **JACOBI_ARGS)
    def test_matches_mpmath(self, nu, alpha, beta, z, n):
        signs, logs = _jacobi_column(nu, alpha, beta, z, n)
        scale = np.maximum.accumulate(logs[::-1])[::-1]
        for k in sorted({0, n // 2, n - 1}):
            s, lg = mp_jacobi_q2(nu - 1.0 + k, alpha + 1.0 - nu, beta + 1.0 - nu, z)
            _assert_close_in_log(signs[k], logs[k], float(s), float(lg), scale[k], 1e-12)

    @given(nu=JACOBI_ARGS["nu"], alpha=JACOBI_ARGS["alpha"], beta=JACOBI_ARGS["beta"],
           z=st.floats(3.5, 4.0))
    def test_high_degree_log_is_compensated(self, nu, alpha, beta, z):
        # at degree 242 the running log is about -500: summed without
        # compensation its rounding reached 4e-13 relative on these draws
        signs, logs = _jacobi_column(nu, alpha, beta, z, 243)
        s, lg = mp_jacobi_q2(nu + 241.0, alpha + 1.0 - nu, beta + 1.0 - nu, z)
        _assert_close_in_log(signs[-1], logs[-1], float(s), float(lg), float(lg), 1e-13)

    def test_continued_column_matches_one_column(self, monkeypatch):
        g0, a, b, z, n = 0.3, -1.2, 0.8, 1.05, 300
        signs, logs = sf.jacobi_q2_column(g0, a, b, z, n)
        calls = []
        series = sf.jacobi_q2_signed_log
        monkeypatch.setattr(sf, "jacobi_q2_signed_log",
                            lambda *args: calls.append(args) or series(*args))
        up_signs, up_logs = sf.jacobi_q2_column(g0 + 100, a, b, z, n - 100,
                                                below=(signs[99], logs[99]))
        assert calls == []
        assert np.array_equal(up_signs, signs[100:])
        assert np.all(np.abs(up_logs - logs[100:]) <= 1e-14 * np.abs(logs[100:]))

    @pytest.mark.parametrize("g0, a, b, z, n", [
        (0.5, 0.2, 0.3, 0.5, 4),          # z <= 1
        (0.5, 0.2, 0.3, 1.0 + 1e-8, 4),   # inside the near-one guard
        (-3.5, 0.5, 0.3, 2.0, 6),         # alpha + gamma = -3, -2, -1
        (-2.0, 0.3, -0.3, 2.0, 4),        # alpha + beta + 2 gamma + 2 = -2, 0
    ])
    def test_errors_match_per_degree(self, g0, a, b, z, n):
        raised = []
        for k in range(n):
            try:
                sf.jacobi_q2_signed_log(g0 + k, a, b, z)
            except PolyKernelError as exc:
                raised.append(type(exc))
        assert raised
        with pytest.raises(raised[0]):
            sf.jacobi_q2_column(g0, a, b, z, n)

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError):
            sf.jacobi_q2_column(0.5, 0.0, 0.0, 2.0, 0)

    @pytest.mark.parametrize("below", [None, (1.0, -700.0)])
    def test_recurrence_past_double_range_rejected(self, below):
        # (g2 + 2) g2 z overflowed in a numpy multiply: a RuntimeWarning, then
        # every ratio 0 and every log -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^z = 1e\+305: the degree recurrence's"
                                                  " coefficients leave double range$"):
                sf.jacobi_q2_column(0.0, -0.5, 0.0, 1e305, 8, below)
        # a few decades nearer, the same column is finite
        signs, logs = sf.jacobi_q2_column(0.0, -0.5, 0.0, 1e303, 8)
        assert np.isfinite(logs).all()


class TestLegendrePGt1:
    def test_degree_one(self):
        assert sf.legendre_p_gt1(1.0, 0.0, 2.5) == pytest.approx(2.5, rel=1e-14)

    def test_degree_zero(self):
        assert sf.legendre_p_gt1(0.0, 0.0, 7.3) == 1.0

    def test_reference_value(self):
        # 50-digit reference summation of the defining 2F1: P_3^2(1.5) = 225/8
        assert sf.legendre_p_gt1(3.0, 2.0, 1.5) == pytest.approx(28.125, rel=1e-13)

    def test_negative_integer_order(self):
        # P_nu^{-n} = Gamma(nu-n+1)/Gamma(nu+n+1) P_nu^n for integer degree
        for l, n, z in ((4, 2, 1.8), (5, 1, 2.5), (3, 3, 1.2)):
            lhs = sf.legendre_p_gt1(l, -n, z)
            rhs = (math.factorial(l - n) / math.factorial(l + n)
                   * sf.legendre_p_gt1(l, n, z))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_negative_order_beyond_degree(self):
        # nonzero even when the positive-order value vanishes
        got = sf.legendre_p_gt1(2.0, -5.0, 1.5)
        want = float(mp.legenp(2, -5, mp.mpf("1.5"), type=3))
        assert got == pytest.approx(want, rel=1e-12)

    def test_noninteger_against_mpmath(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            nu = float(rng.uniform(-1.5, 3.0))
            mu = float(rng.uniform(-2.5, 0.8))
            z = float(rng.uniform(1.05, 2.8))
            if sf._nonpositive_int(1.0 - mu) is not None:
                continue
            got = sf.legendre_p_gt1(nu, mu, z)
            want = float(mp.legenp(mp.mpf(nu), mp.mpf(mu), mp.mpf(z), type=3))
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_parameter_pole(self):
        with pytest.raises(ParameterPoleError):
            sf.legendre_p_gt1(0.7, 2.0, 1.5)  # 1 - mu = -1 without termination


class TestFerrersP:
    def test_linear(self):
        assert sf.ferrers_p(1, 0, 0.3) == pytest.approx(0.3, rel=1e-15)

    def test_constant(self):
        assert sf.ferrers_p(0, 0, -0.77) == 1.0

    def test_reference_value(self):
        # direct evaluation of the defining Gauss series (regularized limit)
        assert sf.ferrers_p(2, 1, 0.5) == pytest.approx(-1.2990381056766580, rel=1e-13)

    def test_against_mpmath_grid(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            l = int(rng.integers(0, 12))
            m = int(rng.integers(-l, l + 1)) if l else 0
            x = float(rng.uniform(-0.99, 0.99))
            got = sf.ferrers_p(l, m, x)
            want = float(mp.legenp(l, m, mp.mpf(x)))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sf.ferrers_p(2, 1, 1.0)

    def test_endpoint_order_zero(self):
        assert sf.ferrers_p(3, 0, 1.0) == 1.0
        assert sf.ferrers_p(3, 0, -1.0) == -1.0

    def test_array_input(self):
        xs = np.linspace(-0.9, 0.9, 7)
        got = sf.ferrers_p(4, 2, xs)
        want = [sf.ferrers_p(4, 2, float(x)) for x in xs]
        np.testing.assert_allclose(got, want, rtol=1e-14)


class TestJacobiQ2:
    def test_legendre_reduction(self):
        # Q_0^{(0,0)}(5) = Q_0(5) = 0.5 log(6/4)
        assert sf.jacobi_q2(0.0, 0.0, 0.0, 5.0) == pytest.approx(
            0.20273255405408219, rel=1e-13)

    def test_symmetric_bridge_point(self):
        # Q_{n+nu-1}^{(mu-nu+1/2, mu-nu+1/2)}(z) against the Legendre form
        n, nu, mu, z = 2, 1.5, 0.5, 4.0
        lhs = sf.jacobi_q2(n + nu - 1.0, mu - nu + 0.5, mu - nu + 0.5, z)
        rhs = (2.0 ** (mu - nu + 0.5) * sf.gamma(mu + n + 0.5)
               / (sf.gamma(nu + n) * (z * z - 1.0) ** (0.5 * (mu - nu) + 0.25))
               * sf.legendre_q_hat(n + mu - 0.5, nu - mu - 0.5, z))
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_symmetric_bridge_grid(self):
        rng = np.random.default_rng(37)
        count = 0
        while count < 50:
            n = int(rng.integers(0, 5))
            nu = float(rng.uniform(0.2, 3.0))
            mu = float(rng.uniform(-0.4, 2.0))
            z = float(rng.uniform(1.2, 6.0))
            lhs = sf.jacobi_q2(n + nu - 1.0, mu - nu + 0.5, mu - nu + 0.5, z)
            rhs = (2.0 ** (mu - nu + 0.5) * sf.gamma(mu + n + 0.5)
                   / (sf.gamma(nu + n) * (z * z - 1.0) ** (0.5 * (mu - nu) + 0.25))
                   * sf.legendre_q_hat(n + mu - 0.5, nu - mu - 0.5, z))
            assert abs(lhs - rhs) <= 1e-9 * max(1e-30, abs(lhs))
            count += 1

    def test_printed_series_agreement_far_field(self):
        # the 2/(1-z) representation is valid for z > 3; compare against it
        for (g, a, b, z) in ((1.5, 0.3, -0.4, 5.0), (2.5, 1.0, 0.5, 4.0),
                             (3.7, -0.2, 0.9, 8.0)):
            direct = (2.0 ** (a + b + g) * math.gamma(a + g + 1.0)
                      * math.gamma(b + g + 1.0)
                      / (math.gamma(a + b + 2.0 * g + 2.0)
                         * (z - 1.0) ** (a + g + 1.0) * (z + 1.0) ** b)
                      * sf.gauss_2f1(g + 1.0, a + g + 1.0, a + b + 2.0 * g + 2.0,
                                     2.0 / (1.0 - z)))
            assert sf.jacobi_q2(g, a, b, z) == pytest.approx(direct, rel=1e-12)

    @given(g=st.floats(-0.5, 12.0), a=st.floats(-0.9, 2.5), b=st.floats(-0.9, 2.5),
           z=st.floats(1.01, 6.0))
    def test_matches_mpmath(self, g, a, b, z):
        s, lg = mp_jacobi_q2(g, a, b, z)
        got = sf.jacobi_q2(g, a, b, z)
        want = float(s * mp.exp(lg))
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    def test_decay(self):
        assert abs(sf.jacobi_q2(1.0, 0.0, 0.0, 1e3)) < abs(sf.jacobi_q2(1.0, 0.0, 0.0, 10.0))

    def test_pole(self):
        with pytest.raises(PoleError):
            sf.jacobi_q2(1.0, -3.0, 0.0, 2.0)  # alpha + gamma = -2
