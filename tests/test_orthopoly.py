"""Orthogonal polynomial recurrences against their hypergeometric definitions."""

import math

import mpmath as mp
import numpy as np
import pytest

from polykernel import orthopoly as op
from polykernel import specfun as sf
from polykernel.errors import ZeroParameterError

mp.mp.dps = 40


def jacobi_via_series(n, a, b, x):
    """Oracle: terminating 2F1 definition of P_n^{(a,b)} at 40 digits.

    The alternating terminating sum cancels catastrophically in doubles for
    small lower parameters, so the reference is summed in high precision.
    """
    val = (mp.rf(mp.mpf(a) + 1, n) / mp.factorial(n)
           * mp.hyp2f1(-n, n + mp.mpf(a) + mp.mpf(b) + 1, mp.mpf(a) + 1,
                       (1 - mp.mpf(x)) / 2))
    return float(val)


class TestJacobiP:
    def test_degree_zero(self):
        assert op.jacobi_p(0, 0.7, -0.3, 0.123) == 1.0

    def test_value_at_one(self):
        # P_n^{(a,b)}(1) = (a+1)_n / n!
        assert op.jacobi_p(3, 0.5, -0.2, 1.0) == pytest.approx(2.1875, rel=1e-14)

    def test_reference_value(self):
        # three-term hand summation of the terminating series
        assert op.jacobi_p(2, 1.0, 1.0, 0.3) == pytest.approx(-0.4125, rel=1e-14)

    def test_recurrence_matches_series(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(0, 11))
            a = float(rng.uniform(-0.9, 2.5))
            b = float(rng.uniform(-0.9, 2.5))
            if -1 < a < 0 and -1 < b < 0 and abs(a + b + 1.0) < 1e-6:
                continue
            x = float(rng.uniform(-1.0, 1.0))
            got = op.jacobi_p(n, a, b, x)
            want = jacobi_via_series(n, a, b, x)
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_array_argument(self):
        xs = np.linspace(-1.0, 1.0, 9)
        got = op.jacobi_p(4, 0.3, 1.2, xs)
        want = [op.jacobi_p(4, 0.3, 1.2, float(x)) for x in xs]
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            op.jacobi_p(2, -1.0, 0.0, 0.5)


JACOBI_PARAMS = ((0.0, 0.0), (0.7, -0.3), (-0.5, -0.4), (2.5, 1.0), (3.0, 7.0))


class TestJacobiPAll:
    @pytest.mark.parametrize("nmax", [0, 1, 2, 40])
    def test_rows_match_per_degree(self, nmax):
        # one pass runs the per-degree recurrence once, so every row is exact
        xs = np.linspace(-1.0, 1.0, 7)
        for a, b in JACOBI_PARAMS:
            table = op.jacobi_p_all(nmax, a, b, xs)
            assert table.shape == (nmax + 1, xs.size)
            column = op.jacobi_p_all(nmax, a, b, 0.37)
            assert column.shape == (nmax + 1,)
            for n in range(nmax + 1):
                np.testing.assert_allclose(table[n], op.jacobi_p(n, a, b, xs),
                                           rtol=1e-13, atol=0.0)
                assert column[n] == pytest.approx(op.jacobi_p(n, a, b, 0.37),
                                                  rel=1e-13, abs=0.0)

    def test_matches_mpmath(self):
        # scaled by the column's largest value so far: near a zero of P_n the
        # pointwise relative error of any recurrence is unbounded
        rng = np.random.default_rng(53)
        for _ in range(12):
            a, b = float(rng.uniform(-0.9, 3.0)), float(rng.uniform(-0.9, 3.0))
            xs = rng.uniform(-1.0, 1.0, 3)
            table = op.jacobi_p_all(40, a, b, xs)
            for i, x in enumerate(xs):
                for n in range(41):
                    want = float(mp.jacobi(n, a, b, float(x)))
                    scale = float(np.max(np.abs(table[:n + 1, i])))
                    assert abs(table[n, i] - want) <= 1e-13 * scale

    def test_array_parameters_match_scalar_columns(self):
        # one pass over many (alpha, beta) pairs: each column is the scalar
        # call at its own parameters, bit for bit
        alphas = np.array([a for a, _ in JACOBI_PARAMS])
        betas = np.array([b for _, b in JACOBI_PARAMS])
        xs = np.array([[-0.8], [0.37]])
        table = op.jacobi_p_all(25, alphas, betas, xs)
        assert table.shape == (26, 2, len(alphas))
        for k, (a, b) in enumerate(JACOBI_PARAMS):
            np.testing.assert_array_equal(table[:, :, k], op.jacobi_p_all(25, a, b, xs[:, 0]))
            for n in (0, 1, 7, 25):
                assert table[n, 1, k] == op.jacobi_p(n, a, b, 0.37)
        # alpha alone an array, beta and x scalars
        col = op.jacobi_p_all(10, alphas, 0.5, 0.2)
        for k, a in enumerate(alphas.tolist()):
            np.testing.assert_array_equal(col[:, k], op.jacobi_p_all(10, a, 0.5, 0.2))

    @pytest.mark.parametrize("alpha, beta, bad, message", [
        ([0.5, -1.0], 0.5, (-1.0, 0.5), "must exceed -1"),
        (0.5, [0.2, 1.0, -1.5], (0.5, -1.5), "must exceed -1"),
        ([0.3, -0.25], [0.1, -0.75], (-0.25, -0.75), r"alpha \+ beta \+ 1 = 0"),
    ])
    def test_array_parameters_validated_entrywise(self, alpha, beta, bad, message):
        # one invalid entry raises what the scalar call raises at that entry
        with pytest.raises(ValueError, match=message):
            op.jacobi_p(3, *bad, 0.3)
        with pytest.raises(ValueError, match=message):
            op.jacobi_p_all(3, alpha, beta, 0.3)


@pytest.mark.parametrize("column, single, args, exc", [
    (op.jacobi_p_all, op.jacobi_p, (-1, 0.5, 0.5, 0.3), ValueError),
    (op.jacobi_p_all, op.jacobi_p, (3, -1.0, 0.5, 0.3), ValueError),
    (op.jacobi_p_all, op.jacobi_p, (3, -0.25, -0.75, 0.3), ValueError),
    (op.gegenbauer_c_all, op.gegenbauer_c, (-1, 0.5, 0.3), ValueError),
    (op.gegenbauer_c_all, op.gegenbauer_c, (3, -0.7, 0.3), ValueError),
    (op.gegenbauer_c_all, op.gegenbauer_c, (3, 0.0, 0.3), ZeroParameterError),
])
def test_column_validation_matches_per_degree(column, single, args, exc):
    with pytest.raises(exc):
        single(*args)
    with pytest.raises(exc):
        column(*args)


class TestJacobiNorm:
    def test_legendre_norms(self):
        assert op.jacobi_norm(0, 0.0, 0.0) == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert op.jacobi_norm(1, 0.0, 0.0) == pytest.approx(math.sqrt(1.5), rel=1e-14)

    @staticmethod
    def _weighted_integral(f, a, b, npts):
        # Gauss-Legendre after x = cos t: the endpoint-singular weight becomes
        # analytic (here a trig polynomial), so the rule is machine-exact.
        t, wt = np.polynomial.legendre.leggauss(npts)
        t = 0.5 * math.pi * (t + 1.0)
        wt = wt * 0.5 * math.pi
        x = np.cos(t)
        w = (2.0 * np.sin(0.5 * t) ** 2) ** a * (2.0 * np.cos(0.5 * t) ** 2) ** b
        return float(np.sum(wt * f(x) * w * np.sin(t)))

    def test_quadrature_normalization(self):
        # 64-point Gauss-Legendre: integral of (N P_n)^2 w over [-1, 1] is 1
        n, a, b = 2, 0.5, 1.5
        norm = op.jacobi_norm(n, a, b)
        integral = self._weighted_integral(
            lambda x: (norm * op.jacobi_p(n, a, b, x)) ** 2, a, b, 64)
        assert abs(integral - 1.0) < 1e-12

    def test_negative_parameter_sum(self):
        # n = 0 with alpha + beta + 1 < 0 stays finite and positive
        val = op.jacobi_norm(0, -0.75, -0.75)
        want = math.sqrt(math.gamma(0.5) / (2.0 ** -0.5
                                            * math.gamma(0.25) ** 2))
        assert val == pytest.approx(want, rel=1e-12)

    def test_orthogonality_grid(self):
        # 128-point rule, m, n <= 8
        a, b = 0.5, 1.5
        t, wt = np.polynomial.legendre.leggauss(128)
        t = 0.5 * math.pi * (t + 1.0)
        wt = wt * 0.5 * math.pi
        x = np.cos(t)
        w = ((2.0 * np.sin(0.5 * t) ** 2) ** a * (2.0 * np.cos(0.5 * t) ** 2) ** b
             * np.sin(t))
        vals = [op.jacobi_norm(n, a, b) * op.jacobi_p(n, a, b, x)
                for n in range(9)]
        for i in range(9):
            for j in range(9):
                integral = float(np.sum(wt * vals[i] * vals[j] * w))
                assert abs(integral - (1.0 if i == j else 0.0)) < 1e-10


class TestGegenbauer:
    def test_degree_one(self):
        assert op.gegenbauer_c(1, 0.75, 0.4) == pytest.approx(0.6, rel=1e-14)

    def test_degree_zero(self):
        assert op.gegenbauer_c(0, 1.3, -0.2) == 1.0

    def test_jacobi_relation(self):
        # C_n^nu = (2nu)_n / (nu+1/2)_n P_n^{(nu-1/2, nu-1/2)}
        n, nu, x = 4, 1.2, -0.3
        lhs = op.gegenbauer_c(n, nu, x)
        rhs = (sf.pochhammer(2.0 * nu, n) / sf.pochhammer(nu + 0.5, n)
               * op.jacobi_p(n, nu - 0.5, nu - 0.5, x))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_jacobi_relation_grid(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(0, 12))
            nu = float(rng.uniform(-0.45, 3.0)) or 0.1
            if abs(nu) < 1e-3:
                continue
            x = float(rng.uniform(-1.0, 1.0))
            lhs = op.gegenbauer_c(n, nu, x)
            rhs = (sf.pochhammer(2.0 * nu, n) / sf.pochhammer(nu + 0.5, n)
                   * op.jacobi_p(n, nu - 0.5, nu - 0.5, x))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_zero_parameter(self):
        with pytest.raises(ZeroParameterError):
            op.gegenbauer_c(2, 0.0, 0.5)

    def test_all_degrees_pass(self):
        xs = np.array([-0.7, 0.1, 0.9])
        table = op.gegenbauer_c_all(6, 0.8, xs)
        for n in range(7):
            np.testing.assert_allclose(table[n], op.gegenbauer_c(n, 0.8, xs),
                                       rtol=1e-13)
        # an array of orders broadcasts against the arguments
        mus = np.array([0.8, 1.5, 3.0])
        table = op.gegenbauer_c_all(6, mus, xs[:, None])
        assert table.shape == (7, 3, 3)
        for n in range(7):
            for k, mu in enumerate(mus):
                np.testing.assert_allclose(table[n, :, k], op.gegenbauer_c(n, mu, xs),
                                           rtol=1e-13)

    def test_generating_function(self):
        # sum rho^n C_n^nu(x) = (1 + rho^2 - 2 rho x)^{-nu}
        for rho in (0.1, 0.3, 0.5):
            for nu in (0.6, 1.0, 2.5):
                for x in (-0.9, 0.0, 0.7):
                    want = (1.0 + rho * rho - 2.0 * rho * x) ** (-nu)
                    total = 0.0
                    n = 0
                    small = 0
                    while True:
                        term = rho ** n * op.gegenbauer_c(n, nu, x)
                        total += term
                        n += 1
                        small = small + 1 if abs(term) < 1e-14 * abs(total) else 0
                        if n > 30 and small >= 3:
                            break
                        assert n < 500
                    assert abs(total - want) < 1e-10 * abs(want)


class TestChebyshev:
    def test_seeds(self):
        assert op.chebyshev_t(0, 0.37) == 1.0
        assert op.chebyshev_t(1, 0.37) == 0.37

    def test_cosine_form(self):
        assert op.chebyshev_t(5, 0.9) == pytest.approx(-0.63216, rel=1e-12)
        xs = np.linspace(-1.0, 1.0, 41)
        for n in (2, 3, 7, 12):
            got = op.chebyshev_t(n, xs)
            want = np.cos(n * np.arccos(xs))
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gegenbauer_limit(self):
        # ((n+mu)/mu) C_n^mu -> eps_n T_n as mu -> 0
        n, x = 3, 0.2
        mu = 1e-7
        lhs = (n + mu) / mu * op.gegenbauer_c(n, mu, x)
        rhs = 2.0 * op.chebyshev_t(n, x)
        assert abs(lhs - rhs) < 1e-5 * max(1.0, abs(rhs))


class TestConnection:
    def test_identity_connection(self):
        table = op.connection_coeffs(4, 0.7, -0.2, 0.7, -0.2)
        for k, c in enumerate(table.coefficients):
            assert c == pytest.approx(1.0 if k == 4 else 0.0, abs=1e-12)

    def test_degree_zero(self):
        table = op.connection_coeffs(0, 1.0, 0.5, 0.2, 0.2)
        assert table.coefficients == (1.0,)

    def test_pointwise_reconstruction(self):
        table = op.connection_coeffs(3, 1.0, 0.5, 0.2, 0.2)
        xs = np.cos((2 * np.arange(20) + 1) * math.pi / 40.0)  # Chebyshev points
        for x in xs:
            got = table.reconstruct(float(x))
            want = op.jacobi_p(3, 1.0, 0.5, float(x))
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_reconstruction_random_params(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = int(rng.integers(0, 7))
            g, d_ = float(rng.uniform(-0.5, 2.0)), float(rng.uniform(-0.5, 2.0))
            a, b = float(rng.uniform(-0.5, 2.0)), float(rng.uniform(0.0, 2.0))
            table = op.connection_coeffs(n, g, d_, a, b)
            for x in (-0.8, 0.05, 0.9):
                got = table.reconstruct(x)
                want = op.jacobi_p(n, g, d_, x)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_cache_returns_same_table(self):
        t1 = op.connection_coeffs(2, 0.5, 0.5, 0.1, 0.1)
        t2 = op.connection_coeffs(2, 0.5, 0.5, 0.1, 0.1)
        assert t1 is t2

    def test_cache_concurrent_access(self):
        import threading

        results = []
        errors = []

        def worker(seed):
            try:
                rng = np.random.default_rng(seed % 4)  # force key collisions
                for _ in range(25):
                    n = int(rng.integers(0, 5))
                    g = round(float(rng.uniform(0.0, 1.0)), 2)
                    table = op.connection_coeffs(n, g, 0.5, 0.2, 0.2)
                    results.append(abs(table.reconstruct(0.3)
                                       - op.jacobi_p(n, g, 0.5, 0.3)))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert max(results) < 1e-10
