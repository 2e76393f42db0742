"""Expansion partial sums against direct kernel oracles."""

import functools
import math
import random
import re
import statistics
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracle_sums
from polykernel import expansions as ex
from polykernel import specfun as sf
from polykernel.errors import (
    CoincidentRadiusError,
    ConvergenceError,
    DomainError,
    ExclusionSetError,
    PoleError,
    SlowConvergenceError,
    in_range,
)
from polykernel.kernels import KernelGeometry


def geometry(R, Rp, dphi, h):
    x = np.array([R, 0.0, 0.0])
    xp = np.array([Rp * math.cos(dphi), Rp * math.sin(dphi), h])
    return KernelGeometry(x=x, xp=xp)


class TestFourierIntegerPower:
    def test_p0(self):
        assert ex.fourier_integer_power(0, 1.8, 0.4) == pytest.approx(1.0, rel=1e-15)

    def test_p1(self):
        assert ex.fourier_integer_power(1, 2.0, 0.5) == pytest.approx(1.5, rel=1e-14)

    def test_p3(self):
        assert ex.fourier_integer_power(3, 1.5, -0.2) == pytest.approx(4.913, rel=1e-13)

    def test_reconstruction_grid(self):
        for z in (1.5, 3.0):
            for p in range(6):
                xs = np.linspace(-1.0, 1.0, 128)
                err = max(abs(ex.fourier_integer_power(p, z, float(x))
                              - (z - x) ** p) for x in xs)
                assert err < 1e-12


class TestFourierNegativePower:
    def test_q1(self):
        ps = ex.fourier_negative_power(1, 3.0, 0.0, ex.Truncation(1e-12, 200))
        assert ps.terms_used <= 60
        assert ps.value == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_q2(self):
        ps = ex.fourier_negative_power(2, 1.5, 0.9)
        assert ps.value == pytest.approx(0.6 ** -2, rel=1e-10)

    def test_reflection(self):
        # the T_n parity makes x -> -x track the direct oracle at -x
        for q, z, x in ((1, 2.0, 0.7), (3, 1.7, -0.4)):
            ps = ex.fourier_negative_power(q, z, -x)
            assert ps.value == pytest.approx((z + x) ** (-q), rel=1e-10)

    def test_no_convergence(self):
        with pytest.raises(ConvergenceError):
            ex.fourier_negative_power(2, 1.2, 0.9, ex.Truncation(1e-14, 5))

    def test_high_order(self):
        # large q exercises the Gamma(q) prefactor and the Q column's large order
        for q in (5, 8):
            ps = ex.fourier_negative_power(q, 1.8, -0.6)
            assert ps.value == pytest.approx(2.4 ** (-q), rel=1e-10)

    def test_near_one_accuracy(self):
        # the P_{q-1}^{-n} loop this series replaced read 1.4e-8 off here
        q, z, x = 5, 1.0443593071345412, -0.7562720306402968
        exact = (mp.mpf(z) - mp.mpf(x)) ** -q
        assert abs(ex.fourier_negative_power(q, z, x).value - exact) <= 1e-9 * exact

    def test_no_less_accurate_than_the_loop(self):
        # one generator draws each (q, z, x) for both routes; the cosine
        # series' median and worst error against 40-digit mpmath are no
        # worse than those of the loop it replaced
        rng = random.Random(0)
        new, old = [], []
        with mp.workdps(40):
            for _ in range(300):
                q, x = rng.randint(1, 8), rng.uniform(-1.0, 1.0)
                z = 1.0 + math.exp(rng.uniform(math.log(0.03), math.log(10.0)))
                exact = (mp.mpf(z) - mp.mpf(x)) ** -q
                for errs, fn in ((new, ex.fourier_negative_power),
                                 (old, oracle_sums.fourier_negative_power_reference)):
                    errs.append(float(abs(fn(q, z, x).value - exact) / exact))
        assert statistics.median(new) <= statistics.median(old)
        assert max(new) <= max(old)


class TestEulerKernelJacobi:
    def test_reciprocal(self):
        ps = ex.euler_kernel_jacobi(1.0, 0.0, 0.0, 3.0, 0.2,
                                    ex.Truncation(1e-11, 500))
        assert ps.value == pytest.approx(1.0 / 2.8, rel=1e-9)

    def test_terminating(self):
        # Pochhammer kill switch: nu = -2 reconstructs (z-x)^2 in 3 terms
        ps = ex.euler_kernel_jacobi(-2.0, 0.4, 0.1, 2.0, 0.5)
        assert ps.terms_used == 3
        assert ps.value == pytest.approx(1.5 ** 2, rel=1e-12)

    def test_terminating_counts(self):
        for n in (1, 2, 3):
            ps = ex.euler_kernel_jacobi(-float(n), 0.3, -0.2, 1.7, 0.4)
            assert ps.terms_used == n + 1
            assert ps.value == pytest.approx((1.7 - 0.4) ** n, rel=1e-12)

    def test_half_power(self):
        ps = ex.euler_kernel_jacobi(0.5, 0.3, -0.4, 2.0, -0.7)
        assert ps.value == pytest.approx(2.7 ** -0.5, rel=1e-10)

    def test_negative_alpha_plus_beta_plus_one(self):
        # the n = 0 coefficient's factor alpha + beta + 1 is negative: its
        # log raised a bare "math domain error"
        ps = ex.euler_kernel_jacobi(1.0, -0.9, -0.5, 2.0, 0.3)
        assert ps.value == pytest.approx(1.0 / 1.7, rel=1e-12)

    def test_no_less_accurate_than_a_double_prefactor(self):
        # The series against its loop that formed the prefactor as a double
        # (`oracle_sums.euler_kernel_jacobi_double_prefactor`), pooled over
        # four seeds: the same terms_used on every draw, and a median and
        # worst error against 40-digit mpmath within 1.1 times the old ones.
        # One seed alone moves further (seed 2's median reads 1.18 times).
        new, old = [], []
        with mp.workdps(40):
            for seed in range(4):
                rng = random.Random(seed)
                for _ in range(300):
                    nu = rng.uniform(0.05, 4.0)
                    alpha, beta = rng.uniform(-0.45, 3.0), rng.uniform(-0.45, 3.0)
                    z = 1.0 + math.exp(rng.uniform(math.log(0.03), math.log(10.0)))
                    x = rng.uniform(-1.0, 1.0)
                    exact = (mp.mpf(z) - mp.mpf(x)) ** -nu
                    ps = ex.euler_kernel_jacobi(nu, alpha, beta, z, x)
                    base = oracle_sums.euler_kernel_jacobi_double_prefactor(nu, alpha, beta, z, x)
                    assert ps.terms_used == base.terms_used, (nu, alpha, beta, z, x)
                    new.append(float(abs(ps.value - exact) / exact))
                    old.append(float(abs(base.value - exact) / exact))
        assert statistics.median(new) <= 1.1 * statistics.median(old)
        assert max(new) <= 1.1 * max(old)

    def test_note32_pq_identity(self):
        # P_{n-k}^{(-a-n-1,-b-n-1)}(z) against the Jacobi-Q closed form
        rng = np.random.default_rng(73)
        for _ in range(50):
            n = int(rng.integers(0, 6))
            k = int(rng.integers(0, n + 1))
            a = float(rng.uniform(-0.4, 1.5))
            b = float(rng.uniform(-0.4, 1.5))
            z = float(rng.uniform(1.3, 4.0))
            lhs = (sf.pochhammer(-a - n - 1.0 + 1.0, n - k) / math.factorial(n - k)
                   * sf.gauss_2f1(-(n - k), (n - k) + (-a - n - 1.0) + (-b - n - 1.0) + 1.0,
                                  -a - n, 0.5 * (1.0 - z)))
            rhs = ((-1.0) ** (n + k) * sf.gamma(a + b + n + k + 2.0)
                   * (z - 1.0) ** (a + n + 1.0) * (z + 1.0) ** (b + n + 1.0)
                   / (2.0 ** (a + b + 2.0 * n + 1.0) * math.factorial(n - k)
                      * sf.gamma(a + k + 1.0) * sf.gamma(b + k + 1.0))
                   * sf.jacobi_q2(k - n - 1.0, a + n + 1.0, b + n + 1.0, z))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestEulerKernelGegenbauer:
    def test_reciprocal(self):
        ps = ex.euler_kernel_gegenbauer(1.0, 0.5, 2.5, 0.3)
        assert ps.value == pytest.approx(1.0 / 2.2, rel=1e-9)

    def test_matches_jacobi_route(self):
        # mu - 1/2 = alpha = beta reduces this to the Jacobi expansion
        nu, mu, z, x = 1.3, 0.8, 2.0, -0.4
        a = ex.euler_kernel_gegenbauer(nu, mu, z, x).value
        b = ex.euler_kernel_jacobi(nu, mu - 0.5, mu - 0.5, z, x).value
        assert abs(a - b) < 1e-10 * abs(a)

    def test_inverse_square(self):
        ps = ex.euler_kernel_gegenbauer(2.0, 1.0, 4.0, -0.8)
        assert ps.value == pytest.approx(4.8 ** -2, rel=1e-10)

    def test_exclusion(self):
        with pytest.raises(ExclusionSetError):
            ex.euler_kernel_gegenbauer(-1.0, 0.5, 2.0, 0.3)


class TestEulerKernelChebyshev:
    def test_heine_case(self):
        ps = ex.euler_kernel_chebyshev(1.0, 3.0, 0.0)
        assert ps.value == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_unit_value(self):
        ps = ex.euler_kernel_chebyshev(0.5, 1.5, 0.5)
        assert ps.value == pytest.approx(1.0, rel=1e-10)

    def test_matches_fourier_series(self):
        # nu = q = 2: the Chebyshev and Fourier routes agree
        a = ex.euler_kernel_chebyshev(2.0, 1.8, 0.3).value
        b = ex.fourier_negative_power(2, 1.8, 0.3).value
        assert abs(a - b) < 1e-10 * abs(a)

    def test_exclusion(self):
        with pytest.raises(ExclusionSetError):
            ex.euler_kernel_chebyshev(0.0, 2.0, 0.1)


class TestMultipolePower:
    def test_coulomb(self):
        ps = ex.multipole_power(3, -1.0, 1.0, 2.0, 0.3)
        assert ps.value == pytest.approx(3.8 ** -0.5, rel=1e-10)

    def test_d4(self):
        ps = ex.multipole_power(4, -2.0, 0.5, 1.0, -0.4)
        want = ex.distance_power_direct(-2.0, 0.5, 1.0, -0.4)
        assert ps.value == pytest.approx(want, rel=1e-10)

    def test_collinear(self):
        ps = ex.multipole_power(5, 1.0, 1.0, 3.0, 1.0)
        assert ps.value == pytest.approx(2.0, rel=1e-9)

    def test_exclusion(self):
        with pytest.raises(ExclusionSetError):
            ex.multipole_power(3, 2.0, 1.0, 2.0, 0.3)

    def test_coincident_radius(self):
        with pytest.raises(CoincidentRadiusError):
            ex.multipole_power(3, -1.0, 1.0, 1.0 + 1e-9, 0.3)

    def test_high_dimension(self):
        ps = ex.multipole_power(10, -4.5, 1.0, 2.4, 0.35)
        want = ex.distance_power_direct(-4.5, 1.0, 2.4, 0.35)
        assert ps.value == pytest.approx(want, rel=1e-10)


class TestAzimuthalPower:
    def test_direct_oracle(self):
        g = geometry(1.0, 1.0, 0.5 * math.pi, 1.0)  # chi = 1.5, 2RR' = 2
        assert g.chi == pytest.approx(1.5, rel=1e-14)
        ps = ex.azimuthal_power(-1.0, g)
        assert ps.value == pytest.approx(1.0 / g.distance, rel=1e-10)

    def test_zero_angle_reconstruction(self):
        g = geometry(1.0, 1.2, 0.0, 0.9)
        nu = -2.5
        ps = ex.azimuthal_power(nu, g)
        want = (2.0 * g.R * g.Rp) ** (0.5 * nu) * (g.chi - 1.0) ** (0.5 * nu)
        assert ps.value == pytest.approx(want, rel=1e-9)

    def test_matches_chebyshev_composition(self):
        # identical algebra: azimuthal series = Chebyshev kernel series
        # composed with the toroidal distance factorization (both read the
        # same Qhat column, so this is a consistency check, not an oracle;
        # TestNearFieldOracles composes the per-degree Chebyshev sum)
        g = geometry(1.0, 1.4, 1.1, 1.3)
        nu = -1.0
        a = ex.azimuthal_power(nu, g).value
        b = ((2.0 * g.R * g.Rp) ** (0.5 * nu)
             * ex.euler_kernel_chebyshev(-0.5 * nu, g.chi,
                                         math.cos(g.delta_phi)).value)
        assert abs(a - b) < 1e-12 * abs(a)

    def test_exclusion(self):
        g = geometry(1.0, 1.0, 0.5, 1.0)
        with pytest.raises(ExclusionSetError):
            ex.azimuthal_power(0.0, g)


def _accuracy_draw(name, rng):
    """(arguments, 40-digit value) of a Legendre-Q series: z - 1, chi - 1
    log-spread down to the ill-conditioned near field, nu off each excluded
    set."""
    def far(lo, hi):
        return 1.0 + math.exp(rng.uniform(math.log(lo), math.log(hi)))

    if name == "euler_kernel_chebyshev":
        nu, z, x = rng.uniform(0.05, 6.0), far(0.03, 10.0), rng.uniform(-1.0, 1.0)
        return (nu, z, x), (mp.mpf(z) - mp.mpf(x)) ** -mp.mpf(nu)
    if name == "euler_kernel_gegenbauer":
        nu, mu = rng.uniform(0.05, 6.0), rng.uniform(-0.45, 4.0)
        z, x = far(0.03, 10.0), rng.uniform(-1.0, 1.0)
        return (nu, mu, z, x), (mp.mpf(z) - mp.mpf(x)) ** -mp.mpf(nu)
    if name == "multipole_power":
        d, nu = rng.randint(3, 7), rng.uniform(-3.0, 2.5)
        rp, c = 1.0 / rng.uniform(0.1, 0.8), rng.uniform(-1.0, 1.0)
        if nu >= 0.0 and abs(0.5 * nu - round(0.5 * nu)) < 1e-3:
            nu += 0.01
        return (d, nu, 1.0, rp, c), (1 + mp.mpf(rp) ** 2 - 2 * mp.mpf(rp) * c) ** (mp.mpf(nu) / 2)
    nu, Rp = rng.uniform(-3.0, 1.0), rng.uniform(0.5, 2.0)
    chi, dphi = far(0.05, 3.0), rng.uniform(0.0, 2.0 * math.pi)
    if 2.0 * Rp * chi - 1.0 - Rp * Rp < 0.0:
        chi = (1.0 + Rp * Rp) / (2.0 * Rp) + 0.1
    if nu >= 0.0 and abs(0.5 * nu - round(0.5 * nu)) < 1e-3:
        nu -= 0.01
    g = geometry(1.0, Rp, dphi, math.sqrt(2.0 * Rp * chi - 1.0 - Rp * Rp))
    dist = mp.sqrt(mp.fsum((mp.mpf(float(a)) - mp.mpf(float(b))) ** 2 for a, b in zip(g.x, g.xp)))
    return (nu, g), dist ** nu


class TestLogPrefactorAccuracy:
    @given(a=st.floats(-700.0, 700.0), b=st.floats(-700.0, 700.0),
           low=st.floats(-1e-13, 1e-13))
    def test_exp_sum_keeps_the_exponent_precise(self, a, b, low):
        # e^{fl(a + b)} is off by up to half an ulp of a + b, relative
        # (1e-13 at |a + b| near 700); the correction keeps 2.5e-16
        assume(-700.0 < a + b < 700.0)
        with mp.workdps(40):
            exact = mp.exp(mp.mpf(a) + mp.mpf(b) + mp.mpf(low))
            assert abs(ex._exp_sum(a, b, low) - exact) <= 2.5e-16 * exact

    @pytest.mark.parametrize("name", ["euler_kernel_chebyshev", "euler_kernel_gegenbauer",
                                      "multipole_power", "azimuthal_power"])
    def test_no_less_accurate_than_a_double_prefactor(self, name):
        # Each Legendre-Q series against its loop that formed the prefactor
        # as a double and read value columns
        # (`oracle_sums.<name>_double_prefactor`), pooled over four seeds:
        # the same terms_used on every draw, and a median and worst error
        # against 40-digit mpmath within 1.1 times the old ones.
        new, old = [], []
        with mp.workdps(40):
            for seed in range(4):
                rng = random.Random(f"{name}:{seed}")
                for _ in range(300):
                    args, exact = _accuracy_draw(name, rng)
                    ps = getattr(ex, name)(*args)
                    base = getattr(oracle_sums, f"{name}_double_prefactor")(*args)
                    assert ps.terms_used == base.terms_used, args
                    new.append(float(abs(ps.value - exact) / abs(exact)))
                    old.append(float(abs(base.value - exact) / abs(exact)))
        assert statistics.median(new) <= 1.1 * statistics.median(old)
        assert max(new) <= 1.1 * max(old)


class TestFourierCoefficientQuadrature:
    def test_mode_coefficients(self):
        # n-th cosine coefficient of (chi - cos psi)^{-q} against the series'
        # closed-form Legendre factor, via periodic trapezoid quadrature
        q, chi = 2, 1.7
        w = chi / math.sqrt(chi * chi - 1.0)
        psi = np.arange(512) * (2.0 * math.pi / 512)
        f = (chi - np.cos(psi)) ** (-q)
        for n in range(11):
            quad = float(np.mean(f * np.cos(n * psi)))
            series = ((chi * chi - 1.0) ** (-0.5 * q) / math.factorial(q - 1)
                      * math.factorial(n + q - 1) * sf.legendre_p_gt1(q - 1.0, -float(n), w))
            assert abs(quad - series) < 1e-9 * max(1.0, abs(series))


class TestMonotoneConvergence:
    def test_achieved_error_decreases(self):
        # checkpointed partial sums approach the oracle monotonically
        cases = [
            (lambda tr, trace: ex.euler_kernel_chebyshev(1.5, 1.6, 0.4, tr, trace),
             ex.euler_kernel_direct(1.5, 1.6, 0.4)),
            (lambda tr, trace: ex.multipole_power(3, -1.0, 1.0, 2.5, 0.2, tr, trace),
             ex.distance_power_direct(-1.0, 1.0, 2.5, 0.2)),
            (lambda tr, trace: ex.fourier_negative_power(2, 1.4, 0.3, tr, trace),
             (1.4 - 0.3) ** -2),
        ]
        for run, want in cases:
            trace = []
            run(ex.Truncation(tol=1e-13, max_terms=1000), trace)
            partials = [row[3] for row in trace]
            errs = [abs(p - want) / abs(want) for p in partials]
            k = len(errs) // 3
            assert errs[-1] <= errs[2 * k] <= errs[k] or errs[-1] < 1e-12


class TestOracleConvergenceGrid:
    def test_small_grid(self):
        tr = ex.Truncation(tol=1e-12, max_terms=600)
        for nu in (0.5, 2.5):
            for z in (1.3, 5.0):
                for x in (-0.8, 0.6):
                    want = ex.euler_kernel_direct(nu, z, x)
                    for value in (
                        ex.euler_kernel_jacobi(nu, 0.3, -0.2, z, x, tr).value,
                        ex.euler_kernel_gegenbauer(nu, 0.8, z, x, tr).value,
                        ex.euler_kernel_chebyshev(nu, z, x, tr).value,
                    ):
                        assert abs(value - want) < 1e-8 * abs(want)


class TestTruncation:
    @pytest.mark.parametrize("tol, max_terms, message", [
        (-1.0, 2000, "^tol must be a positive finite number"),
        (0.0, 2000, "^tol must be a positive finite number"),
        (math.nan, 2000, "^tol must be a positive finite number"),
        (math.inf, 2000, "^tol must be a positive finite number"),
        (1e-9, 0, "^max_terms must be >= 1"),
        (1e-9, -3, "^max_terms must be >= 1"),
    ])
    def test_rejected(self, tol, max_terms, message):
        # no term meets a tol <= 0 or NaN: every sum ran to max_terms and
        # raised ConvergenceError, as did every sum under max_terms < 1
        with pytest.raises(ValueError, match=message):
            ex.Truncation(tol=tol, max_terms=max_terms)

    @pytest.mark.parametrize("nu, z", [(2.1, 1e150), (2.0, 7.685056696788596e158)])
    def test_subnormal_kernel_rejected(self, nu, z):
        # the kernel, about 1e-315, is subnormal: these summed, stopping on
        # terms of 0 alone, to a value 1e-5 off
        with pytest.raises(DomainError, match=f"^{re.escape(f'nu = {nu}, z = {z}')}: the kernel"):
            ex.euler_kernel_chebyshev(nu, z, 0.3)

    def test_zero_terms_stop_a_sum_tol_underflows_at(self):
        # tol * |s| underflows to 0 (1e-300 * 1e-200), so only a term of 0
        # counts as small: the third term and those after it underflow to 0,
        # and without the zero-term clause the sum ran 2 000 terms and raised
        # ConvergenceError
        ps = ex.euler_kernel_chebyshev(2.0, 1e100, 0.3, ex.Truncation(1e-300, 2000))
        assert ps.terms_used == 5
        assert ps.value == pytest.approx(ex.euler_kernel_direct(2.0, 1e100, 0.3), rel=1e-12)

    def test_stop_unchanged_on_normal_sums(self):
        # Where every partial sum is a normal double, tol * |s| > 0 and a
        # term of 0 was already small: each converged sum stops where the
        # rule without the zero-term clause, read off its trace, stops.
        rng = random.Random(28)
        checked = 0
        for _ in range(400):
            name, args, tr = _stop_rule_draw(rng)
            trace = []
            try:
                ps = getattr(ex, name)(*args, tr=tr, trace=trace)
            except (ConvergenceError, DomainError):
                continue
            if not all(abs(s) >= sys.float_info.min for _, _, _, s in trace):
                continue
            run = 0
            for n, (_, _, term, s) in enumerate(trace, 1):
                run = run + 1 if abs(term) < tr.tol * abs(s) else 0
                if run == 3:
                    break
            assert (run, n) == (3, ps.terms_used), (name, args, tr)
            checked += 1
        assert checked >= 250


def _stop_rule_draw(rng):
    """(name, args, Truncation) of an infinite expansion series, z or r'/r
    log-spread, nu off every excluded set."""
    def far(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    tr = ex.Truncation(rng.choice([1e-14, 1e-12, 1e-8]), 2000)
    x, z = rng.uniform(-1.0, 1.0), 1.0 + far(1e-2, 1e200)
    kind = rng.randrange(6)
    if kind == 0:
        return "euler_kernel_chebyshev", (rng.uniform(0.05, 6.0), z, x), tr
    if kind == 1:
        return "euler_kernel_gegenbauer", (rng.uniform(0.05, 6.0), rng.uniform(-0.45, 4.0), z,
                                           x), tr
    if kind == 2:
        return "euler_kernel_jacobi", (rng.uniform(0.05, 4.0), rng.uniform(-0.45, 3.0),
                                       rng.uniform(-0.45, 3.0), z, x), tr
    if kind == 3:
        return "fourier_negative_power", (rng.randint(1, 6), z, x), tr
    if kind == 4:
        return "multipole_power", (rng.randint(3, 7), rng.uniform(-6.0, 5.0), 1.0,
                                   far(1e-2, 1e2), x), tr
    return "azimuthal_power", (rng.uniform(-6.0, 1.0),
                               geometry(1.0, far(0.1, 10.0), rng.uniform(0.0, 6.2),
                                        far(1e-2, 1e2))), tr


class TestArgumentDomain:
    @pytest.mark.parametrize("call", [
        lambda: ex.euler_kernel_chebyshev(2.5, 2.0, 1.5),
        lambda: ex.fourier_negative_power(2, 2.0, 1.5),
        lambda: ex.euler_kernel_gegenbauer(1.5, 0.5, 1.05, 1.5),
        lambda: ex.euler_kernel_jacobi(1.5, 0.2, 0.3, 2.0, -1.5),
        lambda: ex.euler_kernel_chebyshev(1.0, math.inf, 0.0),
        lambda: ex.euler_kernel_gegenbauer(1.5, 0.5, 2.0, math.nan),
        lambda: ex.euler_kernel_jacobi(math.nan, 0.2, 0.3, 2.0, 0.5),
        lambda: ex.fourier_negative_power(1, math.inf, 0.5),
    ])
    def test_rejected(self, call):
        # |x| > 1 used to be clamped to 1 (a wrong value, no error) or to sum
        # NaN terms up to max_terms
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("order", [2.5, math.nan, math.inf])
    @pytest.mark.parametrize("fn, message", [
        (ex.fourier_negative_power, "q must be a positive integer"),
        (ex.fourier_integer_power, "p must be a nonnegative integer"),
    ])
    def test_non_integer_order_rejected(self, fn, message, order):
        # these escaped as TypeError from math.factorial or range; q = 2.5
        # would sum (z - x)^{-2.5}, which the series is not defined for
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(order, 2.0, 0.3)

    @pytest.mark.parametrize("call, name", [
        (lambda: ex.multipole_power(3, -1.0, 1.0, math.inf, 0.3), "rp"),
        (lambda: ex.multipole_power(3, -1.0, math.nan, 1.0, 0.3), "r"),
        (lambda: ex.multipole_power(3, math.nan, 1.0, 2.0, 0.3), "nu"),
        (lambda: ex.multipole_power(3, -1.0, 1.0, 2.0, math.nan), "cos_gamma"),
        (lambda: ex.fourier_integer_power(2, math.inf, 0.3), "z"),
        (lambda: ex.fourier_integer_power(2, 2.0, math.nan), "x"),
        (lambda: ex.azimuthal_power(math.inf, geometry(1.0, 1.0, 0.5, 1.0)), "nu"),
    ])
    def test_non_finite_rejected_by_name(self, call, name):
        # a non-finite radius used to run the 2F1 series to its 100 000-term
        # cap (ConvergenceError), a non-finite z to fail converting to Fraction
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            call()

    @pytest.mark.parametrize("call, names", [
        (lambda: ex.multipole_power(3, -1.0, 1e-200, 1e200, 0.3), "r = 1e-200, rp = 1e+200"),
        (lambda: ex.multipole_power(3, -1.0, 1e-200, 2e-200, 0.3), "r = 1e-200, rp = 2e-200"),
        (lambda: ex.azimuthal_power(-1.0, geometry(1e-200, 1e200, 0.3, 0.5)),
         "R = 1e-200, Rp = 1e+200"),
        (lambda: ex.azimuthal_power(-1.0, geometry(1.0, 2.0, 0.3, 1e200)), "R = 1.0, Rp = 2.0"),
        (lambda: geometry(1e-200, 2e-200, 0.3, 0.5), "R = 1e-200, Rp = 2e-200"),
    ])
    def test_extreme_radii_rejected_by_name(self, call, names):
        # finite radii whose squares or products leave double range used to
        # raise OverflowError "(34, 'Numerical result out of range')" or
        # ZeroDivisionError, or print a numpy RuntimeWarning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{re.escape(names)}"):
                call()

    @pytest.mark.parametrize("call, message", [
        # the kernel (z - x)^{-nu} or ||x - x'||^nu is not a normal double:
        # every term would be 0, and the sum would run to max_terms, as the
        # Jacobi sum and fourier_negative_power's at z = 1e110 did
        (lambda: ex.euler_kernel_jacobi(1.5, 0.0, 0.0, 1e300, 0.3),
         "nu = 1.5, alpha = 0.0, beta = 0.0, z = 1e+300: the kernel (z - x)^-nu"
         " leaves double range"),
        (lambda: ex.fourier_negative_power(3, 1e110, 0.3),
         "q = 3, z = 1e+110: the kernel (z - x)^-nu leaves double range"),
        (lambda: ex.euler_kernel_chebyshev(2.0, 1e200, 0.3),
         "nu = 2.0, z = 1e+200: the kernel (z - x)^-nu leaves double range"),
        # these were refused for a prefactor, (z^2 - 1)^{nu/2}, past range
        (lambda: ex.euler_kernel_chebyshev(40.0, 1e10, 0.0),
         "nu = 40.0, z = 10000000000.0: the kernel (z - x)^-nu leaves double range"),
        (lambda: ex.euler_kernel_gegenbauer(40.0, 0.5, 1e10, 0.0),
         "nu = 40.0, mu = 0.5, z = 10000000000.0: the kernel (z - x)^-nu leaves double range"),
        (lambda: ex.multipole_power(3, -100.0, 1.0, 1e10, 0.3),
         "nu = -100.0, r = 1.0, rp = 10000000000.0, cos_gamma = 0.3: the kernel"
         " ||x - x'||^nu leaves double range"),
        (lambda: ex.azimuthal_power(-301.0, geometry(1.0, 1.0, 0.5, 1e10)),
         "nu = -301.0, R = 1.0, Rp = 1.0, chi = 5e+19: the kernel ||x - x'||^nu leaves double"
         " range"),
        # a subnormal kernel, about 2e-322: this summed to it, converged
        (lambda: ex.euler_kernel_jacobi(3.829732356475863, 26.10103582490441,
                                        2.9893093117643206, 9.83904362729782e83,
                                        0.48876406730322186),
         "nu = 3.829732356475863, alpha = 26.10103582490441, beta = 2.9893093117643206,"
         " z = 9.83904362729782e+83: the kernel (z - x)^-nu leaves double range"),
    ])
    def test_kernel_past_double_range_rejected_by_name(self, call, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize("call, want, rel", [
        # each series carries its prefactor in log space with its Q factors,
        # so these are summed wherever the kernel is a normal double; they
        # were refused: Gamma(199) overflowed, the prefactor (about 1e-450)
        # underflowed, the scale kernel / prefactor (about 1e-500)
        # underflowed, and the radial factor (r> r<)^{-3} underflowed
        (lambda: ex.multipole_power(400, -1.0, 1.0, 2.0, 0.3),
         ex.distance_power_direct(-1.0, 1.0, 2.0, 0.3), 1e-12),
        (lambda: ex.euler_kernel_chebyshev(150.0, 100.0, 0.0),
         ex.euler_kernel_direct(150.0, 100.0, 0.0), 1e-12),
        (lambda: ex.euler_kernel_gegenbauer(1.0, 1.5, 1e200, 0.3),
         ex.euler_kernel_direct(1.0, 1e200, 0.3), 1e-12),
        (lambda: ex.multipole_power(7, -1.0, 1e100, 2e100, 0.3),
         ex.distance_power_direct(-1.0, 1e100, 2e100, 0.3), 1e-12),
        # Gamma(200) overflowed; the sum's terms reach 2e-192 against a kernel
        # of 4e-198, so rounding costs digits
        (lambda: ex.euler_kernel_chebyshev(200.0, 10.0, 0.3),
         ex.euler_kernel_direct(200.0, 10.0, 0.3), 1e-7),
    ])
    def test_log_prefactor_sums_what_the_double_one_refused(self, call, want, rel):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert call().value == pytest.approx(want, rel=rel)

    @pytest.mark.parametrize("call, names", [
        # the terms outweigh the kernel past 2^43, so their rounding can reach
        # the sum: these were refused for a Gamma or prefactor past double
        # range, and on the log form read 1e79 (Fourier), 2e20, 0.9, 3e34 and
        # 1e8 (Chebyshev), 2.4 (Gegenbauer), 2e101 (multipole) and 7e48
        # (azimuthal) relative off the kernel, each "converged"
        (lambda: ex.fourier_negative_power(200, 1.5, 0.0), "q = 200, z = 1.5, x = 0.0"),
        (lambda: ex.euler_kernel_chebyshev(200.0, 3.0, 0.0), "nu = 200.0, z = 3.0, x = 0.0"),
        (lambda: ex.euler_kernel_chebyshev(-150.5, 3.0, 0.0), "nu = -150.5, z = 3.0, x = 0.0"),
        (lambda: ex.euler_kernel_chebyshev(180.0, 2.0, 0.1), "nu = 180.0, z = 2.0, x = 0.1"),
        (lambda: ex.euler_kernel_chebyshev(-200.5, 3.0, 0.0), "nu = -200.5, z = 3.0, x = 0.0"),
        (lambda: ex.euler_kernel_gegenbauer(-150.5, 0.5, 3.0, 0.0),
         "nu = -150.5, mu = 0.5, z = 3.0, x = 0.0"),
        (lambda: ex.multipole_power(3, -400.0, 1.0, 2.0, 0.3),
         "d = 3, nu = -400.0, r = 1.0, rp = 2.0, cos_gamma = 0.3"),
        (lambda: ex.azimuthal_power(-400.0, geometry(1.0, 1.5, 0.5, 1.0)),
         "nu = -400.0, R = 1.0, Rp = 1.5, chi = 1.4166666666666667, dphi = -0.5"),
        # the double prefactor summed this one to 2.2 relative off, "converged"
        (lambda: ex.euler_kernel_chebyshev(100.0, 3.0, 0.0), "nu = 100.0, z = 3.0, x = 0.0"),
    ])
    def test_terms_cancelling_past_double_precision_rejected_by_name(self, call, names):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{re.escape(names)}: the series' terms cancel"
                                                  " past double precision$"):
                call()

    @pytest.mark.parametrize("call", [
        lambda: ex.multipole_power(3, -600.0, 1.0, 1.1, -1.0),
        lambda: ex.euler_kernel_chebyshev(300.0, 1.01, -1.0),
    ])
    def test_terms_past_double_range_rejected(self, call):
        # the kernel is a normal double, but terms reach inf: the sum, NaN,
        # stops there and is refused, where it ran to ConvergenceError after
        # 2 000 terms; the double prefactor refused them (Gamma(300) overflowed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="terms cancel past double precision$"):
                call()

    @pytest.mark.parametrize("value", [0.0, 5e-324, sys.float_info.min / 2, math.inf, math.nan,
                                       np.array([1e-310, 0.0]), np.array([1.0, math.inf])])
    def test_range_check_refuses_what_is_no_normal_double(self, value):
        with pytest.raises(DomainError, match="^a = 1: past range$"):
            in_range(lambda: value, "past range", a=1)

    @pytest.mark.parametrize("value", [sys.float_info.min, -1e308, np.array([1e-310, 3e-308])])
    def test_range_check_accepts_a_normal_peak(self, value):
        assert in_range(lambda: value, "past range", a=1) is value

    @pytest.mark.parametrize("call, nu, x", [
        (lambda: ex.euler_kernel_chebyshev(1.0, 1e200, 0.3), 1.0, 0.3),
        (lambda: ex.fourier_negative_power(1, 1e200, 0.3), 1.0, 0.3),
        (lambda: ex.euler_kernel_chebyshev(1.5, 1e200, -1.0), 1.5, -1.0),
        (lambda: ex.euler_kernel_gegenbauer(1.5, 0.5, 1e200, 0.3), 1.5, 0.3),
    ])
    def test_far_field_where_z_squared_overflows_accepted(self, call, nu, x):
        # z^2 overflows, but each kernel value, 1e-200 or 1e-300, is a
        # normal double: these exited 6 when the prefactor formed
        # (z^2 - 1)^p from z^2
        assert call().value == pytest.approx(ex.euler_kernel_direct(nu, 1e200, x), rel=1e-12)

    @pytest.mark.parametrize("nu, alpha, beta, z", [
        (1.5, 0.0, 0.0, 1e150), (0.48, 0.0, 0.0, 1e200),
        # the series carries its prefactor in log space, so these are summed
        # wherever the kernel is a double; they were refused: the prefactor,
        # about 7e+623, overflowed, and the kernel over the prefactor,
        # 1.4e-450 and 1.4e-305, underflowed or fell below the e^-700 under
        # which a term counted as 0
        (0.5, 10.0, 10.0, 1e30), (0.5, 0.0, 0.0, 1e300), (0.475, 0.0, 0.0, 1e200),
    ])
    def test_jacobi_far_field_in_range_accepted(self, nu, alpha, beta, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ps = ex.euler_kernel_jacobi(nu, alpha, beta, z, 0.3)
        assert ps.value == pytest.approx(ex.euler_kernel_direct(nu, z, 0.3), rel=1e-12)

    @pytest.mark.parametrize("call", [
        lambda: ex.euler_kernel_jacobi(1.0, -0.5, 0.0, 1e305, 0.3),
        lambda: ex.euler_kernel_chebyshev(0.5, 1e308, 0.3),
        lambda: ex.euler_kernel_gegenbauer(1.0, 0.5, 1e307, 0.3),
    ])
    def test_recurrence_past_double_range_rejected(self, call):
        # prefactor and scale in range, but the Q column's recurrence
        # coefficients overflow: a numpy RuntimeWarning, then exit 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="coefficients leave double range$"):
                call()

    def test_interval_ends_accepted(self):
        for x in (-1.0, 1.0):
            want = ex.euler_kernel_direct(1.5, 2.0, x)
            assert ex.euler_kernel_chebyshev(1.5, 2.0, x).value == pytest.approx(want, rel=1e-10)
            assert ex.fourier_negative_power(2, 2.0, x).value == pytest.approx(
                (2.0 - x) ** -2, rel=1e-10)


class TestDegreeColumns:
    TIGHT = ex.Truncation(tol=1e-16, max_terms=2000)

    @pytest.mark.parametrize("nu0, mu, z", [(-0.5, 1.2, 1.05), (0.3, -0.4, 1.25),
                                            (-0.5, 0.25, 3.0)])
    def test_chunks_match_one_column(self, nu0, mu, z):
        # three or more chunks, each continued from the one below
        n = 400
        signs, logs, lows = sf.legendre_q_hat_column(nu0, mu, z, n)
        whole = signs * np.exp(logs) * (1.0 + lows)
        chunked = np.concatenate([c_signs * np.exp(c_logs) * (1.0 + c_lows) for c_signs, c_logs, c_lows
                                  in ex._q_chunks(sf.legendre_q_hat_column, nu0, (mu,), z, n)])
        scale = np.maximum.accumulate(np.abs(whole)[::-1])[::-1]
        assert chunked.shape == (n,)
        assert np.all(np.abs(chunked - whole) <= 1e-14 * scale)

    @pytest.mark.parametrize("name, z, call", [
        ("legendre_q_hat_signed_log", 1.05,
         lambda tr: ex.euler_kernel_chebyshev(1.5, 1.05, 0.3, tr)),
        ("legendre_q_hat_signed_log", 1.05,
         lambda tr: ex.euler_kernel_gegenbauer(1.5, 0.7, 1.05, 0.3, tr)),
        ("legendre_q_hat_signed_log", 1.02,   # chi = (2 + h^2) / 2
         lambda tr: ex.azimuthal_power(-1.5, geometry(1.0, 1.0, 0.4, 0.2), tr)),
        ("jacobi_q2_signed_log", 1.05,
         lambda tr: ex.euler_kernel_jacobi(1.5, 0.2, 0.4, 1.05, 0.3, tr)),
    ])
    def test_one_series_value_per_sum(self, monkeypatch, name, z, call):
        # the sums run past their first chunk (16 + 32 / acosh z degrees) and
        # still pay for one series value, at the bottom degree
        calls = []
        series = getattr(sf, name)
        monkeypatch.setattr(sf, name, lambda *args: calls.append(args) or series(*args))
        ps = call(self.TIGHT)
        assert ps.terms_used > 16 + 32.0 / math.acosh(z)
        assert len(calls) == 1


def _azimuthal_oracle(nu, g):
    return ((2.0 * g.R * g.Rp) ** (0.5 * nu)
            * oracle_sums.chebyshev_sum(-0.5 * nu, g.chi, math.cos(g.delta_phi)))


class TestNearFieldOracles:
    """The column-based expansions at the benchmark's hard bands, against
    per-degree sums (`tests/oracle_sums.py`) and the direct value."""

    @pytest.mark.parametrize("expansion, oracle, direct", [
        (lambda: ex.euler_kernel_chebyshev(2.7, 1.05, 0.9),
         lambda: oracle_sums.chebyshev_sum(2.7, 1.05, 0.9), 0.15 ** -2.7),
        (lambda: ex.euler_kernel_chebyshev(2.2, 1.047, -0.6),
         lambda: oracle_sums.chebyshev_sum(2.2, 1.047, -0.6), 1.647 ** -2.2),
        (lambda: ex.euler_kernel_gegenbauer(1.7, 0.4, 1.14, 0.8),
         lambda: oracle_sums.gegenbauer_sum(1.7, 0.4, 1.14, 0.8), 0.34 ** -1.7),
        (lambda: ex.euler_kernel_gegenbauer(0.6, 1.9, 1.12, -0.3),
         lambda: oracle_sums.gegenbauer_sum(0.6, 1.9, 1.12, -0.3), 1.42 ** -0.6),
        (lambda: ex.euler_kernel_jacobi(2.4, -0.4, 1.3, 1.25, 0.7),
         lambda: oracle_sums.jacobi_sum(2.4, -0.4, 1.3, 1.25, 0.7), 0.55 ** -2.4),
        (lambda: ex.euler_kernel_jacobi(0.9, 1.1, 0.2, 1.21, -0.9),
         lambda: oracle_sums.jacobi_sum(0.9, 1.1, 0.2, 1.21, -0.9), 2.11 ** -0.9),
    ])
    def test_euler_kernel(self, expansion, oracle, direct):
        value, want = expansion().value, oracle()
        assert abs(value - want) <= 1e-11 * abs(direct)
        assert abs(value - direct) <= 1e-11 * abs(direct)
        assert abs(want - direct) <= 1e-11 * abs(direct)

    @pytest.mark.parametrize("nu, Rp, chi, dphi", [(-1.3, 0.9, 1.1, 2.1),
                                                   (-2.2, 1.1, 1.09, 5.0)])
    def test_azimuthal(self, nu, Rp, chi, dphi):
        g = geometry(1.0, Rp, dphi, math.sqrt(2.0 * Rp * chi - 1.0 - Rp * Rp))
        assert g.chi == pytest.approx(chi, rel=1e-12)
        value, want = ex.azimuthal_power(nu, g).value, _azimuthal_oracle(nu, g)
        direct = g.distance ** nu
        assert abs(value - want) <= 1e-11 * abs(direct)
        assert abs(value - direct) <= 1e-11 * abs(direct)
        assert abs(want - direct) <= 1e-11 * abs(direct)


# The six infinite series on the one degree-sum driver against their
# one-loop-each references (tests/oracle_sums.py), the Fourier series of
# (z - x)^{-q} against the Chebyshev one's at nu = q: the same PartialSum and
# trace rows, floats compared by float.hex, or the same error type, message
# and trace rows.  The draws cover every benchmark slot's z (chi, r</r>)
# band and some beyond, terminating Jacobi series, and term budgets small
# enough to run out.

def _series_outcome(fn, args, tr):
    trace = []
    try:
        ps = fn(*args, tr=tr, trace=trace)
    except Exception as exc:
        outcome = (type(exc), str(exc))
    else:
        outcome = (ps.value.hex(), ps.terms_used, ps.last_term_magnitude.hex(), ps.converged)
    return outcome, [(level, n, term.hex(), s.hex()) for level, n, term, s in trace]


def _assert_same_as_reference(name, args, tr, reference=None):
    want = _series_outcome(reference or getattr(oracle_sums, f"{name}_reference"), args, tr)
    assert _series_outcome(getattr(ex, name), args, tr) == want, (name, args, tr)


def _bands(*bands):
    return st.one_of(*(st.floats(lo, hi) for lo, hi in bands))


_X = st.floats(-1.0, 1.0)
_TR = st.one_of(st.just(ex.DEFAULT_TRUNCATION),
                st.builds(ex.Truncation, tol=st.sampled_from([1e-12, 1e-8, 1e-4]),
                          max_terms=st.one_of(st.integers(1, 12), st.just(2000))))


@pytest.mark.parity
class TestDegreeSumParity:
    @given(q=st.integers(1, 6), z=_bands((1.02, 1.1), (1.5, 4.0), (1.001, 10.0)), x=_X, tr=_TR)
    @example(q=2, z=1.2, x=0.9, tr=ex.Truncation(1e-14, 5))
    def test_fourier_negative_power(self, q, z, x, tr):
        _assert_same_as_reference("fourier_negative_power", (q, z, x), tr,
                                  functools.partial(oracle_sums.euler_kernel_chebyshev_reference,
                                                    name="q"))

    @given(nu=st.one_of(st.sampled_from([0.0, -1.0, -3.0]), st.floats(0.3, 6.0),
                        st.floats(-3.5, -0.1)),
           alpha=st.floats(-0.95, 3.0), beta=st.floats(-0.95, 3.0),
           z=_bands((1.2, 1.3), (2.0, 3.0), (1.05, 10.0)), x=_X, tr=_TR)
    @example(nu=0.0, alpha=0.3, beta=0.2, z=1.5, x=0.4, tr=ex.DEFAULT_TRUNCATION)
    @example(nu=-1.0, alpha=0.3, beta=0.2, z=1.5, x=0.4, tr=ex.DEFAULT_TRUNCATION)
    @example(nu=-3.0, alpha=0.3, beta=0.2, z=1.5, x=0.4, tr=ex.DEFAULT_TRUNCATION)
    @example(nu=-3.0, alpha=0.3, beta=0.2, z=1.5, x=0.4, tr=ex.Truncation(1e-12, 4))
    @example(nu=-3.0, alpha=0.3, beta=0.2, z=1.5, x=0.4, tr=ex.Truncation(1e-12, 1))
    @example(nu=1.0, alpha=-0.95, beta=-0.5, z=2.0, x=0.3, tr=ex.DEFAULT_TRUNCATION)
    def test_euler_kernel_jacobi(self, nu, alpha, beta, z, x, tr):
        _assert_same_as_reference("euler_kernel_jacobi", (nu, alpha, beta, z, x), tr)

    @given(nu=st.floats(0.05, 6.0), mu=st.floats(-0.45, 4.0),
           z=_bands((1.1, 1.15), (2.0, 4.0), (1.03, 10.0)), x=_X, tr=_TR)
    def test_euler_kernel_gegenbauer(self, nu, mu, z, x, tr):
        _assert_same_as_reference("euler_kernel_gegenbauer", (nu, mu, z, x), tr)

    @given(nu=st.floats(0.05, 6.0), z=_bands((1.045, 1.055), (1.2, 1.3), (2.0, 4.0)),
           x=_X, tr=_TR)
    @example(nu=1.5, z=2.0, x=0.3, tr=ex.Truncation(1e-12, 1))
    def test_euler_kernel_chebyshev(self, nu, z, x, tr):
        _assert_same_as_reference("euler_kernel_chebyshev", (nu, z, x), tr)

    @given(d=st.integers(3, 6), nu=st.floats(-3.0, 2.5),
           ratio=_bands((0.3, 0.4), (0.6, 0.65), (0.68, 0.72), (0.88, 0.9)),
           cos_gamma=_X, tr=_TR)
    @example(d=3, nu=-1.0, ratio=0.5, cos_gamma=0.3, tr=ex.Truncation(1e-12, 1))
    def test_multipole_power(self, d, nu, ratio, cos_gamma, tr):
        _assert_same_as_reference("multipole_power", (d, nu, 1.0, 1.0 / ratio, cos_gamma), tr)

    @given(nu=st.floats(-3.0, 1.0), Rp=st.floats(0.5, 2.0),
           chi=_bands((1.08, 1.12), (1.4, 3.0)), dphi=st.floats(0.0, 2.0 * math.pi), tr=_TR)
    def test_azimuthal_power(self, nu, Rp, chi, dphi, tr):
        assume(2.0 * Rp * chi - 1.0 - Rp * Rp >= 0.0)
        g = geometry(1.0, Rp, dphi, math.sqrt(2.0 * Rp * chi - 1.0 - Rp * Rp))
        _assert_same_as_reference("azimuthal_power", (nu, g), tr)


class TestFourierLoopOracle:
    """The Fourier series of (z - x)^{-q} against the P_{q-1}^{-n} loop it
    replaced (`oracle_sums.fourier_negative_power_reference`), which shares
    no code with the Legendre-Q column.  Sums of the same terms differ by at
    most c u (z - 1)^{-q}, c u times the bound on sum |terms|
    (c u ((z - x)/(z - 1))^q relative to (z - x)^{-q}), with c = 256: the
    loop's w - 1, w = z / sqrt(z^2 - 1), loses about log2(2 z^2) bits to
    cancellation, under 8 at the draws' top z = 10.  Both routes stop after
    the same number of terms, or both run out of them, unless that bound
    reaches tol (z - x)^{-q}: the stopping rule then reads partial sums that
    rounding leaves uncertain past tol."""

    @given(q=st.integers(1, 6), z=_bands((1.02, 1.1), (1.5, 4.0), (1.001, 10.0)), x=_X, tr=_TR)
    @example(q=2, z=1.2, x=0.9, tr=ex.Truncation(1e-14, 5))
    @example(q=6, z=9.315644727738071, x=0.9854112093737242, tr=ex.DEFAULT_TRUNCATION)
    @example(q=6, z=1.00390625, x=0.0, tr=ex.DEFAULT_TRUNCATION)
    def test_same_terms_and_rounding_bound(self, q, z, x, tr):
        # the series refuses a sum whose terms cancel past 2^43 (DomainError),
        # which the loop sums: that too is allowed only where the bound
        # reaches tol (z - x)^{-q}
        outcomes = []
        for fn in (ex.fourier_negative_power, oracle_sums.fourier_negative_power_reference):
            try:
                outcomes.append(fn(q, z, x, tr))
            except (ConvergenceError, DomainError):
                outcomes.append(None)
        new, old = outcomes
        bound = 256.0 * 2.0 ** -53 * (z - 1.0) ** -q
        if None in outcomes or new.terms_used != old.terms_used:
            assert new is old or bound >= tr.tol * (z - x) ** -q
            return
        assert abs(new.value - old.value) <= bound


# The second-kind cache (specfun.second_kind): a hit hands out the object a
# miss built, so everything read through it, down to each expansion's value,
# terms_used and trace rows, is what a cold cache gives, bit for bit.

def _q_chunk(nu0, mu, z, n, below=None):
    return sf.second_kind(sf.legendre_q_hat_column, (nu0, mu, z, n, below), 3 * n)


def _jacobi_chunk(gamma0, alpha, beta, z, n, below=None):
    return sf.second_kind(sf.jacobi_q2_column, (gamma0, alpha, beta, z, n, below), 3 * n)


def _bits(out):
    if isinstance(out, float):
        return out.hex()
    return [a.tobytes() for a in out] if isinstance(out, tuple) else out.tobytes()


def _cached_series(name, data):
    """(a function of the evaluation point giving the expansion's
    arguments, a strategy for that point), at drawn fixed parameters."""
    draw = data.draw
    if name == "euler_kernel_chebyshev":
        nu, z = draw(st.floats(0.05, 6.0)), draw(_bands((1.045, 1.055), (1.2, 1.3), (1.5, 4.0)))
        return lambda x: (nu, z, x), _X
    if name == "euler_kernel_gegenbauer":
        nu, mu = draw(st.floats(0.05, 6.0)), draw(st.floats(-0.45, 4.0).filter(bool))
        z = draw(_bands((1.1, 1.15), (1.5, 4.0)))
        return lambda x: (nu, mu, z, x), _X
    if name == "euler_kernel_jacobi":
        nu = draw(st.one_of(st.sampled_from([0.0, -3.0]), st.floats(0.3, 6.0)))
        alpha, beta = draw(st.floats(-0.95, 3.0)), draw(st.floats(-0.95, 3.0))
        z = draw(_bands((1.2, 1.3), (2.0, 3.0)))
        return lambda x: (nu, alpha, beta, z, x), _X
    if name == "multipole_power":
        d, nu = draw(st.integers(3, 6)), draw(st.floats(-3.0, 2.5))
        ratio = draw(_bands((0.3, 0.5), (0.6, 0.65)))
        return lambda c: (d, nu, 1.0, 1.0 / ratio, c), _X
    nu, Rp, chi = draw(st.floats(-3.0, 1.0)), draw(st.floats(0.5, 2.0)), draw(_bands((1.08, 1.12),
                                                                                        (1.4, 3.0)))
    assume(2.0 * Rp * chi - 1.0 - Rp * Rp >= 0.0)
    h = math.sqrt(2.0 * Rp * chi - 1.0 - Rp * Rp)
    return lambda dphi: (nu, geometry(1.0, Rp, dphi, h)), st.floats(0.0, 2.0 * math.pi)


@pytest.mark.parity
class TestSecondKindCache:
    @pytest.mark.parametrize("name", ["euler_kernel_chebyshev", "euler_kernel_gegenbauer",
                                      "euler_kernel_jacobi", "multipole_power",
                                      "azimuthal_power"])
    @given(data=st.data(), tr=_TR)
    def test_warm_series_equals_cold(self, name, data, tr):
        # a sweep over the evaluation point at fixed parameters: the second
        # call reads factors the first built, and gives what a cold cache does
        args_at, point = _cached_series(name, data)
        first, second = data.draw(point), data.draw(point)
        fn = getattr(ex, name)
        sf._second_kind.cache_clear()
        cold = _series_outcome(fn, args_at(second), tr)
        sf._second_kind.cache_clear()
        _series_outcome(fn, args_at(first), tr)
        hits = sf._second_kind.cache_info().hits
        assert _series_outcome(fn, args_at(second), tr) == cold
        # Q factors were read, at the same arguments: an azimuthal geometry
        # takes chi from the points, so it may move in the last bits with dphi
        if cold[1] and (name != "azimuthal_power"
                        or args_at(first)[1].chi == args_at(second)[1].chi):
            assert sf._second_kind.cache_info().hits > hits

    @given(nu=st.floats(-1.0, 4.0), mu=st.floats(-2.0, 2.0), z=_bands((1.05, 1.3), (1.5, 4.0)))
    def test_warm_value_equals_cold(self, nu, mu, z):
        assume(nu + mu > -0.9)    # clear of the pole at nu + mu = -1
        cold = sf.legendre_q_hat(nu, mu, z)
        miss = sf.second_kind(sf.legendre_q_hat, (nu, mu, z))
        assert sf.second_kind(sf.legendre_q_hat, (nu, mu, z)) is miss
        assert _bits(miss) == _bits(cold)

    @given(nu0=st.floats(-0.5, 3.0), mu=st.floats(-0.45, 2.0), z=_bands((1.05, 1.3), (1.5, 4.0)),
           n=st.integers(1, 40), more=st.integers(1, 40))
    def test_warm_legendre_chunks_equal_cold(self, nu0, mu, z, n, more):
        # a first chunk, and one continued from its last entry
        sf._second_kind.cache_clear()
        cold = sf.legendre_q_hat_column(nu0, mu, z, n)
        below = (float(cold[0][-1]), float(cold[1][-1]))
        cold_up = sf.legendre_q_hat_column(nu0 + n, mu, z, more, below)
        for _ in range(2):
            chunk = _q_chunk(nu0, mu, z, n)
            up = _q_chunk(nu0 + n, mu, z, more, below)
            assert (_bits(chunk), _bits(up)) == (_bits(cold), _bits(cold_up))
        assert _q_chunk(nu0, mu, z, n) is chunk
        assert not any(a.flags.writeable for a in chunk)
        assert sf._second_kind.cache_info()[:2] == (3, 2)

    @given(gamma0=st.floats(0.0, 3.0), alpha=st.floats(-0.9, 2.0), beta=st.floats(-0.9, 2.0),
           z=_bands((1.2, 1.3), (2.0, 3.0)), n=st.integers(1, 40), more=st.integers(1, 40))
    def test_warm_jacobi_chunks_equal_cold(self, gamma0, alpha, beta, z, n, more):
        sf._second_kind.cache_clear()
        cold = sf.jacobi_q2_column(gamma0, alpha, beta, z, n)
        below = (float(cold[0][-1]), float(cold[1][-1]))
        cold_up = sf.jacobi_q2_column(gamma0 + n, alpha, beta, z, more, below)
        for _ in range(2):
            chunk = _jacobi_chunk(gamma0, alpha, beta, z, n)
            up = _jacobi_chunk(gamma0 + n, alpha, beta, z, more, below)
            assert (_bits(chunk), _bits(up)) == (_bits(cold), _bits(cold_up))
        assert _jacobi_chunk(gamma0, alpha, beta, z, n) is chunk
        assert not any(a.flags.writeable for a in chunk)
        assert sf._second_kind.cache_info()[:2] == (3, 2)

    @pytest.mark.parametrize("build, base, changes", [
        (sf.legendre_q_hat, (1.0, 0.0, 1.25), [(0, 1), (0, 1.5), (1, -0.0), (1, 0.25), (2, 1.3)]),
        (sf.legendre_q_hat_column, (1.0, 0.0, 1.25, 8, None),
         [(0, 1), (1, -0.0), (2, 1.3), (3, 9), (4, (1.0, 0.3)), (4, (1.0, 0.30000000000000004))]),
        (sf.jacobi_q2_column, (0.5, 0.0, 0.25, 2.0, 8, None),
         [(0, 1.0), (1, -0.0), (2, 0.5), (3, 2.5), (4, 9), (5, (1.0, -2.0)), (5, (-1.0, -2.0))]),
    ])
    def test_keyed_on_every_argument(self, build, base, changes):
        # each argument changed alone is a miss, also where == would merge it
        # with the base: an integer degree, mu = -0.0, below given
        floats = base[3] if len(base) == 5 else 16
        for i, other in [(None, None)] + changes:
            args = base if i is None else base[:i] + (other,) + base[i + 1:]
            misses = sf._second_kind.cache_info().misses
            got = sf.second_kind(build, args, floats)
            assert sf._second_kind.cache_info().misses == misses + 1
            assert _bits(got) == _bits(build(*args))
        assert sf._second_kind.cache_info()[:2] == (0, len(changes) + 1)

    @pytest.mark.parametrize("chunk, args, n, floats", [
        (_q_chunk, (0.5, 0.0, 1.25), 4, 12),            # 3n floats
        (_jacobi_chunk, (0.5, 0.0, 0.25, 2.0), 5, 15),  # 3n floats
    ])
    def test_weighed_by_floats(self, monkeypatch, chunk, args, n, floats):
        # within a budget of its floats a chunk is kept; one degree longer it
        # is built, handed out read-only and not kept
        monkeypatch.setattr(sf, "_second_kind", sf.BoundedCache(4, floats))
        kept, long = chunk(*args, n), chunk(*args, n + 1)
        assert chunk(*args, n) is kept and chunk(*args, n + 1) is not long
        assert not any(a.flags.writeable for a in long)
        assert sf._second_kind.cache_info().currsize == 1 and sf._second_kind.weight == floats

    def test_multipole_sum_fits(self):
        # the real bounds hold every degree of a multipole sum at r</r> = 0.5,
        # so a sweep over the angle computes no Qhat after its first call
        first = ex.multipole_power(5, -2.5, 1.0, 2.0, -1.0)
        assert first.terms_used <= sf.SECOND_KIND_SIZE
        misses = sf._second_kind.cache_info().misses
        for c in np.linspace(-1.0, 1.0, 9):
            ex.multipole_power(5, -2.5, 1.0, 2.0, c)
        assert sf._second_kind.cache_info().misses == misses

    @pytest.mark.parametrize("build, args, error", [
        (sf.legendre_q_hat, (-1.5, 0.0, 2.0), PoleError),
        (sf.legendre_q_hat, (0.5, 0.0, 1.0 + 1e-7), SlowConvergenceError),
        (sf.legendre_q_hat_column, (-2.5, 0.0, 2.0, 8, None), PoleError),
        (sf.jacobi_q2_column, (-1.0, 0.0, 0.5, 2.0, 8, None), PoleError),
        (sf.jacobi_q2_column, (0.5, 0.0, 0.5, 1.0 + 1e-7, 8, None), SlowConvergenceError),
    ])
    def test_errors_raised_every_call(self, build, args, error):
        for _ in range(3):
            with pytest.raises(error):
                sf.second_kind(build, args, 16)
        assert sf._second_kind.cache_info().currsize == 0

    def test_public_columns_fresh_and_writable(self):
        # the public columns are built anew, even after the cache holds them
        for build, args, floats in [(sf.legendre_q_hat_column, (0.5, 0.0, 1.25, 8, None), 24),
                                    (sf.jacobi_q2_column, (0.5, 0.0, 0.25, 2.0, 8, None), 24)]:
            held = sf.second_kind(build, args, floats)
            one, two = build(*args), build(*args)
            for a, b, c in zip(*(out if isinstance(out, tuple) else (out,)
                                 for out in (one, two, held))):
                assert a.flags.writeable and b.flags.writeable
                assert not np.shares_memory(a, b) and not np.shares_memory(a, c)
                a[0] = 7.0
                assert b[0] != 7.0 and c[0] != 7.0
