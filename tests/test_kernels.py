"""Fundamental solution, rotation-invariant kernel forms, toroidal parameter."""

import math
from fractions import Fraction

import numpy as np
import pytest

from polykernel import kernels as kn
from polykernel.errors import (
    AxisError,
    CoincidentPointsError,
    DomainError,
    OddDimensionError,
    SingularConfigurationError,
)


def random_pair(rng, d, scale=2.0):
    while True:
        x = rng.uniform(-scale, scale, size=d)
        xp = rng.uniform(-scale, scale, size=d)
        if (np.linalg.norm(x - xp) > 0.3 and math.hypot(x[0], x[1]) > 0.3
                and math.hypot(xp[0], xp[1]) > 0.3):
            return kn.KernelGeometry(x=x, xp=xp)


class TestHarmonicBeta:
    def test_zero_order(self):
        for d in (2, 4, 6, 10):
            assert kn.harmonic_beta(0, d) == 0

    def test_values(self):
        assert kn.harmonic_beta(1, 4) == Fraction(3, 4)
        assert kn.harmonic_beta(2, 2) == Fraction(3, 2)

    def test_exact_rational(self):
        val = kn.harmonic_beta(3, 6)
        assert isinstance(val, Fraction)
        h = kn.harmonic_number
        assert val == (h(3) + h(5) - h(2)) / 2

    def test_odd_dimension(self):
        with pytest.raises(OddDimensionError):
            kn.harmonic_beta(1, 3)


class TestFundamentalSolution:
    def test_newtonian(self):
        g = kn.KernelGeometry(x=np.array([1.0, 0.2, -0.5]),
                              xp=np.array([0.1, 1.0, 0.4]))
        got = kn.fundamental_solution(kn.PolyharmonicOrder(d=3, k=1), g)
        assert got == pytest.approx(1.0 / (4.0 * math.pi * g.distance), rel=1e-14)

    def test_log_2d(self):
        g = kn.KernelGeometry(x=np.array([1.0, 0.3]), xp=np.array([-0.4, 0.8]))
        got = kn.fundamental_solution(kn.PolyharmonicOrder(d=2, k=1), g)
        assert got == pytest.approx(-math.log(g.distance) / (2.0 * math.pi), rel=1e-14)

    def test_4d_power(self):
        g = kn.KernelGeometry(x=np.array([0.5, 0.1, 0.2, -0.3]),
                              xp=np.array([1.5, -0.2, 0.0, 0.9]))
        got = kn.fundamental_solution(kn.PolyharmonicOrder(d=4, k=1), g)
        assert got == pytest.approx(1.0 / (4.0 * math.pi ** 2 * g.distance ** 2),
                                    rel=1e-14)

    def test_coincident(self):
        x = np.array([1.0, 2.0, 3.0])
        with pytest.raises(CoincidentPointsError):
            kn.fundamental_solution(kn.PolyharmonicOrder(d=3, k=1),
                                    kn.KernelGeometry(x=x, xp=x.copy()))

    def test_iterated_laplacian_chain(self):
        # -Delta G_k = G_{k-1} via 5-point-per-axis second differences
        rng = np.random.default_rng(53)
        h = 1e-3
        for (d, k) in ((2, 2), (4, 3), (3, 2)):
            order = kn.PolyharmonicOrder(d=d, k=k)
            lower = kn.PolyharmonicOrder(d=d, k=k - 1)
            for _ in range(20):
                g = random_pair(rng, d)
                if g.distance < 0.8:
                    continue

                def G(pt):
                    return kn.fundamental_solution(
                        order, kn.KernelGeometry(x=pt, xp=g.xp))

                lap = 0.0
                for i in range(d):
                    e = np.zeros(d)
                    e[i] = h
                    lap += (-G(g.x + 2 * e) + 16.0 * G(g.x + e) - 30.0 * G(g.x)
                            + 16.0 * G(g.x - e) - G(g.x - 2 * e)) / (12.0 * h * h)
                want = kn.fundamental_solution(lower, g)
                assert abs(-lap - want) < 1e-4 * abs(want)


class TestPolyharmonicOrder:
    def test_branch_selection(self):
        for d in range(2, 9):
            for k in range(1, 7):
                order = kn.PolyharmonicOrder(d=d, k=k)
                assert order.logarithmic == (d % 2 == 0 and k >= d // 2)
                if order.logarithmic:
                    assert order.p == k - d // 2
                else:
                    assert order.q == 2 * k - d

    def test_distance_identity(self):
        # ||x-x'||^2 = 2 r r' (z - cos gamma) with z = (r^2+r'^2)/(2rr')
        rng = np.random.default_rng(113)
        for _ in range(30):
            g = random_pair(rng, 4)
            z = (g.r ** 2 + g.rp ** 2) / (2.0 * g.r * g.rp)
            want = 2.0 * g.r * g.rp * (z - g.cos_gamma)
            assert g.distance ** 2 == pytest.approx(want, rel=1e-12)


class TestToroidalChi:
    def test_coincident_points(self):
        x = np.array([1.0, 0.5, 0.3])
        g = kn.KernelGeometry(x=x, xp=x.copy())
        assert kn.toroidal_chi(g) == pytest.approx(1.0, abs=1e-15)

    def test_simple_offset(self):
        g = kn.KernelGeometry(x=np.array([1.0, 0.0, 0.0]),
                              xp=np.array([0.0, 2.0, 0.0]))
        assert kn.toroidal_chi(g) == pytest.approx(1.25, rel=1e-15)

    def test_distance_reconstruction(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            g = random_pair(rng, 4)
            chi = kn.toroidal_chi(g)
            dist = math.sqrt(2.0 * g.R * g.Rp) * math.sqrt(
                chi - math.cos(g.delta_phi))
            assert abs(dist - g.distance) < 1e-13 * max(1.0, g.distance)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            g = random_pair(rng, 5)
            chi0 = kn.toroidal_chi(g)
            a = float(rng.uniform(0.0, 2.0 * math.pi))
            rot = np.eye(5)
            rot[0, 0] = rot[1, 1] = math.cos(a)
            rot[0, 1] = -math.sin(a)
            rot[1, 0] = math.sin(a)
            g2 = kn.KernelGeometry(x=rot @ g.x, xp=rot @ g.xp)
            assert abs(kn.toroidal_chi(g2) - chi0) < 1e-13 * chi0

    def test_axis_error(self):
        g = kn.KernelGeometry(x=np.array([0.0, 0.0, 1.0]),
                              xp=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(AxisError):
            kn.toroidal_chi(g)

    @pytest.mark.parametrize("x, xp, name", [
        ([1.0, 0.0, 0.0], [math.inf, math.inf, 0.5], "xp"),
        ([1.0, math.nan, 0.0], [1.0, 1.0, 0.5], "x"),
    ])
    def test_non_finite_point_rejected(self, x, xp, name):
        # a non-finite coordinate used to give chi = NaN, a numpy
        # RuntimeWarning, and an untyped error deep in the series
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{name} must be finite"):
                kn.KernelGeometry(x=np.array(x), xp=np.array(xp))


    def test_squares_past_double_range(self):
        # |x|^2 and x . x' overflow: cos_gamma is NaN, not a clamped -1, and
        # chi is NaN for the expansions to name, with no numpy warning
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = kn.KernelGeometry(x=np.array([1e200, 0.0, 0.0]),
                                  xp=np.array([1e200 * math.cos(0.5), 1e200 * math.sin(0.5), 1.0]))
        assert math.isnan(g.cos_gamma) and math.isnan(g.chi)
        assert g.r == g.rp == math.inf


class TestKernelH:
    def test_direct_substitution(self):
        # chi = 2, 2RR' = 1, dphi = 0 -> value 1
        h = math.sqrt(2.0 * 0.5 * 1.0 * 2.0 - 0.25 - 1.0)
        g = kn.KernelGeometry(x=np.array([0.5, 0.0, 0.0]),
                              xp=np.array([1.0, 0.0, h]))
        assert kn.toroidal_chi(g) == pytest.approx(2.0, rel=1e-14)
        assert kn.kernel_h(1, g) == pytest.approx(1.0, rel=1e-14)

    def test_matches_norm_power(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            g = random_pair(rng, 4)
            if g.chi < 1.0 + 1e-6:
                continue
            # d = 4, k = 1: q = d/2 - k = 1 and the kernel is ||x-x'||^{2k-d}
            assert kn.kernel_h(1, g) == pytest.approx(g.distance ** (-2), rel=1e-13)

    def test_cube_relation(self):
        g = kn.KernelGeometry(x=np.array([1.0, 0.4, -0.2, 0.5]),
                              xp=np.array([-0.3, 1.1, 0.8, -0.6]))
        assert kn.kernel_h(3, g) == pytest.approx(kn.kernel_h(1, g) ** 3, rel=1e-12)

    def test_singular_guard(self):
        x = np.array([1.0, 0.5, 0.3])
        g = kn.KernelGeometry(x=x, xp=x.copy())
        with pytest.raises(SingularConfigurationError):
            kn.kernel_h(1, g)


class TestKernelL:
    def test_p0_log_distance(self):
        g = kn.KernelGeometry(x=np.array([1.0, 0.2]), xp=np.array([-0.5, 0.9]))
        assert kn.kernel_l(0, 2, g) == pytest.approx(math.log(g.distance), rel=1e-13)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            g = random_pair(rng, 2)
            beta = float(kn.harmonic_beta(1, 2))
            want = g.distance ** 2 * (math.log(g.distance) - beta)
            assert abs(kn.kernel_l(1, 2, g) - want) <= 1e-12 * max(1.0, abs(want))

    def test_unit_distance(self):
        # ||x - x'|| = 1 makes the log vanish, leaving -beta_{p,d}
        g = kn.KernelGeometry(x=np.array([1.0, 0.0, 0.25]),
                              xp=np.array([0.6, 0.8, 0.25 + math.sqrt(0.2)]))
        assert g.distance == pytest.approx(1.0, abs=1e-12)
        for p, d in ((0, 2), (1, 2), (2, 4)):
            want = -float(kn.harmonic_beta(p, d))
            assert kn.kernel_l(p, d, g) == pytest.approx(want, rel=1e-10, abs=1e-12)
