"""Addition-theorem certification: corollaries, collapses, independence."""

import math

import numpy as np
import pytest

from oracle_sums import b2a_sides, ba_sides, ca2_sides, chi_ba, chi_ca2, hopf_q3_sides
from polykernel import polyspherical as ps
from polykernel import specfun as sf
from polykernel import verify as vf
from polykernel.errors import ExclusionSetError

RNG = np.random.default_rng(109)


def ba_cfg(nu, m, caps=80, tol=1e-6, theta=math.pi / 3, thetap=2 * math.pi / 3,
           r=1.0, rp=2.0):
    return vf.TheoremConfig(theorem="C4.3", nu=nu, m=m, r=r, rp=rp,
                            thetas=(theta,), thetasp=(thetap,), caps=caps, tol=tol)


def b2a_cfg(nu, m, caps=60, tol=1e-6, angles=(0.9, 1.3), anglesp=(1.2, 2.1),
            r=1.0, rp=2.0):
    return vf.TheoremConfig(theorem="C4.4", nu=nu, m=m, r=r, rp=rp,
                            thetas=angles, thetasp=anglesp, caps=caps, tol=tol)


def ca2_cfg(nu, m1, caps=60, tol=1e-6, vt=0.6, vtp=0.8, f2=0.3, f2p=2.0,
            r=1.0, rp=2.0):
    return vf.TheoremConfig(theorem="C4.5", nu=nu, m=m1, r=r, rp=rp,
                            thetas=(vt,), thetasp=(vtp,), phis=(f2,),
                            phisp=(f2p,), caps=caps, tol=tol)


class TestVerifyBa:
    def test_spec_example(self):
        rep = vf.verify_ba(ba_cfg(-1.0, 0, caps=80, tol=1e-7))
        assert rep.passed and rep.rel_err < 1e-7

    def test_sweep(self):
        for nu in (-1.0, -2.5, 0.5):
            for m in (0, 1, 2):
                rep = vf.verify_ba(ba_cfg(nu, m, theta=1.1, thetap=1.9))
                assert rep.passed, (nu, m, rep.rel_err)

    def test_chi_value(self):
        cfg = ba_cfg(-1.0, 0, theta=0.5 * math.pi, thetap=0.5 * math.pi)
        chi, _ = vf.chi_standard(1.0, 2.0, cfg.thetas, cfg.thetasp)
        assert chi == pytest.approx(1.25)
        assert vf.verify_ba(cfg).passed

    def test_exclusion(self):
        with pytest.raises(ExclusionSetError):
            vf.verify_ba(ba_cfg(2.0, 1))
        with pytest.raises(ExclusionSetError):
            vf.verify_ba(ba_cfg(0.0, 0))

    def test_elementary_reduction(self):
        for m in (0, 1, 2):
            rep = vf.ba_elementary_rhs(ba_cfg(-1.0, m, caps=90, tol=1e-8,
                                              theta=1.0, thetap=2.1))
            assert rep.passed and rep.rel_err < 1e-8


class TestVerifyStandard:
    def test_d3_equals_ba(self):
        # d = 3 against the per-degree Ferrers single sum
        for nu, m in ((-1.0, 0), (-2.5, 2), (0.7, 1)):
            cfg = ba_cfg(nu, m, caps=70)
            std = vf.verify_standard(vf.TheoremConfig(
                theorem="T4.1", nu=nu, m=m, d=3, r=cfg.r, rp=cfg.rp,
                thetas=cfg.thetas, thetasp=cfg.thetasp, caps=cfg.caps, tol=cfg.tol))
            lhs, rhs = ba_sides(nu, m, cfg.r, cfg.rp, *cfg.thetas, *cfg.thetasp, cfg.caps)
            assert abs(std.lhs - lhs) <= 1e-12 * abs(lhs)
            assert abs(std.rhs - rhs) <= 1e-12 * abs(rhs)

    def test_d4_equals_b2a(self):
        # d = 4 against the double sum of per-degree Theta pairs and Qhat
        cfg = b2a_cfg(-2.0, 1, caps=45)
        std = vf.verify_standard(vf.TheoremConfig(
            theorem="T4.1", nu=-2.0, m=1, d=4, r=cfg.r, rp=cfg.rp,
            thetas=cfg.thetas, thetasp=cfg.thetasp, caps=cfg.caps, tol=cfg.tol))
        _, rhs = b2a_sides(-2.0, 1, cfg.r, cfg.rp, cfg.thetas, cfg.thetasp, cfg.caps)
        assert abs(std.rhs - rhs) <= 1e-11 * abs(rhs)
        assert std.passed and vf.verify_b2a(cfg).passed

    def test_d5(self):
        cfg = vf.TheoremConfig(theorem="T4.1", nu=-2.5, m=1, d=5,
                               r=1.0, rp=2.5,
                               thetas=(0.8, 1.4, 2.0), thetasp=(1.1, 0.7, 1.6),
                               caps=40, tol=1e-6)
        rep = vf.verify_standard(cfg)
        assert rep.passed, rep.rel_err

    def test_d6(self):
        cfg = vf.TheoremConfig(theorem="T4.1", nu=-3.5, m=1, d=6,
                               r=1.0, rp=2.2,
                               thetas=(0.8, 1.4, 2.0, 1.1),
                               thetasp=(1.2, 0.7, 1.6, 2.3),
                               caps=30, tol=1e-6)
        rep = vf.verify_standard(cfg)
        assert rep.passed, rep.rel_err


class TestVerifyB2a:
    def test_symmetric_config(self):
        cfg = b2a_cfg(-2.0, 0, angles=(1.0, 1.4), anglesp=(1.0, 1.4),
                      r=1.0, rp=2.0, caps=60)
        rep = vf.verify_b2a(cfg)
        assert rep.passed and rep.rel_err < 1e-6

    def test_m1(self):
        rep = vf.verify_b2a(b2a_cfg(-2.0, 1, caps=60))
        assert rep.passed

    def test_truncation_monotonicity(self):
        errs = [vf.verify_b2a(b2a_cfg(-2.0, 0, caps=c, tol=1e-14)).rel_err
                for c in (10, 20, 40)]
        assert errs[0] > errs[1] > errs[2]

    def test_elementary_reduction(self):
        for m in (0, 1):
            rep = vf.b2a_elementary_rhs(b2a_cfg(-2.0, m, caps=70, tol=1e-8))
            assert rep.passed and rep.rel_err < 1e-8


class TestVerifyCa2:
    def test_basic(self):
        rep = vf.verify_ca2(ca2_cfg(-2.0, 0))
        assert rep.passed

    def test_chi_arithmetic(self):
        # m1 = m2 = 0, vartheta = vartheta' = pi/4, phi2 = phi2'
        cfg = ca2_cfg(-2.0, 0, vt=0.25 * math.pi, vtp=0.25 * math.pi,
                      f2=1.0, f2p=1.0)
        r, rp = cfg.r, cfg.rp
        want = (r * r + rp * rp - 2.0 * r * rp * 0.5) / (2.0 * r * rp * 0.5)
        chi, _ = vf.chi_hopf(2, r, rp, cfg.thetas, cfg.thetasp, cfg.phis, cfg.phisp)
        assert chi == pytest.approx(want, rel=1e-14)
        assert vf.verify_ca2(cfg).passed

    def test_exclusion(self):
        with pytest.raises(ExclusionSetError):
            vf.verify_ca2(ca2_cfg(2.0, 1))

    def test_elementary_reduction(self):
        for m1 in (0, 1):
            rep = vf.ca2_elementary_rhs(ca2_cfg(-2.0, m1, caps=70, tol=1e-8))
            assert rep.passed and rep.rel_err < 1e-8

    def test_swap_symmetry(self):
        # exchanging the Hopf planes: D(m1, m2; theta) = D(m2, m1; pi/2-theta)
        for (m1, m2) in ((0, 1), (1, 2), (2, 0), (1, 1)):
            for (vt, vtp) in ((0.6, 0.8), (0.3, 1.1)):
                a = vf.ca2_double_coefficient(-2.0, m1, m2, 1.0, 2.0, vt, vtp)
                b = vf.ca2_double_coefficient(-2.0, m2, m1, 1.0, 2.0,
                                              0.5 * math.pi - vt,
                                              0.5 * math.pi - vtp)
                assert abs(a - b) <= 1e-10 * max(1e-12, abs(a))

    def test_report_matches_double_coefficients(self):
        # the verifier's RHS is the eps_m2 cos(m2 dphi2) contraction of D
        cfg = ca2_cfg(-1.0, 1, caps=50)
        rep = vf.verify_ca2(cfg)
        chi = chi_ca2(cfg.r, cfg.rp, *cfg.thetas, *cfg.thetasp, *cfg.phis, *cfg.phisp)
        rless, rgreater = min(cfg.r, cfg.rp), max(cfg.r, cfg.rp)
        pref = (2.0 ** (-0.5 * (cfg.nu + 1.0))
                * (chi * chi - 1.0) ** (-0.25 * (cfg.nu + 1.0))
                * ((rgreater ** 2 - rless ** 2) / (cfg.r * cfg.rp))
                ** (0.5 * (cfg.nu + 3.0))
                * (math.cos(cfg.thetas[0]) * math.cos(cfg.thetasp[0]))
                ** (-0.5 * cfg.nu))
        total = sum((2.0 if m2 else 1.0)
                    * math.cos(m2 * (cfg.phis[0] - cfg.phisp[0]))
                    * vf.ca2_double_coefficient(cfg.nu, cfg.m, m2, cfg.r, cfg.rp,
                                                cfg.thetas[0], cfg.thetasp[0],
                                                caps=cfg.caps)
                    for m2 in range(cfg.caps + 1))
        assert pref * total == pytest.approx(rep.rhs, rel=1e-11)


class TestVerifyHopf:
    def test_q2_equals_ca2(self):
        # q = 2 against the double sum of per-degree Upsilon pairs and Qhat
        cfg = ca2_cfg(-2.0, 0, caps=50)
        hopf = vf.verify_hopf(vf.TheoremConfig(
            theorem="T4.2", nu=-2.0, m=0, q=2, r=cfg.r, rp=cfg.rp,
            thetas=cfg.thetas, thetasp=cfg.thetasp, phis=cfg.phis,
            phisp=cfg.phisp, caps=cfg.caps, tol=cfg.tol))
        lhs, rhs = ca2_sides(-2.0, 0, cfg.r, cfg.rp, *cfg.thetas, *cfg.thetasp,
                             *cfg.phis, *cfg.phisp, cfg.caps)
        assert abs(hopf.lhs - lhs) <= 1e-12 * abs(lhs)
        assert abs(hopf.rhs - rhs) <= 1e-12 * abs(rhs)

    def test_fold_equals_pair_loop(self):
        # one Upsilon-pair table per c node, scattered in pair order, adds the
        # same terms in the same order as one column per pair of child degrees
        thetas, thetasp = (0.7, 0.9, 0.6), (0.8, 1.0, 0.9)
        orders = np.arange(9)
        leaves = [np.eye(9)[1]] + [np.where(orders, 2.0, 1.0) * np.cos(orders * dphi)
                                   for dphi in (0.7, -0.5, 2.1)]

        def fold(i):
            if i > 3:
                return leaves[i - 4]
            left, right = fold(2 * i), fold(2 * i + 1)
            out = np.zeros(len(left) + len(right) + 15)
            for la in np.flatnonzero(left).tolist():
                for lb in np.flatnonzero(right).tolist():
                    u = ps.hopf_upsilon_pairs(3, i, 8, la, lb, thetas[i - 1], thetasp[i - 1])
                    out[la + lb:la + lb + 17:2] += left[la] * right[lb] * u
            return out

        np.testing.assert_array_equal(vf._hopf_fold(3, 8, thetas, thetasp, leaves), fold(1))

    @pytest.mark.parametrize("nu, m1", [(-2.0, 0), (-1.5, 1)])
    def test_q3_equals_nested_sum(self, nu, m1):
        # q = 3 against the six-fold sum of per-degree Upsilon pairs and Qhat
        angles = dict(r=1.0, rp=2.0, thetas=(0.7, 0.9, 0.6), thetasp=(0.8, 1.0, 0.9),
                      phis=(1.1, 2.0, 0.5), phisp=(0.4, 1.5, 1.8))
        hopf = vf.verify_hopf(vf.TheoremConfig(theorem="T4.2", nu=nu, m=m1, q=3, caps=4,
                                               tol=1e-3, **angles))
        lhs, rhs = hopf_q3_sides(nu, m1, caps=4, **angles)
        assert abs(hopf.lhs - lhs) <= 1e-12 * abs(lhs)
        assert abs(hopf.rhs - rhs) <= 1e-12 * abs(rhs)

    def test_q2_m1(self):
        rep = vf.verify_hopf(vf.TheoremConfig(
            theorem="T4.2", nu=-1.0, m=1, q=2, r=1.0, rp=2.0,
            thetas=(0.7,), thetasp=(0.9,), phis=(1.2,), phisp=(0.4,),
            caps=50, tol=1e-6))
        assert rep.passed, rep.rel_err

    def test_q3_reduced_depth(self):
        rep = vf.verify_hopf(vf.TheoremConfig(
            theorem="T4.2", nu=-2.0, m=0, q=3, r=1.0, rp=2.0,
            thetas=(0.7, 0.9, 0.6), thetasp=(0.8, 1.0, 0.9),
            phis=(1.1, 2.0, 0.5), phisp=(0.4, 1.5, 1.8),
            caps=12, tol=1e-3))
        assert rep.passed, rep.rel_err

    def test_q4_reduced_depth(self):
        # R^16: seven c nodes, eight azimuths, shallow caps
        rep = vf.verify_hopf(vf.TheoremConfig(
            theorem="T4.2", nu=-2.0, m=0, q=4, r=1.0, rp=2.5,
            thetas=tuple(0.4 + 0.1 * (i % 5) for i in range(7)),
            thetasp=tuple(0.5 + 0.08 * (i % 6) for i in range(7)),
            phis=tuple(0.3 * i for i in range(7)),
            phisp=tuple(0.25 * i + 0.4 for i in range(7)),
            caps=6, tol=1e-3))
        assert rep.passed, rep.rel_err


class TestIndependentOracles:
    def test_lhs_fourier_quadrature(self):
        # the Legendre LHS equals the azimuthal Fourier coefficient of the
        # kernel extracted by trapezoid quadrature
        for nu in (-1.0, -2.5):
            for chi in (1.3, 2.0, 4.5):
                for m in (0, 1, 3):
                    got = vf.azimuthal_coefficient_quadrature(nu, chi, m)
                    want = sf.legendre_q_hat(m - 0.5, -0.5 * (nu + 1.0), chi).value
                    assert abs(got - want) <= 1e-8 * max(1e-6, abs(want))

    def test_ba_rhs_per_degree_sum(self):
        # the C4.3 rhs re-summed from per-degree Legendre Q and Ferrers P
        # values, independent of the recurrences the verifier uses
        for nu, m in ((-1.0, 0), (-2.5, 1), (0.5, 2)):
            cfg = ba_cfg(nu, m, theta=1.1, thetap=1.9)
            _, want = ba_sides(nu, m, cfg.r, cfg.rp, *cfg.thetas, *cfg.thetasp, cfg.caps)
            rhs = vf.verify_ba(cfg).rhs
            assert abs(want - rhs) <= 1e-12 * abs(rhs), (nu, m)

    def test_theorem_lhs_quadrature(self):
        cfg = ba_cfg(-1.0, 1, theta=1.2, thetap=1.7)
        chi = chi_ba(cfg.r, cfg.rp, *cfg.thetas, *cfg.thetasp)
        rep = vf.verify_ba(cfg)
        quad = vf.azimuthal_coefficient_quadrature(cfg.nu, chi, cfg.m)
        assert abs(rep.lhs - quad) <= 1e-8 * abs(quad)

    def test_run_verification_dispatch(self):
        rep = vf.run_verification(ba_cfg(-1.0, 0))
        assert rep.theorem == "C4.3" and rep.passed
        with pytest.raises(ValueError):
            vf.run_verification(vf.TheoremConfig(theorem="X", nu=-1.0))


class TestReportMechanics:
    def test_truncation_insufficient(self):
        # tiny caps with near-unit radius ratio: tail dominates, report says so
        cfg = ba_cfg(-1.0, 0, caps=8, tol=1e-12, r=1.0, rp=1.35)
        rep = vf.verify_ba(cfg)
        assert rep.status == "truncation_insufficient"

    def test_hopf_truncation_not_fail(self):
        # sums cut short by their caps are not a mathematical failure; the
        # root degrees above lo + caps miss terms and must not set the tail
        short_ca2 = ca2_cfg(-2.0, 0, caps=32, tol=1e-10, rp=1.3)
        short_q3 = vf.TheoremConfig(
            theorem="T4.2", nu=-2.0, m=0, q=3, r=1.0, rp=2.0,
            thetas=(0.7, 0.9, 0.6), thetasp=(0.8, 1.0, 0.9),
            phis=(1.1, 2.0, 0.5), phisp=(0.4, 1.5, 1.8), caps=4, tol=1e-10)
        for rep in (vf.verify_ca2(short_ca2), vf.verify_hopf(short_q3)):
            assert rep.rel_err > rep.tolerance
            assert rep.status == "truncation_insufficient"

    def test_genuine_fail_detection(self):
        # corrupt the tolerance to force a fail on a fully converged sum; no
        # rel_err, not even an exact 0, is below a zero tolerance
        rep = vf.verify_ba(ba_cfg(-1.0, 0, caps=80, tol=0.0))
        assert rep.status in ("fail", "truncation_insufficient")
        assert not rep.passed

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            ba_cfg(-1.0, -1)
