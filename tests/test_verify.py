"""Addition-theorem certification: corollaries, collapses, independence."""

import gc
import math
import random
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_sums import (b2a_sides, ba_sides, ca2_sides, chi_ba, chi_ca2, chi_hopf, chi_standard,
                         fold_reference, hopf_q3_sides)
from polykernel import expansions as ex
from polykernel import orthopoly as op
from polykernel import polyspherical as ps
from polykernel import specfun as sf
from polykernel import verify as vf
from polykernel.errors import (CoincidentRadiusError, DomainError, ExclusionSetError,
                               PolyKernelError, SingularConfigurationError)

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
        # the report's lhs is Qhat at the verifier's chi, here 1.25
        cfg = ba_cfg(-1.0, 0, theta=0.5 * math.pi, thetap=0.5 * math.pi)
        chi, _ = chi_standard(1.0, 2.0, cfg.thetas, cfg.thetasp)
        assert chi == pytest.approx(1.25)
        rep = vf.verify_ba(cfg)
        assert rep.lhs == pytest.approx(sf.legendre_q_hat(-0.5, 0.0, 1.25), rel=1e-14)
        assert rep.passed

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
        chi, _ = chi_hopf(2, r, rp, cfg.thetas, cfg.thetasp, cfg.phis, cfg.phisp)
        assert chi == pytest.approx(want, rel=1e-14)
        rep = vf.verify_ca2(cfg)
        # the report's lhs is Qhat at the verifier's chi
        assert rep.lhs == pytest.approx(sf.legendre_q_hat(-0.5, 0.5, want), rel=1e-14)
        assert rep.passed

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
        # one pair table per node, scattered in pair order, adds the same
        # terms in the same order as one column per pair of child degrees
        t = ps.hopf_tree(3)
        angles = ps.hopf_heap_to_preorder(3, [0.7, 0.9, 0.6, 0.0, 0.0, 0.0, 0.0])
        anglesp = ps.hopf_heap_to_preorder(3, [0.8, 1.0, 0.9, 0.0, 0.0, 0.0, 0.0])
        orders = np.arange(9)
        leaves = [np.eye(9)[1]] + [np.where(orders, 2.0, 1.0) * np.cos(orders * dphi)
                                   for dphi in (0.7, -0.5, 2.1)]
        rest = iter(leaves)

        def fold(node):
            if node.kind == "a":
                return next(rest)
            left, right = fold(node.left), fold(node.right)
            out = np.zeros(len(left) + len(right) + 15)
            for la in np.flatnonzero(left).tolist():
                for lb in np.flatnonzero(right).tolist():
                    u = ps.node_pair_table(node, 8, la, lb, angles[node.index],
                                           anglesp[node.index])
                    out[la + lb:la + lb + 17:2] += left[la] * right[lb] * u
            return out

        np.testing.assert_array_equal(vf._fold(t, 8, angles, anglesp, leaves), fold(t.root))

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


class TestTreeFold:
    def test_mixed_tree_addition_theorem(self):
        # the fold over c b' a b a (R^6) with every a leaf at all orders
        # eps_k cos(k dphi) gives, at each complete root degree l <= caps,
        # (2 pi)^2 sum over keys of Y(x) conj(Y(x')), which the Gegenbauer
        # addition theorem writes as dim H_l / |S^5| C_l^2(cos g) / C_l^2(1)
        t = ps.parse_tree("cb'aba")
        assert [n.kind for n in t.branching_nodes] == ["c", "b'", "a", "b", "a"]
        x, xp = [0.7, -0.4, 1.1, 2.2, 0.3], [1.2, 0.5, 4.0, 0.9, 5.5]
        caps = 6
        orders = np.arange(caps + 1)
        leaves = [np.where(orders, 2.0, 1.0) * np.cos(orders * (x[i] - xp[i])) for i in (2, 4)]
        w = vf._fold(t, caps, x, xp, leaves)
        cosg = ps.cos_separation(t, x, xp)
        sphere = 2.0 * math.pi ** 3 / math.gamma(3.0)
        for l in range(caps + 1):
            keys = sum(ps.harmonic(t, key, x) * ps.harmonic(t, key, xp).conjugate()
                       for key in ps.enumerate_keys(t, l))
            assert abs(keys.imag) <= 1e-13 * abs(keys)
            assert w[l] == pytest.approx((2.0 * math.pi) ** 2 * keys.real, rel=1e-12)
            gegenbauer = (ps.harmonic_space_dimension(6, l) / sphere
                          * op.gegenbauer_c(l, 2.0, cosg) / op.gegenbauer_c(l, 2.0, 1.0))
            assert w[l] == pytest.approx((2.0 * math.pi) ** 2 * gegenbauer, rel=1e-12)


@st.composite
def _tree_specs(draw, budget):
    """A naming-language string of at most budget branching nodes."""
    kinds = ["a", "b", "b'", "c"] if budget >= 3 else ["a", "b", "b'"] if budget == 2 else ["a"]
    kind = draw(st.sampled_from(kinds))
    if kind == "a":
        return "a"
    if kind != "c":
        return kind + draw(_tree_specs(budget - 1))
    left = draw(st.integers(1, budget - 2))
    return "c" + draw(_tree_specs(left)) + draw(_tree_specs(budget - 1 - left))


@pytest.mark.parity
class TestTablesFirstFold:
    @given(data=st.data())
    def test_fold_equals_node_by_node_fold(self, data):
        # every table built first from structural supports, one pass per
        # family, against the fold that built each node's table after
        # contracting its children: the same root weights bit for bit
        tree = ps.parse_tree(data.draw(_tree_specs(7), label="tree"))
        caps = data.draw(st.integers(0, 10), label="caps")
        angles, anglesp = ([0.0 if node.kind == "a" else
                            data.draw(st.floats(*ps.ANGLE_RANGES[node.kind][:2]))
                            for node in tree.branching_nodes] for _ in range(2))
        weight = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
        leaves = []
        for node in tree.branching_nodes:
            if node.kind == "a":
                w = np.array(data.draw(st.lists(weight, min_size=1, max_size=caps + 2)))
                leaves.append(w if w.any() else np.eye(len(w))[-1])
        top = data.draw(st.one_of(st.none(), st.integers(0, 3 * caps + 6)), label="top")
        with np.errstate(all="ignore"):
            got = vf._fold(tree, caps, angles, anglesp, leaves, top)
            try:
                want = fold_reference(tree, caps, angles, anglesp, leaves, top)
            except ValueError:
                # a child whose weights all vanish (an angle at the end of
                # its range) left the node-by-node fold an empty table; the
                # tables-first fold carries the zeros to the root instead
                assert not got.any()
                return
        np.testing.assert_array_equal(got, want)


def _fresh_plans(monkeypatch, entries=None):
    """An empty plan cache with the module's bounds, or with a budget of
    ``entries`` table entries."""
    monkeypatch.setattr(vf, "_plans", sf.BoundedCache(vf.PLAN_CACHE_SIZE,
                                                      entries or vf.PLAN_CACHE_ENTRIES))


def _cached_plans():
    """(key, (tree, plan), table entries) of every cached plan,
    least recently used first."""
    return [(key, value, weight) for key, (value, weight) in vf._plans._held.items()]


def _count_builds(monkeypatch):
    """The list that every orthonormal recurrence build of a pair plan
    appends its arguments to."""
    built, build = [], ps.orthonormal_recurrence
    monkeypatch.setattr(ps, "orthonormal_recurrence",
                        lambda *args: built.append(args) or build(*args))
    return built


def _fold_inputs(tree, caps, rng, zeros=()):
    """Preorder angles of both points and leaf weight vectors over orders
    0..caps, the weights at (leaf, order) in zeros set to exactly 0."""
    angles, anglesp = ([0.0 if node.kind == "a" else
                        rng.uniform(ps.ANGLE_RANGES[node.kind][0] + 1e-3,
                                    ps.ANGLE_RANGES[node.kind][1] - 1e-3)
                        for node in tree.branching_nodes] for _ in range(2))
    leaves = [rng.uniform(-2.0, 2.0, caps + 1) for node in tree.branching_nodes
              if node.kind == "a"]
    for leaf, order in zeros:
        leaves[leaf][order] = 0.0
    return angles, anglesp, leaves


@pytest.mark.parity
class TestFoldPlan:
    # a plan is reused for every fold on its tree, caps, top and leaf
    # supports, so a warm plan must give what a cold one gives: the
    # node-by-node fold's root weights, bit for bit
    def test_warm_plan_equals_node_by_node_fold(self, monkeypatch):
        _fresh_plans(monkeypatch)
        tree = ps.parse_tree("cb'aba")           # a, b, b' and c nodes
        rng = np.random.default_rng(14)
        # (caps, top, exact-zero leaf weights, plans cached after the fold)
        for caps, top, zeros, plans in [
            (6, None, (), 1),
            (6, None, (), 1),                   # new angles and weights, warm
            (6, None, ((1, 2),), 2),            # a new support
            (6, None, ((1, 2),), 2),
            (6, 9, (), 3),                      # another top
            (4, None, (), 4),                   # another caps
            (6, None, (), 4),                   # the first plan, warm again
        ]:
            angles, anglesp, leaves = _fold_inputs(tree, caps, rng, zeros)
            got = vf._fold(tree, caps, angles, anglesp, leaves, top)
            want = fold_reference(tree, caps, angles, anglesp, leaves, top)
            np.testing.assert_array_equal(got, want)
            assert len(_cached_plans()) == plans

    @given(data=st.data())
    def test_warm_plan_on_random_trees(self, data):
        # two folds on one tree and one zero pattern: the second runs on the
        # first one's plan
        tree = ps.parse_tree(data.draw(_tree_specs(7), label="tree"))
        caps = data.draw(st.integers(0, 8), label="caps")
        top = data.draw(st.one_of(st.none(), st.integers(0, 3 * caps + 6)), label="top")
        n_leaves = sum(node.kind == "a" for node in tree.branching_nodes)
        zeros = data.draw(st.sets(st.tuples(st.integers(0, n_leaves - 1),
                                            st.integers(0, caps - 1))), label="zeros") if caps else ()
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        for _ in range(2):
            angles, anglesp, leaves = _fold_inputs(tree, caps, rng, zeros)
            with np.errstate(all="ignore"):
                got = vf._fold(tree, caps, angles, anglesp, leaves, top)
                try:
                    want = fold_reference(tree, caps, angles, anglesp, leaves, top)
                except ValueError:
                    # a child whose weights all vanish below top, as in
                    # TestTablesFirstFold
                    assert not got.any()
                    continue
            np.testing.assert_array_equal(got, want)

    def test_weight_vanishing_inside_support_read_as_zeros(self, monkeypatch):
        # at theta = 0 the inner b node's columns with l_b > 0 start from
        # sin^{l_b} 0 = 0, so its weight vanishes at degrees caps + 1 ..
        # 2 caps of its structural support 0 .. 2 caps: the root reads those
        # degrees as zeros, at the plan's scatter offsets, and still gives
        # the reference fold's weights on a cold plan and on a warm one
        _fresh_plans(monkeypatch)
        tree, caps, rng = ps.parse_tree("bba"), 5, np.random.default_rng(23)
        for _ in range(2):
            angles, anglesp, leaves = _fold_inputs(tree, caps, rng)
            angles[1] = 0.0
            inner = fold_reference(ps.parse_tree("ba"), caps, angles[1:], anglesp[1:], leaves)
            assert np.flatnonzero(inner).tolist() == list(range(caps + 1))
            got = vf._fold(tree, caps, angles, anglesp, leaves)
            want = fold_reference(tree, caps, angles, anglesp, leaves)
            np.testing.assert_array_equal(got, want)
            assert len(_cached_plans()) == 1

    def test_cache_entries_bounded(self, monkeypatch):
        # T4.2 at q = 3 has 1 255 table entries at caps 4, 2 268 at caps 5,
        # 3 717 at caps 6 and 8 235 at caps 8: a plan past the bound alone is
        # used once and not cached, and a new plan evicts the least recently
        # used whole until the cached entries fit the bound
        _fresh_plans(monkeypatch, 5000)
        for caps, kept in [(4, [4]), (6, [4, 6]), (4, [6, 4]), (8, [6, 4]), (5, [4, 5]),
                           (4, [5, 4])]:
            cfg = _hopf_cfg(3, 0, caps)
            assert vf.run_verification(cfg) == vf.run_verification(cfg)
            assert [key[1] for key, _, _ in _cached_plans()] == kept
            assert sum(entries for _, _, entries in _cached_plans()) <= 5000


def _std_cfg(theorem, d, m, caps, nu=-1.5):
    n = d - 2
    return vf.TheoremConfig(theorem=theorem, nu=nu, m=m, d=d, caps=caps,
                            thetas=tuple(0.5 + 0.37 * (i % 5) for i in range(n)),
                            thetasp=tuple(0.9 + 0.29 * (i % 4) for i in range(n)))


def _hopf_cfg(q, m, caps, nu=-1.5):
    n = 2 ** (q - 1) - 1
    return vf.TheoremConfig(theorem="T4.2", nu=nu, m=m, q=q, caps=caps,
                            thetas=tuple(0.4 + 0.2 * i for i in range(n)),
                            thetasp=tuple(0.7 + 0.1 * i for i in range(n)),
                            phis=tuple(0.3 + 0.8 * i for i in range(n)),
                            phisp=tuple(1.9 - 0.5 * i for i in range(n)))


class TestEdgeCaseCertificates:
    # (status, lhs, rhs, tail_estimate) as the node-by-node fold gave them,
    # rhs and tail_estimate as recorded once the orthonormal recurrence pass
    # that builds the node tables ran each row as a'_k row(k-1) - row(k-2),
    # times its scale c_k, from row-0 norms formed from exact ratios
    @pytest.mark.parametrize("cfg, want", [
        # caps 0: one degree per level
        (_std_cfg("T4.1", 5, 0, 0),
         ("truncation_insufficient", 1.0260699936532065, 0.6253724953188805, math.inf)),
        (_std_cfg("C4.4", 4, 1, 0),
         ("truncation_insufficient", 0.1813680304103711, 0.0656697867311092, math.inf)),
        (_hopf_cfg(2, 5, 0),
         ("truncation_insufficient", 0.0018233724122810597, 0.0035709180333011042, math.inf)),
        (_hopf_cfg(3, 0, 0),
         ("truncation_insufficient", 0.9706975220373293, 0.8798490909494787, math.inf)),
        # m above caps: the distinguished leaf's order sits past every cap
        (_std_cfg("C4.3", 3, 90, 2, nu=-1.0),
         ("truncation_insufficient", 2.9441303430320973e-50, 4.3268702300566346e-64, math.inf)),
        (_std_cfg("T4.1", 4, 200, 3),
         ("truncation_insufficient", 9.883398189886903e-130, 4.128078097388816e-171, math.inf)),
        # a deep chain: 198 b tables held at once
        (_std_cfg("T4.1", 200, 0, 60),
         ("pass", 4.348467449574517e-14, 4.3484674495748345e-14, 7.495542396027504e-39)),
    ])
    def test_pinned(self, cfg, want):
        rep = vf.run_verification(cfg)
        assert (rep.status, rep.lhs, rep.rhs, rep.tail_estimate) == want


class TestTableMemoryBound:
    def test_refused_before_any_table(self):
        # caps 100 000 asks for about 1e10 entries in the one c table (twice
        # that in the Jacobi pass); the bound refuses it from the supports'
        # sizes, before any index array or table exists
        cfg = vf.TheoremConfig(theorem="C4.5", nu=-2.0, caps=100_000, thetas=(0.6,),
                               thetasp=(0.8,), phis=(0.3,), phisp=(2.0,))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="node tables would hold more than"):
                vf.run_verification(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    @pytest.mark.parametrize("cfg", [
        vf.TheoremConfig(theorem="C4.3", nu=-1.0, m=10_000_000, caps=1, thetas=(1.0,),
                         thetasp=(2.0,)),
        _std_cfg("T4.1", 600, 3_000_000, 1),
    ])
    def test_weight_vectors_refused_before_any(self, cfg):
        # the distinguished leaf and each node above it hold at least m + 1
        # weights: (m + 1) times the path's length is refused from m alone
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="weight vectors would hold more than"):
                vf.run_verification(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    def test_refused_plan_not_cached(self, monkeypatch):
        # the bound is checked while a plan is built, so a refused
        # certificate leaves no plan behind and is refused again
        _fresh_plans(monkeypatch)
        cfg = vf.TheoremConfig(theorem="C4.5", nu=-2.0, caps=100_000, thetas=(0.6,),
                               thetasp=(0.8,), phis=(0.3,), phisp=(2.0,))
        for _ in range(2):
            with pytest.raises(DomainError, match="node tables would hold more than"):
                vf.run_verification(cfg)
        assert not _cached_plans()

    def test_hopf_q3_caps30_still_certified(self):
        assert vf.run_verification(_hopf_cfg(3, 0, 30)).status == "pass"


@pytest.mark.parity
class TestPlanCoefficients:
    # a cached plan runs on the recurrence coefficients it keeps, and a plan
    # past the cache's entry bound on fresh ones; either way a fold gives
    # the node-by-node fold's root weights, bit for bit
    @pytest.mark.parametrize("spec", ["ba", "cb'aba"])       # narrow, wide
    @pytest.mark.parametrize("cached", [True, False])
    def test_warm_fold_cached_or_past_the_bound(self, monkeypatch, spec, cached):
        tree, caps, rng = ps.parse_tree(spec), 6, np.random.default_rng(61)
        _fresh_plans(monkeypatch)
        vf._fold(tree, caps, *_fold_inputs(tree, caps, rng))
        ((_, (_, (_, _, (*_, kept))), entries),) = _cached_plans()
        if not cached:
            # one entry short of the plan's tables
            _fresh_plans(monkeypatch, entries - 1)
        built = _count_builds(monkeypatch)
        for _ in range(3):
            angles, anglesp, leaves = _fold_inputs(tree, caps, rng)
            # not counting the builds of the reference's own node_pair_table
            built.clear()
            got = vf._fold(tree, caps, angles, anglesp, leaves)
            fold_built = len(built)
            np.testing.assert_array_equal(got, fold_reference(tree, caps, angles, anglesp, leaves))
            if cached:
                # the coefficients it keeps, none built again
                ((_, (_, (_, _, (*_, recurrence))), _),) = _cached_plans()
                assert recurrence is kept and not fold_built
            else:
                # fresh coefficients, one build per pass
                assert not _cached_plans() and fold_built == 1

    def test_past_the_bound_builds_once(self, monkeypatch):
        # a T4.2 q = 3, caps 30 certificate's tables hold more than
        # PLAN_CACHE_ENTRIES entries: it caches nothing, builds its plan's
        # recurrence coefficients once, for its one pass, and gives the
        # node-by-node fold's root weights, bit for bit
        _fresh_plans(monkeypatch)
        folds, fold = [], vf._fold

        def kept(*args):
            folds.append((args, fold(*args)))
            return folds[-1][1]

        built = _count_builds(monkeypatch)
        monkeypatch.setattr(vf, "_fold", kept)
        assert vf.run_verification(_hopf_cfg(3, 0, 30)).status == "pass"
        assert not _cached_plans() and len(built) == 1
        ((args, got),) = folds
        tree, caps, angles, anglesp, leaves, top = args
        # the plan is built again, its coefficients with it, and not kept
        vf._fold_plan(tree, caps, top, leaves)
        assert len(built) == 2 and not _cached_plans()
        np.testing.assert_array_equal(got, fold_reference(*args))

    def test_held_bytes_bounded_by_entries(self, monkeypatch):
        # narrow plans (C4.3, one column) and wide ones (C4.5, T4.2 q = 3) at
        # several caps, more entries than the bound in all: after every
        # certificate the cache holds at most PLAN_CACHE_ENTRIES entries, and
        # the bytes it frees when dropped are at most the 48 per entry and
        # 4 KiB per tree node of the constant's comment
        cfgs = ([ba_cfg(-1.0, 1, caps=caps) for caps in (0, 80, 2000)]
                + [ca2_cfg(-1.5, 1, caps=caps) for caps in (2, 120, 200)]
                + [_hopf_cfg(3, 0, caps) for caps in (4, 12)])
        _fresh_plans(monkeypatch)
        for cfg in cfgs:                    # the shared tables and radial columns
            vf.run_verification(cfg)
        _fresh_plans(monkeypatch)
        origin = {}                         # plan key -> the certificate that built it
        tracemalloc.start()
        try:
            for i, cfg in enumerate(cfgs):
                vf.run_verification(cfg)
                origin.update((key, i) for key, _, _ in _cached_plans() if key not in origin)
                cached = [(origin[key], entries, len(tree.branching_nodes))
                          for key, (tree, _), entries in _cached_plans()]
                assert sum(entries for _, entries, _ in cached) <= vf.PLAN_CACHE_ENTRIES
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                vf._plans.cache_clear()
                gc.collect()
                held = before - tracemalloc.get_traced_memory()[0]
                assert held <= sum(48 * entries + 4096 * nodes for _, entries, nodes in cached)
                for j, _, _ in cached:      # the same plans again, least recently used first
                    vf.run_verification(cfgs[j])
                assert [origin[key] for key, _, _ in _cached_plans()] == [j for j, _, _ in cached]
        finally:
            tracemalloc.stop()


def _other_angles(cfg):
    # another angle pair inside every node's range, on the same radii
    return replace(cfg, thetas=tuple(0.9 * t for t in cfg.thetas),
                   thetasp=tuple(0.8 * t for t in cfg.thetasp),
                   phis=tuple(t + 0.7 for t in cfg.phis), phisp=tuple(t + 1.1 for t in cfg.phisp))


def _report_bits(rep):
    return rep.status, np.array([rep.lhs, rep.rhs, rep.rel_err, rep.tail_estimate]).tobytes()


@pytest.mark.parity
class TestRadialCache:
    # the radial column depends on no angle, so a certificate that reads
    # it from the cache must give what one that builds it gives, bit for bit
    @pytest.mark.parametrize("certify, cfg", [
        (vf.run_verification, _std_cfg("T4.1", 5, 1, 12)),
        (vf.run_verification, _hopf_cfg(3, 0, 6)),
        (vf.run_verification, ba_cfg(-1.5, 2, caps=40)),
        (vf.run_verification, b2a_cfg(-0.5, 1, caps=30)),
        (vf.run_verification, ca2_cfg(-1.5, 1, caps=30)),
        (vf.ba_elementary_rhs, ba_cfg(-1.0, 1, caps=40)),
        (vf.b2a_elementary_rhs, b2a_cfg(-2.0, 0, caps=30)),
        (vf.ca2_elementary_rhs, ca2_cfg(-2.0, 1, caps=30)),
        (lambda cfg: vf.verify_hopf(cfg, elementary=True), _hopf_cfg(3, 0, 6, nu=-6.0)),
    ])
    def test_warm_column_equals_cold(self, certify, cfg):
        cache = sf._second_kind
        cache.cache_clear()
        certify(_other_angles(cfg))
        warm = certify(cfg)
        assert cache.cache_info()[:2] == (1, 1)     # (hits, misses): read, not built again
        cache.cache_clear()
        cold = certify(cfg)
        assert cache.cache_info()[:2] == (0, 1)
        assert _report_bits(warm) == _report_bits(cold)

    def test_keyed_on_every_argument(self):
        # each argument changed alone gives its own column, the one a cold
        # cache builds
        sf._second_kind.cache_clear()
        base = (1.5, -0.5, 1.25, 20, False)
        for i, other in [(None, None), (0, 2.5), (1, -0.75), (2, 1.3), (3, 21), (4, True)]:
            deg, order, z, n, elementary = (base if i is None
                                            else base[:i] + (other,) + base[i + 1:])
            if elementary:
                want = vf._qhat_half(deg + np.arange(n), order, z)
            else:
                want = sf.legendre_q_hat_column(deg, order, z, n)
            assert vf._radial(deg, order, z, n, elementary).tobytes() == want.tobytes()
        assert sf._second_kind.cache_info().currsize == 6

    @pytest.mark.parametrize("elementary", [False, True])
    @pytest.mark.parametrize("n", [20, 2049])
    def test_column_read_only(self, monkeypatch, elementary, n):
        # a kept column and one past the cache's budget alike; the column is
        # weighed by its n floats
        monkeypatch.setattr(sf, "_second_kind", sf.BoundedCache(sf.SECOND_KIND_SIZE, 2048))
        col = vf._radial(1.0, -0.5, 1.25, n, elementary)
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            col *= 2.0
        assert (vf._radial(1.0, -0.5, 1.25, n, elementary) is col) == (n == 20)


def _pin(status, *floats):
    return status, np.array([float.fromhex(f) for f in floats]).tobytes()


# one certificate per slot kind of the benchmark's certify cycle (every
# theorem, order and tree size it runs), at fixed angles: (status, lhs,
# rhs, rel_err, tail_estimate) as recorded once the orthonormal recurrence
# pass that builds the node tables ran each row as a'_k row(k-1) - row(k-2),
# times its scale c_k, from row-0 norms formed from exact ratios, so a
# change of rounding anywhere on the certificate path shows here and has to
# be made on purpose
_CYCLE_PINS = [
    (_std_cfg("C4.3", 3, 0, 80, nu=-1.0), _pin(
        "pass", "0x1.b9a2b9b5b8556p+0", "0x1.b9a2b9b5b8558p+0", "0x1.28c9a299ab3d6p-52",
        "0x1.0b62d9f3d6f38p-83")),
    (_std_cfg("C4.3", 3, 1, 80, nu=-1.0), _pin(
        "pass", "0x1.01d56aaac4dc7p-2", "0x1.01d56aaac4dc4p-2", "0x1.7d44e1f1369a0p-51",
        "0x1.edb4fe6d41710p-85")),
    (_std_cfg("C4.3", 3, 2, 80, nu=-1.0), _pin(
        "pass", "0x1.c05979626b972p-5", "0x1.c05979626b974p-5", "0x1.2457e62f72f78p-52",
        "0x1.74d97f0a1cd84p-84")),
    (_std_cfg("C4.3", 3, 0, 80, nu=-2.5), _pin(
        "pass", "0x1.da5524efd23a3p-1", "0x1.da5524efd23a7p-1", "0x1.14544dd8ce8c9p-51",
        "0x1.6dd4d659c70dep-79")),
    (_std_cfg("C4.3", 3, 1, 80, nu=-2.5), _pin(
        "pass", "0x1.51eac720d8f4ep-2", "0x1.51eac720d8f48p-2", "0x1.22e95dbe59f55p-50",
        "0x1.55e1a3fbbc8bcp-80")),
    (_std_cfg("C4.3", 3, 2, 80, nu=-2.5), _pin(
        "pass", "0x1.b520824ac7a0dp-4", "0x1.b520824ac7a0ap-4", "0x1.c1c5efcc85fbbp-52",
        "0x1.03afeccf1e3d3p-79")),
    (_std_cfg("C4.4", 4, 0, 80, nu=-2.0), _pin(
        "pass", "0x1.bd2bd05ea57e9p-1", "0x1.bd2bd05ea57eap-1", "0x1.266e3a956d026p-53",
        "0x1.ca1a564809591p-83")),
    (_std_cfg("C4.4", 4, 1, 80, nu=-2.0), _pin(
        "pass", "0x1.9633db6abb533p-3", "0x1.9633db6abb530p-3", "0x1.e403c133641a8p-52",
        "0x1.2638daf65bacap-81")),
    (replace(_hopf_cfg(2, 0, 80, nu=-2.0), theorem="C4.5"), _pin(
        "pass", "0x1.07e253b597825p+0", "0x1.07e253b597825p+0", "0x0.0p+0",
        "0x1.f4796d706d549p-80")),
    (replace(_hopf_cfg(2, 1, 80, nu=-2.0), theorem="C4.5"), _pin(
        "pass", "0x1.43794972e2cecp-2", "0x1.43794972e2ceep-2", "0x1.9533896b66534p-52",
        "0x1.0cc9b3a331ae0p-81")),
    (_std_cfg("T4.1", 4, 0, 40, nu=-1.3), _pin(
        "pass", "0x1.307fdd7e41785p+0", "0x1.307fdd7e4174dp+0", "0x1.78a4f2c63d1b1p-47",
        "0x1.b26ae3814ee6cp-41")),
    (_std_cfg("T4.1", 5, 0, 35, nu=-0.7), _pin(
        "pass", "0x1.105ce4d36bb02p+1", "0x1.105ce4d36bd8ap+1", "0x1.3088ef9ac1e5ep-43",
        "0x1.1e74702478790p-37")),
    (_std_cfg("T4.1", 6, 0, 30, nu=-2.2), _pin(
        "pass", "0x1.994f5e6997726p-1", "0x1.994f5e695d5a8p-1", "0x1.22ac0d960e81ep-35",
        "0x1.9ddf1fbf083e9p-29")),
    (_hopf_cfg(2, 0, 30, nu=-1.7), _pin(
        "pass", "0x1.21e318d48bba7p+0", "0x1.21e318d48bba2p+0", "0x1.1a97c03f7e764p-50",
        "0x1.62467c56eec6ep-31")),
    (replace(_hopf_cfg(3, 0, 12, nu=-0.9), tol=1e-3), _pin(
        "pass", "0x1.8e2e830564aa2p+0", "0x1.8e2e8305ff2c7p+0", "0x1.8d597191a8578p-34",
        "0x1.445ed2331e192p-13")),
]


@pytest.mark.parity
class TestCertificateBits:
    @pytest.mark.parametrize("cfg, want", _CYCLE_PINS)
    def test_pinned_bits(self, monkeypatch, cfg, want):
        # cold and warm: a certificate on a cached plan and radial column
        # gives the bits a fresh one gives
        _fresh_plans(monkeypatch)
        sf._second_kind.cache_clear()
        for _ in range(2):
            assert _report_bits(vf.run_verification(cfg)) == want

    def test_cycle_plans_stay_cached(self, monkeypatch):
        # the pinned certificates cover the cycle's 12 plan shapes, 60 809
        # table entries, which fit the cache together: a second pass over
        # them builds no plan.  Whole-plan LRU eviction would rebuild every
        # plan of a cyclic working set larger than the bound.
        _fresh_plans(monkeypatch)
        for cfg, _ in _CYCLE_PINS:
            vf.run_verification(cfg)
        built, pair_plan = [], vf._pair_plan
        monkeypatch.setattr(vf, "_pair_plan", lambda *args: built.append(args) or pair_plan(*args))
        for cfg, _ in _CYCLE_PINS:
            vf.run_verification(cfg)
        assert not built and len(_cached_plans()) == 12
        assert vf._plans.weight == sum(e for _, _, e in _cached_plans()) <= vf.PLAN_CACHE_ENTRIES


class TestIndependentOracles:
    def test_lhs_fourier_quadrature(self):
        # the Legendre LHS equals the azimuthal Fourier coefficient of the
        # kernel extracted by trapezoid quadrature
        for nu in (-1.0, -2.5):
            for chi in (1.3, 2.0, 4.5):
                for m in (0, 1, 3):
                    got = vf.azimuthal_coefficient_quadrature(nu, chi, m)
                    want = sf.legendre_q_hat(m - 0.5, -0.5 * (nu + 1.0), chi)
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


def _range_draw(rng):
    """A certificate config: T4.1, T4.2 or a preset, nu log-spread out to
    +-900 (never an integer, so off the excluded set), r'/r log-uniform in
    1e-3..1e3, small m and caps."""
    theorem = rng.choice(["T4.1", "T4.2", "C4.3", "C4.4", "C4.5"])
    nu = rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(math.log(0.05), math.log(900.0)))
    args = dict(theorem=theorem, nu=nu, m=rng.randrange(4),
                rp=math.exp(rng.uniform(math.log(1e-3), math.log(1e3))), caps=rng.randrange(2, 16))
    if theorem in ("T4.1", "C4.3", "C4.4"):
        d = {"C4.3": 3, "C4.4": 4}.get(theorem, rng.randrange(3, 7))
        args.update(d=d, thetas=tuple(rng.uniform(0.05, 3.09) for _ in range(d - 2)),
                    thetasp=tuple(rng.uniform(0.05, 3.09) for _ in range(d - 2)))
    else:
        q = 2 if theorem == "C4.5" else rng.randrange(2, 4)
        n = 2 ** (q - 1) - 1
        args.update(q=q, thetas=tuple(rng.uniform(0.05, 1.52) for _ in range(n)),
                    thetasp=tuple(rng.uniform(0.05, 1.52) for _ in range(n)),
                    phis=tuple(rng.uniform(0.0, 6.28) for _ in range(n)),
                    phisp=tuple(rng.uniform(0.0, 6.28) for _ in range(n)))
    return vf.TheoremConfig(**args)


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
        # corrupt the tolerance to force a fail on a fully converged sum: its
        # rel_err, about 3e-16, is not below the smallest positive tolerance
        rep = vf.verify_ba(ba_cfg(-1.0, 0, caps=80, tol=5e-324))
        assert rep.status in ("fail", "truncation_insufficient")
        assert not rep.passed

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            ba_cfg(-1.0, -1)

    def test_fail_only_compares_nonzero_finite_sides(self):
        # A radial power, radial column, chi^2, prefactor, lhs or rhs that
        # leaves double range is refused by name: the radial power used to
        # underflow to 0 (rhs = 0, "fail" at nu = 451, r'/r = 1.01), the lhs
        # to 0 at nu = 901, overflows ended in an unnamed OverflowError, and
        # a prefactor times a cut-short sum read rhs = -inf.
        rng = random.Random(28)
        outcomes = Counter()
        for _ in range(400):
            cfg = _range_draw(rng)
            try:
                rep = vf.run_verification(cfg)
            except PolyKernelError:
                outcomes["refused"] += 1
                continue
            outcomes[rep.status] += 1
            assert rep.rhs != 0.0 and math.isfinite(rep.rhs), cfg
            if rep.status == "fail":
                assert rep.lhs != 0.0 and math.isfinite(rep.lhs), cfg
        # the draws reach both sides of the range and pass many certificates
        assert outcomes["refused"] >= 30 and outcomes["pass"] >= 150, outcomes

    def test_coincident_radii_one_message(self):
        # the multipole expansion and the certificates share the check
        message = "^radii 1.0, 1.0000001 too close: radial argument collapses to 1$"
        with pytest.raises(CoincidentRadiusError, match=message):
            ex.multipole_power(3, 1.0, 1.0, 1.0000001, 0.3)
        with pytest.raises(CoincidentRadiusError, match=message):
            vf.run_verification(ba_cfg(1.0, 0, rp=1.0000001))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        # no rel_err is below a tol <= 0: the report would read
        # "truncation_insufficient" on a converged sum (rel_err 3e-16)
        with pytest.raises(ValueError, match="^tol must be a positive finite number"):
            ba_cfg(-1.0, 0, tol=tol)

    def test_negative_caps_rejected(self):
        with pytest.raises(ValueError, match="^caps must be >= 0"):
            ba_cfg(-1.0, 0, caps=-3)

    @pytest.mark.parametrize("r, rp", [(1e-200, 1e200), (1e-200, 2e-200)])
    def test_extreme_radii_rejected_by_name(self, r, rp):
        # r^2 + r'^2 or 2 r r' leaves double range: OverflowError "(34,
        # 'Numerical result out of range')" or ZeroDivisionError before
        with pytest.raises(DomainError, match=re.escape(f"r = {r}, rp = {rp}: ")):
            vf.verify_ba(ba_cfg(-1.0, 0, r=r, rp=rp))

    @pytest.mark.parametrize("cfg, message", [
        # rho = sin(1e-200)^2 underflows: a ZeroDivisionError before
        (ba_cfg(-1.0, 0, theta=1e-200, thetap=1e-200), "^rho, "),
        # chi about 3e232, its square past double range
        (vf.TheoremConfig(theorem="T4.1", nu=-1.0, d=300, thetas=(0.4,) * 298,
                          thetasp=(2.7,) * 298, caps=20), "^chi = "),
        # the b-node weights overflow while chi^2 stays finite
        (vf.TheoremConfig(theorem="T4.1", nu=-1.0, d=600, thetas=(1.0,) * 598,
                          thetasp=(1.2,) * 598, caps=20), "^the fold weights leave double range"),
        # sin(1e-70)^5 underflows at the lower b node, so every weight is 0:
        # a ValueError from an empty table before, then an IndexError
        (b2a_cfg(-1.5, 5, caps=10, angles=(1.0, 1e-70), anglesp=(2.0, 1e-70)),
         "^the fold weights underflow to 0"),
    ])
    def test_certificate_past_double_range_rejected_by_name(self, cfg, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                vf.run_verification(cfg)

    @pytest.mark.parametrize("cfg", [
        ba_cfg(-1.0, 0, theta=0.0),
        ba_cfg(-1.0, 0, thetap=math.pi),
        ba_cfg(-1.0, 0, theta=-0.2),
        b2a_cfg(-2.0, 0, angles=(0.9, math.pi)),
        ca2_cfg(-2.0, 0, vt=0.0),
        ca2_cfg(-2.0, 0, vtp=0.5 * math.pi),
        vf.TheoremConfig(theorem="T4.2", nu=-1.5, q=3, thetas=(0.5, 0.5 * math.pi, 0.7),
                         thetasp=(0.6, 0.4, 1.0), phis=(1.0, 2.0, 3.0),
                         phisp=(0.5, 4.0, 5.5), caps=6, tol=1e-3),
    ])
    def test_polar_angle_at_range_end_rejected(self, cfg):
        # the certificate reads its angles unchecked once _check_geometry
        # has passed them, so that check alone must stop every end point
        with pytest.raises(SingularConfigurationError, match="strictly inside"):
            vf.run_verification(cfg)

    def test_azimuths_reduced_mod_two_pi(self):
        # any real azimuth is accepted and reduced to [0, 2 pi) before the
        # certificate, which then matches the reduced call bit for bit; the
        # cosines of 1234.5 and -777.0 differ from those of their reductions
        # in the last bits, so an unreduced certificate would not
        phis, phisp = (-1.0, 8.0, 1234.5), (0.1, -777.0, 2.0 * math.pi)
        two_pi = 2.0 * math.pi

        def cfg(fs, fps):
            return vf.TheoremConfig(theorem="T4.2", nu=-1.5, q=3, thetas=(0.5, 0.9, 0.7),
                                    thetasp=(0.6, 0.4, 1.0), phis=fs, phisp=fps, caps=8,
                                    tol=1e-3)

        rep = vf.run_verification(cfg(phis, phisp))
        reduced = vf.run_verification(cfg(tuple(f % two_pi for f in phis),
                                           tuple(f % two_pi for f in phisp)))
        assert rep.passed
        assert (rep.lhs, rep.rhs) == (reduced.lhs, reduced.rhs)

    @pytest.mark.parametrize("field, value", [
        ("nu", math.nan), ("r", math.nan), ("rp", math.inf),
        ("thetas", (math.nan,)), ("thetasp", (math.inf,)),
    ])
    def test_non_finite_rejected_by_name(self, field, value):
        # rp = inf used to run the 2F1 series to its term cap (exit 4),
        # nu = NaN to fail with "cannot convert float NaN to integer"
        args = dict(theorem="C4.3", nu=-1.0, thetas=(1.0,), thetasp=(2.0,))
        args[field] = value
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            vf.TheoremConfig(**args)
