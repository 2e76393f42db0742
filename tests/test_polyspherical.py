"""Tree parser, coordinate transforms, and hyperspherical harmonics."""

import math
import re
import types

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_sums import node_pair_column_mp, node_pair_table_reference
from polykernel import orthopoly as op
from polykernel import polyspherical as ps
from polykernel import specfun as sf
from polykernel.errors import (
    AngleRangeError,
    DomainError,
    InadmissibleKeyError,
    TrailingTokens,
    UnexpectedEnd,
    UnknownToken,
    ZeroExponent,
)


def random_angles(tree, rng):
    out = []
    for node in tree.branching_nodes:
        lo, hi, _ = node.angle_range()
        out.append(float(rng.uniform(lo + 1e-6, hi - 1e-6)))
    return out


class TestParser:
    def test_polar(self):
        t = ps.parse_tree("a")
        assert t.dimension == 2 and t.root.kind == "a"

    def test_spherical(self):
        t = ps.parse_tree("ba")
        assert t.dimension == 3
        assert t.root.kind == "b" and t.root.right.kind == "a"

    def test_hopf(self):
        t = ps.parse_tree("ca^2")
        assert t.dimension == 4
        assert t.root.kind == "c"
        assert t.root.left.kind == "a" and t.root.right.kind == "a"

    def test_standard_d4(self):
        t = ps.parse_tree("b^2a")
        assert t.dimension == 4
        assert [n.kind for n in t.branching_nodes] == ["b", "b", "a"]

    def test_whitespace(self):
        assert ps.format_tree(ps.parse_tree(" b ^ 2a ")) != ""  # spaces inside ^ not allowed
        assert ps.format_tree(ps.parse_tree("b'  b a ")) == "b'ba"

    def test_unexpected_end(self):
        with pytest.raises(UnexpectedEnd):
            ps.parse_tree("c a")

    def test_trailing(self):
        with pytest.raises(TrailingTokens):
            ps.parse_tree("a a")

    def test_zero_exponent(self):
        with pytest.raises(ZeroExponent):
            ps.parse_tree("b^0a")

    def test_unknown_token(self):
        with pytest.raises(UnknownToken):
            ps.parse_tree("bxa")

    def test_depth_limit(self):
        # MAX_TREE_DEPTH nodes deep parses (and its walks run); one more is refused
        deepest = ps.parse_tree(f"b'^{ps.MAX_TREE_DEPTH - 1}a")
        assert deepest.dimension == ps.MAX_TREE_DEPTH + 1
        assert len(ps.to_cartesian(deepest, 1.0, [0.1] * deepest.n_angles)) == deepest.dimension
        for spec in (f"b^{ps.MAX_TREE_DEPTH}a", f"c^{ps.MAX_TREE_DEPTH}a"):
            with pytest.raises(DomainError, match="nodes deep"):
                ps.parse_tree(spec)

    def test_roundtrip_d4_types(self):
        # the five four-dimensional types
        for spec in ("b^2a", "bb'a", "b'ba", "b'^2a", "ca^2"):
            t = ps.parse_tree(spec)
            assert t.dimension == 4
            assert ps.format_tree(t) == spec
            t2 = ps.parse_tree(ps.format_tree(t))
            assert [n.kind for n in t2.branching_nodes] == \
                [n.kind for n in t.branching_nodes]

    def test_format_compression(self):
        assert ps.format_tree(ps.parse_tree("bbbba")) == "b^4a"
        assert ps.format_tree(ps.parse_tree("caa")) == "ca^2"

    def test_random_roundtrip(self):
        rng = np.random.default_rng(127)

        def random_spec(d):
            if d == 2:
                return "a"
            split = int(rng.integers(1, d))
            if split == 1:
                return "b" + random_spec(d - 1)
            if split == d - 1:
                return "b'" + random_spec(d - 1)
            return "c" + random_spec(split) + random_spec(d - split)

        for _ in range(60):
            d = int(rng.integers(2, 12))
            spec = random_spec(d)
            t = ps.parse_tree(spec)
            assert t.dimension == d
            t2 = ps.parse_tree(ps.format_tree(t))
            assert [n.kind for n in t2.branching_nodes] == \
                [n.kind for n in t.branching_nodes]


class TestCounting:
    def test_catalan_values(self):
        assert ps.count_trees(2) == 1
        assert ps.count_trees(4) == 5
        assert ps.count_trees(13) == 208012

    def test_sequence(self):
        want = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]
        assert [ps.count_trees(d) for d in range(2, 14)] == want

    def test_wedderburn_etherington(self):
        assert ps.count_equivalence_classes(4) == 2
        assert ps.count_equivalence_classes(7) == 11
        assert ps.count_equivalence_classes(13) == 983
        want = [1, 1, 2, 3, 6, 11, 23, 46, 98, 207, 451, 983]
        assert [ps.count_equivalence_classes(d) for d in range(2, 14)] == want

    def test_brute_force_shapes(self):
        # enumerate all leaf-count splits recursively; node types are forced
        def shapes(d):
            if d == 1:
                return 1
            return sum(shapes(i) * shapes(d - i) for i in range(1, d))

        for d in range(2, 8):
            assert ps.count_trees(d) == shapes(d)


class TestTransforms:
    def test_polar_point(self):
        np.testing.assert_allclose(ps.to_cartesian(ps.parse_tree("a"), 1.0, [0.0]),
                                   [1.0, 0.0], atol=1e-15)

    def test_spherical_point(self):
        got = ps.to_cartesian(ps.parse_tree("ba"), 1.0, [0.5 * math.pi, 0.0])
        np.testing.assert_allclose(got, [0.0, 1.0, 0.0], atol=1e-15)

    def test_hopf_point(self):
        got = ps.to_cartesian(ps.parse_tree("ca^2"), 2.0,
                              [0.5 * math.pi, 1.234, 0.0])
        np.testing.assert_allclose(got, [0.0, 0.0, 2.0, 0.0], atol=1e-12)

    def test_radius_preserved(self):
        rng = np.random.default_rng(79)
        for spec in ("a", "ba", "b^2a", "ca^2", "b'ba", "cab^2a", "b'^3a"):
            t = ps.parse_tree(spec)
            for _ in range(100):
                r = float(rng.uniform(0.1, 5.0))
                pt = ps.to_cartesian(t, r, random_angles(t, rng))
                assert pt.shape == (t.dimension,)
                assert abs(np.linalg.norm(pt) - r) < 1e-13 * r

    def test_angle_range_error(self):
        with pytest.raises(AngleRangeError):
            ps.to_cartesian(ps.parse_tree("ba"), 1.0, [3.5, 0.0])

    def test_measure_vs_jacobian(self):
        # total surface area: integral of the measure = area of S^{d-1}
        rng = np.random.default_rng(83)
        for spec in ("ba", "b^2a", "ca^2", "b'a"):
            t = ps.parse_tree(spec)
            d = t.dimension
            total = 1.0
            for node in t.branching_nodes:
                lo, hi, _ = node.angle_range()
                nodes_, w_ = np.polynomial.legendre.leggauss(60)
                tt = 0.5 * (hi - lo) * (nodes_ + 1.0) + lo
                ww = 0.5 * (hi - lo) * w_
                key = ps.QuantumKey(values=tuple(0 for _ in t.branching_nodes))
                # integrate this node's measure factor alone
                dl = node.left.leaf_count if node.left else 1
                dr = node.right.leaf_count if node.right else 1
                fac = np.cos(tt) ** (dl - 1) * np.sin(tt) ** (dr - 1)
                total *= float(np.sum(ww * fac))
            area = 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)
            assert total == pytest.approx(area, rel=1e-10)


class TestNanAngles:
    # NaN compares False with both ends of a range, so each public entry
    # point refuses it by name at every node kind and in either point
    ANGLES = [0.7, -0.4, 1.1, 2.2, 0.3]         # cb'aba: c, b', a, b, a

    @pytest.mark.parametrize("index", range(5))
    @pytest.mark.parametrize("call", [
        lambda t, a, b: ps.validate_angles(t, a),
        lambda t, a, b: ps.to_cartesian(t, 1.0, a),
        lambda t, a, b: ps.cos_separation(t, a, b),
        lambda t, a, b: ps.cos_separation(t, b, a),
        lambda t, a, b: ps.surface_measure(t, a),
    ], ids=["validate_angles", "to_cartesian", "cos_separation", "cos_separation_second",
            "surface_measure"])
    def test_tree_entry_points(self, call, index):
        angles = list(self.ANGLES)
        angles[index] = math.nan
        with pytest.raises(AngleRangeError, match="^angle nan outside"):
            call(ps.parse_tree("cb'aba"), angles, list(self.ANGLES))

    @pytest.mark.parametrize("spec", ["ba", "b'a", "caa"])
    def test_node_pair_table(self, spec):
        # at either point: min(0.5, nan) and max(0.5, nan) are both 0.5
        node = ps.parse_tree(spec).root
        for pair in ((math.nan, 0.5), (0.5, math.nan)):
            with pytest.raises(AngleRangeError, match="^angle nan outside"):
                ps.node_pair_table(node, 3, 0, 0, *pair)


class TestSeparation:
    @pytest.mark.parametrize("spec, angles, anglesp", [
        ("ba", [3.5, 0.0], [1.0, 0.0]),             # polar angle past pi
        ("ba", [1.0, 0.0], [1.0, 2.0 * math.pi]),   # azimuth at its open end
        ("ca^2", [0.4, 1.1, 2.5], [-0.1, 0.3, 4.2]),
        ("ba", [1.0], [1.0, 0.0]),                  # one angle short
    ])
    def test_angle_range_error(self, spec, angles, anglesp):
        # the public walk validates; only verify's certificate skips it
        with pytest.raises(AngleRangeError):
            ps.cos_separation(ps.parse_tree(spec), angles, anglesp)

    def test_polar(self):
        t = ps.parse_tree("a")
        assert ps.cos_separation(t, [0.7], [0.2]) == pytest.approx(
            math.cos(0.5), rel=1e-15)

    def test_hopf_formula(self):
        t = ps.parse_tree("ca^2")
        vt, f1, f2 = 0.4, 1.1, 2.5
        vtp, f1p, f2p = 0.9, 0.3, 4.2
        got = ps.cos_separation(t, [vt, f1, f2], [vtp, f1p, f2p])
        want = (math.cos(vt) * math.cos(vtp) * math.cos(f1 - f1p)
                + math.sin(vt) * math.sin(vtp) * math.cos(f2 - f2p))
        assert got == pytest.approx(want, rel=1e-14)

    def test_zero_separation(self):
        rng = np.random.default_rng(89)
        for spec in ("ba", "ca^2", "b^2a"):
            t = ps.parse_tree(spec)
            ang = random_angles(t, rng)
            assert ps.cos_separation(t, ang, ang) == pytest.approx(1.0, abs=1e-14)

    def test_matches_inner_product(self):
        rng = np.random.default_rng(97)
        for spec in ("ba", "b^2a", "ca^2", "b'ba", "cab^2a"):
            t = ps.parse_tree(spec)
            for _ in range(100):
                a1 = random_angles(t, rng)
                a2 = random_angles(t, rng)
                x = ps.to_cartesian(t, 1.0, a1)
                xp = ps.to_cartesian(t, 1.0, a2)
                assert abs(ps.cos_separation(t, a1, a2) - float(np.dot(x, xp))) < 1e-13


class TestHopfRecursion:
    def test_q1(self):
        assert ps.hopf_g_recursion(1, [0.8], [0.1]) == pytest.approx(
            math.cos(0.7), rel=1e-14)

    def test_q2_q3_match_tree(self):
        rng = np.random.default_rng(101)
        for q in (2, 3):
            t = ps.hopf_tree(q)
            for _ in range(20):
                heap = [float(rng.uniform(0.05, 0.45 * math.pi))
                        for _ in range(2 ** q - 1)]
                heapp = [float(rng.uniform(0.05, 0.45 * math.pi))
                         for _ in range(2 ** q - 1)]
                got = ps.hopf_g_recursion(q, heap, heapp)
                want = ps.cos_separation(t, ps.hopf_heap_to_preorder(q, heap),
                                         ps.hopf_heap_to_preorder(q, heapp))
                assert abs(got - want) < 1e-14

    def test_hopf_type_string(self):
        assert ps.hopf_type_string(1) == "a"
        assert ps.hopf_type_string(2) == "caa"
        assert ps.format_tree(ps.hopf_tree(3)) == "c^2a^2ca^2"


class TestNodeFactor:
    def test_azimuthal_constant(self):
        t = ps.parse_tree("a")
        key = ps.QuantumKey(values=(0,))
        val = ps.node_factor(t.root, key, 1.23)
        assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)

    def test_constant_sphere(self):
        t = ps.parse_tree("ba")
        key = ps.QuantumKey(values=(0, 0))
        y = ps.harmonic(t, key, [0.7, 2.1])
        assert y == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-13)

    def test_hopf_closed_form(self):
        # c-node factor consistency against the explicit R^4 Hopf harmonic
        t = ps.parse_tree("ca^2")
        n, m1, m2 = 0, 1, 0
        l_root = 2 * n + abs(m1) + abs(m2)
        key = ps.QuantumKey(values=(l_root, m1, m2))
        vt, f1, f2 = 0.6, 0.8, 1.9
        got = ps.harmonic(t, key, [vt, f1, f2])
        norm = math.sqrt((2 * n + abs(m1) + abs(m2) + 1)
                         * math.factorial(n + abs(m1) + abs(m2)) * math.factorial(n)
                         / (2.0 * math.factorial(n + abs(m1))
                            * math.factorial(n + abs(m2))))
        want = (np.exp(1j * (m1 * f1 + m2 * f2)) / math.pi * norm
                * math.sin(vt) ** abs(m2) * math.cos(vt) ** abs(m1)
                * op.jacobi_p(n, abs(m2), abs(m1), math.cos(2 * vt)))
        assert abs(got - want) < 1e-13 * abs(want)

    def test_inadmissible(self):
        t = ps.parse_tree("ba")
        with pytest.raises(InadmissibleKeyError):
            ps.harmonic(t, ps.QuantumKey(values=(1, 2)), [0.7, 2.1])
        t4 = ps.parse_tree("ca^2")
        with pytest.raises(InadmissibleKeyError):
            # l - |m1| - |m2| odd
            ps.harmonic(t4, ps.QuantumKey(values=(2, 1, 0)), [0.4, 0.1, 0.2])

    @pytest.mark.parametrize("spec, values, message", [
        ("ba", (1, 2), "type b needs l >= l_beta; got l = 1, l_beta = 2"),
        ("b'a", (1, -2), "type b' needs l >= l_alpha; got l = 1, l_alpha = 2"),
        ("ca^2", (2, 1, 0),
         "type c needs l - l_alpha - l_beta even and >= 0; got l = 2, l_alpha = 1, l_beta = 0"),
    ])
    def test_node_factor_inadmissible_message(self, spec, values, message):
        # node_factor names the rule and the degrees, as validate_key does
        t = ps.parse_tree(spec)
        with pytest.raises(InadmissibleKeyError, match=f"^{re.escape(message)}$"):
            ps.node_factor(t.root, ps.QuantumKey(values=values), 0.4)


def _mpmath_column(node, nmax, l_left, l_right, theta, thetap):
    with mp.workdps(40):
        return node_pair_column_mp(node, nmax, l_left, l_right, theta, thetap)


def _column_error(col, want):
    """The largest error of a node_pair_table column, relative to the
    column's largest entry."""
    return float(np.max(np.abs(col - want)) / np.max(np.abs(want)))


def _assert_matches_mpmath(col, node, l_left, l_right, theta, thetap):
    want = _mpmath_column(node, len(col) - 1, l_left, l_right, theta, thetap)
    assert _column_error(col, want) <= 1e-13


class TestVerifierFactors:
    """The verifier's closed-form node factors and their pair columns."""

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_theta_standard_is_b_node_factor(self, d):
        t = ps.parse_tree(f"b^{d - 2}a")
        rng = np.random.default_rng(d)
        keys = ps.enumerate_keys(t, 5)
        for key in (keys[i] for i in rng.choice(len(keys), 6, replace=False)):
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            for j in range(1, d - 1):
                l, l_next = key.values[j - 1], abs(key.values[j])
                want = ps.node_factor(t.branching_nodes[j - 1], key, theta)
                got = ps.theta_standard(j, d, l, l_next, theta)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("q", [2, 3])
    def test_hopf_upsilon_is_c_node_factor_over_sqrt2(self, q):
        t = ps.hopf_tree(q)
        heap_of = ps.hopf_heap_to_preorder(q, list(range(1, 2 ** q)))
        rng = np.random.default_rng(q)
        keys = ps.enumerate_keys(t, 6)
        for key in (keys[i] for i in rng.choice(len(keys), 6, replace=False)):
            heap = [0] * (2 ** q)
            for pos, h in enumerate(heap_of):
                heap[h] = key.values[pos]
            theta = float(rng.uniform(0.05, 0.5 * math.pi - 0.05))
            for h in range(1, 2 ** (q - 1)):
                la, lb = abs(heap[2 * h]), abs(heap[2 * h + 1])
                n = (heap[h] - la - lb) // 2
                want = ps.node_factor(t.branching_nodes[heap_of.index(h)], key, theta)
                got = ps.hopf_upsilon(q, h, n, la, lb, theta)
                assert abs(got * math.sqrt(2.0) - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("d, lmax", [(4, 0), (4, 30), (6, 25)])
    def test_theta_pair_column(self, d, lmax):
        # node_pair_table at the b nodes of b^{d-2}a: each column at 1e-13
        # of its largest entry against 40-digit mpmath
        t = ps.parse_tree(f"b^{d - 2}a")
        theta, thetap = 0.9, 2.3
        for j in range(1, d - 1):
            node = t.branching_nodes[j - 1]
            # one table over a vector of child degrees, rows n = l - l_next
            degs = list(range(1, lmax + 1, 4)) or [0]
            table = ps.node_pair_table(node, lmax, 0, degs, theta, thetap)
            assert table.shape == (lmax + 1, len(degs))
            for l_next in range(0, lmax + 1, 4):
                col = ps.node_pair_table(node, lmax - l_next, 0, l_next, theta, thetap)
                assert col.shape == (lmax - l_next + 1,)
            for k, l_next in enumerate(degs):
                np.testing.assert_array_equal(
                    table[:lmax - l_next + 1, k],
                    ps.node_pair_table(node, lmax - l_next, 0, l_next, theta, thetap))
                _assert_matches_mpmath(table[:, k], node, 0, l_next, theta, thetap)

    @staticmethod
    def _hopf_node(q, heap_index):
        heap_of = ps.hopf_heap_to_preorder(q, list(range(1, 2 ** q)))
        return ps.hopf_tree(q).branching_nodes[heap_of.index(heap_index)]

    @pytest.mark.parametrize("q, heap_index", [(2, 1), (3, 1), (3, 3), (4, 2)])
    def test_upsilon_pair_column(self, q, heap_index):
        # node_pair_table at a Hopf c node against 40-digit mpmath
        node = self._hopf_node(q, heap_index)
        theta, thetap = 0.4, 1.2
        for la, lb in ((0, 0), (3, 0), (1, 4), (12, 7)):
            col = ps.node_pair_table(node, 30, la, lb, theta, thetap)
            assert col.shape == (31,)
            _assert_matches_mpmath(col, node, la, lb, theta, thetap)

    @pytest.mark.parametrize("q, heap_index", [(2, 1), (3, 1), (4, 2)])
    def test_upsilon_pair_table_over_degree_vectors(self, q, heap_index):
        # one table over broadcast degree vectors: each column is the scalar
        # call bit for bit, and 40-digit mpmath's at 1e-13 of its largest
        # entry
        node = self._hopf_node(q, heap_index)
        theta, thetap = 0.4, 1.2
        la = np.array([0, 3, 1, 12])[:, None]
        lb = np.array([0, 4, 7])
        table = ps.node_pair_table(node, 20, la, lb, theta, thetap)
        assert table.shape == (21, 4, 3)
        for i, a in enumerate(la[:, 0].tolist()):
            for k, b in enumerate(lb.tolist()):
                col = ps.node_pair_table(node, 20, a, b, theta, thetap)
                np.testing.assert_array_equal(table[:, i, k], col)
                _assert_matches_mpmath(col, node, a, b, theta, thetap)
        flat = ps.node_pair_table(node, 20, [1, 12], [7, 0], theta, thetap)
        np.testing.assert_array_equal(flat, table[:, [2, 3], [2, 0]])

    def test_upsilon_pair_table_exact_zeros(self, monkeypatch):
        # sin 0 = 0 zeroes every pair with l_right > 0, and a zero cosine
        # every pair with l_left > 0; no double has cos exactly 0, so the
        # module's cos is made exact at pi/2.  Other pairs keep their values.
        node = self._hopf_node(2, 1)
        la, lb = np.array([0, 0, 2, 2]), np.array([0, 3, 0, 3])
        table = ps.node_pair_table(node, 6, la, lb, 0.0, 0.7)
        for k in range(4):
            want = [2.0 * ps.hopf_upsilon(2, 1, n, la[k], lb[k], 0.0)
                    * ps.hopf_upsilon(2, 1, n, la[k], lb[k], 0.7) for n in range(7)]
            assert (table[:, k] == 0.0).all() == (lb[k] > 0)
            np.testing.assert_allclose(table[:, k], want, rtol=1e-13, atol=0.0)
        # the b node of ba: sin 0 = 0 zeroes every child degree but 0
        b_node = ps.parse_tree("ba").root
        table = ps.node_pair_table(b_node, 6, 0, [0, 2], 0.0, 0.7)
        for k, l_next in enumerate((0, 2)):
            want = [ps.theta_standard(1, 3, l_next + n, l_next, 0.0)
                    * ps.theta_standard(1, 3, l_next + n, l_next, 0.7) for n in range(7)]
            assert (table[:, k] == 0.0).all() == (l_next > 0)
            np.testing.assert_allclose(table[:, k], want, rtol=1e-13, atol=0.0)
        exact = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math)
                                         if not k.startswith("_")})
        exact.cos = lambda t: 0.0 if t == 0.5 * math.pi else math.cos(t)
        monkeypatch.setattr(ps, "math", exact)
        table = ps.node_pair_table(node, 6, la, lb, 0.5 * math.pi, 0.7)
        for k in range(4):
            want = [2.0 * ps.hopf_upsilon(2, 1, n, la[k], lb[k], 0.5 * math.pi)
                    * ps.hopf_upsilon(2, 1, n, la[k], lb[k], 0.7) for n in range(7)]
            assert (table[:, k] == 0.0).all() == (la[k] > 0)
            np.testing.assert_allclose(table[:, k], want, rtol=1e-13, atol=0.0)

    def test_pair_column_validation(self):
        b_node = ps.parse_tree("b^2a").root
        with pytest.raises(ValueError):
            # an a node carries weights, not a pair table
            ps.node_pair_table(ps.parse_tree("ba").branching_nodes[1], 5, 0, 0, 0.5, 0.6)
        with pytest.raises(ValueError):
            # a b node's left child is a leaf, of degree 0
            ps.node_pair_table(b_node, 2, 3, 0, 0.5, 0.6)
        with pytest.raises(ValueError):
            ps.node_pair_table(self._hopf_node(2, 1), -1, 0, 0, 0.5, 0.6)
        with pytest.raises(ValueError):
            ps.node_pair_table(self._hopf_node(2, 1), 4, -1, 0, 0.5, 0.6)

    @pytest.mark.parametrize("spec, index, theta", [
        ("ba", 0, -0.3),          # b: theta in [0, pi]
        ("b'a", 0, 1.7),          # b': theta in [-pi/2, pi/2]
        ("caa", 0, 1.7),          # c: theta in [0, pi/2]
    ])
    def test_pair_table_angle_range(self, spec, index, theta):
        # an angle outside the node's range is a typed error, at either point
        node = ps.parse_tree(spec).branching_nodes[index]
        with pytest.raises(AngleRangeError):
            ps.node_pair_table(node, 4, 0, 0, theta, 0.6)
        with pytest.raises(AngleRangeError):
            ps.node_pair_table(node, 4, 0, 0, 0.6, theta)


_SUBTREES = ("a", "ba", "b'a", "caa", "bba", "b'ba", "cbaa")     # S = 0, 1, 1, 2, 2, 2, 3


def _pair_draw(rng):
    """(node, nmax, l_left, l_right, theta, thetap): the root of a b, b' or
    c tree over subtrees of up to 5 leaves, child degrees below 40, nmax up
    to 60 and both angles at least 0.02 inside the node's range."""
    kind = rng.choice(["b", "b'", "c"])
    subtrees = rng.choice(_SUBTREES, 2)
    node = ps.parse_tree(kind + "".join(subtrees[:2 if kind == "c" else 1])).root
    la, lb = (0 if child is None else int(rng.integers(40)) for child in (node.left, node.right))
    lo, hi, _ = ps.ANGLE_RANGES[kind]
    theta, thetap = rng.uniform(lo + 0.02, hi - 0.02, 2).tolist()
    return node, int(rng.integers(61)), la, lb, theta, thetap


@pytest.mark.parity
class TestPairTableAccuracy:
    # node_pair_table against 40-digit mpmath, each column's largest error
    # relative to its largest entry
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_column_error_bound(self, seed):
        node, *args = _pair_draw(np.random.default_rng(seed))
        _assert_matches_mpmath(ps.node_pair_table(node, *args), node, *args[1:])

    def test_no_worse_than_log_space_assembly(self):
        # the log-space assembly (`node_pair_table_reference`) on the same
        # draws: the largest error and the median over the draws are no
        # larger with the orthonormal recurrence.  Single draws may be
        # worse by rounding, so the two are compared over the draws.
        rng = np.random.default_rng(5)
        errors = []
        for _ in range(60):
            node, *args = _pair_draw(rng)
            want = _mpmath_column(node, *args)
            errors.append([_column_error(build(node, *args), want)
                           for build in (ps.node_pair_table, node_pair_table_reference)])
        new, old = np.array(errors).T
        assert new.max() <= 1e-13
        assert new.max() <= old.max() and np.median(new) <= np.median(old)


class TestReferenceIndependence:
    def test_reference_runs_no_orthonormal_pass(self, monkeypatch):
        # the log-space oracle of the tables reaches neither the pass that
        # node_pair_table runs nor its kernel: with both made to raise, it
        # returns the same tables, bit for bit, on b, b' and c nodes
        rng = np.random.default_rng(17)
        draws = [_pair_draw(rng) for _ in range(12)]
        assert {draw[0].kind for draw in draws} == {"b", "b'", "c"}
        wants = [node_pair_table_reference(*draw) for draw in draws]

        def refuse(*args):
            raise AssertionError("the orthonormal pass was run")

        monkeypatch.setattr(op, "_three_term", refuse)
        monkeypatch.setattr(op, "recurrence_table", refuse)
        with pytest.raises(AssertionError, match="orthonormal pass"):
            ps.node_pair_table(*draws[0])
        for draw, want in zip(draws, wants):
            assert node_pair_table_reference(*draw).tobytes() == want.tobytes()


class TestHarmonic:
    def test_polar_mode(self):
        t = ps.parse_tree("a")
        got = ps.harmonic(t, ps.QuantumKey(values=(2,)), [0.25 * math.pi])
        want = complex(0.0, 1.0) * 0.3989422804014327
        assert abs(got - want) < 1e-13

    def test_condon_shortley_reconciliation(self):
        # The node-factor product tracks |m|, so it equals the textbook
        # Condon-Shortley Y_lm for m >= 0 and differs by the documented
        # (-1)^m for m < 0.  The factor is squared away in every
        # Y * conj(Y) product (addition theorem, orthonormality).
        t = ps.parse_tree("ba")
        rng = np.random.default_rng(103)
        for _ in range(20):
            l = int(rng.integers(0, 6))
            m = int(rng.integers(-l, l + 1)) if l else 0
            theta = float(rng.uniform(0.1, math.pi - 0.1))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            reconcile = (-1.0) ** m if m < 0 else 1.0
            got = reconcile * ps.harmonic(t, ps.QuantumKey(values=(l, m)),
                                          [theta, phi])
            want = ((-1.0) ** m
                    * math.sqrt((2 * l + 1) / (4.0 * math.pi)
                                * math.factorial(l - m) / math.factorial(l + m))
                    * sf.ferrers_p(l, m, math.cos(theta))
                    * np.exp(1j * m * phi))
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_vectorized(self):
        t = ps.parse_tree("ba")
        key = ps.QuantumKey(values=(3, 1))
        thetas = np.linspace(0.2, 3.0, 5)
        phis = np.linspace(0.0, 6.0, 5)
        got = ps.harmonic(t, key, [thetas, phis])
        want = [ps.harmonic(t, key, [float(a), float(b)])
                for a, b in zip(thetas, phis)]
        np.testing.assert_allclose(got, want, rtol=1e-13)


class TestEnumerateKeys:
    def test_counts_examples(self):
        assert len(ps.enumerate_keys(ps.parse_tree("ba"), 2)) == 5
        assert len(ps.enumerate_keys(ps.parse_tree("ca^2"), 1)) == 4
        for spec in ("ba", "b^2a", "ca^2", "b'ba"):
            assert len(ps.enumerate_keys(ps.parse_tree(spec), 0)) == 1

    def test_counts_match_dimension_formula(self):
        for spec in ("ba", "b^2a", "ca^2", "b'^2a", "b^3a", "cab^2a"):
            t = ps.parse_tree(spec)
            for deg in range(5):
                keys = ps.enumerate_keys(t, deg)
                assert len(keys) == ps.harmonic_space_dimension(t.dimension, deg)
                for key in keys:
                    ps.validate_key(t, key)  # admissible by construction

    def test_all_keys_distinct(self):
        keys = ps.enumerate_keys(ps.parse_tree("ca^2"), 4)
        assert len({k.values for k in keys}) == len(keys)


class TestSurfaceMeasure:
    def test_examples(self):
        assert ps.surface_measure(ps.parse_tree("ba"), [0.5 * math.pi, 1.0]) == \
            pytest.approx(1.0, rel=1e-15)
        assert ps.surface_measure(ps.parse_tree("ca^2"),
                                  [0.25 * math.pi, 1.0, 2.0]) == \
            pytest.approx(0.5, rel=1e-14)
        assert ps.surface_measure(ps.parse_tree("a"), [0.3]) == 1.0


def _quadrature_grid(tree, n_polar=32, n_azimuthal=64):
    """Tensor grid + weights: Gauss-Legendre per polar angle, trapezoid on
    azimuths."""
    axes, weights = [], []
    for node in tree.branching_nodes:
        lo, hi, _ = node.angle_range()
        if node.kind == "a":
            pts = lo + (hi - lo) * np.arange(n_azimuthal) / n_azimuthal
            wts = np.full(n_azimuthal, (hi - lo) / n_azimuthal)
        else:
            nodes_, w_ = np.polynomial.legendre.leggauss(n_polar)
            pts = 0.5 * (hi - lo) * (nodes_ + 1.0) + lo
            wts = 0.5 * (hi - lo) * w_
        axes.append(pts)
        weights.append(wts)
    mesh = np.meshgrid(*axes, indexing="ij")
    wmesh = np.meshgrid(*weights, indexing="ij")
    wtot = np.ones_like(wmesh[0])
    for w in wmesh:
        wtot = wtot * w
    angles = [m.ravel() for m in mesh]
    return angles, wtot.ravel()


@pytest.mark.parametrize("spec", ["ba", "b'a", "b^2a", "ca^2"])
def test_orthonormality(spec):
    tree = ps.parse_tree(spec)
    angles, wts = _quadrature_grid(tree)
    meas = ps.surface_measure(tree, angles)
    keys = [k for deg in range(4) for k in ps.enumerate_keys(tree, deg)]
    vals = np.stack([ps.harmonic(tree, k, angles) for k in keys])
    gram = (vals * meas * wts) @ np.conj(vals.T)
    eye = np.eye(len(keys))
    assert np.max(np.abs(gram - eye)) < 1e-9


@pytest.mark.parametrize("spec,nmax", [("ba", 6), ("b^2a", 4), ("ca^2", 4)])
def test_addition_theorem(spec, nmax):
    tree = ps.parse_tree(spec)
    d = tree.dimension
    rng = np.random.default_rng(107)
    for n in range(nmax + 1):
        keys = ps.enumerate_keys(tree, n)
        for _ in range(20):
            a1 = random_angles(tree, rng)
            a2 = random_angles(tree, rng)
            total = sum(ps.harmonic(tree, k, a1) * np.conj(ps.harmonic(tree, k, a2))
                        for k in keys)
            cg = ps.cos_separation(tree, a1, a2)
            want = ((2.0 * n + d - 2.0) * math.gamma(0.5 * d)
                    / (2.0 * (d - 2.0) * math.pi ** (0.5 * d))
                    * op.gegenbauer_c(n, 0.5 * d - 1.0, cg))
            assert abs(total.imag) < 1e-12
            assert abs(total.real - want) < 1e-10 * max(1.0, abs(want))
