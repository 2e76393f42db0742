"""Polyspherical coordinate trees and their hyperspherical harmonics.

A coordinate system on R^d is a rooted binary tree with d leaves.  Branching
nodes come in four kinds, each with its own angle range:

    a   two leaf children,        phi in [0, 2pi)
    b   leaf left, subtree right, theta in [0, pi]
    b'  subtree left, leaf right, theta in [-pi/2, pi/2]
    c   two subtree children,     theta in [0, pi/2]

Trees are written in a left-to-right preorder naming language over the
alphabet {a, b, b', c} with ^k repeating the previous token, e.g. "ba"
(spherical coordinates on R^3), "b^2a", "ca^2" (Hopf coordinates on R^4).

Cartesian transform: walking from the root to a leaf, a left branch
multiplies by cos of the node angle and a right branch by sin.  Angle
vectors, quantum keys and surface-measure factors are all indexed by the
preorder position of the branching node.

Each branching node carries one quantum number (m in Z at type a, l in N0
otherwise) and contributes one separated eigenfunction factor; the product
over branching nodes is the normalized hyperspherical harmonic.  The engine
omits the Condon-Shortley (-1)^m of the textbook d = 3 spherical harmonics
(the addition theorem is insensitive to it since the sign enters Y and
conj(Y) together); multiply by (-1)^m to match that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    AngleRangeError,
    DomainError,
    InadmissibleKeyError,
    TrailingTokens,
    UnexpectedEnd,
    UnknownToken,
    ZeroExponent,
)
from .orthopoly import (gegenbauer_c, jacobi_norm_log, jacobi_p, orthonormal_recurrence,
                        recurrence_table)

ANGLE_RANGES = {
    "a": (0.0, 2.0 * math.pi, False),   # half-open [0, 2pi)
    "b": (0.0, math.pi, True),
    "b'": (-0.5 * math.pi, 0.5 * math.pi, True),
    "c": (0.0, 0.5 * math.pi, True),
}
MAX_TREE_DEPTH = 600    # see parse_tree


@dataclass(frozen=True)
class TreeNode:
    """Branching node; a None child is a leaf."""

    kind: str
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    index: int = field(default=0, compare=False)
    leaf_count: int = field(default=0, compare=False)

    def angle_range(self):
        return ANGLE_RANGES[self.kind]


def _leaf_count(node: TreeNode | None) -> int:
    return 1 if node is None else node.leaf_count


def _child_span(node: TreeNode | None) -> int:
    """S value of a child subtree: its leaf count minus 2 (0 for leaves)."""
    return _leaf_count(node) - 2


@dataclass(frozen=True)
class Tree:
    root: TreeNode
    dimension: int = field(init=False)
    branching_nodes: tuple[TreeNode, ...] = field(init=False)

    def __post_init__(self):
        nodes = []

        def collect(n):
            nodes.append(n)
            if n.left is not None:
                collect(n.left)
            if n.right is not None:
                collect(n.right)

        collect(self.root)
        object.__setattr__(self, "branching_nodes", tuple(nodes))
        object.__setattr__(self, "dimension", self.root.leaf_count)

    @property
    def n_angles(self) -> int:
        return len(self.branching_nodes)


@dataclass(frozen=True)
class QuantumKey:
    """One integer per branching node, in tree preorder."""

    values: tuple[int, ...]

    def __len__(self):
        return len(self.values)


def _tokenize(spec: str):
    """Expand the naming string into (token, source_position) pairs.

    Whitespace is insignificant everywhere, including between a token and
    its ^k repetition suffix.
    """
    tokens = []
    i = 0
    n = len(spec)

    def skip_ws(j):
        while j < n and spec[j].isspace():
            j += 1
        return j

    i = skip_ws(i)
    while i < n:
        ch = spec[i]
        if ch not in ("a", "b", "c"):
            raise UnknownToken(f"unexpected character {ch!r}", i)
        pos = i
        tok = ch
        i = skip_ws(i + 1)
        if ch == "b" and i < n and spec[i] == "'":
            tok = "b'"
            i = skip_ws(i + 1)
        reps = 1
        if i < n and spec[i] == "^":
            i = skip_ws(i + 1)
            j = i
            while j < n and spec[j].isdigit():
                j += 1
            if j == i:
                raise UnknownToken("'^' must be followed by a positive integer", i)
            reps = int(spec[i:j])
            if reps == 0:
                raise ZeroExponent("repetition count must be >= 1", i)
            i = skip_ws(j)
        tokens.extend([(tok, pos)] * reps)
    return tokens


def parse_tree(spec: str) -> Tree:
    """Parse the preorder naming language into a Tree.

    A tree more than MAX_TREE_DEPTH nodes deep raises DomainError, so that no
    walk over a tree (each recurses once per level) nears the interpreter's
    default recursion limit of 1000 frames.
    """
    tokens = _tokenize(spec)
    cursor = [0]
    counter = [0]

    def parse_node(depth=1):
        if depth > MAX_TREE_DEPTH:
            raise DomainError(f"the tree is more than {MAX_TREE_DEPTH} nodes deep")
        if cursor[0] >= len(tokens):
            pos = tokens[-1][1] + 1 if tokens else 0
            raise UnexpectedEnd("input ended while a subtree was expected", pos)
        tok, _pos = tokens[cursor[0]]
        cursor[0] += 1
        # reserve this node's preorder slot before descending
        index = counter[0]
        counter[0] += 1
        if tok == "a":
            left = right = None
        elif tok == "b":
            left, right = None, parse_node(depth + 1)
        elif tok == "b'":
            left, right = parse_node(depth + 1), None
        else:  # c
            left = parse_node(depth + 1)
            right = parse_node(depth + 1)
        return TreeNode(kind=tok, left=left, right=right, index=index,
                        leaf_count=_leaf_count(left) + _leaf_count(right))

    root = parse_node()
    if cursor[0] != len(tokens):
        raise TrailingTokens(
            f"{len(tokens) - cursor[0]} unconsumed token(s) after the root subtree",
            tokens[cursor[0]][1])
    return Tree(root=root)


def format_tree(t: Tree) -> str:
    """Canonical preorder spelling with maximal ^k compression."""
    toks = [n.kind for n in t.branching_nodes]
    out = []
    i = 0
    while i < len(toks):
        j = i
        while j < len(toks) and toks[j] == toks[i]:
            j += 1
        run = j - i
        out.append(toks[i] if run == 1 else f"{toks[i]}^{run}")
        i = j
    return "".join(out)


def count_trees(d: int) -> int:
    """Number of polyspherical trees on R^d (Catalan C_{d-1})."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    b = [0] * (d + 1)
    b[1] = 1
    for n in range(2, d + 1):
        b[n] = sum(b[i] * b[n - i] for i in range(1, n))
    return b[d]


def count_equivalence_classes(d: int) -> int:
    """Number of tree equivalence classes (Wedderburn-Etherington)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    a = [0] * (d + 1)
    a[1] = 1
    for n in range(2, d + 1):
        if n % 2 == 1:
            a[n] = sum(a[i] * a[n - i] for i in range(1, n // 2 + 1))
        else:
            a[n] = (sum(a[i] * a[n - i] for i in range(1, n // 2))
                    + a[n // 2] * (a[n // 2] + 1) // 2)
    return a[d]


def _check_angle(node: TreeNode, ang) -> None:
    """Raise AngleRangeError unless every angle lies in the node's range;
    the test is False for NaN, which is refused too."""
    lo, hi, closed = node.angle_range()
    arr = np.asarray(ang, dtype=float).ravel()
    bad = ~((lo <= arr) & ((arr <= hi) if closed else (arr < hi)))
    if bad.any():
        bracket = "]" if closed else ")"
        raise AngleRangeError(
            f"angle {float(arr[bad][0])} outside [{lo}, {hi}{bracket} at"
            f" type-{node.kind} node {node.index}")


def validate_angles(t: Tree, angles) -> None:
    if len(angles) != t.n_angles:
        raise AngleRangeError(
            f"expected {t.n_angles} angles, got {len(angles)}")
    for node, ang in zip(t.branching_nodes, angles):
        _check_angle(node, ang)


def to_cartesian(t: Tree, r: float, angles):
    """Map (r, angles) to the Cartesian point; leaves in left-to-right order."""
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    validate_angles(t, angles)

    def walk(node, factor):
        if node is None:
            return [factor]
        ang = angles[node.index]
        return (walk(node.left, factor * math.cos(ang))
                + walk(node.right, factor * math.sin(ang)))

    return np.asarray(walk(t.root, float(r)))


def cos_separation(t: Tree, angles, anglesp) -> float:
    """Cosine of the separation angle between two unit vectors on the tree."""
    validate_angles(t, angles)
    validate_angles(t, anglesp)
    return _cos_separation(t, angles, anglesp)


def _cos_separation(t: Tree, angles, anglesp) -> float:
    """`cos_separation` without its angle checks, for callers that made them."""

    def walk(node):
        if node is None:
            return 1.0
        a, ap = angles[node.index], anglesp[node.index]
        return (math.cos(a) * math.cos(ap) * walk(node.left)
                + math.sin(a) * math.sin(ap) * walk(node.right))

    return walk(t.root)


# --- generalized Hopf coordinates -----------------------------------------

@lru_cache(maxsize=None)
def hopf_tree(q: int) -> Tree:
    """Tree of type V_{2^q} = c V_{2^{q-1}} V_{2^{q-1}}, with V_2 = a."""
    if q < 1:
        raise ValueError("need q >= 1")
    return parse_tree(hopf_type_string(q))


def hopf_type_string(q: int) -> str:
    def build(k):
        if k == 1:
            return "a"
        sub = build(k - 1)
        return "c" + sub + sub

    return build(q)


def hopf_heap_to_preorder(q: int, heap_values):
    """Reorder heap-indexed node values (1-based, length 2^q - 1) to preorder."""
    if len(heap_values) != 2 ** q - 1:
        raise ValueError(f"expected {2 ** q - 1} values")
    out = []

    def walk(i):
        out.append(heap_values[i - 1])
        if 2 * i < 2 ** q:
            walk(2 * i)
            walk(2 * i + 1)

    walk(1)
    return out


def hopf_g_recursion(q: int, heap_angles, heap_anglesp) -> float:
    """Separation-angle cosine on the Hopf tree via the two-branch recursion.

    Angles are heap-indexed (node i has children 2i, 2i+1); entries
    2^{q-1}..2^q-1 are the azimuthal angles.
    """
    if len(heap_angles) != 2 ** q - 1 or len(heap_anglesp) != 2 ** q - 1:
        raise ValueError(f"expected {2 ** q - 1} heap-indexed angles")

    def g(s, r):
        if s == 0:
            return 1.0
        idx = r - 1 + 2 ** (q - s)
        a = heap_angles[idx - 1]
        ap = heap_anglesp[idx - 1]
        return (math.cos(a) * math.cos(ap) * g(s - 1, 2 * r - 1)
                + math.sin(a) * math.sin(ap) * g(s - 1, 2 * r))

    return g(q, 1)


# --- harmonics --------------------------------------------------------------

def _subtree_l(node: TreeNode, key: QuantumKey) -> int:
    """Angular-momentum value a child subtree feeds to its parent."""
    v = key.values[node.index]
    return abs(v) if node.kind == "a" else v


def _node_degree(node: TreeNode, key: QuantumKey):
    """(n, l_alpha, l_beta) of a b, b' or c node: the degree of its Jacobi
    factor and the degrees its child subtrees feed it (0 where the kind
    reads no subtree).  Raises InadmissibleKeyError on a key the node's
    kind excludes."""
    v = key.values[node.index]
    if v < 0:
        raise InadmissibleKeyError(f"l = {v} < 0 at node {node.index}")
    la = 0 if node.kind == "b" else _subtree_l(node.left, key)
    lb = 0 if node.kind == "b'" else _subtree_l(node.right, key)
    if node.kind == "b" and v < lb:
        raise InadmissibleKeyError(
            f"type b needs l >= l_beta; got l = {v}, l_beta = {lb}")
    if node.kind == "b'" and v < la:
        raise InadmissibleKeyError(
            f"type b' needs l >= l_alpha; got l = {v}, l_alpha = {la}")
    if node.kind == "c" and (v < la + lb or (v - la - lb) % 2 != 0):
        raise InadmissibleKeyError(
            f"type c needs l - l_alpha - l_beta even and >= 0; got"
            f" l = {v}, l_alpha = {la}, l_beta = {lb}")
    return (v - la - lb) // (2 if node.kind == "c" else 1), la, lb


def validate_key(t: Tree, key: QuantumKey) -> None:
    if len(key.values) != t.n_angles:
        raise InadmissibleKeyError(
            f"expected {t.n_angles} quantum numbers, got {len(key.values)}")
    for node in t.branching_nodes:
        if node.kind != "a":
            _node_degree(node, key)


def node_factor(node: TreeNode, key: QuantumKey, angle):
    """Separated eigenfunction factor of one branching node.

    Type a returns the complex azimuthal factor; the other kinds return the
    real normalized Jacobi/Gegenbauer factor.  ``angle`` may be an ndarray.
    """
    if node.kind == "a":
        ang = np.asarray(angle, dtype=float)
        out = np.exp(1j * key.values[node.index] * ang) / math.sqrt(2.0 * math.pi)
        return out if np.ndim(angle) else complex(out)
    n, la, lb = _node_degree(node, key)
    ang = np.asarray(angle, dtype=float)
    if node.kind == "b":
        a = lb + 0.5 * _child_span(node.right)
        norm = math.exp(0.5 * jacobi_norm_log(n, a, a))
        out = norm * np.sin(ang) ** lb * jacobi_p(n, a, a, np.cos(ang))
    elif node.kind == "b'":
        b = la + 0.5 * _child_span(node.left)
        norm = math.exp(0.5 * jacobi_norm_log(n, b, b))
        out = norm * np.cos(ang) ** la * jacobi_p(n, b, b, np.sin(ang))
    else:  # c
        a = la + 0.5 * _child_span(node.left)
        b = lb + 0.5 * _child_span(node.right)
        norm = 2.0 ** (0.5 * (a + b) + 1.0) * math.exp(0.5 * jacobi_norm_log(n, a, b))
        out = (norm * np.sin(ang) ** lb * np.cos(ang) ** la
               * jacobi_p(n, b, a, np.cos(2.0 * ang)))
    return out if np.ndim(angle) else float(out)


def node_pair_table(node: TreeNode, nmax: int, l_left, l_right, theta, thetap):
    """node_factor at theta times node_factor at thetap, over n = 0..nmax.

    l_left and l_right are the child degrees (0 at a leaf child), ints or
    arrays that broadcast against each other.  Row n belongs to the node
    degree l_left + l_right + n at b and b' nodes and l_left + l_right + 2n
    at c nodes, so the result has shape ``(nmax + 1,) +`` the broadcast
    shape.  This is the one-node view of `_pair_plan` and `_pair_tables`,
    which a certificate's fold calls once for all of its nodes: it builds
    every table first, from the child degrees that the tree's structure
    allows, in one orthonormal Jacobi recurrence pass.  Every entry is the
    same bit for bit whichever call builds it.  A table's transient memory
    is O(pairs * nmax), and a certificate holds all of its tables at once.

    Each column's recurrence starts from K E(theta) / sqrt(h_0) (see
    `_pair_plan`), formed as one exp of its log, and every later row is
    built from it.  So where that start falls below the smallest normal
    double (about 2.2e-308) at either angle, as it can near an end of the
    angle's range at large child degrees, the column loses digits, and
    below about 4.9e-324 it reads 0, even where a later row's true value is
    a normal double.
    """
    if node.kind == "a":
        raise ValueError("a type-a node carries azimuthal weights, not a pair table")
    ll, lr = np.asarray(l_left, dtype=int), np.asarray(l_right, dtype=int)
    if nmax < 0 or (ll < 0).any() or (lr < 0).any():
        raise ValueError("quantum numbers must be nonnegative")
    if (node.left is None and ll.any()) or (node.right is None and lr.any()):
        raise ValueError("a leaf child has degree 0")
    plan = _pair_plan(nmax, [(node, *np.broadcast_arrays(ll, lr))])
    return _pair_tables(plan, [(theta, thetap)])[0]


def _pair_plan(nmax: int, requests):
    """The angle-free half of `_pair_tables`: every column's parameters.

    Each request is (node, l_left, l_right), its degrees int arrays of one
    shape, the table's shape after its n axis.  Each pair of child degrees
    is one column, whose node factor is K E(t) p_n^{(alpha,beta)}(x), p_n
    the orthonormal Jacobi polynomial (`orthopoly.orthonormal_recurrence`),
    l_l and l_r the child degrees and a_l, a_r each child's parameter
    l + S/2:

        node  (alpha, beta)  x        E(t)                     K
        b     (a_r, a_r)     cos t    sin^{l_r} t              1
        b'    (a_l, a_l)     sin t    cos^{l_l} t              1
        c     (a_r, a_l)     cos 2t   cos^{l_l} t sin^{l_r} t  2^{(a_l + a_r)/2 + 1}

    The plan is (nmax, nodes, shapes, columns, recurrence), columns holding
    per column l_left, l_right, alpha, beta and log(K / sqrt(h_0)), one row
    each, and recurrence the angle-free half of the columns' pass at x of
    shape (2, columns) (`orthopoly.orthonormal_recurrence`).  So what a
    plan holds grows with the columns times nmax, 24 bytes per column and
    degree on a wide table (B, A and the ratios), and a certificate that
    keeps its plan keeps no table.
    """
    columns = [np.zeros((5, 0))]
    for node, ll, lr in requests:
        a_l, a_r = ll + 0.5 * _child_span(node.left), lr + 0.5 * _child_span(node.right)
        alpha, beta = {"b": (a_r, a_r), "b'": (a_l, a_l), "c": (a_r, a_l)}[node.kind]
        # log(K^2 / 2^{alpha+beta+1}): K^2 = 2^{alpha+beta+2} at c nodes, 1 at b and b'
        log_k = math.log(2.0) * (np.ones(ll.shape) if node.kind == "c" else -(alpha + beta + 1.0))
        columns.append(np.stack([ll, lr, alpha, beta, log_k]).reshape(5, -1))
    columns = np.concatenate(columns, axis=1)
    # log(K / sqrt(h_0)), h_0 = 2^{alpha+beta+1} Gamma(alpha+1) Gamma(beta+1)
    # / Gamma(alpha+beta+2) (DLMF 18.3)
    alpha, beta = columns[2:4]
    columns[4] += _lgamma(alpha + beta + 2.0) - _lgamma(alpha + 1.0) - _lgamma(beta + 1.0)
    columns[4] *= 0.5
    recurrence = orthonormal_recurrence(nmax, alpha, beta, (2, len(alpha)))
    return (nmax, [req[0] for req in requests], [req[1].shape for req in requests], columns,
            recurrence)


def _lgamma(x):
    """math.lgamma at every entry of x, called once per distinct value."""
    values, index = np.unique(x, return_inverse=True)
    return np.array([math.lgamma(v) for v in values.tolist()])[index]


def _pair_tables(plan, angles):
    """`node_pair_table` of the requests of one `_pair_plan`, in one
    recurrence pass.

    angles holds (theta, thetap) per request; the tables come back in
    request order.  Row 0 of every column is exp(log(K / sqrt(h_0)) +
    log E) at both angles, the envelope's log taken from math.cos /
    math.sin as one node's call would take them, and x is the node's
    argument at both angles.  One `orthopoly.recurrence_table` run of the
    plan's recurrence then gives every column at both angles, and the
    table is the product of the two.  One wide pass costs about what one
    narrow pass does (its three ufunc calls per degree set the cost, not
    the entries), but every table is held at once, each a view of the
    pass's output, beside the 8 bytes per entry of scatter offsets that a
    fold plan holds for it (see `verify._build_plan`).
    """
    nmax, nodes, shapes, (ll, lr, _, _, log_norm), recurrence = plan
    trig = []
    for node, (theta, thetap) in zip(nodes, angles):
        # _check_angle's test on Python floats, numpy's only to word an
        # error; False for NaN too
        lo, hi, _ = ANGLE_RANGES[node.kind]
        if not (lo <= theta <= hi and lo <= thetap <= hi):
            _check_angle(node, (theta, thetap))
        if node.kind == "c":
            x = (math.cos(2.0 * theta), math.cos(2.0 * thetap))
        else:
            f = math.cos if node.kind == "b" else math.sin
            x = (f(theta), f(thetap))
        trig.append((*x, abs(math.cos(theta)), abs(math.cos(thetap)), abs(math.sin(theta)),
                     abs(math.sin(thetap))))
    if not nodes:
        return []
    trig = np.array(trig).T
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(trig[2:], out=trig[2:])
        trig = np.repeat(trig, [math.prod(shape) for shape in shapes], axis=1)
        # a degree of 0 contributes 1, also where its trig factor is 0
        row0 = np.where(ll > 0, ll * trig[2:4], 0.0)
        row0 += np.where(lr > 0, lr * trig[4:], 0.0)
    row0 += log_norm
    np.exp(row0, out=row0)
    table = recurrence_table(recurrence, trig[:2], row0)
    out = table[:, 0]
    out *= table[:, 1]
    tables, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        tables.append(out[:, start:start + size].reshape((nmax + 1,) + shape))
        start += size
    return tables


def harmonic(t: Tree, key: QuantumKey, angles):
    """Normalized hyperspherical harmonic: product of all node factors."""
    validate_key(t, key)
    out = None
    for node in t.branching_nodes:
        f = node_factor(node, key, angles[node.index])
        out = f if out is None else out * f
    return out if isinstance(out, np.ndarray) else complex(out)


def surface_measure(t: Tree, angles):
    """Angular density of the round measure: prod cos^{dimL-1} sin^{dimR-1}."""
    validate_angles(t, angles)
    out = 1.0
    for node in t.branching_nodes:
        ang = np.asarray(angles[node.index], dtype=float)
        dl = _leaf_count(node.left)
        dr = _leaf_count(node.right)
        fac = np.ones_like(ang)
        if dl > 1:
            fac = fac * np.cos(ang) ** (dl - 1)
        if dr > 1:
            fac = fac * np.sin(ang) ** (dr - 1)
        out = out * fac
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def enumerate_keys(t: Tree, degree: int) -> list[QuantumKey]:
    """All admissible keys whose root quantum number equals ``degree``."""
    if degree < 0:
        raise ValueError("degree must be a nonnegative integer")

    def keys_for(node, l):
        if node.kind == "a":
            return [{node.index: m} for m in ({0} if l == 0 else {l, -l})]
        out = []
        if node.kind == "b":
            for lb in range(l + 1):
                for sub in keys_for(node.right, lb):
                    out.append({node.index: l, **sub})
        elif node.kind == "b'":
            for la in range(l + 1):
                for sub in keys_for(node.left, la):
                    out.append({node.index: l, **sub})
        else:
            for la in range(l + 1):
                for lb in range(l - la, -1, -2):
                    for left in keys_for(node.left, la):
                        for right in keys_for(node.right, lb):
                            out.append({node.index: l, **left, **right})
        return out

    keys = []
    for assign in keys_for(t.root, degree):
        keys.append(QuantumKey(values=tuple(assign[i] for i in range(t.n_angles))))
    return keys


def harmonic_space_dimension(d: int, n: int) -> int:
    """Dimension of the degree-n harmonic space on the unit sphere in R^d."""
    if n == 0:
        return 1
    return ((2 * n + d - 2) * math.factorial(n + d - 3)
            // (math.factorial(n) * math.factorial(d - 2)))


# --- closed-form separated factors used by the addition-theorem verifier ----

def theta_standard(j: int, d: int, l: int, l_next: int, theta: float) -> float:
    """Normalized polar factor of the standard tree (level j of d - 2).

    Assembled in log space so large-l coefficient growth cancels against the
    Gegenbauer value instead of overflowing.
    """
    if not 1 <= j <= d - 2 or l < l_next or l_next < 0:
        raise ValueError("need 1 <= j <= d-2 and l >= l_next >= 0")
    mu = l_next + 0.5 * (d - j - 1.0)
    cval = gegenbauer_c(l - l_next, mu, math.cos(theta))
    if cval == 0.0:
        return 0.0
    s = math.sin(theta)
    if s == 0.0 and l_next > 0:
        return 0.0
    logc = (math.lgamma(l_next + 0.5 * (d - j + 1.0))
            - math.log(2.0 * l_next + d - j - 1.0)
            + 0.5 * ((2.0 * l_next + d - j - 1.0) * math.log(2.0)
                     + math.log(2.0 * l + d - j - 1.0)
                     + math.lgamma(l - l_next + 1.0)
                     - math.log(math.pi)
                     - math.lgamma(l + l_next + d - j - 1.0)))
    if l_next > 0:
        logc += l_next * math.log(s)
    return math.copysign(math.exp(logc + math.log(abs(cval))), cval)


def hopf_upsilon(q: int, heap_index: int, n: int, l_left: int, l_right: int,
                 theta: float) -> float:
    """Normalized c-node factor of the Hopf tree V_{2^q}, heap position j."""
    if n < 0 or l_left < 0 or l_right < 0:
        raise ValueError("quantum numbers must be nonnegative")
    off = 2 ** (q - 2 - (heap_index.bit_length() - 1))
    a = l_left - 1.0 + off
    b = l_right - 1.0 + off
    pval = jacobi_p(n, b, a, math.cos(2.0 * theta))
    if pval == 0.0:
        return 0.0
    ct, st = math.cos(theta), math.sin(theta)
    if (ct == 0.0 and l_left > 0) or (st == 0.0 and l_right > 0):
        return 0.0
    logc = 0.5 * (math.log(2.0 * n + a + b + 1.0) + math.lgamma(n + a + b + 1.0)
                  + math.lgamma(n + 1.0) - math.lgamma(n + a + 1.0)
                  - math.lgamma(n + b + 1.0))
    if l_left > 0:
        logc += l_left * math.log(ct)
    if l_right > 0:
        logc += l_right * math.log(st)
    return math.copysign(math.exp(logc + math.log(abs(pval))), pval)
