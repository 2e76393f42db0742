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
    InadmissibleKeyError,
    TrailingTokens,
    UnexpectedEnd,
    UnknownToken,
    ZeroExponent,
)
from .orthopoly import gegenbauer_c, gegenbauer_c_all, jacobi_norm_log, jacobi_p, jacobi_p_all

ANGLE_RANGES = {
    "a": (0.0, 2.0 * math.pi, False),   # half-open [0, 2pi)
    "b": (0.0, math.pi, True),
    "b'": (-0.5 * math.pi, 0.5 * math.pi, True),
    "c": (0.0, 0.5 * math.pi, True),
}


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
    """Parse the preorder naming language into a Tree."""
    tokens = _tokenize(spec)
    cursor = [0]
    counter = [0]

    def parse_node():
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
            left, right = None, parse_node()
        elif tok == "b'":
            left, right = parse_node(), None
        else:  # c
            left = parse_node()
            right = parse_node()
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


def validate_angles(t: Tree, angles) -> None:
    if len(angles) != t.n_angles:
        raise AngleRangeError(
            f"expected {t.n_angles} angles, got {len(angles)}")
    for node, ang in zip(t.branching_nodes, angles):
        lo, hi, closed = node.angle_range()
        arr = np.asarray(ang, dtype=float)
        bad = (arr < lo) | ((arr > hi) if closed else (arr >= hi))
        if np.any(bad):
            offender = float(np.atleast_1d(arr)[np.atleast_1d(bad)][0])
            bracket = "]" if closed else ")"
            raise AngleRangeError(
                f"angle {offender} outside [{lo}, {hi}{bracket} at"
                f" type-{node.kind} node {node.index}")


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


def validate_key(t: Tree, key: QuantumKey) -> None:
    if len(key.values) != t.n_angles:
        raise InadmissibleKeyError(
            f"expected {t.n_angles} quantum numbers, got {len(key.values)}")
    for node in t.branching_nodes:
        v = key.values[node.index]
        if node.kind == "a":
            continue
        if v < 0:
            raise InadmissibleKeyError(f"l = {v} < 0 at node {node.index}")
        if node.kind == "b":
            lb = _subtree_l(node.right, key)
            if v < lb:
                raise InadmissibleKeyError(
                    f"type b needs l >= l_beta; got l = {v}, l_beta = {lb}")
        elif node.kind == "b'":
            la = _subtree_l(node.left, key)
            if v < la:
                raise InadmissibleKeyError(
                    f"type b' needs l >= l_alpha; got l = {v}, l_alpha = {la}")
        else:  # c
            la = _subtree_l(node.left, key)
            lb = _subtree_l(node.right, key)
            if v < la + lb or (v - la - lb) % 2 != 0:
                raise InadmissibleKeyError(
                    f"type c needs l - l_alpha - l_beta even and >= 0; got"
                    f" l = {v}, l_alpha = {la}, l_beta = {lb}")


def node_factor(node: TreeNode, key: QuantumKey, angle):
    """Separated eigenfunction factor of one branching node.

    Type a returns the complex azimuthal factor; the other kinds return the
    real normalized Jacobi/Gegenbauer factor.  ``angle`` may be an ndarray.
    """
    v = key.values[node.index]
    if node.kind == "a":
        ang = np.asarray(angle, dtype=float)
        out = np.exp(1j * v * ang) / math.sqrt(2.0 * math.pi)
        return out if np.ndim(angle) else complex(out)
    if v < 0:
        raise InadmissibleKeyError(f"l = {v} < 0 at node {node.index}")
    ang = np.asarray(angle, dtype=float)
    if node.kind == "b":
        lb = _subtree_l(node.right, key)
        n = v - lb
        if n < 0:
            raise InadmissibleKeyError("type b needs l >= l_beta")
        a = lb + 0.5 * _child_span(node.right)
        norm = math.exp(0.5 * jacobi_norm_log(n, a, a))
        out = norm * np.sin(ang) ** lb * jacobi_p(n, a, a, np.cos(ang))
    elif node.kind == "b'":
        la = _subtree_l(node.left, key)
        n = v - la
        if n < 0:
            raise InadmissibleKeyError("type b' needs l >= l_alpha")
        b = la + 0.5 * _child_span(node.left)
        norm = math.exp(0.5 * jacobi_norm_log(n, b, b))
        out = norm * np.cos(ang) ** la * jacobi_p(n, b, b, np.sin(ang))
    else:  # c
        la = _subtree_l(node.left, key)
        lb = _subtree_l(node.right, key)
        if v < la + lb or (v - la - lb) % 2 != 0:
            raise InadmissibleKeyError(
                "type c needs l - l_alpha - l_beta even and >= 0")
        n = (v - la - lb) // 2
        a = la + 0.5 * _child_span(node.left)
        b = lb + 0.5 * _child_span(node.right)
        norm = 2.0 ** (0.5 * (a + b) + 1.0) * math.exp(0.5 * jacobi_norm_log(n, a, b))
        out = (norm * np.sin(ang) ** lb * np.cos(ang) ** la
               * jacobi_p(n, b, a, np.cos(2.0 * ang)))
    return out if np.ndim(angle) else float(out)


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


def _signed_pair_products(vals, log_coef):
    """sign * exp(log_coef + log|v| + log|v'|) for the rows (v, v') of vals.

    The log-space assembly lets large-order coefficient growth cancel against
    the polynomial values instead of overflowing.
    """
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(vals)).sum(axis=1)
    return np.prod(np.sign(vals), axis=1) * np.exp(log_coef + log_abs)


def theta_standard_pairs(j: int, d: int, lmax: int, l_next,
                         theta: float, thetap: float):
    """theta_standard(j, d, l, l_next, .) at theta times at thetap.

    l_next is one child degree or a vector of them; rows run over the
    parent degrees l = min(l_next)..lmax, so the result has shape
    ``(lmax - min(l_next) + 1,) + np.shape(l_next)``, and the entries with
    l < l_next are zero.  One Gegenbauer recurrence pass, over every order
    l_next + (d-j-1)/2 and both angles at once, builds the whole table.
    """
    ln = np.atleast_1d(np.asarray(l_next, dtype=int))
    lo = int(ln.min())
    if not 1 <= j <= d - 2 or lmax < ln.max() or lo < 0:
        raise ValueError("need 1 <= j <= d-2 and lmax >= l_next >= 0")
    e = d - j - 1
    cvals = gegenbauer_c_all(lmax - lo, ln + 0.5 * e,
                             [[math.cos(theta)], [math.cos(thetap)]])
    # log k! for every integer argument of the Gamma functions below
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(2 * lmax + e)])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_sin = np.log(math.sin(theta)) + np.log(math.sin(thetap))
        log_front = (2.0 * (np.array([math.lgamma(v + 0.5 * (d - j + 1.0)) for v in ln.tolist()])
                            - np.log(2.0 * ln + e))
                     + (2.0 * ln + e) * math.log(2.0) - math.log(math.pi)
                     + np.where(ln > 0, ln * log_sin, 0.0))
    n = np.arange(lmax - lo + 1)[:, None]     # recurrence degree l - l_next
    # (rows with n > lmax - l_next are never read below; clipping keeps
    # their log_fact index in range)
    log_coef = (log_front + np.log(2.0 * (n + ln) + e) + log_fact[n]
                - log_fact[np.minimum(n + 2 * ln + e - 1, 2 * lmax + e - 1)])
    table = _signed_pair_products(cvals, log_coef)
    # row l - lo of the result holds degree l, i.e. recurrence degree l - l_next
    shift = n + (lo - ln)
    out = np.where(shift >= 0, np.take_along_axis(table, np.maximum(shift, 0), axis=0), 0.0)
    return out.reshape((lmax - lo + 1,) + np.shape(l_next))


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


def hopf_upsilon_pairs(q: int, heap_index: int, nmax: int, l_left, l_right,
                       theta: float, thetap: float):
    """hopf_upsilon(q, heap_index, n, l_left, l_right, .) at theta times at thetap.

    l_left and l_right are child degrees or arrays of them that broadcast
    against each other; the result has shape ``(nmax + 1,) +`` their
    broadcast shape, the column n = 0..nmax for every pair, and scalars give
    one column of shape ``(nmax + 1,)``.  One Jacobi recurrence pass, over
    every pair's parameters and both angles at once, builds the whole
    table, so its transient memory is O(pairs * nmax): a q = 3 certificate
    peaks at about 1.4 MB at nmax = 12 and 20 MB at nmax = 30 (tracemalloc).
    """
    ll = np.asarray(l_left, dtype=int)
    lr = np.asarray(l_right, dtype=int)
    if nmax < 0 or np.any(ll < 0) or np.any(lr < 0):
        raise ValueError("quantum numbers must be nonnegative")
    off = 2 ** (q - 2 - (heap_index.bit_length() - 1))
    a = ll - 1 + off
    b = lr - 1 + off
    ct, ctp = math.cos(theta), math.cos(thetap)
    st, stp = math.sin(theta), math.sin(thetap)
    # a zero cosine (sine) to a positive power zeroes the pair; masked below
    c_zero, s_zero = ct == 0.0 or ctp == 0.0, st == 0.0 or stp == 0.0
    log_front = (ll * (0.0 if c_zero else math.log(ct) + math.log(ctp))
                 + lr * (0.0 if s_zero else math.log(st) + math.log(stp)))
    ndim = log_front.ndim
    pvals = jacobi_p_all(nmax, b, a, np.reshape([math.cos(2.0 * theta), math.cos(2.0 * thetap)],
                                                (2,) + (1,) * ndim))
    # a and b are integers, so every Gamma and log below is read from a table
    top = 2 * nmax + int(np.max(a, initial=0)) + int(np.max(b, initial=0)) + 1
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(top)])
    log_next = np.array([math.log(k + 1.0) for k in range(top)])
    n = np.arange(nmax + 1).reshape((-1,) + (1,) * ndim)
    log_coef = (log_front + log_next[2 * n + a + b] + log_fact[n + a + b] + log_fact[n]
                - log_fact[n + a] - log_fact[n + b])
    table = _signed_pair_products(pvals, log_coef)
    return np.where((c_zero & (ll > 0)) | (s_zero & (lr > 0)), 0.0, table)
