"""Numerical certification of the power-law addition theorems.

Each verifier compares the azimuthal Fourier coefficient of ||x - x'||^nu,
a single phase-free Legendre function Qhat_{m-1/2}^{-(nu+1)/2}(chi), against
the truncated multi-sum eigenfunction side.  The working real forms are
derived by algebraic composition (Fourier factorization x Gegenbauer
multipole expansion x harmonic addition theorem), with every prefactor in
phase-cancelled form and pinned by independent oracle tests.

There are two theorems, T4.1 on the standard tree b^{d-2}a and T4.2 on the
generalized Hopf tree V_{2^q}, and one mechanism for both: a fold over the
`polyspherical.Tree` itself, from its leaves to its root.  The first a leaf
in preorder, whose azimuth is the distinguished one, carries weight 1 at
order m, every other a leaf the weights eps_k cos(k (phi - phi')); every
other node maps its children's weight vectors to a weight vector W(l) over
its own degree through its `node_pair_table`.  The certificate is
pref * sum_l W(l) R(l) over the root degrees, with a Legendre-Q radial
factor R; chi comes from `cos_separation` with the distinguished azimuth at
0.  The other theorem ids are presets: C4.3 and C4.4 are T4.1 at d = 3 and
d = 4, C4.5 is T4.2 at q = 2.  The elementary reductions are the same
theorems at nu = 2 - d, where R = Qhat^{-1/2} is elementary (DLMF 14.5.17),
so they check the fold against a radial factor that uses no series code.

The fold builds every node's table before it contracts any.  A node's child
degrees follow from the tree's structure (the leaves' nonzero orders, caps
and top), so every b, b' and c table comes from one orthonormal Jacobi
recurrence pass; the per-degree ufunc calls, not the entries, set its
cost.  What follows from the structure alone is a fold plan, kept with the
pass's recurrence coefficients and every node's scatter offsets in a
`specfun.BoundedCache` per shape, so a certificate on a shape seen before
runs only the angle-dependent half; the radial column R depends on no angle
either and is read through `specfun.second_kind`.  The contraction, one
np.bincount per node, reads the child weights at their structural supports,
in the order a node-by-node fold would, so every certificate is the same bit
for bit.  The cost is memory: every table is held at once, up to
MAX_TABLE_ENTRIES entries.

Geometry restrictions: azimuthal order m >= 0, radii distinct, every angle
but the azimuths strictly inside its node's range so that chi stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, SingularConfigurationError, in_range, require_finite
from .expansions import _check_power_exclusion, _distinct_radii
from .polyspherical import (Tree, _cos_separation, _pair_plan, _pair_tables,
                            hopf_heap_to_preorder, hopf_tree, parse_tree)
from .specfun import BoundedCache, legendre_q_hat, legendre_q_hat_column, second_kind

# The most entries a certificate's node tables (50-57 bytes each at the
# tracemalloc peak, the plan's coefficients and scatter offsets included),
# or its weight vectors of length m + 1 or more, may hold.
MAX_TABLE_ENTRIES = 4_000_000


@dataclass(frozen=True)
class TheoremConfig:
    """One verification instance; angle conventions per theorem.

    thetas/thetasp: polar-type angles (T4.1/C4.3/C4.4: theta_1..theta_{d-2};
    T4.2: heap-ordered c-node angles; C4.5: the single Hopf angle).
    phis/phisp: azimuthal angles where the theorem has explicit ones
    (T4.2: phi_2..phi_{2^{q-1}}; C4.5: phi_2).
    d, q: tree size of T4.1 (R^d) and T4.2 (R^{2^q}); the C4.x presets set
    them.  caps: per-summation-level truncation cap; tol: relative tolerance.
    """

    theorem: str
    nu: float
    m: int = 0
    r: float = 1.0
    rp: float = 2.0
    thetas: tuple[float, ...] = ()
    thetasp: tuple[float, ...] = ()
    phis: tuple[float, ...] = ()
    phisp: tuple[float, ...] = ()
    d: int = 3
    q: int = 2
    caps: int = 60
    tol: float = 1e-6

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("azimuthal order m must be >= 0 here")
        if self.caps < 0:
            raise ValueError(f"caps must be >= 0, got {self.caps}")
        # a tol <= 0 no rel_err can meet would report a converged sum as truncated
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be a positive finite number, got {self.tol}")
        require_finite(nu=self.nu, r=self.r, rp=self.rp, thetas=self.thetas,
                       thetasp=self.thetasp, phis=self.phis, phisp=self.phisp)
        if self.r <= 0.0 or self.rp <= 0.0:
            raise ValueError("radii must be positive")


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    terms_used: dict = field(default_factory=dict)
    tail_estimate: float = 0.0
    tolerance: float = 1e-6
    status: str = "fail"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _check_geometry(cfg, tree, angles, anglesp):
    """(r_<, r_>), after rejecting nu in the excluded set {2m, 2m+2, ...},
    coincident radii, and node angles not strictly inside their range, where
    chi is infinite."""
    _check_power_exclusion(cfg.nu, 2 * cfg.m)
    radii = _distinct_radii(cfg.r, cfg.rp)
    for node in tree.branching_nodes:
        lo, hi, _ = node.angle_range()
        for a in (angles[node.index], anglesp[node.index]):
            if node.kind != "a" and not lo < a < hi:
                raise SingularConfigurationError(
                    f"type-{node.kind} angle {a} must lie strictly inside ({lo}, {hi})")
    return radii


def _geometric_tail(terms):
    """Extrapolated tail of a decaying term sequence.

    Fits one geometric ratio across the last six nonzero magnitudes (a
    window-wide fit smooths the oscillation of Ferrers/Gegenbauer factors),
    scanned from the end; returns inf when there are fewer than six or the
    window looks non-decreasing.
    """
    window = []
    for t in reversed(terms):
        if t != 0.0:
            window.append(abs(t))
            if len(window) == 6:
                break
    else:
        return math.inf
    window.reverse()
    peak = max(window)
    rho = (window[-1] / window[0]) ** (1.0 / 5.0)
    if rho >= 1.0 or not math.isfinite(rho):
        return math.inf
    return peak * rho / (1.0 - rho)


def _report(cfg, lhs, rhs, terms_used, tail):
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(lhs) if lhs != 0.0 else math.inf
    if rel_err < cfg.tol:
        status = "pass"
    elif tail > 0.5 * cfg.tol * abs(lhs):
        status = "truncation_insufficient"
    else:
        status = "fail"
    return VerificationReport(theorem=cfg.theorem, lhs=lhs, rhs=rhs,
                              abs_err=abs_err, rel_err=rel_err,
                              terms_used=terms_used, tail_estimate=tail,
                              tolerance=cfg.tol, status=status)


def _qhat_half(nu, mu, z):
    """Qhat_nu^mu(z) at mu = 1/2 or -1/2 in closed form (DLMF 14.5.17).

    With cosh eta = z: sqrt(pi/(2 sinh eta)) e^{-(nu+1/2) eta}, divided by
    nu + 1/2 at mu = -1/2.  nu may be an ndarray.
    """
    s = math.sqrt(z * z - 1.0)
    nu = np.asarray(nu, dtype=float)
    val = math.sqrt(0.5 * math.pi / s) * (z + s) ** -(nu + 0.5)
    return val if mu > 0 else val / (nu + 0.5)


def _fold(tree: Tree, caps: int, angles, anglesp, leaves, top=None):
    """Root weight vector of the fold over degrees 0, 1, ...

    angles/anglesp are preorder node angles (the a entries are not read);
    leaves holds the a-node weight vectors, in preorder, and a leaf child
    is weight 1 at degree 0.  Each table covers n = 0..caps; degrees above
    top, when given, are dropped.

    A fold is a plan and an execution.  The plan (`_fold_plan`) holds what
    depends only on the tree, caps, top and where the leaf weights are
    nonzero: every node's child supports and column degrees, the column
    parameters of `_pair_tables` and the recurrence coefficients of its
    pass (see `_pair_plan`).  A fold on a shape seen before skips straight
    to the execution.  It builds every node's
    table first, in one `_pair_tables` call and one recurrence pass, then
    contracts from the leaves up with one `np.bincount` per node, at the
    scatter offsets the plan holds.  bincount adds its weights in the order
    it reads them, as `np.add.at` does: l_a-major, then l_b, with n
    innermost, so every root weight is the same bit for bit as a
    node-by-node fold's.  A child weight that vanishes inside its structural
    support adds products 0 u = +-0, which leave every sum as it was.
    Holding every table at once costs memory, so a certificate whose tables
    would hold more than MAX_TABLE_ENTRIES entries raises DomainError while
    its plan is built, before any table, or the support index array that
    would pass the bound, exists.
    """
    leaf_index, steps, pairs = _fold_plan(tree, caps, top, leaves)
    tables = _pair_tables(pairs, [(angles[step[0]], anglesp[step[0]]) for step in steps])
    weights = {None: np.ones(1)}
    weights.update(zip(leaf_index, leaves))
    for (index, ia, ib, sa, sb, offsets, length), u in zip(steps, tables):
        # l_a-major, then l_b, with n innermost, so every degree adds its
        # terms in the same order as a loop over the pairs would
        terms = np.multiply((weights[ia][sa][:, None] * weights[ib][sb])[..., None],
                            u.transpose(1, 2, 0), order="C")
        out = np.bincount(offsets, terms.ravel(), length)
        weights[index] = out if top is None else out[:top + 1]
    return weights[tree.root.index]


# Fold plans, with their recurrence coefficients and scatter offsets, kept
# for callers that certify many angle pairs on a few tree shapes: at most
# PLAN_CACHE_SIZE plans weighed by their table entries, PLAN_CACHE_ENTRIES in
# all.  A plan holds at most 48 bytes per entry and about 4 KiB per tree
# node: measured, at most 33 bytes per entry past the nodes' share on a
# wide or a one-column table alike (24 of them the B, A' and scale arrays,
# 8 the offsets).
PLAN_CACHE_SIZE = 32
PLAN_CACHE_ENTRIES = 1 << 16
_plans = BoundedCache(PLAN_CACHE_SIZE, PLAN_CACHE_ENTRIES)


def _fold_plan(tree: Tree, caps: int, top, leaves):
    """The plan of `_fold` on this tree, caps, top and leaf supports, read
    through ``_plans`` and weighed by its table entries."""
    key = (id(tree), caps, top, tuple(np.not_equal(w, 0.0).tobytes() for w in leaves))
    return _plans.get(key, _build_plan, tree, caps, top, leaves)[1]


def _build_plan(tree, caps, top, leaves):
    """((tree, plan), table entries); holding the tree keeps any other tree
    from taking its id while the plan is cached.

    The plan is (the a nodes' indices, one step per other node in reversed
    preorder, the `_pair_plan` of every node).  A step is (node index, its
    children's indices, both children's structural supports, the degree
    l_a + l_b + step n of every table entry in bincount's reading order,
    and the length of the node's weight vector).  Those scatter offsets are
    as large as the node's table, 8 bytes per entry.  A plan past the
    cache's budget is not kept, so it is built, recurrence coefficients and
    offsets and all, once per certificate.
    """
    nodes = tree.branching_nodes
    leaf_index = [node.index for node in nodes if node.kind == "a"]
    # node index (None at a leaf child) -> (length of its weight vector,
    # the degrees where it can be nonzero)
    support = {None: (1, np.zeros(1, dtype=int))}
    support.update((i, (len(w), np.flatnonzero(w))) for i, w in zip(leaf_index, leaves))
    steps, requests, entries = [], [], 0
    for node in reversed(nodes):            # reversed preorder: children first
        if node.kind == "a":
            continue
        ia, ib = (c.index if c else None for c in (node.left, node.right))
        (len_a, sa), (len_b, sb) = support[ia], support[ib]
        # the node's table, and the index array of its support, hold this many
        entries += len(sa) * len(sb) * (caps + 1)
        if entries > MAX_TABLE_ENTRIES:
            raise DomainError(f"the node tables would hold more than {MAX_TABLE_ENTRIES}"
                              f" entries at caps = {caps}")
        step = 2 if node.kind == "c" else 1
        degrees = sa[:, None] + sb
        offsets = (degrees[..., None] + step * np.arange(caps + 1)).ravel()
        length = len_a + len_b - 1 + step * caps
        if node is not tree.root:            # no parent reads the root's degrees
            reach = np.zeros(length, dtype=bool)
            reach[offsets] = True
            reach = reach if top is None else reach[:top + 1]
            support[node.index] = (len(reach), np.flatnonzero(reach))
        # both degrees at the table's shape
        requests.append((node, sa[:, None] + 0 * degrees, sb + 0 * degrees))
        steps.append((node.index, ia, ib, sa, sb, offsets, length))
    return (tree, (leaf_index, steps, _pair_plan(caps, requests))), entries


def _radial(deg, order, z, n, elementary):
    """R(l) = Qhat_l^order(z) for l = deg .. deg + n - 1, read-only, through
    `specfun.second_kind` (n floats): it depends on no angle, so a sweep of
    angle pairs at fixed radii sums one 2F1 series and continued fraction."""
    return second_kind(_radial_build, (deg, order, z, n, elementary), n)


def _radial_build(deg, order, z, n, elementary):
    if elementary:
        return _qhat_half(deg + np.arange(n), order, z)
    return legendre_q_hat_column(deg, order, z, n)


def _certify(cfg, tree, angles, anglesp, elementary, top=None):
    """Report for pref * sum_l W(l) R(l) over the root degrees of one tree.

    angles/anglesp are in preorder, the distinguished azimuth at 0.  rho is
    the cos/sin product of both points along the path from the root to the
    distinguished leaf, and chi = (r^2 + r'^2 - 2 r r' (cos g - rho)) /
    (2 r r' rho).  R is Qhat_{l+(d-3)/2}^{(1-nu-d)/2}(z) with
    z = (r^2+r'^2)/(2rr').  An elementary reduction (nu = 2 - d) takes R,
    and at d = 4 also the lhs Qhat_{m-1/2}^{1/2}(chi), in closed form.
    cos g comes from the unchecked tree walk: `_check_geometry` bounds the
    polar angles, and the azimuths are 0 or already reduced mod 2 pi.  Weight
    vectors past MAX_TABLE_ENTRIES entries, a rho that underflows to 0, or
    fold weights that overflow or all underflow to 0 raise DomainError
    before any Legendre function; z, the radial power and column, chi^2,
    the lhs and pref each pass `errors.in_range`.
    """
    rless, rgreater = _check_geometry(cfg, tree, angles, anglesp)
    nu, m, r, rp, d = cfg.nu, cfg.m, cfg.r, cfg.rp, tree.dimension
    radial_range = "the radial factors leave double range"
    z = in_range(lambda: (r * r + rp * rp) / (2.0 * r * rp), radial_range, r=r, rp=rp)
    radial_power = in_range(lambda: ((rgreater ** 2 - rless ** 2) / (r * rp))
                            ** (0.5 * (nu + d - 1.0)), radial_range, r=r, rp=rp)
    node, rho, path = tree.root, 1.0, 1
    while node.kind != "a":
        t, tp = angles[node.index], anglesp[node.index]
        if node.left is not None:
            node, rho = node.left, rho * (math.cos(t) * math.cos(tp))
        else:
            node, rho = node.right, rho * (math.sin(t) * math.sin(tp))
        path += 1
    # the distinguished leaf and each node above it hold m + 1 weights or more
    if (m + 1) * path > MAX_TABLE_ENTRIES:
        raise DomainError(f"the weight vectors would hold more than {MAX_TABLE_ENTRIES}"
                          f" entries at m = {m}")
    if rho == 0.0:
        raise DomainError("rho, the product of the cosines and sines of the angles on the"
                          " path to the distinguished leaf, underflows to 0")
    chi = ((r * r + rp * rp - 2.0 * r * rp * (_cos_separation(tree, angles, anglesp) - rho))
           / (2.0 * r * rp * rho))
    chi2 = in_range(lambda: chi * chi, "the separation variable leaves double range", chi=chi)
    a_nodes = [node for node in tree.branching_nodes if node.kind == "a"]
    orders = np.arange(cfg.caps + 1)
    # the distinguished leaf is one-hot at order m
    leaves = [np.eye(1, m + 1, m)[0]] + [np.where(orders, 2.0, 1.0) * np.cos(
        orders * (angles[node.index] - anglesp[node.index])) for node in a_nodes[1:]]
    with np.errstate(over="ignore", invalid="ignore"):
        w = _fold(tree, cfg.caps, angles, anglesp, leaves, top)
    if not np.isfinite(w).all():
        raise DomainError(f"the fold weights leave double range at d = {d}")
    nz = np.flatnonzero(w).tolist()
    if not nz:
        raise DomainError(f"the fold weights underflow to 0 at d = {d}")
    lo, w = nz[0], w[nz[0]:nz[-1] + 1]
    if elementary and nu != 2.0 - d:
        raise ValueError(f"the elementary reduction needs nu = 2 - d = {2 - d}")
    # at nu = 2 - d the order is -1/2
    radial = in_range(lambda: _radial(lo + 0.5 * (d - 3.0), 0.5 * (1.0 - nu - d), z, len(w),
                                      elementary), radial_range, r=r, rp=rp)
    lhs = in_range(lambda: float(_qhat_half(m - 0.5, 0.5, chi)) if elementary and d == 4
                   else legendre_q_hat(m - 0.5, -0.5 * (nu + 1.0), chi),
                   "the lhs Qhat_{m-1/2}^{-(nu+1)/2}(chi) leaves double range",
                   nu=nu, m=m, chi=chi)
    terms = (w * radial).tolist()
    pref = in_range(lambda: (2.0 ** (1 - len(a_nodes)) * math.pi ** (0.5 * d - len(a_nodes))
                             * rho ** (-0.5 * nu) * 2.0 ** (-0.5 * (nu + 1.0))
                             * (chi2 - 1.0) ** (-0.25 * (nu + 1.0)) * radial_power),
                    "the certificate prefactor leaves double range", nu=nu, rho=rho, chi=chi)
    rhs = pref * math.fsum(terms)
    # Root degrees lo..lo+caps get every contribution under the per-level
    # caps; above them the sums are cut short, so the tail is fitted to those.
    tail = _geometric_tail(terms[:cfg.caps + 1]) * abs(pref)
    terms_used = {"modes_per_level": cfg.caps + 1, "root_degrees": len(w)}
    return _report(cfg, lhs, rhs, terms_used, tail)


# --- standard polyspherical tree (type b^{d-2} a) ---------------------------

@lru_cache(maxsize=None)
def _standard_tree(d: int) -> Tree:
    return parse_tree(f"b^{d - 2}a")


def verify_standard(cfg: TheoremConfig, elementary: bool = False) -> VerificationReport:
    """Multi-sum addition theorem on R^d in standard polyspherical coordinates.

    Working real form:
    Qhat_{m-1/2}^{-(nu+1)/2}(chi) = pi^{(d-2)/2} 2^{-(nu+1)/2}
        x (prod sin sin')^{-nu/2} (chi^2-1)^{-(nu+1)/4}
        x ((r_>^2 - r_<^2)/(r r'))^{(nu+d-1)/2}
        x sum over m + caps >= l_1 >= ... >= l_{d-2} >= m of Theta-pair
          products times Qhat_{l_1+(d-3)/2}^{(1-nu-d)/2}((r^2+r'^2)/(2rr')).
    The fold runs over the tree b^{d-2}a, whose b node at level j (the root
    is level 1) carries theta_j.  elementary=True takes the closed-form
    radial factor, for the presets at nu = 2 - d.
    """
    return _verify_standard(cfg, cfg.d, elementary)


def _verify_standard(cfg, d, elementary=False):
    """`verify_standard` on R^d, whatever cfg.d: the presets fix d without
    a copy of cfg."""
    if d < 3:
        raise ValueError("need d >= 3")
    if len(cfg.thetas) != d - 2 or len(cfg.thetasp) != d - 2:
        raise ValueError(f"need {d - 2} polar angles per point")
    return _certify(cfg, _standard_tree(d), (*cfg.thetas, 0.0), (*cfg.thetasp, 0.0),
                    elementary, top=cfg.m + cfg.caps)


def verify_ba(cfg: TheoremConfig) -> VerificationReport:
    """C4.3: the standard-tree theorem on R^3, one sum over Ferrers pairs."""
    return _verify_standard(cfg, 3)


def verify_b2a(cfg: TheoremConfig) -> VerificationReport:
    """C4.4: the standard-tree theorem on R^4, Ferrers x Gegenbauer pairs."""
    return _verify_standard(cfg, 4)


def ba_elementary_rhs(cfg: TheoremConfig) -> VerificationReport:
    """nu = -1 reduction of C4.3: radial factors (r_</r_>)^{l+1/2} up to
    elementary factors, the lhs still a Legendre function of order 0."""
    return _verify_standard(replace(cfg, nu=-1.0), 3, elementary=True)


def b2a_elementary_rhs(cfg: TheoremConfig) -> VerificationReport:
    """nu = -2 reduction of C4.4 to elementary functions."""
    return _verify_standard(replace(cfg, nu=-2.0), 4, elementary=True)


# --- generalized Hopf, R^{2^q} ----------------------------------------------

def verify_hopf(cfg: TheoremConfig, elementary: bool = False) -> VerificationReport:
    """Multi-sum addition theorem on R^{2^q} in generalized Hopf coordinates.

    The fold runs over the tree V_{2^q}: its a leaves carry phi_1 = 0 (chi
    is independent of it) and phi_2..phi_{2^{q-1}}, its c nodes the
    heap-ordered angles, and it ends in the surrogate-degree Legendre
    factor.  elementary=True as in `verify_standard`.
    """
    return _verify_hopf(cfg, cfg.q, elementary)


def _verify_hopf(cfg, q, elementary=False):
    """`verify_hopf` on R^{2^q}, whatever cfg.q, as `_verify_standard`."""
    if q < 2:
        raise ValueError("need q >= 2")
    n_a = 2 ** (q - 1)
    if len(cfg.thetas) != n_a - 1 or len(cfg.thetasp) != n_a - 1:
        raise ValueError(f"need {n_a - 1} heap-ordered c-node angles per point")
    if len(cfg.phis) != n_a - 1 or len(cfg.phisp) != n_a - 1:
        raise ValueError(f"need {n_a - 1} azimuths (phi_2..phi_{n_a}) per point")
    # Azimuths are periodic, so any real value is accepted and reduced to
    # [0, 2pi); the second % maps a tiny negative one, which the first
    # rounds up to 2pi itself, to 0.
    two_pi = 2.0 * math.pi
    angles, anglesp = (hopf_heap_to_preorder(q, (*thetas, 0.0, *(f % two_pi % two_pi for f in phis)))
                       for thetas, phis in ((cfg.thetas, cfg.phis), (cfg.thetasp, cfg.phisp)))
    return _certify(cfg, hopf_tree(q), angles, anglesp, elementary)


def verify_ca2(cfg: TheoremConfig) -> VerificationReport:
    """C4.5: the Hopf-tree theorem on R^4, double sum over (m_2, n)."""
    return _verify_hopf(cfg, 2)


def ca2_elementary_rhs(cfg: TheoremConfig) -> VerificationReport:
    """nu = -2 reduction of C4.5 to elementary functions."""
    return _verify_hopf(replace(cfg, nu=-2.0), 2, elementary=True)


def ca2_double_coefficient(nu: float, m1: int, m2: int, r: float, rp: float,
                           vt: float, vtp: float, caps: int = 60) -> float:
    """Joint (m1, m2) azimuthal coefficient of the Hopf-coordinate expansion.

    The q = 2 fold with one mode at each leaf, dotted with the Qhat column.
    The angle map theta -> pi/2 - theta exchanges the two Hopf planes, and
    this coefficient obeys the exchange symmetry
    D(m1, m2; theta) = D(m2, m1; pi/2 - theta): the Jacobi reflection
    P_n^{(b,a)}(-x) = (-1)^n P_n^{(a,b)}(x) enters squared, so the signs
    cancel pairwise.  (A shift theta - pi/2 would exit the angle range;
    the in-range reflection realizes the same exchange.)
    """
    if m1 < 0 or m2 < 0:
        raise ValueError("orders must be >= 0")
    z = (r * r + rp * rp) / (2.0 * r * rp)
    w = _fold(hopf_tree(2), caps, (vt, 0.0, 0.0), (vtp, 0.0, 0.0),
              [np.eye(1, m1 + 1, m1)[0], np.eye(1, m2 + 1, m2)[0]])[m1 + m2:]
    qv = legendre_q_hat_column(m1 + m2 + 0.5, -0.5 * (nu + 3.0), z, len(w))
    # the pair table carries node_factor's normalization, 2 Upsilon pairs
    return 0.5 * float(np.dot(w, qv))


# --- dispatch and the independent Fourier-coefficient oracle -----------------

_VERIFIERS = {
    "T4.1": verify_standard,
    "T4.2": verify_hopf,
    "C4.3": verify_ba,
    "C4.4": verify_b2a,
    "C4.5": verify_ca2,
}


def run_verification(cfg: TheoremConfig) -> VerificationReport:
    try:
        fn = _VERIFIERS[cfg.theorem]
    except KeyError:
        raise ValueError(f"unknown theorem id {cfg.theorem!r}") from None
    return fn(cfg)


def azimuthal_coefficient_quadrature(nu: float, chi: float, m: int,
                                     npoints: int = 1024) -> float:
    """Qhat_{m-1/2}^{-(nu+1)/2}(chi) recovered by azimuthal quadrature.

    Integrates the kernel factor (chi - cos psi)^{nu/2} against cos(m psi)
    with the periodic trapezoid rule and removes the azimuthal-series
    prefactor; certifies the Fourier side independently of any Legendre
    machinery.
    """
    psi = np.arange(npoints) * (2.0 * math.pi / npoints)
    f = (chi - np.cos(psi)) ** (0.5 * nu)
    a_m = float(np.mean(f * np.cos(m * psi)))
    scale = (math.sqrt(math.pi) * math.gamma(-0.5 * nu)
             / (math.sqrt(2.0) * (chi * chi - 1.0) ** (0.25 * (nu + 1.0))))
    return a_m * scale
