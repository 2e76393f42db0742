"""Addition-theorem sides rebuilt one degree at a time, as test oracles.

The verifiers fold a tree from its leaves to its root through recurrence
columns.  These sums take every node factor (`ferrers_p`, `theta_standard`,
`hopf_upsilon`) and every Legendre-Q radial factor (`legendre_q_hat`) one
degree at a time instead, and write out chi and the prefactors themselves,
so a test that compares the two checks the fold against code it does not
share.  Each `*_sides` function returns (lhs, rhs); the `chi_*` functions
return chi (and, for the general trees, the product rho of the sines or
cosines that scale the distinguished azimuthal plane).  A later section
keeps the node-by-node fold that `verify._fold` must reproduce bit for bit
and the log-space node pair table, the next evaluates node pair tables in
mpmath, the next does the same as the first for the Euler-kernel
expansions, the next keeps the Gauss series loop that
`specfun._hyp2f1_series` must reproduce bit for bit, and the last one keeps
the six infinite expansion series as they read with one sum loop each,
which the expansions built on one degree-sum driver must reproduce bit for
bit; the Fourier series of (z - x)^{-q} must reproduce the Chebyshev one at
nu = q, and its own loop there, the classical P_{q-1}^{-n} coefficients,
is an oracle that shares no code with the Legendre-Q column.  The Jacobi
loop that formed its prefactor as a double is kept as an accuracy baseline.
"""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np

from polykernel import polyspherical as ps
from polykernel import specfun as sf
from polykernel.orthopoly import _jacobi_p1, _jacobi_step, gegenbauer_c_all, jacobi_p_all
from polykernel.polyspherical import Tree, TreeNode, _check_angle, _child_span
from polykernel.errors import (CoincidentRadiusError, ConvergenceError, ExclusionSetError,
                               ParameterPoleError, SingularConfigurationError, in_range,
                               require_finite)
from polykernel.expansions import (DEFAULT_TRUNCATION, PartialSum, Truncation,
                                   _check_euler_arguments, _check_power_exclusion, _gamma,
                                   _jacobi_q_terms, _q_hat_terms)
from polykernel.kernels import KernelGeometry
from polykernel.specfun import (_MAX_TERMS, _STOP_REL, _nonpositive_int, gamma_signed_log,
                                legendre_q_hat)


def _z(r, rp):
    return (r * r + rp * rp) / (2.0 * r * rp)


def _lhs(nu, m, chi):
    return sf.legendre_q_hat(m - 0.5, -0.5 * (nu + 1.0), chi)


def _radial_power(nu, d, r, rp):
    rless, rgreater = min(r, rp), max(r, rp)
    return ((rgreater ** 2 - rless ** 2) / (r * rp)) ** (0.5 * (nu + d - 1.0))


def chi_ba(r, rp, theta, thetap):
    return ((r * r + rp * rp - 2.0 * r * rp * math.cos(theta) * math.cos(thetap))
            / (2.0 * r * rp * math.sin(theta) * math.sin(thetap)))


def chi_b2a(r, rp, thetas, thetasp):
    (t1, t2), (t1p, t2p) = thetas, thetasp
    num = (r * r + rp * rp - 2.0 * r * rp * math.cos(t1) * math.cos(t1p)
           - 2.0 * r * rp * math.sin(t1) * math.sin(t1p) * math.cos(t2) * math.cos(t2p))
    return num / (2.0 * r * rp * math.sin(t1) * math.sin(t1p)
                  * math.sin(t2) * math.sin(t2p))


def chi_ca2(r, rp, vt, vtp, f2, f2p):
    num = r * r + rp * rp - 2.0 * r * rp * math.sin(vt) * math.sin(vtp) * math.cos(f2 - f2p)
    return num / (2.0 * r * rp * math.cos(vt) * math.cos(vtp))


def ba_sides(nu, m, r, rp, theta, thetap, caps):
    """C4.3: sum over l of (2l+1) (l-m)!/(l+m)! Qhat_l P_l^m P_l^m."""
    chi = chi_ba(r, rp, theta, thetap)
    terms = [(2 * l + 1) * math.factorial(l - m) / math.factorial(l + m)
             * sf.legendre_q_hat(float(l), -0.5 * (nu + 2.0), _z(r, rp))
             * sf.ferrers_p(l, m, math.cos(theta)) * sf.ferrers_p(l, m, math.cos(thetap))
             for l in range(m, m + caps + 1)]
    pref = (math.sqrt(math.pi) * 2.0 ** (-0.5 * (nu + 3.0))
            * (math.sin(theta) * math.sin(thetap)) ** (-0.5 * nu)
            * (chi * chi - 1.0) ** (-0.25 * (nu + 1.0)) * _radial_power(nu, 3, r, rp))
    return _lhs(nu, m, chi), pref * math.fsum(terms)


def b2a_sides(nu, m, r, rp, thetas, thetasp, caps):
    """C4.4: double sum over l_1 >= l_2 >= m of Theta pairs times Qhat_{l_1+1/2}."""
    chi = chi_b2a(r, rp, thetas, thetasp)
    L = m + caps
    q = [sf.legendre_q_hat(l1 + 0.5, -0.5 * (nu + 3.0), _z(r, rp))
         for l1 in range(L + 1)]
    terms = []
    for l2 in range(m, L + 1):
        outer = (ps.theta_standard(2, 4, l2, m, thetas[1])
                 * ps.theta_standard(2, 4, l2, m, thetasp[1]))
        for l1 in range(l2, L + 1):
            terms.append(outer * ps.theta_standard(1, 4, l1, l2, thetas[0])
                         * ps.theta_standard(1, 4, l1, l2, thetasp[0]) * q[l1])
    prod = math.prod(math.sin(t) for t in thetas + thetasp)
    pref = (math.pi * 2.0 ** (-0.5 * (nu + 1.0)) * prod ** (-0.5 * nu)
            * (chi * chi - 1.0) ** (-0.25 * (nu + 1.0)) * _radial_power(nu, 4, r, rp))
    return _lhs(nu, m, chi), pref * math.fsum(terms)


def ca2_sides(nu, m1, r, rp, vt, vtp, f2, f2p, caps):
    """C4.5: sum over m_2 and n of eps_{m_2} cos(m_2 dphi) Upsilon pairs
    times Qhat_{m_1+m_2+2n+1/2}."""
    chi = chi_ca2(r, rp, vt, vtp, f2, f2p)
    q = {}
    terms = []
    for m2 in range(caps + 1):
        azimuthal = (2.0 if m2 else 1.0) * math.cos(m2 * (f2 - f2p))
        for n in range(caps + 1):
            deg = m1 + m2 + 2 * n
            if deg not in q:
                q[deg] = sf.legendre_q_hat(deg + 0.5, -0.5 * (nu + 3.0), _z(r, rp))
            terms.append(azimuthal * ps.hopf_upsilon(2, 1, n, m1, m2, vt)
                         * ps.hopf_upsilon(2, 1, n, m1, m2, vtp) * q[deg])
    pref = (2.0 ** (-0.5 * (nu + 1.0)) * (math.cos(vt) * math.cos(vtp)) ** (-0.5 * nu)
            * (chi * chi - 1.0) ** (-0.25 * (nu + 1.0)) * _radial_power(nu, 4, r, rp))
    return _lhs(nu, m1, chi), pref * math.fsum(terms)


def chi_standard(r, rp, thetas, thetasp):
    """chi of the standard tree b^{d-2}a and the sin-product rho of its
    azimuthal plane: meridian distance over that plane, level by level."""
    num = r * r + rp * rp
    run = runp = 1.0
    prod = 1.0
    for t, tp in zip(thetas, thetasp):
        num -= 2.0 * r * rp * math.cos(t) * math.cos(tp) * run * runp
        run *= math.sin(t)
        runp *= math.sin(tp)
        prod *= math.sin(t) * math.sin(tp)
    return num / (2.0 * r * rp * prod), prod


def chi_hopf(q, r, rp, thetas, thetasp, phis, phisp):
    """chi of the V_{2^q} tree from heap-ordered c-node angles and azimuths
    phi_2.., by the two-branch recursion with phi_1 = phi_1' = 0, and the
    cos-product rho of the first azimuthal plane."""
    heap = list(thetas) + [0.0] + list(phis)
    heapp = list(thetasp) + [0.0] + list(phisp)
    cosg = ps.hopf_g_recursion(q, heap, heapp)
    prod = 1.0
    for j in range(1, q):
        idx = 2 ** (j - 1)
        prod *= math.cos(thetas[idx - 1]) * math.cos(thetasp[idx - 1])
    num = r * r + rp * rp - 2.0 * r * rp * cosg + 2.0 * r * rp * prod
    return num / (2.0 * r * rp * prod), prod


def chi_hopf_q3(r, rp, thetas, thetasp, phis, phisp):
    """chi on V_8: heap-ordered c-node angles (theta_1, theta_2, theta_3) and
    azimuths (phi_2, phi_3, phi_4), with phi_1 = phi_1' = 0."""
    (t1, t2, t3), (t1p, t2p, t3p) = thetas, thetasp
    (f2, f3, f4), (f2p, f3p, f4p) = phis, phisp
    rest = (math.cos(t1) * math.cos(t1p) * math.sin(t2) * math.sin(t2p) * math.cos(f2 - f2p)
            + math.sin(t1) * math.sin(t1p)
            * (math.cos(t3) * math.cos(t3p) * math.cos(f3 - f3p)
               + math.sin(t3) * math.sin(t3p) * math.cos(f4 - f4p)))
    rho = math.cos(t1) * math.cos(t1p) * math.cos(t2) * math.cos(t2p)
    return (r * r + rp * rp - 2.0 * r * rp * rest) / (2.0 * r * rp * rho), rho


def hopf_q3_sides(nu, m1, r, rp, thetas, thetasp, phis, phisp, caps):
    """T4.2 at q = 3: sum over m_2, m_3, m_4, n_1, n_2, n_3 of the azimuthal
    weights eps_m cos(m dphi), the Upsilon pairs of the three c nodes and
    Qhat_{L+5/2} at the root degree L = l_2 + l_3 + 2n_1, where
    l_2 = m_1 + m_2 + 2n_2 and l_3 = m_3 + m_4 + 2n_3."""
    chi, rho = chi_hopf_q3(r, rp, thetas, thetasp, phis, phisp)
    z = _z(r, rp)
    upsilon, q = {}, {}

    def pair(heap, n, la, lb):
        key = (heap, n, la, lb)
        if key not in upsilon:
            t, tp = thetas[heap - 1], thetasp[heap - 1]
            upsilon[key] = (ps.hopf_upsilon(3, heap, n, la, lb, t)
                            * ps.hopf_upsilon(3, heap, n, la, lb, tp))
        return upsilon[key]

    def azimuthal(m, f, fp):
        return (2.0 if m else 1.0) * math.cos(m * (f - fp))

    ks = range(caps + 1)
    terms = []
    for m2 in ks:
        for m3 in ks:
            for m4 in ks:
                w = (azimuthal(m2, phis[0], phisp[0]) * azimuthal(m3, phis[1], phisp[1])
                     * azimuthal(m4, phis[2], phisp[2]))
                for n2 in ks:
                    l2 = m1 + m2 + 2 * n2
                    for n3 in ks:
                        l3 = m3 + m4 + 2 * n3
                        for n1 in ks:
                            deg = l2 + l3 + 2 * n1
                            if deg not in q:
                                q[deg] = sf.legendre_q_hat(deg + 2.5, -0.5 * (nu + 7.0), z)
                            terms.append(w * pair(2, n2, m1, m2) * pair(3, n3, m3, m4)
                                         * pair(1, n1, l2, l3) * q[deg])
    pref = (2.0 ** (-0.5 * (nu + 1.0)) * rho ** (-0.5 * nu)
            * (chi * chi - 1.0) ** (-0.25 * (nu + 1.0)) * _radial_power(nu, 8, r, rp))
    return _lhs(nu, m1, chi), pref * math.fsum(terms)


# --- the node-by-node fold --------------------------------------------------
# `verify._fold` as it read when each node's table was built after its
# children had been contracted: the fold that builds every table first, in
# one pass, must return the same root weights bit for bit, so this fold
# takes each node's table from `polyspherical.node_pair_table`.  Next to it,
# `node_pair_table` as it read with the tables assembled in log space, kept
# verbatim (only the names differ) as an oracle independent of the
# orthonormal recurrence.

@lru_cache(maxsize=None)
def _half_lgamma_table(size: int):
    """lgamma(k/2), k = 0..size-1; callers round size up to a power of two."""
    return np.array([math.inf] + [math.lgamma(0.5 * k) for k in range(1, size)])


def node_pair_table_reference(node: TreeNode, nmax: int, l_left, l_right, theta, thetap):
    """node_factor at theta times node_factor at thetap, over n = 0..nmax.

    l_left and l_right are the child degrees (0 at a leaf child), ints or
    arrays that broadcast against each other.  Row n belongs to the node
    degree l_left + l_right + n at b and b' nodes and l_left + l_right + 2n
    at c nodes, so the result has shape ``(nmax + 1,) +`` the broadcast
    shape.  One recurrence pass over every pair and both angles builds the
    table: `gegenbauer_c_all` at b and b' nodes, where alpha = beta and
    P_n^{(a,a)} = (a+1)_n / (2a+1)_n C_n^{a+1/2} (DLMF 18.7.1), and
    `jacobi_p_all` at c nodes.  Both run their own per-degree loops, so
    this table shares no code with the orthonormal pass that builds
    `node_pair_table` (`orthopoly.recurrence_table` and its kernel
    `_three_term`).  Its transient memory is O(pairs * nmax): a
    q = 3 certificate peaks at about 1.1 MiB at nmax = 12 and 13.4 MiB at
    nmax = 30 (tracemalloc).  The products are assembled in log space, in
    place, so large-order coefficient growth cancels against the polynomial
    values instead of overflowing, and zero factors stay exact zeros.
    """
    if node.kind == "a":
        raise ValueError("a type-a node carries azimuthal weights, not a pair table")
    ll, lr = np.asarray(l_left, dtype=int), np.asarray(l_right, dtype=int)
    if nmax < 0 or (ll < 0).any() or (lr < 0).any():
        raise ValueError("quantum numbers must be nonnegative")
    if (node.left is None and ll.any()) or (node.right is None and lr.any()):
        raise ValueError("a leaf child has degree 0")
    _check_angle(node, (theta, thetap))
    # twice each child's Jacobi parameter l + S/2: an integer, so every
    # log-Gamma below is read from one half-integer table
    ka, kb = 2 * ll + _child_span(node.left), 2 * lr + _child_span(node.right)
    lg = _half_lgamma_table(1 << int(4 * nmax + 2 * max(ka.max(), kb.max()) + 3).bit_length())
    ndim = max(ll.ndim, lr.ndim)
    n = np.arange(nmax + 1).reshape((-1,) + (1,) * ndim)
    pair = (2,) + (1,) * ndim
    with np.errstate(divide="ignore", invalid="ignore"):
        # the envelope cos^{l_left} sin^{l_right} of both angles
        log_env = (np.where(ll > 0, ll * (np.log(abs(math.cos(theta)))
                                          + np.log(abs(math.cos(thetap)))), 0.0)
                   + np.where(lr > 0, lr * (np.log(abs(math.sin(theta)))
                                            + np.log(abs(math.sin(thetap)))), 0.0))
    if node.kind == "c":
        vals = jacobi_p_all(nmax, 0.5 * kb, 0.5 * ka,
                            np.reshape([math.cos(2.0 * theta), math.cos(2.0 * thetap)], pair))
        # 2^{a+b+2} / h_n^{(b,a)}, node_factor's squared norm
        out = np.log(2 * n + 0.5 * (ka + kb) + 1.0)
        np.add(math.log(2.0) + log_env, out, out=out)
        out += lg[2 * n + ka + kb + 2]
        out += lg[2 * n + 2]
        out -= lg[2 * n + ka + 2]
        out -= lg[2 * n + kb + 2]
    else:
        p, trig = (kb, math.cos) if node.kind == "b" else (ka, math.sin)
        vals = gegenbauer_c_all(nmax, 0.5 * (p + 1), np.reshape([trig(theta), trig(thetap)], pair))
        # 1 / h_n^{(a,a)} times ((a+1)_n / (2a+1)_n)^2 with mu = a + 1/2,
        # Gamma(2 mu) reduced by the duplication formula
        out = np.log(2 * n + p + 1.0)
        np.add(2.0 * (lg[p + 3] - np.log(p + 1.0)) + (p + 1) * math.log(2.0)
               - math.log(math.pi) + log_env, out, out=out)
        out += lg[2 * n + 2]
        out -= lg[2 * n + 2 * p + 2]
    # sign * exp(log_coef + log|v| + log|v'|) over the rows (v, v') of vals,
    # the sign and the log of both rows each taken in one pass
    sign = np.sign(vals)
    with np.errstate(divide="ignore"):
        np.log(np.abs(vals, out=vals), out=vals)
    vals[:, 0] += vals[:, 1]
    out += vals[:, 0]
    np.exp(out, out=out)
    out *= sign[:, 0]
    out *= sign[:, 1]
    return out


def fold_reference(tree: Tree, caps: int, angles, anglesp, leaves, top=None):
    """Root weight vector of the fold over degrees 0, 1, ...

    angles/anglesp are preorder node angles (the a entries are not read);
    leaves holds the a-node weight vectors, in preorder, and a leaf child
    is weight 1 at degree 0.  Each node's table, `node_pair_table` over
    every pair of nonzero child degrees and n = 0..caps, is built after its
    children are contracted; degrees above top, when given, are dropped.
    """
    leaves = iter(leaves)

    def fold(node):
        if node is None:
            return np.ones(1)
        if node.kind == "a":
            return next(leaves)
        left, right = fold(node.left), fold(node.right)
        la, lb = np.flatnonzero(left)[:, None], np.flatnonzero(right)
        u = ps.node_pair_table(node, caps, la, lb, angles[node.index], anglesp[node.index])
        step = 2 if node.kind == "c" else 1
        # l_a-major, then l_b, with n innermost, so every degree adds its
        # terms in the same order as a loop over the pairs would
        out = np.zeros(len(left) + len(right) - 1 + step * caps)
        np.add.at(out, (la + lb)[..., None] + step * np.arange(caps + 1),
                  (left[la] * right[lb])[..., None] * u.transpose(1, 2, 0))
        return out if top is None else out[:top + 1]

    return fold(tree.root)


# --- node pair tables in mpmath ----------------------------------------------
# node_factor's definition at the working mpmath precision, from mpmath's
# Jacobi polynomial (a terminating 2F1) and the Gamma-function norms,
# sharing no arithmetic with either double-precision build of a table.

def node_pair_column_mp(node: TreeNode, nmax: int, l_left: int, l_right: int, theta, thetap):
    """node_factor at theta times node_factor at thetap, over n = 0..nmax, at
    one pair of child degrees, as floats.

    Each factor is K E(theta) P_n^{(alpha,beta)}(x) / sqrt(h_n) with
    h_n = 2^{alpha+beta+1} Gamma(n+alpha+1) Gamma(n+beta+1)
    / ((2n+alpha+beta+1) Gamma(n+alpha+beta+1) n!) (DLMF 18.3) and each
    child's parameter a = l + S/2: at b, (a_r, a_r), x = cos theta,
    E = sin^{l_right} theta, K = 1; at b', (a_l, a_l), x = sin theta,
    E = cos^{l_left} theta, K = 1; at c, (a_r, a_l), x = cos 2 theta,
    E = cos^{l_left} theta sin^{l_right} theta, K = 2^{(a_l + a_r)/2 + 1}.
    The angles are taken as the exact values of their doubles.
    """
    a_l = l_left + mp.mpf(_child_span(node.left)) / 2
    a_r = l_right + mp.mpf(_child_span(node.right)) / 2
    alpha, beta = {"b": (a_r, a_r), "b'": (a_l, a_l), "c": (a_r, a_l)}[node.kind]
    k = mp.mpf(2) ** ((a_l + a_r) / 2 + 1) if node.kind == "c" else mp.mpf(1)
    scale = [k / mp.sqrt(mp.mpf(2) ** (alpha + beta + 1) * mp.gamma(n + alpha + 1)
                         * mp.gamma(n + beta + 1) / ((2 * n + alpha + beta + 1)
                                                     * mp.gamma(n + alpha + beta + 1)
                                                     * mp.factorial(n)))
             for n in range(nmax + 1)]

    def factors(t):
        t = mp.mpf(t)
        x = {"b": mp.cos(t), "b'": mp.sin(t), "c": mp.cos(2 * t)}[node.kind]
        env = mp.cos(t) ** l_left * mp.sin(t) ** l_right
        return [env * c * mp.jacobi(n, alpha, beta, x) for n, c in enumerate(scale)]

    return np.array([float(f * g) for f, g in zip(factors(theta), factors(thetap))])


# --- Euler-kernel expansions, one degree at a time ---------------------------
#
# The expansions read their second-kind factors from degree columns built by
# one recurrence; these sums evaluate every Q factor with its own series
# (`legendre_q_hat`, `jacobi_q2`) and every polynomial with mpmath, over a
# fixed number of degrees, and add the terms with math.fsum.

def _degrees(z):
    # the terms fall like e^{-n acosh z}: this many take them below 1e-17
    return int(40.0 / math.acosh(z)) + 30


def chebyshev_sum(nu, z, x):
    """(z - x)^{-nu} = sqrt(2) / (sqrt(pi) Gamma(nu) (z^2-1)^{nu/2-1/4})
    sum_n eps_n T_n(x) Qhat_{n-1/2}^{nu-1/2}(z)."""
    theta = math.acos(x)
    terms = [(2.0 if n else 1.0) * math.cos(n * theta)
             * sf.legendre_q_hat(n - 0.5, nu - 0.5, z) for n in range(_degrees(z))]
    return (math.sqrt(2.0) / (math.sqrt(math.pi) * math.gamma(nu)
                              * (z * z - 1.0) ** (0.5 * nu - 0.25)) * math.fsum(terms))


def gegenbauer_sum(nu, mu, z, x):
    """(z - x)^{-nu} = 2^{mu+1/2} Gamma(mu) / (sqrt(pi) Gamma(nu)
    (z^2-1)^{(nu-mu)/2-1/4}) sum_n (n+mu) C_n^mu(x) Qhat_{n+mu-1/2}^{nu-mu-1/2}(z)."""
    terms = [(n + mu) * float(mp.gegenbauer(n, mu, x))
             * sf.legendre_q_hat(n + mu - 0.5, nu - mu - 0.5, z)
             for n in range(_degrees(z))]
    return (2.0 ** (mu + 0.5) * math.gamma(mu)
            / (math.sqrt(math.pi) * math.gamma(nu) * (z * z - 1.0) ** (0.5 * (nu - mu) - 0.25))
            * math.fsum(terms))


def jacobi_sum(nu, alpha, beta, z, x):
    """(z - x)^{-nu} = (z-1)^{alpha+1-nu} (z+1)^{beta+1-nu} / 2^{alpha+beta+1-nu}
    sum_n (2n+alpha+beta+1) Gamma(alpha+beta+n+1) (nu)_n
    / (Gamma(alpha+n+1) Gamma(beta+n+1)) P_n^{(alpha,beta)}(x)
    Q_{n+nu-1}^{(alpha+1-nu, beta+1-nu)}(z), for nu > 0 and alpha + beta > -1."""
    s = alpha + beta
    terms = []
    for n in range(_degrees(z)):
        coef = math.exp(math.lgamma(s + n + 1.0) + math.lgamma(nu + n) - math.lgamma(nu)
                        - math.lgamma(alpha + n + 1.0) - math.lgamma(beta + n + 1.0))
        terms.append((2 * n + s + 1.0) * coef * float(mp.jacobi(n, alpha, beta, x))
                     * sf.jacobi_q2(n + nu - 1.0, alpha + 1.0 - nu, beta + 1.0 - nu, z))
    return ((z - 1.0) ** (alpha + 1.0 - nu) * (z + 1.0) ** (beta + 1.0 - nu)
            / 2.0 ** (s + 1.0 - nu) * math.fsum(terms))


# --- the Gauss-series kernel ------------------------------------------------
# `specfun._hyp2f1_series` as it read before its loop was tightened, kept
# verbatim (only the name differs): the kernel must return the same
# (mantissa, log_scale, terms) and raise the same errors, bit for bit.

def hyp2f1_series_reference(a, b, c, x, max_terms=_MAX_TERMS):
    """Sum the Gauss series with Kahan compensation and dynamic rescaling.

    Returns (mantissa, log_scale, terms) with value = mantissa * exp(log_scale).
    Rescaling keeps partial sums representable when the value itself would
    overflow a double (large-degree Legendre/Jacobi prefactors cancel it).
    """
    na = _nonpositive_int(a)
    nb = _nonpositive_int(b)
    n_stop = None
    if na is not None or nb is not None:
        n_stop = min(-n for n in (na, nb) if n is not None)
    nc = _nonpositive_int(c)
    if nc is not None and (n_stop is None or n_stop > -nc):
        raise ParameterPoleError(
            f"2F1 lower parameter c = {c} is a non-positive integer")
    if n_stop is None and abs(x) >= 1.0:
        raise ConvergenceError(
            f"2F1 series diverges for |x| = {abs(x)} >= 1 without termination")

    s = 1.0
    comp = 0.0
    t = 1.0
    log_scale = 0.0
    small_run = 0
    n = 0
    while True:
        if n_stop is not None and n >= n_stop:
            break
        t *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        n += 1
        y = t - comp
        tmp = s + y
        comp = (tmp - s) - y
        s = tmp
        if n_stop is None:
            if abs(t) < _STOP_REL * abs(s):
                small_run += 1
                if small_run >= 3:
                    break
            else:
                small_run = 0
            if n >= max_terms:
                raise ConvergenceError(
                    f"2F1 did not converge within {max_terms} terms")
        if abs(s) > 1e250 or abs(t) > 1e250:
            s *= 1e-100
            comp *= 1e-100
            t *= 1e-100
            log_scale += 100.0 * math.log(10.0)
    return s, log_scale, n


# --- the expansion series, one sum loop each --------------------------------
# `expansions._Series` and the six infinite series as they read before the
# series shared one degree-sum driver, kept verbatim (only the names differ)
# but for the Jacobi series, whose reference takes its prefactor in log space
# as the library does, and the range messages, which name every input the
# factor depends on: every series must return the same PartialSum and trace
# rows, and raise the same errors, bit for bit, `fourier_negative_power`
# those of `euler_kernel_chebyshev_reference` at nu = q.  Its own loop below
# sums the classical coefficients (n+q-1)! P_{q-1}^{-n}(z / sqrt(z^2 - 1)),
# which share no code with the Legendre-Q column: the two agree to rounding.

class SeriesReference:
    """Compensated accumulator with the three-small-terms stopping rule."""

    def __init__(self, tr: Truncation, trace=None, level=0):
        self.tr = tr
        self.s = 0.0
        self.c = 0.0
        self.n = 0
        self.small_run = 0
        self.last = 0.0
        self.trace = trace
        self.level = level

    def add(self, term: float) -> bool:
        """Accumulate one term; True once the stopping rule fires."""
        y = term - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t
        self.n += 1
        self.last = abs(term)
        if self.trace is not None:
            self.trace.append((self.level, self.n - 1, term, self.s))
        if self.last < self.tr.tol * abs(self.s) or (self.last == 0.0 and self.s != 0.0):
            self.small_run += 1
        else:
            self.small_run = 0
        return self.small_run >= 3

    def result(self) -> PartialSum:
        if self.n >= self.tr.max_terms and self.small_run < 3:
            raise ConvergenceError(
                f"series not converged after {self.n} terms"
                f" (last |term| = {self.last:.3e}, partial = {self.s:.6e})")
        return PartialSum(value=self.s, terms_used=self.n,
                          last_term_magnitude=self.last, converged=True)


def fourier_negative_power_reference(q: int, z: float, x: float,
                           tr: Truncation = DEFAULT_TRUNCATION,
                           trace=None) -> PartialSum:
    """Fourier cosine series of (z - x)^{-q} for integer q >= 1."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    _check_euler_arguments(z, x)
    if not z > 1.0:
        raise ValueError("need z > 1")
    w = z / math.sqrt(z * z - 1.0)
    theta = math.acos(x)
    pref = (z * z - 1.0) ** (-q / 2.0) / math.factorial(q - 1)
    # (w-1)/(w+1) = (z - sqrt(z^2-1))^2 < 1 drives the geometric decay.
    log_ratio = math.log((w - 1.0) / (w + 1.0))
    half_w = 0.5 * (1.0 - w)
    acc = SeriesReference(tr, trace)
    for n in range(tr.max_terms):
        eps = 2.0 if n else 1.0
        # (n+q-1)! P_{q-1}^{-n}(w), assembled in log space: the factorial and
        # the ((w-1)/(w+1))^{n/2} factor both leave double range separately.
        hyp = 1.0
        t = 1.0
        for k in range(q - 1):
            t *= (-(q - 1.0) + k) * (q + k) / ((1.0 + n + k) * (k + 1.0)) * half_w
            hyp += t
        log_mag = (math.lgamma(n + q) - math.lgamma(n + 1.0)
                   + 0.5 * n * log_ratio)
        term = pref * eps * math.exp(log_mag) * hyp * math.cos(n * theta)
        if acc.add(term):
            break
    return acc.result()


def euler_kernel_jacobi_reference(nu: float, alpha: float, beta: float, z: float, x: float,
                                  tr: Truncation = DEFAULT_TRUNCATION,
                                  trace=None) -> PartialSum:
    """Jacobi expansion of (z - x)^{-nu}, the prefactor and every factor but
    P_n^{(alpha,beta)}(x) carried as (sign, log)."""
    _check_euler_arguments(z, x, nu=nu, alpha=alpha, beta=beta)
    if not z > 1.0:
        raise ValueError("need z > 1")
    if alpha <= -1.0 or beta <= -1.0 or (alpha < 0.0 and beta < 0.0
                                         and alpha + beta + 1.0 == 0.0):
        raise ParameterPoleError(
            f"Jacobi parameters ({alpha}, {beta}) violate the expansion's"
            " side conditions")
    n_neg = _nonpositive_int(nu)
    limit = tr.max_terms if n_neg is None else min(tr.max_terms, 1 - n_neg)
    ab = alpha + beta
    log_pref = ((alpha + 1.0 - nu) * math.log(z - 1.0) + (beta + 1.0 - nu) * math.log(z + 1.0)
                - (ab + 1.0 - nu) * math.log(2.0))
    acc = SeriesReference(tr, trace)
    log_poch = 0.0
    poch_sign = 1.0
    p_prev, pn = 0.0, 1.0   # P_{n-1}, P_n by the three-term recurrence
    q_terms = _jacobi_q_terms(nu - 1.0, alpha + 1.0 - nu, beta + 1.0 - nu, z, limit)
    for n, (q_sign, q_log) in enumerate(q_terms):
        if n > 0:
            step = nu + n - 1.0
            log_poch += math.log(abs(step))
            poch_sign *= math.copysign(1.0, step)
            p_prev, pn = pn, (_jacobi_p1(alpha, beta, x) if n == 1
                              else _jacobi_step(n, alpha, beta, x, p_prev, pn))
        sg_top, lg_top = gamma_signed_log(ab + n + 1.0)
        lin = ab + 2.0 * n + 1.0
        coef_log = (math.log(abs(lin)) + lg_top + log_poch
                    - math.lgamma(alpha + 1.0 + n) - math.lgamma(beta + 1.0 + n))
        sign = poch_sign * sg_top * q_sign * math.copysign(1.0, lin)
        if acc.add(sign * math.exp(log_pref + coef_log + q_log) * pn):
            break
    return acc.result()


# The Jacobi series as it read before its prefactor moved to log space, kept
# verbatim under its own name: the accuracy baseline the log-space series is
# measured against.
def euler_kernel_jacobi_double_prefactor(nu: float, alpha: float, beta: float, z: float, x: float,
                        tr: Truncation = DEFAULT_TRUNCATION,
                        trace=None) -> PartialSum:
    """Jacobi expansion of (z - x)^{-nu}.

    For nu = -n (n in N0) the Pochhammer factor kills every term past n, so
    the sum reconstructs the binomial (z - x)^n exactly in n + 1 terms.
    """
    _check_euler_arguments(z, x, nu=nu, alpha=alpha, beta=beta)
    if not z > 1.0:
        raise ValueError("need z > 1")
    if alpha <= -1.0 or beta <= -1.0 or (alpha < 0.0 and beta < 0.0
                                         and alpha + beta + 1.0 == 0.0):
        raise ParameterPoleError(
            f"Jacobi parameters ({alpha}, {beta}) violate the expansion's"
            " side conditions")
    n_neg = _nonpositive_int(nu)
    limit = tr.max_terms if n_neg is None else min(tr.max_terms, 1 - n_neg)
    ab = alpha + beta
    pref = ((z - 1.0) ** (alpha + 1.0 - nu) * (z + 1.0) ** (beta + 1.0 - nu)
            / 2.0 ** (ab + 1.0 - nu))
    acc = SeriesReference(tr, trace)
    log_poch = 0.0
    poch_sign = 1.0
    p_prev, pn = 0.0, 1.0   # P_{n-1}, P_n by the three-term recurrence
    q_terms = _jacobi_q_terms(nu - 1.0, alpha + 1.0 - nu, beta + 1.0 - nu, z, limit)
    for n, (q_sign, q_log) in enumerate(q_terms):
        if n > 0:
            step = nu + n - 1.0
            log_poch += math.log(abs(step))
            poch_sign *= math.copysign(1.0, step)
            p_prev, pn = pn, (_jacobi_p1(alpha, beta, x) if n == 1
                              else _jacobi_step(n, alpha, beta, x, p_prev, pn))
        sg_top, lg_top = gamma_signed_log(ab + n + 1.0)
        coef_log = (math.log(ab + 2.0 * n + 1.0) + lg_top + log_poch
                    - math.lgamma(alpha + 1.0 + n) - math.lgamma(beta + 1.0 + n))
        mag = coef_log + q_log
        term = 0.0
        if pn != 0.0 and q_sign != 0.0 and mag > -700.0:
            term = pref * poch_sign * sg_top * q_sign * math.exp(mag) * pn
        if acc.add(term):
            break
    return acc.result()


def euler_kernel_gegenbauer_reference(nu: float, mu: float, z: float, x: float,
                            tr: Truncation = DEFAULT_TRUNCATION,
                            trace=None) -> PartialSum:
    """Gegenbauer expansion of (z - x)^{-nu}; phase-cancelled real form."""
    _check_euler_arguments(z, x, nu=nu, mu=mu)
    if _nonpositive_int(nu) is not None:
        raise ExclusionSetError(f"nu = {nu} lies in the excluded set -N0")
    if mu <= -0.5 or mu == 0.0:
        raise ValueError("need mu in (-1/2, inf) \\ {0}")
    if not z > 1.0:
        raise ValueError("need z > 1")
    pref = (2.0 ** (mu + 0.5) * _gamma(mu, mu=mu)
            / (math.sqrt(math.pi) * _gamma(nu, nu=nu)
               * (z * z - 1.0) ** (0.5 * (nu - mu) - 0.25)))
    acc = SeriesReference(tr, trace)
    c_prev = 0.0
    c_cur = 1.0
    qhats = _q_hat_terms(mu - 0.5, nu - mu - 0.5, z, tr.max_terms)
    for n, qhat in enumerate(qhats):
        if n == 1:
            c_prev, c_cur = c_cur, 2.0 * mu * x
        elif n >= 2:
            c_prev, c_cur = c_cur, (2.0 * x * (n + mu - 1.0) * c_cur
                                    - (n + 2.0 * mu - 2.0) * c_prev) / n
        if acc.add(pref * (n + mu) * qhat * c_cur):
            break
    return acc.result()


def euler_kernel_chebyshev_reference(nu: float, z: float, x: float,
                           tr: Truncation = DEFAULT_TRUNCATION,
                           trace=None) -> PartialSum:
    """Chebyshev expansion of (z - x)^{-nu}; phase-cancelled real form."""
    _check_euler_arguments(z, x, nu=nu)
    if _nonpositive_int(nu) is not None:
        raise ExclusionSetError(f"nu = {nu} lies in the excluded set -N0")
    if not z > 1.0:
        raise ValueError("need z > 1")
    theta = math.acos(x)
    pref = (math.sqrt(2.0) / (math.sqrt(math.pi) * _gamma(nu, nu=nu)
                              * (z * z - 1.0) ** (0.5 * nu - 0.25)))
    acc = SeriesReference(tr, trace)
    for n, qhat in enumerate(_q_hat_terms(-0.5, nu - 0.5, z, tr.max_terms)):
        eps = 2.0 if n else 1.0
        if acc.add(pref * eps * math.cos(n * theta) * qhat):
            break
    return acc.result()


def multipole_power_reference(d: int, nu: float, r: float, rp: float, cos_gamma: float,
                    tr: Truncation = DEFAULT_TRUNCATION,
                    trace=None) -> PartialSum:
    """Gegenbauer multipole expansion of ||x - x'||^nu on R^d, d >= 3."""
    if d < 3:
        raise ValueError("need dimension d >= 3")
    _check_power_exclusion(nu)
    require_finite(r=r, rp=rp, cos_gamma=cos_gamma)
    if not -1.0 <= cos_gamma <= 1.0:
        raise ValueError("cos_gamma must lie in [-1, 1]")
    if r <= 0.0 or rp <= 0.0:
        raise ValueError("radii must be positive")
    r_less, r_greater = min(r, rp), max(r, rp)
    if (r_greater - r_less) / r_greater < 1e-6:
        raise CoincidentRadiusError(f"radii {r}, {rp} too close: radial argument collapses to 1")
    mu = 0.5 * d - 1.0
    gammas = _gamma(0.5 * (d - 2.0), d=d) / (2.0 * math.sqrt(math.pi) * _gamma(-0.5 * nu, nu=nu))
    radial_range = "the radial factors leave double range"
    z = in_range(lambda: (r * r + rp * rp) / (2.0 * r * rp), radial_range, r=r, rp=rp)
    pref = in_range(lambda: (gammas * (r_greater ** 2 - r_less ** 2) ** (0.5 * (nu + d - 1.0))
                             / (r * rp) ** (0.5 * (d - 1.0))), radial_range,
                    d=d, nu=nu, r=r, rp=rp)
    acc = SeriesReference(tr, trace)
    c_prev = 0.0
    c_cur = 1.0
    for n in range(tr.max_terms):
        if n == 1:
            c_prev, c_cur = c_cur, 2.0 * mu * cos_gamma
        elif n >= 2:
            c_prev, c_cur = c_cur, (2.0 * cos_gamma * (n + mu - 1.0) * c_cur
                                    - (n + 2.0 * mu - 2.0) * c_prev) / n
        qhat = legendre_q_hat(n + 0.5 * (d - 3.0), 0.5 * (1.0 - nu - d), z)
        if acc.add(pref * (2.0 * n + d - 2.0) * qhat * c_cur):
            break
    return acc.result()


def azimuthal_power_reference(nu: float, g: KernelGeometry,
                    tr: Truncation = DEFAULT_TRUNCATION,
                    trace=None) -> PartialSum:
    """Azimuthal Fourier expansion of ||x - x'||^nu about the invariant axis.

    Composition of the Chebyshev kernel expansion with the toroidal distance
    factorization; the working prefactor sqrt(2) (2RR')^{nu/2}
    (chi^2-1)^{(nu+1)/4} / (sqrt(pi) Gamma(-nu/2)) is the algebraically
    composed one (it reduces to the classical d = 3, nu = -1 result).
    """
    _check_power_exclusion(nu)
    chi = g.chi
    if chi is None:
        raise SingularConfigurationError("a point lies on the rotation axis")
    if chi <= 1.0 + 1e-6:
        raise SingularConfigurationError(
            f"chi = {chi} too close to 1 for the azimuthal series")
    dphi = g.delta_phi
    den = math.sqrt(math.pi) * _gamma(-0.5 * nu, nu=nu)
    in_range(lambda: chi, "the radial factors leave double range", R=g.R, Rp=g.Rp, chi=chi)
    pref = in_range(lambda: (math.sqrt(2.0) * (2.0 * g.R * g.Rp) ** (0.5 * nu)
                             * (chi * chi - 1.0) ** (0.25 * (nu + 1.0)) / den),
                    "the radial factors leave double range", nu=nu, R=g.R, Rp=g.Rp, chi=chi)
    acc = SeriesReference(tr, trace)
    qhats = _q_hat_terms(-0.5, -0.5 * (nu + 1.0), chi, tr.max_terms)
    for m, qhat in enumerate(qhats):
        eps = 2.0 if m else 1.0
        if acc.add(pref * eps * math.cos(m * dphi) * qhat):
            break
    return acc.result()
