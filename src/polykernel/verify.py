"""Numerical certification of the power-law addition theorems.

Each verifier compares the azimuthal Fourier coefficient of ||x - x'||^nu,
a single phase-free Legendre function Qhat_{m-1/2}^{-(nu+1)/2}(chi), against
the truncated multi-sum eigenfunction side.  The working real forms are
derived by algebraic composition (Fourier factorization x Gegenbauer
multipole expansion x harmonic addition theorem), with every prefactor in
phase-cancelled form and pinned by independent oracle tests.

There are two theorems, T4.1 on the standard tree b^{d-2}a and T4.2 on the
generalized Hopf tree V_{2^q}, and one mechanism for both: a fold from the
leaves to the root.  Each a leaf carries a weight vector over its azimuthal
order; each internal node maps its children's weight vectors to a weight
vector W(l) over its own degree, a b node through its Theta-pair table and a
c node through its Upsilon-pair columns; the certificate is
pref * sum_l W(l) R(l) over the root degrees, with a Legendre-Q radial
factor R.  The other theorem ids are presets: C4.3 and C4.4 are T4.1 at
d = 3 and d = 4, C4.5 is T4.2 at q = 2.  The elementary reductions are the
same theorems at nu = 2 - d, where R = Qhat^{-1/2} is elementary
(DLMF 14.5.17), so they check the fold against a radial factor that uses
no series code.

Geometry restrictions: azimuthal order m >= 0, radii distinct, polar-type
angles strictly interior so that chi stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CoincidentRadiusError, ExclusionSetError, SingularConfigurationError
from .polyspherical import hopf_g_recursion, hopf_upsilon_pairs, theta_standard_pairs
from .specfun import _is_int, legendre_q_hat, legendre_q_hat_column

_RADIUS_GUARD = 1e-6


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


def _check_exclusion(nu: float, m: int):
    # excluded set {2m, 2m+2, 2m+4, ...}
    if nu >= 2 * m - 1e-12 and _is_int(0.5 * (nu - 2 * m)):
        raise ExclusionSetError(
            f"nu = {nu} lies in the excluded set {{{2 * m}, {2 * m + 2}, ...}}")


def _check_radii(r, rp):
    if abs(r - rp) / max(r, rp) < _RADIUS_GUARD:
        raise CoincidentRadiusError(
            f"radii {r}, {rp} too close: radial argument collapses to 1")


def _geometric_tail(terms):
    """Extrapolated tail of a decaying term sequence.

    Fits one geometric ratio across the last few nonzero magnitudes (a
    window-wide fit smooths the oscillation of Ferrers/Gegenbauer factors);
    returns inf when the window looks non-decreasing.
    """
    mags = [abs(t) for t in terms if t != 0.0]
    if len(mags) < 6:
        return math.inf
    window = mags[-6:]
    peak = max(window)
    if window[0] == 0.0:
        return math.inf
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


def _interior(angles, hi, label):
    for a in angles:
        if not 0.0 < a < hi:
            raise SingularConfigurationError(
                f"{label} angle {a} must lie strictly inside (0, {hi})")


def _qhat_half(nu, mu, z):
    """Qhat_nu^mu(z) at mu = 1/2 or -1/2 in closed form (DLMF 14.5.17).

    With cosh eta = z: sqrt(pi/(2 sinh eta)) e^{-(nu+1/2) eta}, divided by
    nu + 1/2 at mu = -1/2.  nu may be an ndarray.
    """
    s = math.sqrt(z * z - 1.0)
    nu = np.asarray(nu, dtype=float)
    val = math.sqrt(0.5 * math.pi / s) * (z + s) ** -(nu + 0.5)
    return val if mu > 0 else val / (nu + 0.5)


def _certificate(cfg, d, chi, pref, lo, w, elementary):
    """Report for pref * sum_l W(l) R(l) over the root degrees l = lo, lo+1, ...

    pref comes in as the tree's own angle factor; the chi and radial factors
    both theorems share are multiplied in here.  R is
    Qhat_{l+(d-3)/2}^{(1-nu-d)/2}(z) with z = (r^2+r'^2)/(2rr').  An
    elementary reduction (nu = 2 - d) takes R, and at d = 4 also the lhs
    Qhat_{m-1/2}^{1/2}(chi), in closed form.
    """
    nu, m = cfg.nu, cfg.m
    z = (cfg.r * cfg.r + cfg.rp * cfg.rp) / (2.0 * cfg.r * cfg.rp)
    deg = lo + 0.5 * (d - 3.0)
    if elementary:
        if nu != 2.0 - d:
            raise ValueError(f"the elementary reduction needs nu = 2 - d = {2 - d}")
        radial = _qhat_half(deg + np.arange(len(w)), -0.5, z)
    else:
        radial = legendre_q_hat_column(deg, 0.5 * (1.0 - nu - d), z, len(w))
    if elementary and d == 4:
        lhs = float(_qhat_half(m - 0.5, 0.5, chi))
    else:
        lhs = legendre_q_hat(m - 0.5, -0.5 * (nu + 1.0), chi).value
    terms = (w * radial).tolist()
    rless, rgreater = min(cfg.r, cfg.rp), max(cfg.r, cfg.rp)
    pref *= (2.0 ** (-0.5 * (nu + 1.0))
             * (chi * chi - 1.0) ** (-0.25 * (nu + 1.0))
             * ((rgreater ** 2 - rless ** 2) / (cfg.r * cfg.rp)) ** (0.5 * (nu + d - 1.0)))
    rhs = pref * math.fsum(terms)
    # Root degrees lo..lo+caps get every contribution under the per-level
    # caps; above them the sums are cut short, so the tail is fitted to those.
    tail = _geometric_tail(terms[:cfg.caps + 1]) * abs(pref)
    terms_used = {"modes_per_level": cfg.caps + 1, "root_degrees": len(w)}
    return _report(cfg, lhs, rhs, terms_used, tail)


# --- standard polyspherical tree (type b^{d-2} a) ---------------------------

def chi_standard(r, rp, thetas, thetasp):
    """chi of the standard tree: meridian distance over the azimuthal plane."""
    num = r * r + rp * rp
    run = runp = 1.0
    prod = 1.0
    for t, tp in zip(thetas, thetasp):
        num -= 2.0 * r * rp * math.cos(t) * math.cos(tp) * run * runp
        run *= math.sin(t)
        runp *= math.sin(tp)
        prod *= math.sin(t) * math.sin(tp)
    return num / (2.0 * r * rp * prod), prod


def verify_standard(cfg: TheoremConfig, elementary: bool = False) -> VerificationReport:
    """Multi-sum addition theorem on R^d in standard polyspherical coordinates.

    Working real form:
    Qhat_{m-1/2}^{-(nu+1)/2}(chi) = pi^{(d-2)/2} 2^{-(nu+1)/2}
        x (prod sin sin')^{-nu/2} (chi^2-1)^{-(nu+1)/4}
        x ((r_>^2 - r_<^2)/(r r'))^{(nu+d-1)/2}
        x sum over l_1 >= ... >= l_{d-2} >= m of Theta-pair products times
          Qhat_{l_1+(d-3)/2}^{(1-nu-d)/2}((r^2+r'^2)/(2rr')).
    The fold starts at the a leaf (weight 1 at order m); the b node at level
    j maps the weights over l_{j+1} to weights over l_j through its
    Theta-pair table, and level 1 is the root.  elementary=True takes the
    closed-form radial factor, for the presets at nu = 2 - d.
    """
    d, m = cfg.d, cfg.m
    if d < 3:
        raise ValueError("need d >= 3")
    if len(cfg.thetas) != d - 2 or len(cfg.thetasp) != d - 2:
        raise ValueError(f"need {d - 2} polar angles per point")
    _check_exclusion(cfg.nu, m)
    _check_radii(cfg.r, cfg.rp)
    _interior(cfg.thetas, math.pi, "polar")
    _interior(cfg.thetasp, math.pi, "polar")
    chi, prod_ss = chi_standard(cfg.r, cfg.rp, cfg.thetas, cfg.thetasp)
    L = m + cfg.caps
    w, degs = np.ones(1), [m]
    for j in range(d - 2, 0, -1):
        w = theta_standard_pairs(j, d, L, degs, cfg.thetas[j - 1], cfg.thetasp[j - 1]) @ w
        degs = np.arange(m, L + 1)
    pref = math.pi ** (0.5 * (d - 2.0)) * prod_ss ** (-0.5 * cfg.nu)
    return _certificate(cfg, d, chi, pref, m, w, elementary)


def verify_ba(cfg: TheoremConfig) -> VerificationReport:
    """C4.3: the standard-tree theorem on R^3, one sum over Ferrers pairs."""
    return verify_standard(replace(cfg, d=3))


def verify_b2a(cfg: TheoremConfig) -> VerificationReport:
    """C4.4: the standard-tree theorem on R^4, Ferrers x Gegenbauer pairs."""
    return verify_standard(replace(cfg, d=4))


def ba_elementary_rhs(cfg: TheoremConfig) -> VerificationReport:
    """nu = -1 reduction of C4.3: radial factors (r_</r_>)^{l+1/2} up to
    elementary factors, the lhs still a Legendre function of order 0."""
    return verify_standard(replace(cfg, nu=-1.0, d=3), elementary=True)


def b2a_elementary_rhs(cfg: TheoremConfig) -> VerificationReport:
    """nu = -2 reduction of C4.4 to elementary functions."""
    return verify_standard(replace(cfg, nu=-2.0, d=4), elementary=True)


# --- generalized Hopf, R^{2^q} ----------------------------------------------

def chi_hopf(q, r, rp, thetas, thetasp, phis, phisp):
    """chi of the V_{2^q} tree; heap-ordered c-node angles + azimuths."""
    heap = list(thetas) + [0.0] + list(phis)       # phi_1 = 0: chi is
    heapp = list(thetasp) + [0.0] + list(phisp)    # independent of it
    cosg = hopf_g_recursion(q, heap, heapp)
    prod = 1.0
    for j in range(1, q):
        idx = 2 ** (j - 1)
        prod *= math.cos(thetas[idx - 1]) * math.cos(thetasp[idx - 1])
    num = (r * r + rp * rp - 2.0 * r * rp * cosg
           + 2.0 * r * rp * prod)  # cos(phi_1 - phi_1') = 1 with phi_1 = 0
    return num / (2.0 * r * rp * prod), prod


def _mode(m):
    """Weight vector over orders 0..m with weight 1 at order m only."""
    w = np.zeros(m + 1)
    w[m] = 1.0
    return w


def _hopf_fold(q, caps, thetas, thetasp, leaves):
    """Root weight vector of the V_{2^q} tree over degrees 0, 1, ...

    leaves holds the a-node weight vectors over their orders, left to right.
    The c node at heap index i maps each pair of child degrees (l_a, l_b)
    through one Upsilon-pair column onto the degrees l_a + l_b + 2n.
    """
    n_c = len(thetas)

    def fold(i):
        if i > n_c:
            return leaves[i - n_c - 1]
        left, right = fold(2 * i), fold(2 * i + 1)
        out = np.zeros(len(left) + len(right) + 2 * caps - 1)
        for la in np.flatnonzero(left).tolist():
            for lb in np.flatnonzero(right).tolist():
                u = hopf_upsilon_pairs(q, i, caps, la, lb, thetas[i - 1], thetasp[i - 1])
                out[la + lb:la + lb + 2 * caps + 1:2] += left[la] * right[lb] * u
        return out

    return fold(1)


def verify_hopf(cfg: TheoremConfig, elementary: bool = False) -> VerificationReport:
    """Multi-sum addition theorem on R^{2^q} in generalized Hopf coordinates.

    The first a leaf carries weight 1 at order m, every other one the
    azimuthal weights eps_m cos(m (phi - phi')), m = 0..caps; the fold
    combines them at the c nodes through Upsilon-pair factors and ends in
    the surrogate-degree Legendre factor.  elementary=True as in
    `verify_standard`.
    """
    q, m1, C = cfg.q, cfg.m, cfg.caps
    if q < 2:
        raise ValueError("need q >= 2")
    n_c = 2 ** (q - 1) - 1
    n_a = 2 ** (q - 1)
    if len(cfg.thetas) != n_c or len(cfg.thetasp) != n_c:
        raise ValueError(f"need {n_c} heap-ordered c-node angles per point")
    if len(cfg.phis) != n_a - 1 or len(cfg.phisp) != n_a - 1:
        raise ValueError(f"need {n_a - 1} azimuths (phi_2..phi_{n_a}) per point")
    _check_exclusion(cfg.nu, m1)
    _check_radii(cfg.r, cfg.rp)
    _interior(cfg.thetas, 0.5 * math.pi, "Hopf")
    _interior(cfg.thetasp, 0.5 * math.pi, "Hopf")
    chi, prod_cc = chi_hopf(q, cfg.r, cfg.rp, cfg.thetas, cfg.thetasp, cfg.phis, cfg.phisp)
    orders = np.arange(C + 1)
    leaves = [_mode(m1)] + [np.where(orders, 2.0, 1.0) * np.cos(orders * (f - fp))
                            for f, fp in zip(cfg.phis, cfg.phisp)]
    w = _hopf_fold(q, C, cfg.thetas, cfg.thetasp, leaves)
    nz = np.flatnonzero(w).tolist()
    lo, hi = nz[0], nz[-1]
    return _certificate(cfg, 2 ** q, chi, prod_cc ** (-0.5 * cfg.nu), lo, w[lo:hi + 1],
                        elementary)


def verify_ca2(cfg: TheoremConfig) -> VerificationReport:
    """C4.5: the Hopf-tree theorem on R^4, double sum over (m_2, n)."""
    return verify_hopf(replace(cfg, q=2))


def ca2_elementary_rhs(cfg: TheoremConfig) -> VerificationReport:
    """nu = -2 reduction of C4.5 to elementary functions."""
    return verify_hopf(replace(cfg, nu=-2.0, q=2), elementary=True)


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
    w = _hopf_fold(2, caps, (vt,), (vtp,), [_mode(m1), _mode(m2)])[m1 + m2:]
    qv = legendre_q_hat_column(m1 + m2 + 0.5, -0.5 * (nu + 3.0), z, len(w))
    return float(np.dot(w, qv))


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
