"""Numerical certification of the power-law addition theorems.

Each verifier compares the azimuthal Fourier coefficient of ||x - x'||^nu,
a single phase-free Legendre function Qhat_{m-1/2}^{-(nu+1)/2}(chi), against
the truncated multi-sum eigenfunction side.  The working real forms are
derived by algebraic composition (Fourier factorization x Gegenbauer
multipole expansion x harmonic addition theorem), with every prefactor in
phase-cancelled form and pinned by independent oracle tests.

Geometry restrictions: azimuthal order m >= 0, radii distinct, polar-type
angles strictly interior so that chi stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentRadiusError, ExclusionSetError, SingularConfigurationError
from .orthopoly import gegenbauer_c_all, jacobi_p_all
from .polyspherical import (
    _signed_pair_products,
    hopf_g_recursion,
    hopf_upsilon_pairs,
    theta_standard_pairs,
)
from .specfun import _is_int, legendre_q_hat, legendre_q_hat_column

_RADIUS_GUARD = 1e-6


@dataclass(frozen=True)
class TheoremConfig:
    """One verification instance; angle conventions per theorem.

    thetas/thetasp: polar-type angles (T4.1/C4.3/C4.4: theta_1..theta_{d-2};
    T4.2: heap-ordered c-node angles; C4.5: the single Hopf angle).
    phis/phisp: azimuthal angles where the theorem has explicit ones
    (T4.2: phi_2..phi_{2^{q-1}}; C4.5: phi_2).
    caps: per-summation-level truncation cap; tol: relative tolerance.
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


def verify_standard(cfg: TheoremConfig) -> VerificationReport:
    """Multi-sum addition theorem on R^d in standard polyspherical coordinates.

    Working real form:
    Qhat_{m-1/2}^{-(nu+1)/2}(chi) = pi^{(d-2)/2}/sqrt(2)
        x (2 r r' prod sin sin')^{-nu/2} (chi^2-1)^{-(nu+1)/4}
        x (r_>^2 - r_<^2)^{(nu+d-1)/2} / (r r')^{(d-1)/2}
        x nested sums of Theta-pair products ending in
          Qhat_{l_1+(d-3)/2}^{(1-nu-d)/2}((r^2+r'^2)/(2rr')).
    """
    d, nu, m = cfg.d, cfg.nu, cfg.m
    if d < 3:
        raise ValueError("need d >= 3")
    if len(cfg.thetas) != d - 2 or len(cfg.thetasp) != d - 2:
        raise ValueError(f"need {d - 2} polar angles per point")
    _check_exclusion(nu, m)
    _check_radii(cfg.r, cfg.rp)
    _interior(cfg.thetas, math.pi, "polar")
    _interior(cfg.thetasp, math.pi, "polar")
    r, rp = cfg.r, cfg.rp
    chi, prod_ss = chi_standard(r, rp, cfg.thetas, cfg.thetasp)
    z = (r * r + rp * rp) / (2.0 * r * rp)
    lhs = legendre_q_hat(m - 0.5, -0.5 * (nu + 1.0), chi).value

    L = m + cfg.caps

    # contraction from the innermost sum (over l_1, which carries the Legendre
    # factor) outward; inner[i] belongs to degree m + i, and each level takes
    # one theta-pair column per l_next.
    inner = legendre_q_hat_column(m + 0.5 * (d - 3.0), 0.5 * (1.0 - nu - d), z, L - m + 1)
    for j in range(1, d - 2):
        th, thp = cfg.thetas[j - 1], cfg.thetasp[j - 1]
        inner = np.array([math.fsum(theta_standard_pairs(j, d, L, l_next, th, thp)
                                    * inner[l_next - m:])
                          for l_next in range(m, L + 1)])
    j = d - 2
    outer_terms = (theta_standard_pairs(j, d, L, m, cfg.thetas[j - 1], cfg.thetasp[j - 1])
                   * inner).tolist()

    rless, rgreater = min(r, rp), max(r, rp)
    pref = (math.pi ** (0.5 * (d - 2.0)) / math.sqrt(2.0)
            * (2.0 * r * rp * prod_ss) ** (-0.5 * nu)
            * (chi * chi - 1.0) ** (-0.25 * (nu + 1.0))
            * (rgreater ** 2 - rless ** 2) ** (0.5 * (nu + d - 1.0))
            / (r * rp) ** (0.5 * (d - 1.0)))
    rhs = pref * math.fsum(outer_terms)
    tail = _geometric_tail(outer_terms) * abs(pref)
    terms = {f"l_{j}": L - m + 1 for j in range(1, d - 1)}
    return _report(cfg, lhs, rhs, terms, tail)


# --- d = 3, type ba ----------------------------------------------------------

def chi_ba(r, rp, theta, thetap):
    return ((r * r + rp * rp - 2.0 * r * rp * math.cos(theta) * math.cos(thetap))
            / (2.0 * r * rp * math.sin(theta) * math.sin(thetap)))


def verify_ba(cfg: TheoremConfig) -> VerificationReport:
    """Single-sum addition theorem on R^3 with Ferrers-function pairs."""
    nu, m, r, rp = cfg.nu, cfg.m, cfg.r, cfg.rp
    (theta,), (thetap,) = cfg.thetas, cfg.thetasp
    _check_exclusion(nu, m)
    _check_radii(r, rp)
    _interior((theta, thetap), math.pi, "polar")
    chi = chi_ba(r, rp, theta, thetap)
    z = (r * r + rp * rp) / (2.0 * r * rp)
    lhs = legendre_q_hat(m - 0.5, -0.5 * (nu + 1.0), chi).value
    L = m + cfg.caps
    qv = legendre_q_hat_column(m, -0.5 * (nu + 2.0), z, L - m + 1)
    pl = _ferrers_run(L, m, math.cos(theta))
    plp = _ferrers_run(L, m, math.cos(thetap))
    ratio = 1.0 / math.factorial(2 * m)  # (l-m)!/(l+m)! at l = m
    terms = []
    for l in range(m, L + 1):
        terms.append((2 * l + 1) * ratio * qv[l - m] * pl[l - m] * plp[l - m])
        ratio *= (l + 1.0 - m) / (l + 1.0 + m)
    rless, rgreater = min(r, rp), max(r, rp)
    pref = (math.sqrt(math.pi) * 2.0 ** (-0.5 * (nu + 3.0))
            * (math.sin(theta) * math.sin(thetap)) ** (-0.5 * nu)
            * (chi * chi - 1.0) ** (-0.25 * (nu + 1.0))
            * ((rgreater ** 2 - rless ** 2) / (r * rp)) ** (0.5 * (nu + 2.0)))
    rhs = pref * math.fsum(terms)
    tail = _geometric_tail(terms) * abs(pref)
    return _report(cfg, lhs, rhs, {"l": L - m + 1}, tail)


def _ferrers_run(L, m, x):
    """[P_m^m(x), ..., P_L^m(x)] in one forward recurrence."""
    vals = np.empty(L - m + 1)
    pmm = 1.0
    s = math.sqrt(max(0.0, 1.0 - x * x))
    for k in range(1, m + 1):
        pmm *= -(2 * k - 1) * s
    vals[0] = pmm
    if L > m:
        vals[1] = x * (2 * m + 1) * pmm
    for l in range(m + 2, L + 1):
        vals[l - m] = ((2 * l - 1) * x * vals[l - m - 1]
                       - (l + m - 1) * vals[l - m - 2]) / (l - m)
    return vals


def ba_elementary_rhs(cfg: TheoremConfig) -> VerificationReport:
    """nu = -1 reduction of the ba theorem: pure (r_</r_>)^{l+1/2} series."""
    m, r, rp = cfg.m, cfg.r, cfg.rp
    (theta,), (thetap,) = cfg.thetas, cfg.thetasp
    _check_radii(r, rp)
    chi = chi_ba(r, rp, theta, thetap)
    lhs = legendre_q_hat(m - 0.5, 0.0, chi).value
    L = m + cfg.caps
    pl = _ferrers_run(L, m, math.cos(theta))
    plp = _ferrers_run(L, m, math.cos(thetap))
    rho = min(r, rp) / max(r, rp)
    ratio = 1.0 / math.factorial(2 * m)
    terms = []
    for l in range(m, L + 1):
        terms.append(ratio * rho ** (l + 0.5) * pl[l - m] * plp[l - m])
        ratio *= (l + 1.0 - m) / (l + 1.0 + m)
    pref = math.pi * math.sqrt(math.sin(theta) * math.sin(thetap))
    rhs = pref * math.fsum(terms)
    return _report(cfg, lhs, rhs, {"l": L - m + 1}, _geometric_tail(terms) * pref)


# --- d = 4, type b^2 a -------------------------------------------------------

def chi_b2a(r, rp, t1, t1p, t2, t2p):
    num = (r * r + rp * rp - 2.0 * r * rp * math.cos(t1) * math.cos(t1p)
           - 2.0 * r * rp * math.sin(t1) * math.sin(t1p) * math.cos(t2) * math.cos(t2p))
    return num / (2.0 * r * rp * math.sin(t1) * math.sin(t1p)
                  * math.sin(t2) * math.sin(t2p))


def verify_b2a(cfg: TheoremConfig) -> VerificationReport:
    """Double-sum addition theorem on R^4: Ferrers x Gegenbauer pairs."""
    nu, m, r, rp = cfg.nu, cfg.m, cfg.r, cfg.rp
    (t1, t2), (t1p, t2p) = cfg.thetas, cfg.thetasp
    _check_exclusion(nu, m)
    _check_radii(r, rp)
    _interior((t1, t2, t1p, t2p), math.pi, "polar")
    chi = chi_b2a(r, rp, t1, t1p, t2, t2p)
    z = (r * r + rp * rp) / (2.0 * r * rp)
    lhs = legendre_q_hat(m - 0.5, -0.5 * (nu + 1.0), chi).value
    L = m + cfg.caps
    qv = legendre_q_hat_column(m + 0.5, -0.5 * (nu + 3.0), z, L - m + 1)
    ss1 = math.sin(t1) * math.sin(t1p)
    x1, x1p = math.cos(t1), math.cos(t1p)
    pl2 = _ferrers_run(L, m, math.cos(t2))
    pl2p = _ferrers_run(L, m, math.cos(t2p))
    outer_terms = []
    for l2 in range(m, L + 1):
        log_c2 = (2.0 * l2 * math.log(2.0) + math.log(2.0 * l2 + 1.0)
                  + 2.0 * math.lgamma(l2 + 1.0)
                  + math.lgamma(l2 - m + 1.0) - math.lgamma(l2 + m + 1.0)
                  + (l2 * math.log(ss1) if l2 else 0.0))
        c1 = gegenbauer_c_all(L - l2, l2 + 1.0, x1)
        c1p = gegenbauer_c_all(L - l2, l2 + 1.0, x1p)
        inner = 0.0
        for l1 in range(l2, L + 1):
            cc = c1[l1 - l2] * c1p[l1 - l2]
            if cc == 0.0:
                continue
            log_in = (math.log(l1 + 1.0) + math.lgamma(l1 - l2 + 1.0)
                      - math.lgamma(l1 + l2 + 2.0) + math.log(abs(cc)))
            inner += math.copysign(math.exp(log_in + log_c2), cc) * qv[l1 - m]
        outer_terms.append(inner * pl2[l2 - m] * pl2p[l2 - m])
    rless, rgreater = min(r, rp), max(r, rp)
    pref = (2.0 ** (-0.5 * (nu + 1.0))
            * ((rgreater ** 2 - rless ** 2) / (r * rp)) ** (0.5 * (nu + 3.0))
            * (chi * chi - 1.0) ** (-0.25 * (nu + 1.0))
            * (ss1 * math.sin(t2) * math.sin(t2p)) ** (-0.5 * nu))
    rhs = pref * math.fsum(outer_terms)
    tail = _geometric_tail(outer_terms) * abs(pref)
    return _report(cfg, lhs, rhs, {"l_2": L - m + 1, "l_1": L + 1}, tail)


def b2a_elementary_rhs(cfg: TheoremConfig) -> VerificationReport:
    """nu = -2 reduction of the b^2 a theorem to elementary functions."""
    m, r, rp = cfg.m, cfg.r, cfg.rp
    (t1, t2), (t1p, t2p) = cfg.thetas, cfg.thetasp
    _check_radii(r, rp)
    chi = chi_b2a(r, rp, t1, t1p, t2, t2p)
    lhs = (chi * chi - 1.0) ** (-0.5) / (chi + math.sqrt(chi * chi - 1.0)) ** m
    L = m + cfg.caps
    ss1 = math.sin(t1) * math.sin(t1p)
    rho = min(r, rp) / max(r, rp)
    pl2 = _ferrers_run(L, m, math.cos(t2))
    pl2p = _ferrers_run(L, m, math.cos(t2p))
    outer_terms = []
    for l2 in range(m, L + 1):
        log_c2 = (2.0 * l2 * math.log(2.0) + math.log(2.0 * l2 + 1.0)
                  + 2.0 * math.lgamma(l2 + 1.0)
                  + math.lgamma(l2 - m + 1.0) - math.lgamma(l2 + m + 1.0)
                  + (l2 * math.log(ss1) if l2 else 0.0))
        c1 = gegenbauer_c_all(L - l2, l2 + 1.0, math.cos(t1))
        c1p = gegenbauer_c_all(L - l2, l2 + 1.0, math.cos(t1p))
        inner = 0.0
        for l1 in range(l2, L + 1):
            cc = c1[l1 - l2] * c1p[l1 - l2]
            if cc == 0.0:
                continue
            log_in = (math.lgamma(l1 - l2 + 1.0) - math.lgamma(l1 + l2 + 2.0)
                      + (l1 + 1.0) * math.log(rho) + math.log(abs(cc)))
            inner += math.copysign(math.exp(log_in + log_c2), cc)
        outer_terms.append(inner * pl2[l2 - m] * pl2p[l2 - m])
    pref = 2.0 * ss1 * math.sin(t2) * math.sin(t2p)
    rhs = pref * math.fsum(outer_terms)
    tail = _geometric_tail(outer_terms) * abs(pref)
    return _report(cfg, lhs, rhs, {"l_2": L - m + 1, "l_1": L + 1}, tail)


# --- d = 4, type c a^2 (Hopf) ------------------------------------------------

def chi_ca2(r, rp, vt, vtp, f2, f2p):
    num = (r * r + rp * rp
           - 2.0 * r * rp * math.sin(vt) * math.sin(vtp) * math.cos(f2 - f2p))
    return num / (2.0 * r * rp * math.cos(vt) * math.cos(vtp))


def _ca2_column(m1, m2, L, vt, vtp):
    """Radial-free C4.5 inner terms for one m2, n = 0..L.

    (m1+m2+n)! n! / ((m1+n)! (m2+n)!) P_n^{(m2,m1)}(cos 2vt) P_n^{(m2,m1)}(cos 2vt'),
    from one Jacobi recurrence pass at both angles.
    """
    p = jacobi_p_all(L, float(m2), float(m1), [math.cos(2.0 * vt), math.cos(2.0 * vtp)])
    log_coef = np.array([math.lgamma(m1 + m2 + n + 1.0) + math.lgamma(n + 1.0)
                         - math.lgamma(m1 + n + 1.0) - math.lgamma(m2 + n + 1.0)
                         for n in range(L + 1)])
    return _signed_pair_products(p, log_coef)


def _ca2_qhat_sum(m1, m2, L, vt, vtp, radial):
    """C4.5 inner sum over n; radial[n] = Qhat_{m1+m2+2n+1/2}, n = 0..L."""
    col = _ca2_column(m1, m2, L, vt, vtp)
    deg = m1 + m2 + 2.0 * np.arange(L + 1)
    return float(np.dot(col, (deg + 1.0) * radial))


def verify_ca2(cfg: TheoremConfig) -> VerificationReport:
    """Double-sum addition theorem on R^4 in Hopf coordinates."""
    nu, m1, r, rp = cfg.nu, cfg.m, cfg.r, cfg.rp
    (vt,), (vtp,) = cfg.thetas, cfg.thetasp
    (f2,), (f2p,) = cfg.phis, cfg.phisp
    _check_exclusion(nu, m1)
    _check_radii(r, rp)
    _interior((vt, vtp), 0.5 * math.pi, "Hopf")
    chi = chi_ca2(r, rp, vt, vtp, f2, f2p)
    z = (r * r + rp * rp) / (2.0 * r * rp)
    lhs = legendre_q_hat(m1 - 0.5, -0.5 * (nu + 1.0), chi).value
    L = cfg.caps
    qv = legendre_q_hat_column(m1 + 0.5, -0.5 * (nu + 3.0), z, 3 * L + 1)
    cc = math.cos(vt) * math.cos(vtp)
    ss = math.sin(vt) * math.sin(vtp)
    outer_terms = [(2.0 if m2 else 1.0) * math.cos(m2 * (f2 - f2p)) * (ss ** m2 if m2 else 1.0)
                   * _ca2_qhat_sum(m1, m2, L, vt, vtp, qv[m2:m2 + 2 * L + 1:2])
                   for m2 in range(0, L + 1)]
    rless, rgreater = min(r, rp), max(r, rp)
    pref = (2.0 ** (-0.5 * (nu + 1.0))
            * (chi * chi - 1.0) ** (-0.25 * (nu + 1.0))
            * ((rgreater ** 2 - rless ** 2) / (r * rp)) ** (0.5 * (nu + 3.0))
            * cc ** (m1 - 0.5 * nu))
    rhs = pref * math.fsum(outer_terms)
    tail = _geometric_tail(outer_terms) * abs(pref)
    return _report(cfg, lhs, rhs, {"m_2": L + 1, "n": L + 1}, tail)


def ca2_double_coefficient(nu: float, m1: int, m2: int, r: float, rp: float,
                           vt: float, vtp: float, caps: int = 60) -> float:
    """Joint (m1, m2) azimuthal coefficient of the Hopf-coordinate expansion.

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
    qv = legendre_q_hat_column(m1 + m2 + 0.5, -0.5 * (nu + 3.0), z, 2 * caps + 1)
    cc = math.cos(vt) * math.cos(vtp)
    ss = math.sin(vt) * math.sin(vtp)
    return ((cc ** m1 if m1 else 1.0) * (ss ** m2 if m2 else 1.0)
            * _ca2_qhat_sum(m1, m2, caps, vt, vtp, qv[::2]))


def ca2_elementary_rhs(cfg: TheoremConfig) -> VerificationReport:
    """nu = -2 reduction of the Hopf theorem to elementary functions."""
    m1, r, rp = cfg.m, cfg.r, cfg.rp
    (vt,), (vtp,) = cfg.thetas, cfg.thetasp
    (f2,), (f2p,) = cfg.phis, cfg.phisp
    _check_radii(r, rp)
    chi = chi_ca2(r, rp, vt, vtp, f2, f2p)
    lhs = (chi * chi - 1.0) ** (-0.5) / (chi + math.sqrt(chi * chi - 1.0)) ** m1
    L = cfg.caps
    cc = math.cos(vt) * math.cos(vtp)
    ss = math.sin(vt) * math.sin(vtp)
    rho = min(r, rp) / max(r, rp)
    outer_terms = []
    for m2 in range(0, L + 1):
        rho_pow = rho ** (m1 + m2 + 1.0 + 2.0 * np.arange(L + 1))
        sn = float(np.dot(_ca2_column(m1, m2, L, vt, vtp), rho_pow))
        outer_terms.append((2.0 if m2 else 1.0) * math.cos(m2 * (f2 - f2p))
                           * (ss ** m2 if m2 else 1.0) * sn)
    pref = 2.0 * cc ** (m1 + 1.0)
    rhs = pref * math.fsum(outer_terms)
    tail = _geometric_tail(outer_terms) * abs(pref)
    return _report(cfg, lhs, rhs, {"m_2": L + 1, "n": L + 1}, tail)


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


def verify_hopf(cfg: TheoremConfig) -> VerificationReport:
    """Multi-sum addition theorem on R^{2^q} in generalized Hopf coordinates.

    The eigenfunction side is contracted over the Hopf tree: each subtree
    yields a vector F(l) of weights, combined at c nodes through
    Upsilon-pair factors, ending in the surrogate-degree Legendre factor.
    """
    q, nu, m1 = cfg.q, cfg.nu, cfg.m
    if q < 2:
        raise ValueError("need q >= 2")
    n_c = 2 ** (q - 1) - 1
    n_a = 2 ** (q - 1)
    if len(cfg.thetas) != n_c or len(cfg.thetasp) != n_c:
        raise ValueError(f"need {n_c} heap-ordered c-node angles per point")
    if len(cfg.phis) != n_a - 1 or len(cfg.phisp) != n_a - 1:
        raise ValueError(f"need {n_a - 1} azimuths (phi_2..phi_{n_a}) per point")
    _check_exclusion(nu, m1)
    _check_radii(cfg.r, cfg.rp)
    _interior(cfg.thetas, 0.5 * math.pi, "Hopf")
    _interior(cfg.thetasp, 0.5 * math.pi, "Hopf")
    r, rp = cfg.r, cfg.rp
    d = 2 ** q
    chi, prod_cc = chi_hopf(q, r, rp, cfg.thetas, cfg.thetasp, cfg.phis, cfg.phisp)
    z = (r * r + rp * rp) / (2.0 * r * rp)
    lhs = legendre_q_hat(m1 - 0.5, -0.5 * (nu + 1.0), chi).value
    C = cfg.caps

    def subtree_weights(heap_idx):
        if heap_idx >= n_c + 1:  # a node
            s = heap_idx - 2 ** (q - 1) + 1
            if s == 1:
                return {m1: 1.0}
            dphi = cfg.phis[s - 2] - cfg.phisp[s - 2]
            return {m: (2.0 if m else 1.0) * math.cos(m * dphi)
                    for m in range(0, C + 1)}
        left = subtree_weights(2 * heap_idx)
        right = subtree_weights(2 * heap_idx + 1)
        vt = cfg.thetas[heap_idx - 1]
        vtp = cfg.thetasp[heap_idx - 1]
        out = {}
        for la, wa in left.items():
            for lb, wb in right.items():
                if wa == 0.0 or wb == 0.0:
                    continue
                u = hopf_upsilon_pairs(q, heap_idx, C, la, lb, vt, vtp)
                for n, un in enumerate(u.tolist()):
                    if un == 0.0:
                        continue
                    l = la + lb + 2 * n
                    out[l] = out.get(l, 0.0) + wa * wb * un
        return out

    root = subtree_weights(1)
    lo, hi = min(root), max(root)
    qv = legendre_q_hat_column(lo + 0.5 * (d - 3.0), 0.5 * (1.0 - nu - d), z, hi - lo + 1)
    outer_terms = [root[l] * qv[l - lo] for l in sorted(root)]
    rless, rgreater = min(r, rp), max(r, rp)
    pref = (2.0 ** (-0.5 * (nu + 1.0)) * prod_cc ** (-0.5 * nu)
            * (chi * chi - 1.0) ** (-0.25 * (nu + 1.0))
            * ((rgreater ** 2 - rless ** 2) / (r * rp)) ** (0.5 * (nu + d - 1.0)))
    rhs = pref * math.fsum(outer_terms)
    tail = _geometric_tail(outer_terms) * abs(pref)
    terms = {"modes_per_level": C + 1, "root_degrees": len(outer_terms)}
    return _report(cfg, lhs, rhs, terms, tail)


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
