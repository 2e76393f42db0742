"""Addition-theorem sides rebuilt one degree at a time, as test oracles.

The verifiers fold a tree from its leaves to its root through recurrence
columns.  These sums take every node factor (`ferrers_p`, `theta_standard`,
`hopf_upsilon`) and every Legendre-Q radial factor (`legendre_q_hat`) one
degree at a time instead, and write out chi and the prefactors themselves,
so a test that compares the two checks the fold against code it does not
share.  Each function returns (lhs, rhs).
"""

import math

from polykernel import polyspherical as ps
from polykernel import specfun as sf


def _z(r, rp):
    return (r * r + rp * rp) / (2.0 * r * rp)


def _lhs(nu, m, chi):
    return sf.legendre_q_hat(m - 0.5, -0.5 * (nu + 1.0), chi).value


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
             * sf.legendre_q_hat(float(l), -0.5 * (nu + 2.0), _z(r, rp)).value
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
    q = [sf.legendre_q_hat(l1 + 0.5, -0.5 * (nu + 3.0), _z(r, rp)).value
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
                q[deg] = sf.legendre_q_hat(deg + 0.5, -0.5 * (nu + 3.0), _z(r, rp)).value
            terms.append(azimuthal * ps.hopf_upsilon(2, 1, n, m1, m2, vt)
                         * ps.hopf_upsilon(2, 1, n, m1, m2, vtp) * q[deg])
    pref = (2.0 ** (-0.5 * (nu + 1.0)) * (math.cos(vt) * math.cos(vtp)) ** (-0.5 * nu)
            * (chi * chi - 1.0) ** (-0.25 * (nu + 1.0)) * _radial_power(nu, 4, r, rp))
    return _lhs(nu, m1, chi), pref * math.fsum(terms)
