"""Reference values the benchmark computes on its own, outside any timing.

Expansions are checked against the direct power evaluated here from
Cartesian points or from (z - x); certificates against mpmath's Legendre Q
(phase stripped) at the toroidal parameter chi of Cartesian points built here
from the theorem's angles.  None of this calls polykernel, and none of it
trusts the CLI's own "direct_oracle" field.
"""

from __future__ import annotations

import math

# An expansion passes when |value - direct| <= BUDGET * (tol + EPS * cond) *
# |direct|.  The tol part is truncation: the stopping rule (three terms below
# tol * |sum|) leaves a tail of about tol * rho / (1 - rho) for a decay ratio
# rho, under 100 tol for every rho <= 0.99 these workloads reach.  The EPS
# part is rounding: each term is assembled in log space and carries tens of
# ulps, and the series cancels by cond = sum |terms| / |sum|, which
# `expansion_condition` bounds from the kernel itself.
EXPANSION_BUDGET = 100.0
EPS = 2.0 ** -52

# Certificates: library lhs against mpmath, relative.
LHS_BUDGET = 1e-10


def _standard_point(r, thetas, phi):
    """Point of the standard tree b^{d-2} a, azimuthal plane first."""
    run = r
    polar = []
    for t in thetas:
        polar.append(run * math.cos(t))
        run *= math.sin(t)
    return [run * math.cos(phi), run * math.sin(phi)] + polar


def _hopf_point(q, r, thetas, phis):
    """Point of the Hopf tree V_{2^q}: heap-ordered c-node angles, a-node
    azimuths phi_1 = 0, phi_2, ...; left children take cos, right sin."""
    n_c = 2 ** (q - 1) - 1
    amps = {1: r}
    coords = []
    for node in range(1, 2 ** q):
        amp = amps[node]
        if node <= n_c:
            amps[2 * node] = amp * math.cos(thetas[node - 1])
            amps[2 * node + 1] = amp * math.sin(thetas[node - 1])
        else:
            s = node - n_c              # leaf number, 1-based, left to right
            phi = 0.0 if s == 1 else phis[s - 2]
            coords += [amp * math.cos(phi), amp * math.sin(phi)]
    return coords                      # leaf 1 (the azimuthal plane) first


def certificate_points(cfg: dict):
    """Cartesian x, x' of a TheoremConfig dict (azimuthal plane first)."""
    thm = cfg["theorem"]
    if thm in ("C4.3", "C4.4", "T4.1"):
        return (_standard_point(cfg["r"], cfg["thetas"], 0.0),
                _standard_point(cfg["rp"], cfg["thetasp"], 0.0))
    q = 2 if thm == "C4.5" else cfg["q"]
    return (_hopf_point(q, cfg["r"], cfg["thetas"], cfg["phis"]),
            _hopf_point(q, cfg["rp"], cfg["thetasp"], cfg["phisp"]))


def toroidal_chi(x, xp) -> float:
    R = math.hypot(x[0], x[1])
    Rp = math.hypot(xp[0], xp[1])
    axial = sum((a - b) ** 2 for a, b in zip(x[2:], xp[2:]))
    return (R * R + Rp * Rp + axial) / (2.0 * R * Rp)


def qhat_mpmath(nu: float, mu: float, z: float) -> float:
    """e^{-i pi mu} Q_nu^mu(z) for z > 1, by mpmath."""
    import mpmath

    with mpmath.workdps(30):
        val = mpmath.legenq(nu, mu, z, type=3) * mpmath.expjpi(-mu)
        return float(mpmath.re(val))


def certificate_lhs(cfg: dict) -> float:
    chi = toroidal_chi(*certificate_points(cfg))
    return qhat_mpmath(cfg["m"] - 0.5, -0.5 * (cfg["nu"] + 1.0), chi)


# Library function -> CLI expansion name, the name the oracles below use.
_CLI_NAME = {"euler_kernel_chebyshev": "chebyshev",
             "euler_kernel_gegenbauer": "gegenbauer",
             "euler_kernel_jacobi": "jacobi",
             "fourier_negative_power": "fourier-neg",
             "fourier_integer_power": "fourier-int",
             "multipole_power": "multipole", "azimuthal_power": "azimuthal"}


def _distance(x, xp):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(x, xp)))


def expansion_value(kind: str, p: dict) -> float:
    """Direct value of the kernel an expansion spec sums.

    kind is the CLI expansion name or the library function name.
    """
    kind = _CLI_NAME.get(kind, kind)
    if kind in ("chebyshev", "gegenbauer", "jacobi"):
        return (p["z"] - p["x"]) ** (-p["nu"])
    if kind == "fourier-neg":
        return (p["z"] - p["x"]) ** (-p["q"])
    if kind == "fourier-int":
        return (p["z"] - p["x"]) ** p["p"]
    if kind == "multipole":
        cosg = p["cosg"] if "cosg" in p else p["cos_gamma"]
        sing = math.sqrt(max(0.0, 1.0 - cosg * cosg))
        x = [p["r"], 0.0] + [0.0] * (p["d"] - 2)
        xp = [p["rp"] * cosg, p["rp"] * sing] + [0.0] * (p["d"] - 2)
        return _distance(x, xp) ** p["nu"]
    if kind == "azimuthal":
        x = [p["R"], 0.0, 0.0]
        xp = [p["Rp"] * math.cos(p["dphi"]), p["Rp"] * math.sin(p["dphi"]), p["h"]]
        return _distance(x, xp) ** p["nu"]
    raise ValueError(f"no oracle for {kind!r}")


def expansion_condition(kind: str, p: dict) -> float:
    """Bound on sum |terms| / |sum| for the series an expansion spec sums.

    Every term is a positive coefficient times a basis function bounded by
    its value at the aligned end point (cos = 1, x = 1), so sum |terms| is at
    most the kernel there: (z - 1)^-nu for the Euler and Fourier kernels,
    |r - r'|^nu for the multipole series, (chi - 1)^(nu/2) for the azimuthal
    one (nu < 0 in both).
    """
    kind = _CLI_NAME.get(kind, kind)
    if kind in ("chebyshev", "gegenbauer", "jacobi"):
        return ((p["z"] - p["x"]) / (p["z"] - 1.0)) ** p["nu"]
    if kind == "fourier-neg":
        return ((p["z"] - p["x"]) / (p["z"] - 1.0)) ** p["q"]
    if kind == "fourier-int":
        return 1.0                     # summed exactly in rationals
    if kind == "multipole":
        return (abs(p["r"] - p["rp"]) ** p["nu"]) / expansion_value(kind, p)
    if kind == "azimuthal":
        aligned = dict(p, dphi=0.0)
        return expansion_value(kind, aligned) / expansion_value(kind, p)
    raise ValueError(f"no condition bound for {kind!r}")
