"""Seeded operation streams for the three benchmark workloads.

An operation spec is plain data (tuples, dicts, floats), so the worker that
executes it and the parent that checks its output regenerate the identical
stream from the seed alone.  Nothing here imports polykernel.

Each workload is an endless cycle of fixed slots; the seed draws the
parameters of every slot anew on every cycle.  Fixed slots keep the cost of a
cycle nearly constant across seeds, so a run's throughput and percentiles
measure the program rather than the luck of the draw.

Spec shapes:
  ("verify", cfg)         verify.run_verification(verify.TheoremConfig(**cfg))
  ("suite", seed)         cli.main(["verify", "--suite", "--seed", seed])
  ("cli", argv, params)   cli.main(argv) for one `polykernel expand` call
  ("lib", fn, params)     expansions.<fn>(...) called directly
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("certify", "expand_sweep", "expand_scatter")

HALF_PI = 0.5 * math.pi
TWO_PI = 2.0 * math.pi

# Angle ranges of the acceptance suite (cli._suite_configs).
POLAR = (0.3, math.pi - 0.3)
HOPF = (0.3, HALF_PI - 0.3)
AZIMUTH = (0.0, TWO_PI)

# Library default tolerance (expansions.DEFAULT_TRUNCATION) and the CLI's
# default --tol; the oracle budget is a fixed multiple of the one in force.
LIB_TOL = 1e-12
CLI_TOL = 1e-9

SWEEP_BLOCK = 24


def _angles(rng, n, lo_hi):
    lo, hi = lo_hi
    return [rng.uniform(lo, hi) for _ in range(n)]


# --- certify -----------------------------------------------------------------

def _standard(rng, theorem, nu, m, d, caps, tol):
    n = d - 2
    return {"theorem": theorem, "nu": nu, "m": m, "d": d, "r": 1.0, "rp": 2.0,
            "thetas": _angles(rng, n, POLAR), "thetasp": _angles(rng, n, POLAR),
            "caps": caps, "tol": tol}


def _hopf(rng, theorem, nu, m, q, caps, tol):
    n = 2 ** (q - 1) - 1        # c-node angles, and azimuths after phi_1 = 0
    return {"theorem": theorem, "nu": nu, "m": m, "q": q, "r": 1.0, "rp": 2.0,
            "thetas": _angles(rng, n, HOPF), "thetasp": _angles(rng, n, HOPF),
            "phis": _angles(rng, n, AZIMUTH), "phisp": _angles(rng, n, AZIMUTH),
            "caps": caps, "tol": tol}


def _c43(nu, m):
    return lambda g: _standard(g, "C4.3", nu, m, 3, 80, 1e-6)


def _c44(m):
    return lambda g: _standard(g, "C4.4", -2.0, m, 4, 80, 1e-6)


def _t41(d, caps):
    return lambda g: _standard(g, "T4.1", g.uniform(-2.5, -0.5), 0, d, caps, 1e-6)


def _t42(q, caps, tol):
    return lambda g: _hopf(g, "T4.2", g.uniform(-2.5, -0.5), 0, q, caps, tol)


def _c45(m):
    return lambda g: _hopf(g, "C4.5", -2.0, m, 2, 80, 1e-6)


# One cycle of 25: ten C4.3 (every nu x m, four twice), four C4.4, five T4.1,
# three T4.2 q=2, and the three slow certificates (T4.2 q=3, C4.5 m=0, 1),
# spread through the cycle.  In cost order the C4.3s take ranks 1-10, the
# C4.4s 11-14, T4.1 and T4.2 q=2 ranks 15-22, T4.2 q=3 rank 23: the median
# falls inside the C4.4 band and p90 in the middle of the T4.2 q=3 band.
_CERTIFY_SLOTS = (
    _c45(0), _c43(-1.0, 0), _c43(-1.0, 1), _t41(4, 40), _c44(0), _c43(-1.0, 2),
    _t42(2, 30, 1e-6), _c43(-2.5, 0), _t42(3, 12, 1e-3), _c43(-2.5, 1),
    _t41(5, 35), _c44(1), _c43(-2.5, 2), _t41(6, 30), _t42(2, 30, 1e-6),
    _c43(-1.0, 0), _c45(1), _c44(0), _c43(-1.0, 1), _t41(4, 40), _c43(-2.5, 1),
    _t42(2, 30, 1e-6), _c44(1), _c43(-2.5, 2), _t41(5, 35),
)


def _certify(rng, seed):
    # The acceptance suite is one operation, always the first, so every run
    # contains it exactly once.
    yield ("suite", seed % 2 ** 31)
    while True:
        for slot in _CERTIFY_SLOTS:
            yield ("verify", slot(rng))


# --- expand_sweep ------------------------------------------------------------

def _cli(kind, params):
    argv = ["expand", kind]
    for key, val in params.items():
        argv += [f"--{key}", repr(val)]
    return ("cli", argv, dict(params, kind=kind))


def _grid(lo, hi, n):
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _sweep_block(rng, kind):
    """Fixed kind, nu and z (or radii, or geometry); one grid variable."""
    xs = _grid(-0.95, 0.95, SWEEP_BLOCK)
    z = rng.uniform(1.5, 4.0)
    nu = rng.uniform(0.5, 3.0)
    if kind == "chebyshev":
        return [_cli(kind, {"nu": nu, "z": z, "x": x}) for x in xs]
    if kind == "gegenbauer":
        mu = rng.uniform(0.25, 2.0)
        return [_cli(kind, {"nu": nu, "mu": mu, "z": z, "x": x}) for x in xs]
    if kind == "jacobi":
        # The two costliest kinds set p90; a narrower z or r</r> band keeps
        # their per-block cost, and so p90, from hanging on a few draws.
        a, b = rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)
        z = rng.uniform(2.0, 3.0)
        return [_cli(kind, {"nu": nu, "alpha": a, "beta": b, "z": z, "x": x})
                for x in xs]
    if kind == "fourier-neg":
        q = rng.randint(1, 4)
        return [_cli(kind, {"q": q, "z": z, "x": x}) for x in xs]
    if kind == "fourier-int":
        p = rng.randint(1, 8)
        return [_cli(kind, {"p": p, "z": z, "x": x}) for x in xs]
    nu = rng.uniform(-2.5, -0.5)
    if kind == "multipole":
        d = rng.randint(3, 5)
        rp = 1.0 / rng.uniform(0.4, 0.5)
        return [_cli(kind, {"d": d, "nu": nu, "r": 1.0, "rp": rp, "cosg": c})
                for c in _grid(-1.0, 1.0, SWEEP_BLOCK)]
    if kind == "azimuthal":
        Rp = rng.uniform(0.5, 2.0)
        chi = rng.uniform(1.4, 3.0)
        h = math.sqrt(2.0 * Rp * chi - 1.0 - Rp * Rp)
        return [_cli(kind, {"nu": nu, "R": 1.0, "Rp": Rp, "h": h, "dphi": f})
                for f in _grid(0.0, math.pi, SWEEP_BLOCK)]
    raise ValueError(kind)


SWEEP_KINDS = ("chebyshev", "gegenbauer", "jacobi", "multipole", "azimuthal",
               "fourier-neg", "fourier-int")


def _expand_sweep(rng, seed):
    while True:
        for kind in SWEEP_KINDS:
            yield from _sweep_block(rng, kind)


# --- expand_scatter ----------------------------------------------------------

def _lib(fn, **params):
    return ("lib", fn, params)


def _cheb(g, zlo, zhi, nulo=0.5, nuhi=3.0):
    return _lib("euler_kernel_chebyshev", nu=g.uniform(nulo, nuhi),
                z=g.uniform(zlo, zhi), x=g.uniform(-0.95, 0.95))


def _geg(g, zlo, zhi):
    return _lib("euler_kernel_gegenbauer", nu=g.uniform(0.5, 3.0),
                mu=g.uniform(0.25, 2.0), z=g.uniform(zlo, zhi),
                x=g.uniform(-0.95, 0.95))


def _multipole(g, d, lo, hi):
    return _lib("multipole_power", d=d, nu=g.uniform(-2.5, -0.5), r=1.0,
                rp=1.0 / g.uniform(lo, hi), cos_gamma=g.uniform(-1.0, 1.0))


def _azimuthal(g, chi_lo, chi_hi, rp_lo, rp_hi):
    # (1 + Rp^2) / (2 Rp) <= chi_lo keeps the axial offset h real.
    Rp = g.uniform(rp_lo, rp_hi)
    chi = g.uniform(chi_lo, chi_hi)
    h = math.sqrt(2.0 * Rp * chi - 1.0 - Rp * Rp)
    return _lib("azimuthal_power", nu=g.uniform(-2.5, -0.5), R=1.0, Rp=Rp, h=h,
                dphi=g.uniform(0.0, TWO_PI))


def _fourier_neg(g, zlo, zhi):
    return _lib("fourier_negative_power", q=g.randint(1, 4),
                z=g.uniform(zlo, zhi), x=g.uniform(-0.95, 0.95))


# Fifteen slots in increasing order of cost, each a narrow band of it: six far
# field, nine near field (z in (1.02, 1.3], chi in [1.08, 1.12], r</r> in
# [0.6, 0.9]).  Narrow bands keep the cycle's cost nearly seed-independent,
# and with fifteen slots the median falls in the middle of the eighth band
# (Chebyshev at z in [1.2, 1.3]) and p90 in the middle of the fourteenth
# (Chebyshev at z ~ 1.05), so neither straddles a gap between bands.  Every
# call draws fresh parameters, so no (nu, mu, z) recurs.
_SCATTER_SLOTS = (
    lambda g: _fourier_neg(g, 1.5, 4.0),
    lambda g: _fourier_neg(g, 1.02, 1.1),
    lambda g: _lib("fourier_integer_power", p=g.randint(1, 8),
                   z=g.uniform(1.5, 4.0), x=g.uniform(-0.95, 0.95)),
    lambda g: _cheb(g, 2.0, 4.0),
    lambda g: _geg(g, 2.0, 4.0),
    lambda g: _azimuthal(g, 1.4, 3.0, 0.5, 2.0),
    lambda g: _multipole(g, g.randint(3, 5), 0.3, 0.4),
    lambda g: _cheb(g, 1.2, 1.3, 1.0, 1.5),
    lambda g: _multipole(g, 3, 0.6, 0.65),
    lambda g: _geg(g, 1.1, 1.15),
    lambda g: _lib("euler_kernel_jacobi", nu=g.uniform(0.5, 3.0),
                   alpha=g.uniform(-0.5, 1.5), beta=g.uniform(-0.5, 1.5),
                   z=g.uniform(1.2, 1.3), x=g.uniform(-0.95, 0.95)),
    lambda g: _azimuthal(g, 1.08, 1.12, 0.85, 1.15),
    lambda g: _multipole(g, g.randint(4, 5), 0.68, 0.72),
    lambda g: _cheb(g, 1.045, 1.055, 2.0, 3.0),
    lambda g: _multipole(g, 3, 0.88, 0.90),
)


def _expand_scatter(rng, seed):
    while True:
        for slot in _SCATTER_SLOTS:
            yield slot(rng)


_STREAMS = {"certify": _certify, "expand_sweep": _expand_sweep,
            "expand_scatter": _expand_scatter}


# Operations ahead of the first cycle, and operations per cycle.  A run
# always ends on a cycle boundary, so every slot runs equally often.
PREFIX = {"certify": 1, "expand_sweep": 0, "expand_scatter": 0}
CYCLE = {"certify": len(_CERTIFY_SLOTS),
         "expand_sweep": SWEEP_BLOCK * len(SWEEP_KINDS),
         "expand_scatter": len(_SCATTER_SLOTS)}


def stream(workload: str, seed: int):
    """Endless, deterministic operation stream of a workload."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"), seed)


def first(workload: str, seed: int, n: int) -> list:
    it = stream(workload, seed)
    return [next(it) for _ in range(n)]


def warmup(workload: str) -> list:
    """Cheap untimed operations that exercise each code path once."""
    rng = random.Random(f"warmup:{workload}")
    if workload == "certify":
        return [("verify", _standard(rng, "C4.3", -1.0, 0, 3, 20, 1e-6))]
    if workload == "expand_sweep":
        return [_cli("chebyshev", {"nu": 1.0, "z": 3.0, "x": 0.0}),
                _cli("fourier-int", {"p": 2, "z": 3.0, "x": 0.0})]
    return [_cheb(rng, 2.0, 4.0)]
