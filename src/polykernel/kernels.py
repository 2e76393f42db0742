"""Polyharmonic fundamental solution and its rotationally-invariant forms.

The geometry convention follows the rotationally-invariant frame: the
azimuthal plane is spanned by the first two Cartesian coordinates, so
R = sqrt(x1^2 + x2^2) and the toroidal parameter is
chi = (R^2 + R'^2 + sum_{i>=3} (x_i - x_i')^2) / (2 R R').
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    AxisError,
    CoincidentPointsError,
    DomainError,
    OddDimensionError,
    SingularConfigurationError,
    require_finite,
)

_CHI_GUARD = 1e-12


@dataclass(frozen=True)
class KernelGeometry:
    """Two points in R^d with the derived rotation-invariant quantities."""

    x: np.ndarray
    xp: np.ndarray
    r: float = field(init=False)
    rp: float = field(init=False)
    cos_gamma: float = field(init=False)
    R: float = field(init=False)
    Rp: float = field(init=False)
    phi: float = field(init=False)
    phip: float = field(init=False)
    chi: float = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        xp = np.asarray(self.xp, dtype=float)
        if x.shape != xp.shape or x.ndim != 1 or x.size < 2:
            raise ValueError("points must be equal-length vectors in R^d, d >= 2")
        require_finite(x=x.tolist(), xp=xp.tolist())
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xp", xp)
        # a square past double range reads inf here, and cos_gamma NaN; the
        # expansions name it
        with np.errstate(over="ignore", invalid="ignore"):
            r = float(np.linalg.norm(x))
            rp = float(np.linalg.norm(xp))
            cg = float(np.dot(x, xp) / (r * rp)) if r > 0.0 and rp > 0.0 else 1.0
            axial = float(np.sum((x[2:] - xp[2:]) ** 2))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "rp", rp)
        object.__setattr__(self, "cos_gamma", cg if math.isnan(cg) else min(1.0, max(-1.0, cg)))
        R = math.hypot(x[0], x[1])
        Rp = math.hypot(xp[0], xp[1])
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "Rp", Rp)
        object.__setattr__(self, "phi", math.atan2(x[1], x[0]))
        object.__setattr__(self, "phip", math.atan2(xp[1], xp[0]))
        chi = None
        if R > 0.0 and Rp > 0.0:
            # only a 2RR' of 0 is refused; chi is named where it leaves range
            if not 2.0 * R * Rp > 0.0:
                raise DomainError(f"R = {R}, Rp = {Rp}: the radial factors leave double range")
            chi = (R * R + Rp * Rp + axial) / (2.0 * R * Rp)
        object.__setattr__(self, "chi", chi)

    @property
    def delta_phi(self) -> float:
        return self.phi - self.phip

    @property
    def distance(self) -> float:
        return float(np.linalg.norm(self.x - self.xp))


@dataclass(frozen=True)
class PolyharmonicOrder:
    """Dimension d and iteration order k of (-Delta)^k, with branch data."""

    d: int
    k: int

    def __post_init__(self):
        if self.d < 2 or self.k < 1:
            raise ValueError("need dimension d >= 2 and order k >= 1")

    @property
    def logarithmic(self) -> bool:
        return self.d % 2 == 0 and self.k >= self.d // 2

    @property
    def p(self) -> int:
        if not self.logarithmic:
            raise ValueError("p = k - d/2 only exists on the logarithmic branch")
        return self.k - self.d // 2

    @property
    def q(self) -> int:
        if self.logarithmic:
            raise ValueError("q only exists on the power-law branch")
        return 2 * self.k - self.d


def harmonic_number(j: int) -> Fraction:
    """H_j as an exact rational."""
    return sum((Fraction(1, i) for i in range(1, j + 1)), Fraction(0))


def harmonic_beta(p: int, d: int) -> Fraction:
    """Logarithmic-branch constant beta_{p,d} = [H_p + H_{d/2+p-1} - H_{d/2-1}]/2."""
    if d % 2 != 0:
        raise OddDimensionError(f"beta_{{p,d}} needs even d, got d = {d}")
    if d < 2 or p < 0:
        raise ValueError("need even d >= 2 and p >= 0")
    h = d // 2
    return (harmonic_number(p) + harmonic_number(h + p - 1) - harmonic_number(h - 1)) / 2


def fundamental_solution(order: PolyharmonicOrder, g: KernelGeometry) -> float:
    """Fundamental solution of (-Delta)^k on R^d at the given point pair."""
    dist = g.distance
    if dist == 0.0:
        raise CoincidentPointsError("fundamental solution is singular at x = x'")
    d, k = order.d, order.k
    if order.logarithmic:
        p = order.p
        const = ((-1.0) ** (k + d // 2 + 1)
                 / (math.factorial(k - 1) * math.factorial(p)
                    * 2.0 ** (2 * k - 1) * math.pi ** (d / 2.0)))
        return const * dist ** (2 * k - d) * (math.log(dist) - float(harmonic_beta(p, d)))
    const = math.gamma(d / 2.0 - k) / (math.factorial(k - 1)
                                       * 2.0 ** (2 * k) * math.pi ** (d / 2.0))
    return const * dist ** (2 * k - d)


def toroidal_chi(g: KernelGeometry) -> float:
    """Toroidal parameter chi >= 1; equality iff the meridian points coincide."""
    if g.R == 0.0 or g.Rp == 0.0:
        raise AxisError("chi undefined when a point lies on the rotation axis")
    return g.chi


def kernel_h(q: int, g: KernelGeometry) -> float:
    """Rotation-invariant power-law form (2RR')^{-q} [chi - cos dphi]^{-q}.

    Equals ||x - x'||^{-2q}; with q = d/2 - k this is the even-dimensional
    power-law branch of the fundamental solution kernel.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    chi = toroidal_chi(g)
    if chi <= 1.0 + _CHI_GUARD:
        raise SingularConfigurationError(
            f"chi = {chi} within {_CHI_GUARD} of the singular value 1")
    base = 2.0 * g.R * g.Rp * (chi - math.cos(g.delta_phi))
    return base ** (-q)


def kernel_l(p: int, d: int, g: KernelGeometry) -> float:
    """Rotation-invariant logarithmic form of the even-d, k >= d/2 kernel.

    Equals ||x - x'||^{2p} (log ||x - x'|| - beta_{p,d}) with p = k - d/2.
    """
    if p < 0:
        raise ValueError("p must be a nonnegative integer")
    beta = float(harmonic_beta(p, d))
    chi = toroidal_chi(g)
    if chi <= 1.0 + _CHI_GUARD and math.cos(g.delta_phi) >= 1.0 - _CHI_GUARD:
        raise SingularConfigurationError("points coincide in the invariant frame")
    two_rrp = 2.0 * g.R * g.Rp
    ang = chi - math.cos(g.delta_phi)
    return (two_rrp ** p * (0.5 * math.log(two_rrp) - beta) * ang ** p
            + 0.5 * two_rrp ** p * ang ** p * math.log(ang))
