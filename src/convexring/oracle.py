"""The exact radial minimal graph, the solver's reference solution.

The oracle is the radial minimal graph on a flat concentric ring: the first
integral r^(n-1) u' / sqrt(1 + u'^2) = -c reduces the equation to the height
integral of c / sqrt(r^(2(n-1)) - c^2) dr, whose primitive is c arccosh(r / c)
for n = 2 and, for n = 3, sqrt(c/2) times the incomplete elliptic integral
F(arccos(sqrt(c) / r) | 1/2) (DLMF 19.2).  It needs no solver: the CLI
``oracle`` command imports neither ``solve`` nor ``scipy.sparse``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ellipkinc

from .field import ScalarField, sample_field
from .ring import AnnularGrid
from .spaceform import PointJet, SpaceFormChart, _real, _whole


class OracleInfeasibleError(ValueError):
    """The requested boundary height exceeds what a radial graph can span."""

    def __init__(self, message: str, max_height: float):
        super().__init__(message)
        self.max_height = max_height


# -- radial oracle -------------------------------------------------------------


def radial_height(c: float, r_inner, r_outer, n: int = 2):
    """Boundary height of the radial graph with flux constant c, elementwise for
    array radii: the integral over [r_inner, r_outer] in closed form, clamped at
    the turning radius r^(n-1) = c, where the primitive vanishes."""
    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    r_inner, r_outer = np.asarray(r_inner, dtype=float), np.asarray(r_outer, dtype=float)
    if c == 0.0:
        return np.zeros(np.broadcast_shapes(r_inner.shape, r_outer.shape))[()]
    if n == 2:
        return c * (np.arccosh(np.maximum(r_outer / c, 1.0))
                    - np.arccosh(np.maximum(r_inner / c, 1.0)))
    a = np.sqrt(c)
    return np.sqrt(c / 2.0) * (ellipkinc(np.arccos(np.minimum(a / r_outer, 1.0)), 0.5)
                               - ellipkinc(np.arccos(np.minimum(a / r_inner, 1.0)), 0.5))


@dataclass(frozen=True)
class RadialOracle:
    """Exact radial minimal graph on the flat ring r_inner <= |x| <= r_outer.

    u decreases outward: u(r_outer) = 0, u(r_inner) = tau, and
    u'(r) = -c / sqrt(r^(2(n-1)) - c^2) with 0 < c < r_inner^(n-1).
    """

    r_inner: float
    r_outer: float
    tau: float
    n: int
    c: float
    chart: SpaceFormChart

    def u(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        outside = ~((self.r_inner * (1 - 1e-9) <= r) & (r <= self.r_outer * (1 + 1e-9)))
        if np.any(outside):
            raise ValueError(f"radius {r[outside].flat[0]} outside the ring")
        return radial_height(self.c, np.clip(r, self.r_inner, self.r_outer),
                             self.r_outer, self.n)

    def du(self, r):
        r = np.asarray(r, dtype=float)
        return -self.c / np.sqrt(r ** (2 * (self.n - 1)) - self.c**2)

    def d2u(self, r):
        r = np.asarray(r, dtype=float)
        m = self.n - 1
        return self.c * m * r ** (2 * m - 1) * (r ** (2 * m) - self.c**2) ** -1.5

    def jet(self, point) -> PointJet:
        """The exact jet at points of shape (..., n), stacked over leading axes."""
        point = np.asarray(point, dtype=float)
        if point.shape[-1:] != (self.n,):
            raise ValueError(f"expected points in R^{self.n}, got shape {point.shape}")
        r = np.sqrt(point[..., None, :] @ point[..., :, None])  # as np.linalg.norm per point
        d1, d2 = self.du(r), self.d2u(r)
        unit = point / r[..., 0]
        radial = unit[..., :, None] * unit[..., None, :]
        hess = d2 * radial + d1 * (np.eye(self.n) - radial) / r
        return PointJet(point=point, value=self.u(r[..., 0, 0])[()],
                        grad=d1[..., 0] * unit, hess=hess)

    def field(self, grid: AnnularGrid) -> ScalarField:
        return sample_field(grid, lambda p: self.u(np.linalg.norm(p, axis=-1)),
                            boundary_values=(0.0, self.tau))


def radial_oracle(r_inner: float, r_outer: float, tau: float, n: int = 2) -> RadialOracle:
    """Solve the flux constant for the radial graph of height tau.

    Bisection on the increasing map c -> height(c); the returned oracle
    reproduces the boundary data to 1e-12."""
    r_inner, r_outer, tau = _real(r_inner, "r_inner"), _real(r_outer, "r_outer"), _real(tau, "tau")
    n = _whole(n, "n")
    if n not in (2, 3):  # before r_inner ** (n - 1) overflows on a huge n
        raise ValueError(f"n must be 2 or 3, got {n}")
    if not 0.0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    if not tau > 0.0:
        raise ValueError("tau must be positive")

    c_sup = r_inner ** (n - 1)
    max_height = radial_height(c_sup, r_inner, r_outer, n)
    if tau >= max_height:
        raise OracleInfeasibleError(
            f"tau {tau} is not reachable; the maximal radial graph height "
            f"on this ring is {max_height:.12g}", max_height)

    lo, hi = 0.0, c_sup
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        h = radial_height(mid, r_inner, r_outer, n)
        if abs(h - tau) <= 1e-13:
            lo = hi = mid
            break
        if h < tau:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    achieved = radial_height(c, r_inner, r_outer, n)
    if abs(achieved - tau) > 1e-12:
        raise OracleInfeasibleError(
            f"flux bisection stalled at height {achieved} for target {tau}",
            max_height)
    return RadialOracle(r_inner=r_inner, r_outer=r_outer, tau=tau, n=n, c=c,
                        chart=SpaceFormChart(epsilon=0.0, dim=n))
