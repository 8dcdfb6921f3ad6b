"""Scalar fields on an annular grid: covariant jets, interpolation, snapshots.

Fields store nodal values plus the Dirichlet pair (outer_value, inner_value).
Finite-difference jets are second order: centered stencils at interior nodes,
one-sided stencils on the two boundary rows (flagged in the returned jet).
The chain rule runs through the analytic blend map x(s, theta) as stacked 2x2
algebra: Du = J^{-T} (u_s, u_t) and D^2u = J^{-T} (H - C) J^{-1}, with H the
computational Hessian and C the map's curvature term (C_st = x_st . Du,
C_tt = x_tt . Du, C_ss = 0).  The Christoffel correction and frame rescaling
follow in :func:`convexring.spaceform.frame_components`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable

import numpy as np

from .ring import AnnularGrid, build_grid, ring_from_dict
from .spaceform import PointJet, frame_components

SNAPSHOT_FORMAT = "convexring-field"
INVERT_TOL = 1e-12    # invert_blend_map residual, relative to max(1, |point - inner centre|)
INVERT_MAX_ITER = 20  # invert_blend_map Newton steps per starting point


class FieldShapeError(ValueError):
    """Values array does not match the grid or the declared boundary data."""


class DomainError(ValueError):
    """A query point lies outside the ring."""


class InversionError(RuntimeError):
    """Newton inversion of the blend map failed to converge."""


@dataclass
class ScalarField:
    """Nodal scalar data over an :class:`AnnularGrid`.

    values[i, j] lives at grid node (s_i, theta_j).  When the Dirichlet pair
    ``boundary_values = (outer_value, inner_value)`` is declared, row i = 0
    must equal outer_value exactly and row i = ns-1 inner_value exactly.
    Synthetic fields without Dirichlet structure may pass ``None``.
    """

    grid: AnnularGrid
    values: np.ndarray
    boundary_values: tuple[float, float] | None = None
    _jets: dict | None = dc_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.ns, self.grid.ntheta):
            raise FieldShapeError(
                f"values shape {v.shape} != grid shape {(self.grid.ns, self.grid.ntheta)}"
            )
        if not np.all(np.isfinite(v)):
            raise FieldShapeError("values must be finite")
        if self.boundary_values is not None:
            outer, inner = self.boundary_values
            if not (np.all(v[0] == outer) and np.all(v[-1] == inner)):
                raise FieldShapeError(
                    "boundary rows must equal the declared Dirichlet values"
                )
            self.boundary_values = (float(outer), float(inner))
        self.values = v

    # cached full-grid jet table
    def jet_table(self) -> dict:
        if self._jets is None:
            self._jets = _build_jet_table(self.grid, self.values)
        return self._jets


def _comp_derivatives(values: np.ndarray, hs: float, ht: float):
    """Computational-space derivatives: centered inside, one-sided second
    order on the first and last s rows, periodic wrap in theta."""
    u = values
    u_t = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2 * ht)
    u_tt = (np.roll(u, -1, axis=1) - 2 * u + np.roll(u, 1, axis=1)) / ht**2

    def d_s(a: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        out[1:-1] = (a[2:] - a[:-2]) / (2 * hs)
        out[0] = (-3 * a[0] + 4 * a[1] - a[2]) / (2 * hs)
        out[-1] = (3 * a[-1] - 4 * a[-2] + a[-3]) / (2 * hs)
        return out

    u_s = d_s(u)
    u_st = d_s(u_t)
    u_ss = np.empty_like(u)
    u_ss[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / hs**2
    u_ss[0] = (2 * u[0] - 5 * u[1] + 4 * u[2] - u[3]) / hs**2
    u_ss[-1] = (2 * u[-1] - 5 * u[-2] + 4 * u[-3] - u[-4]) / hs**2
    return u_s, u_t, u_ss, u_st, u_tt


def _build_jet_table(grid: AnnularGrid, values: np.ndarray) -> dict:
    s = grid.s[:, None]
    jinv, _ = grid.map_jacobian_inverse(s, grid.theta)
    _, x_st, x_tt = grid.map_second(s, grid.theta)
    u_s, u_t, u_ss, u_st, u_tt = _comp_derivatives(values, grid.hs, grid.htheta)

    # Du = J^{-T} (u_s, u_t); the rows of J^{-1} are ds/dx and dtheta/dx
    coord_grad = u_s[..., None] * jinv[..., 0, :] + u_t[..., None] * jinv[..., 1, :]
    # subtract the map's curvature term (x_ss = 0), then pull back two-sided
    u_st = u_st - np.sum(x_st * coord_grad, axis=-1)
    u_tt = u_tt - np.sum(x_tt * coord_grad, axis=-1)
    comp_hess = np.stack([u_ss, u_st, u_st, u_tt], axis=-1).reshape(values.shape + (2, 2))
    coord_hess = np.swapaxes(jinv, -1, -2) @ comp_hess @ jinv

    grad, hess = frame_components(grid.ring.chart, grid.nodes, coord_grad, coord_hess)
    return {"value": values, "grad": grad, "hess": hess}


def fd_jet(f: ScalarField, index: tuple[int, int]) -> PointJet:
    """Covariant jet at grid node ``index`` = (i, j), frame components.

    Boundary rows use one-sided stencils and are flagged ``one_sided``."""
    i, j = index
    table = f.jet_table()
    return PointJet(
        point=f.grid.nodes[i, j],
        value=float(table["value"][i, j]),
        grad=table["grad"][i, j].copy(),
        hess=table["hess"][i, j].copy(),
        one_sided=(i == 0 or i == f.grid.ns - 1),
    )


def invert_blend_map(grid: AnnularGrid, point) -> tuple[float, float]:
    """Newton-invert x(s, theta) = point; returns (s, theta) with theta in
    [0, 2pi).  Raises InversionError on non-convergence and DomainError when
    the preimage lies outside the ring (s outside [0, 1])."""
    x = np.asarray(point, dtype=float)
    center = np.asarray(grid.ring.inner.center)
    scale = max(1.0, float(np.linalg.norm(x - center)))

    def newton(s0: float, t0: float):
        s, t = s0, t0
        for _ in range(INVERT_MAX_ITER + 1):  # the extra pass tests the last step
            r = grid.map_point(s, t) - x
            if np.linalg.norm(r) <= INVERT_TOL * scale:
                return s, t
            jac = grid.map_jacobian(s, t)
            try:
                ds, dt = np.linalg.solve(jac, -r)
            except np.linalg.LinAlgError:
                return None
            s, t = s + ds, t + dt
        return None

    t0 = float(np.arctan2(x[1] - center[1], x[0] - center[0])) % (2 * np.pi)
    hit = newton(0.5, t0)
    if hit is None:
        # fall back to the nearest node as the starting point
        d2 = np.sum((grid.nodes - x) ** 2, axis=-1)
        i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
        hit = newton(float(grid.s[i]), float(grid.theta[j]))
    if hit is None:
        raise InversionError(f"blend-map inversion failed for point {x.tolist()}")
    s, t = hit
    if s < -1e-9 or s > 1.0 + 1e-9:
        raise DomainError(f"point {x.tolist()} lies outside the ring (s = {s:.6g})")
    return min(max(s, 0.0), 1.0), t % (2 * np.pi)


def interpolate(f: ScalarField, point) -> float:
    """Bilinear interpolation in computational coordinates."""
    s, t = invert_blend_map(f.grid, point)
    grid = f.grid
    i = min(int(s / grid.hs), grid.ns - 2)
    a = s / grid.hs - i
    # one quotient for both the cell and the weight: floor division can sit
    # one cell below int(t / htheta) when t is an ulp below a node angle
    x = t / grid.htheta
    j = int(x)
    b = x - j
    j %= grid.ntheta
    jp = (j + 1) % grid.ntheta
    v = f.values
    return float(
        (1 - a) * (1 - b) * v[i, j] + (1 - a) * b * v[i, jp]
        + a * (1 - b) * v[i + 1, j] + a * b * v[i + 1, jp]
    )


def discrete_c2_distance(f: ScalarField, g: ScalarField) -> float:
    """max over interior nodes of |dvalue| + |dgrad|_sup + |dhess|_sup."""
    if f.grid is not g.grid and not (
        f.grid.ns == g.grid.ns
        and f.grid.ntheta == g.grid.ntheta
        and np.array_equal(f.grid.nodes, g.grid.nodes)
    ):
        raise FieldShapeError("fields must live on the same grid")
    tf, tg = f.jet_table(), g.jet_table()
    sl = slice(1, -1)
    dv = np.abs(tf["value"][sl] - tg["value"][sl])
    dgrad = np.max(np.abs(tf["grad"][sl] - tg["grad"][sl]), axis=-1)
    dhess = np.max(np.abs(tf["hess"][sl] - tg["hess"][sl]), axis=(-2, -1))
    return float(np.max(dv + dgrad + dhess))


def sample_field(grid: AnnularGrid, fn: Callable[[np.ndarray], np.ndarray],
                 boundary_values: tuple[float, float] | None = None) -> ScalarField:
    """Sample an analytic function on the grid nodes.

    When ``boundary_values`` is given the two Dirichlet rows are overwritten
    with those exact constants (the sampled rows must already agree to
    rounding; this just pins the bit pattern the field contract requires).
    Without it the field carries no Dirichlet declaration.
    """
    values = np.asarray(fn(grid.nodes), dtype=float)
    if values.shape != (grid.ns, grid.ntheta):
        raise FieldShapeError("sampler must return one value per node")
    if boundary_values is not None:
        outer, inner = boundary_values
        if not (np.allclose(values[0], outer, rtol=0, atol=1e-6 * max(1, abs(outer)))
                and np.allclose(values[-1], inner, rtol=0, atol=1e-6 * max(1, abs(inner)))):
            raise FieldShapeError(
                "sampled boundary rows disagree with the requested Dirichlet values"
            )
        values = values.copy()
        values[0] = outer
        values[-1] = inner
    return ScalarField(grid=grid, values=values, boundary_values=boundary_values)


# -- snapshot I/O -----------------------------------------------------------

def _atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def field_to_dict(f: ScalarField) -> dict[str, Any]:
    bv = None if f.boundary_values is None else list(f.boundary_values)
    return {
        "format": SNAPSHOT_FORMAT,
        "version": 1,
        "ring": f.grid.ring.to_dict(),
        "grid": {"ns": f.grid.ns, "ntheta": f.grid.ntheta},
        "boundary_values": bv,
        "values": f.values.tolist(),
    }


def save_field(f: ScalarField, path: str) -> None:
    """Write a self-describing JSON snapshot (atomic; bit-exact round trip)."""
    _atomic_write_text(path, json.dumps(field_to_dict(f), indent=1))


def field_from_dict(d: dict[str, Any]) -> ScalarField:
    fmt = d.get("format") if isinstance(d, dict) else None
    if fmt != SNAPSHOT_FORMAT:
        raise FieldShapeError(f"not a field snapshot: format={fmt!r}")
    ring = ring_from_dict(d["ring"])
    grid = build_grid(ring, d["grid"]["ns"], d["grid"]["ntheta"])
    values = np.asarray(d["values"], dtype=float)
    bv = d.get("boundary_values")
    if bv is not None:
        bv = (bv[0], bv[1])
    return ScalarField(grid=grid, values=values, boundary_values=bv)


def load_field(path: str) -> ScalarField:
    with open(path) as fh:
        return field_from_dict(json.load(fh))
