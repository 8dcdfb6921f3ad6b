"""Scalar fields on an annular grid: covariant jets and snapshots.

Fields store a read-only copy of their nodal values plus the Dirichlet pair
(outer_value, inner_value), and take each row's least and greatest value
once, on construction: the finiteness check reads them (a NaN or an infinity
always reaches a row's extremes), and so does the band search of
:func:`convexring.levelgeom.extract_level` at every level.

Finite-difference jets are second order: centered stencils at interior
nodes, one-sided stencils on the two boundary rows.  The periodic theta
neighbours are views of one window of the values wrapped by a column on
each side.  The chain rule runs through the analytic
blend map x(s, theta) as elementwise 2x2 arithmetic on (ns, ntheta)
component arrays:
Du = J^{-T} (u_s, u_t) and D^2u = J^{-T} (H - C) J^{-1}, with H the
computational Hessian and C the map's curvature term (C_st = x_st . Du,
C_tt = x_tt . Du, C_ss = 0).  J^{-1}, x_st and x_tt at the nodes depend on
the grid's blend map alone; the grid builds them on its first jet table and
keeps them, and keeps nothing of the chart.  The Christoffel correction and
frame rescaling are the kernel behind
:func:`convexring.spaceform.frame_components`; a curved table takes lambda
and grad log lambda of each block's nodes as it converts that block.  On a
flat chart (epsilon = 0) lambda is 1 and grad log lambda is 0, so that
conversion is the identity and the table skips it, never computing either:
every entry is equal to the converted one.

A jet table keeps its components in one (6, ns, ntheta) array: rows 0-1 are
the gradient (2, ns, ntheta) and rows 2-5 the Hessian, reshaped to (2, 2,
ns, ntheta) as a view.  Every block is written into them in place, with no
stacked copy.  One allocation holds the whole table: a pass that builds a
fresh table each time then does not page-fault on each build, as it can when
the allocator maps two arrays afresh.  The table's "grad" (ns, ntheta, 2)
and "hess" (ns, ntheta, 2, 2) are ``np.moveaxis`` views of them, so a reader
that flattens the node axes still gets a view, and one that moves the
component axes back to the front and flattens the rest (as level extraction
does, to gather by flat node index) gets a view of the block.

A jet table is filled in blocks of whole rows, about ``ring._BLOCK`` samples
each; :func:`convexring.levelgeom.rank_scan` runs its samples in blocks of the
same constant, and the grid builds its nodes and its node geometry in such
blocks of rows.  The constant has that one home and is read at call time.
Only a block whose window of values reaches row 0 or ns-1 runs the one-sided
stencils.  A block's temporaries stay in cache and none is the size of the
grid, so the peak memory of a table is its output plus a few blocks, however
many temporaries the arithmetic needs.  Every sample's arithmetic is the same in
any block, so the values do not depend on the block size.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable

import numpy as np

from . import ring
from .ring import AnnularGrid, build_grid, ring_from_dict
from .spaceform import _log_lambda_derivatives, _real, _to_frame, _whole

SNAPSHOT_FORMAT = "convexring-field"


class FieldShapeError(ValueError):
    """Values array does not match the grid or the declared boundary data."""


@dataclass
class ScalarField:
    """Nodal scalar data over an :class:`AnnularGrid`.

    values[i, j] lives at grid node (s_i, theta_j).  When the Dirichlet pair
    ``boundary_values = (outer_value, inner_value)`` is declared, row i = 0
    must equal outer_value exactly and row i = ns-1 inner_value exactly.
    Synthetic fields without Dirichlet structure may pass ``None``.  The field
    keeps a read-only copy of the values, so a caller that later writes its
    array changes neither the field, its Dirichlet rows nor its cached jets.
    It also keeps the least and the greatest value of each row, read-only.
    """

    grid: AnnularGrid
    values: np.ndarray
    boundary_values: tuple[float, float] | None = None
    _jets: dict | None = dc_field(default=None, init=False, repr=False, compare=False)
    _row_extremes: tuple | None = dc_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.ns, self.grid.ntheta):
            raise FieldShapeError(
                f"values shape {v.shape} != grid shape {(self.grid.ns, self.grid.ntheta)}"
            )
        # a NaN reaches both extremes of its row, an infinity one of them
        lo, hi = v.min(axis=1), v.max(axis=1)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise FieldShapeError("values must be finite")
        if self.boundary_values is not None:
            outer, inner = self.boundary_values
            if not (np.all(v[0] == outer) and np.all(v[-1] == inner)):
                raise FieldShapeError(
                    "boundary rows must equal the declared Dirichlet values"
                )
            self.boundary_values = (float(outer), float(inner))
        for a in (v, lo, hi):
            a.setflags(write=False)
        self.values, self._row_extremes = v, (lo, hi)

    # cached full-grid jet table
    def jet_table(self) -> dict:
        if self._jets is None:
            self._jets = _build_jet_table(self.grid, self.values)
        return self._jets


def _grad_norms(f: ScalarField, rows=slice(None)) -> np.ndarray:
    """|grad u| at the nodes of the given grid rows (0 is the outer boundary)."""
    return np.linalg.norm(f.jet_table()["grad"][rows], axis=-1)


def _comp_derivatives(values: np.ndarray, hs: float, ht: float,
                      first: bool = True, last: bool = True):
    """Computational-space derivatives: centered inside, periodic wrap in
    theta.  ``first`` and ``last`` say whether the first and last rows of
    ``values`` are the grid's boundary rows, which take one-sided second
    order s-stencils; otherwise that row is only a halo for the centered
    stencils of its neighbour, and its s-derivatives are left unset."""
    u = values
    # the theta neighbours are views of one window wrapped by a column each side
    window = np.concatenate((u[:, -1:], u, u[:, :1]), axis=1)
    u_next, u_prev = window[:, 2:], window[:, :-2]
    u_t = (u_next - u_prev) / (2 * ht)
    u_tt = (u_next - 2 * u + u_prev) / ht**2

    def d_s(a: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        out[1:-1] = (a[2:] - a[:-2]) / (2 * hs)
        if first:
            out[0] = (-3 * a[0] + 4 * a[1] - a[2]) / (2 * hs)
        if last:
            out[-1] = (3 * a[-1] - 4 * a[-2] + a[-3]) / (2 * hs)
        return out

    u_s = d_s(u)
    u_st = d_s(u_t)
    u_ss = np.empty_like(u)
    u_ss[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / hs**2
    if first:
        u_ss[0] = (2 * u[0] - 5 * u[1] + 4 * u[2] - u[3]) / hs**2
    if last:
        u_ss[-1] = (2 * u[-1] - 5 * u[-2] + 4 * u[-3] - u[-4]) / hs**2
    return u_s, u_t, u_ss, u_st, u_tt


def _coordinate_derivatives(geo, rows: slice, comp, du, d2u) -> None:
    """Du and D^2u in chart coordinates from the computational-space
    derivatives ``comp`` of the grid rows ``rows`` and the node geometry
    ``geo`` of the whole grid, written into the component arrays ``du[a]``
    and ``d2u[a][b]``, a <= b: the entry below the diagonal is the
    caller's."""
    u_s, u_t, u_ss, u_st, u_tt = comp
    (j00, j01), (j10, j11) = ([a[rows] for a in row] for row in geo.jinv)
    # Du = J^{-T} (u_s, u_t); the rows of J^{-1} are ds/dx and dtheta/dx
    np.add(u_s * j00, u_t * j10, out=du[0])
    np.add(u_s * j01, u_t * j11, out=du[1])
    # subtract the map's curvature term (x_ss = 0; x_st depends on theta alone) ...
    (st0, st1), (tt0, tt1) = geo.x_st, (a[rows] for a in geo.x_tt)
    h_st = u_st - (st0 * du[0] + st1 * du[1])
    h_tt = u_tt - (tt0 * du[0] + tt1 * du[1])
    # ... then pull back two-sided: m = H J^{-1}, D^2u = J^{-T} m
    m00, m01 = u_ss * j00 + h_st * j10, u_ss * j01 + h_st * j11
    m10, m11 = h_st * j00 + h_tt * j10, h_st * j01 + h_tt * j11
    np.add(j00 * m00, j10 * m10, out=d2u[0][0])
    np.add(j00 * m01, j10 * m11, out=d2u[0][1])
    np.add(j01 * m01, j11 * m11, out=d2u[1][1])


def _build_jet_table(grid: AnnularGrid, values: np.ndarray) -> dict:
    """The jet table of ``values``, evaluated in blocks of max(1, ring._BLOCK
    // ntheta) rows straight into one (6, ns, ntheta) array: rows 0-1 are the
    gradient's components and rows 2-5 the Hessian's, (2, 2, ns, ntheta) as a
    view.  The table's "grad" (ns, ntheta, 2) and "hess" (ns, ntheta, 2, 2)
    are views of them.  Every block's temporaries stay near ring._BLOCK
    samples, so they stay in cache and none is the size of the grid; each
    sample's arithmetic is the same in any block, so the table does not
    depend on the block size.  A curved chart takes lambda and grad log
    lambda of each block's nodes for its frame conversion; on a flat chart
    lambda is 1 and grad log lambda 0, the conversion changes no value, and
    it is skipped."""
    ns, ntheta = values.shape
    geo = grid._node_geometry
    chart = grid.ring.chart
    jets = np.empty((6, ns, ntheta))
    grad, hess = jets[:2], jets[2:].reshape(2, 2, ns, ntheta)
    step = max(1, ring._BLOCK // ntheta)
    for r0 in range(0, ns, step):
        r1 = min(ns, r0 + step)
        # the window of values the stencils read: a halo row on each side
        # and 4 rows at least, for the one-sided stencils on its end rows
        w0 = max(0, min(r0 - 1, ns - 4))
        w1 = min(ns, max(r1 + 1, w0 + 4))
        comp = _comp_derivatives(values[w0:w1], grid.hs, grid.htheta, w0 == 0, w1 == ns)
        rows = slice(r0, r1)
        du, d2u = grad[:, rows], hess[:, :, rows]
        _coordinate_derivatives(geo, rows, [d[r0 - w0:r1 - w0] for d in comp], du, d2u)
        if chart.epsilon == 0.0:
            d2u[1, 0] = d2u[0, 1]
        else:
            # converted in place; the entry below the diagonal is a copy
            lam, dlog = _log_lambda_derivatives(chart, grid.nodes[rows])
            d_xy = d2u[0, 1]
            symmetric = ((d2u[0, 0], d_xy), (d_xy, d2u[1, 1]))
            _to_frame(lam, [dlog[..., 0], dlog[..., 1]], du, symmetric, du, d2u)
    return {"value": values, "grad": np.moveaxis(grad, 0, -1),
            "hess": np.moveaxis(hess, (0, 1), (-2, -1))}


def _check_same_grid(fields) -> None:
    """FieldShapeError unless the fields share a grid: the same size on the
    same ring, chart and curves included.  Equal nodes are not enough, since
    the jets of two charts are in different frames."""
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid is not grid and not (
            f.grid.ns == grid.ns
            and f.grid.ntheta == grid.ntheta
            and f.grid.ring == grid.ring
        ):
            raise FieldShapeError("fields must live on the same grid")


def discrete_c2_distance(f: ScalarField, g: ScalarField) -> float:
    """max over interior nodes of |dvalue| + |dgrad|_sup + |dhess|_sup, on
    fields that share a grid (see _check_same_grid)."""
    _check_same_grid((f, g))
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
    They agree when every sampled boundary value lies within 1e-6 times the
    data's scale of its constant: the larger of |outer| and |inner|, or the
    largest sampled magnitude when both are 0.  Without ``boundary_values``
    the field carries no Dirichlet declaration.
    """
    values = np.asarray(fn(grid.nodes), dtype=float)
    if values.shape != (grid.ns, grid.ntheta):
        raise FieldShapeError("sampler must return one value per node")
    if boundary_values is not None:
        outer, inner = boundary_values
        tol = 1e-6 * (max(abs(outer), abs(inner)) or float(np.max(np.abs(values))))
        if not (np.allclose(values[0], outer, rtol=0, atol=tol)
                and np.allclose(values[-1], inner, rtol=0, atol=tol)):
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
    """The field of a snapshot.  A version other than the integer 1, values of
    another shape than the declared grid, and boundary values that are
    neither null nor a pair of finite numbers, are a FieldShapeError, raised
    before the grid is built."""
    fmt = d.get("format") if isinstance(d, dict) else None
    if fmt != SNAPSHOT_FORMAT:
        raise FieldShapeError(f"not a field snapshot: format={fmt!r}")
    version = d.get("version")
    if type(version) is not int or version != 1:  # neither true nor 1.0 is 1
        named = f"version {version!r}" if "version" in d else "no version"
        raise FieldShapeError(f"snapshot has {named}; this reader takes version 1")
    shape = _whole(d["grid"]["ns"], "ns"), _whole(d["grid"]["ntheta"], "ntheta")
    values = np.asarray(d["values"], dtype=float)
    if values.shape != shape:
        raise FieldShapeError(f"values shape {values.shape} != grid shape {shape}")
    bv = d.get("boundary_values")
    if bv is not None:
        if not (isinstance(bv, (list, tuple)) and len(bv) == 2):
            raise FieldShapeError(f"boundary_values must be null or a pair, got {bv!r}")
        try:
            bv = tuple(_real(v, "boundary_values entry") for v in bv)
        except ValueError as exc:
            raise FieldShapeError(str(exc)) from None
    return ScalarField(grid=build_grid(ring_from_dict(d["ring"]), *shape), values=values,
                       boundary_values=bv)


def load_field(path: str) -> ScalarField:
    with open(path) as fh:
        return field_from_dict(json.load(fh))
