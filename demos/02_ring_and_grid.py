"""Build convex rings and the structured grids between their boundaries.

Shows the validation layer doing its job: a dented curve is rejected, a
badly placed inner boundary folds the blend map and is caught from det J on
the two boundary rows (det J is linear in s), and the error names the first
node at fault.
"""

import numpy as np

from convexring import (
    ConvexityError,
    GridFoldError,
    SpaceFormChart,
    boundary_convexity_report,
    build_grid,
    make_curve,
    make_ring,
)

chart = SpaceFormChart(epsilon=0.0, dim=2)

print("ellipse(2, 1.4) around circle(0.5):")
ring = make_ring(chart,
                 make_curve("ellipse", radii=(2.0, 1.4)),
                 make_curve("circle", radius=0.5))
report = boundary_convexity_report(ring)
print(f"  outer chart curvature in [{report['outer']['chart_kappa_min']:.4f}, "
      f"{report['outer']['chart_kappa_max']:.4f}]")
print(f"  containment margin {report['containment_margin']:.4f}")

grid = build_grid(ring, 17, 48)
print(f"  grid 17 x 48, steps hs {grid.hs:.4f}, htheta {grid.htheta:.4f}")
fine = grid.refine()
print(f"  refined to {fine.ns} x {fine.ntheta}, steps hs {fine.hs:.4f}, htheta {fine.htheta:.4f}")

print("\na wavy curve with a dent is rejected:")
try:
    make_curve("fourier", r0=1.0, cos_coeffs=(0.0, 0.0, 0.3))
except ConvexityError as exc:
    print(" ", exc)

print("\nan off-center sliver folds the blend map:")
try:
    folding = make_ring(chart,
                        make_curve("ellipse", radii=(2.6, 1.1)),
                        make_curve("ellipse", center=(1.3, 0.0), radii=(0.1, 0.85)))
    build_grid(folding, 17, 48)
except GridFoldError as exc:
    print(" ", exc)

print("\ngeodesic convexity tightens with curvature: circles near the")
print("chart edge stay convex for eps = 1 but the margin shrinks:")
curved = SpaceFormChart(epsilon=1.0, dim=2)
for radius in (0.4, 0.9, 1.4):
    curve = make_curve("circle", radius=radius)
    ring = make_ring(curved, curve, make_curve("circle", radius=0.15))
    kg = boundary_convexity_report(ring)["outer"]["geodesic_kappa_min"]
    print(f"  radius {radius:3.1f}: min geodesic curvature {kg:.4f}")
