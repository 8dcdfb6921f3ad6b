"""Tour of the conformal chart: metric factor, curvature, covariant jets.

The chart covers a space form of curvature eps with the metric
lambda(x)^2 * delta, lambda = 1 / (1 + (eps/4)|x|^2).  Everything downstream
(grids, solvers, level geometry) consumes this one object.
"""

import numpy as np

from convexring import (
    SpaceFormChart,
    conformal_factor,
    covariant_jet,
    fd_scalar_sampler,
    sectional_curvature_probe,
)


def show_chart(eps: float) -> None:
    chart = SpaceFormChart(epsilon=eps, dim=2)
    print(f"\nepsilon = {eps}")
    for radius in (0.0, 0.5, 1.0, 1.5):
        x = np.array([radius, 0.0])
        lam = conformal_factor(chart, x)
        probe = sectional_curvature_probe(chart, x)
        print(f"  |x| = {radius:3.1f}   lambda = {lam:8.5f}   "
              f"curvature probe = {probe:8.5f}")


def show_covariant_hessian() -> None:
    # the covariant Hessian of |x|^2/2 picks up Christoffel corrections; the
    # sampler takes a stack of points, so one call evaluates all of them
    chart = SpaceFormChart(epsilon=1.0, dim=2)
    sampler = fd_scalar_sampler(lambda x: 0.5 * np.sum(x * x, axis=-1))
    points = np.array([[0.6, 0.2], [0.0, 0.0], [-0.3, 0.9]])
    jet = covariant_jet(chart, sampler, points)
    print("\ncovariant jets of |x|^2 / 2, eps = 1 (one stacked call):")
    for x, grad, hess in zip(jet.point, jet.grad, jet.hess):
        print(f"  at {x}: grad = {np.round(grad, 6)}, "
              f"hess = {np.round(hess, 6).tolist()}")


if __name__ == "__main__":
    print("conformal charts at three curvatures; the probe recovers eps")
    for eps in (0.0, 0.5, 1.0):
        show_chart(eps)
    show_covariant_hessian()
