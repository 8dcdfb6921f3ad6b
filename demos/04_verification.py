"""Run the verification suite on the default ring and print the scoreboard.

Each check certifies one qualitative property of the solved minimal graph
(oracle agreement, gradient bounds, supersolution domination, tau scaling,
convexity and rank, monotonicity, boundary gradient growth).  A check passes
when its margin is nonnegative; tolerances already include the 10 h^2 slack
that discretization is entitled to.  On the grid passed in, the checks share
one harmonic solve (scaled to each height) and one continuation walk over
every height they read, the suite's tau among them; each time includes the
solves its check triggered, so the first check on the walk carries it.  A check that raises, or that needs a height above where the walk
stopped, is listed as ERROR with its message.
"""

from convexring import SpaceFormChart, build_grid, make_curve, make_ring, run_suite

# 33 x 64 on the flat ring between the circles of radius 1 and 2
ring = make_ring(SpaceFormChart(epsilon=0.0, dim=2),
                 make_curve("circle", radius=2.0),
                 make_curve("circle", radius=1.0))
reports = run_suite(build_grid(ring, 33, 64), oracle_grid_sizes=(33, 65, 129))

width = max(len(r.name) for r in reports)
print(f"{'check':<{width}}  {'result':<6}  {'margin':>12}  {'tolerance':>10}  time")
for r in reports:
    status = "ERROR" if r.error else "pass" if r.passed else "FAIL"
    print(f"{r.name:<{width}}  {status:<6}  {r.margin:>12.6f}  "
          f"{r.tolerance:>10.4g}  {r.runtime_s:5.2f}s")

print()
if all(r.passed for r in reports):
    print("all checks passed")
else:
    for r in reports:
        if not r.passed:
            print(f"FAILED: {r.name}: {r.error or r.claim}")
            print(f"  extras: {r.extras}")
