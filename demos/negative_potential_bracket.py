"""Existence for every lambda when the singular term helps.

    -u'' - g(u) + |u'| = lambda f(u),  u > 0 on (0, 1),  u(0) = u(1) = 0,

with g(s) = s^(-1/2) and f(s) = s^(1/2).  The coefficient of g is
negative, so the singularity pushes the solution up instead of pinning
it to zero, and continuation in the regularization parameter eps
converges no matter how small or large lambda is.

The second half certifies one instance by bracketing: a convection-aware
sub-solution below, the library super-solution above, the ordering lemma
on the pair, and a monotone sweep that pinches the bracket onto the same
solution Newton found.
"""

import numpy as np

from selab import (
    boundary_distance,
    build_h_profile,
    build_subsolution_convection,
    build_supersolution,
    bundled_problem,
    check_ordering,
    default_shift,
    monotone_iterate,
    psi_from_spec,
    solve_with_continuation,
)

spec0 = bundled_problem("theorem1.cfg")
grid = spec0.grid
profile = build_h_profile(spec0.singular)
dist = boundary_distance(grid).values

print(f"grid: {grid.kind} n={grid.shape[0]}, K = {spec0.k_nodal().min():g}")
print()
print("lambda   verdict     max u      min u      residual   u/h(d) near wall")
for lam in (0.1, 1.0, 10.0):
    rep = solve_with_continuation(spec0.with_lambda(lam))
    u = rep.solution.values
    near = dist < 0.12
    ratio = u[near] / profile.h_at(dist[near])
    print(
        f"{lam:6g}   {rep.diagnostics['verdict']:<10}"
        f"  {u.max():.4e} {u.min():.4e} {rep.residual_inf:.2e}"
        f"   [{ratio.min():.2f}, {ratio.max():.2f}]"
    )
print()
print("the near-wall ratio staying in a fixed band is the discrete trace")
print("of the boundary layer u ~ h(dist): the solution lifts off the wall")
print("at the profile's rate, not linearly")
print()

# certify lambda = 1 by bracketing in the last regularized stage
lam = 1.0
rep = solve_with_continuation(spec0.with_lambda(lam))
stage = spec0.with_lambda(lam).with_eps(rep.eps_path[-1])
sub = build_subsolution_convection(stage)

# upper barrier: the library super-solution, the fixed point of
# A w = lambda f(w) + |K| g(eps).  g is nonincreasing, so |K| g(eps)
# bounds -K g(w + eps) from above and w is a super-solution of the stage.
upper = build_supersolution(stage).field

u = rep.solution.values
print(f"bracket at lambda = {lam:g} (eps = {stage.eps:.3e}):")
print(f"  sub certificate max residual {sub.metadata['residual_max']:.3e}"
      f" (nonpositive up to solver tolerance)")
print(f"  max(sub - u)  = {np.max(sub.field.values - u):+.3e}  (<= 0)")
print(f"  max(u - upper) = {np.max(u - upper.values):+.3e}  (<= 0)")

report = check_ordering(grid, psi_from_spec(stage), sub.field, upper)
print(f"  ordering lemma on (sub, upper): {report.verdict}")

mono = monotone_iterate(stage, sub.field, upper)
gap = float(np.max(np.abs(mono.solution.values - u)))
print(
    f"  monotone sweep: converged={mono.converged} "
    f"residual={mono.residual_inf:.2e} monotone={mono.diagnostics['monotone']}"
)
# the shift is per node: large only next to the wall, where sub is small
# and -K g' is steep, so the sweep count does not grow with the grid
shift = default_shift(stage, sub.field, upper)
print(f"  {mono.iterations} sweeps; per-node shift max {shift.max():.3e}, "
      f"median {np.median(shift):.3e}")
print(f"  pinch vs Newton continuation: max gap {gap:.2e}")
