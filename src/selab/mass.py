"""The singular mass integral I(eps) = int g(u + eps).

The divergence this integral detects lives inside the boundary cells,
where u drops from its first nodal value to 0.  A nodal sum saturates
once eps falls below u(first node) and would report a bounded mass for
any grid; the per-cell piecewise-linear reconstruction keeps the
eps-rate observable.  Its cell integrals are divided differences of the
primitive P of g (`SingularTerm.primitive`), exact for every g family.
The rectangle branch of `reference_mass` is selab's one use of
`scipy.integrate` (`quad`) and imports it there, so no other run loads
it.  The continuation, the mass diagnostic and the integrability probe
of tabulated g decide whether a dyadic tail sums by `tail_trend` alone.
"""

from __future__ import annotations

import numpy as np

# the last three increment ratios of a bounded tail lie below 1 - margin,
# of a divergent one at or above it
_TAIL_MARGIN = 0.01


def mass_integral(g, field, eps):
    """Integral of g(u + eps) over the support of u, with u piecewise
    linear between nodes.

    Cells where u vanishes identically are excluded, so a collapsed
    plateau does not masquerade as a boundary layer.  On the interval a
    cell of width h on which s = u + eps runs from sa to sb has mass
    h (P(sb) - P(sa)) / (sb - sa).  A cell where P(min(sa, sb)) is -inf
    has infinite mass: g is not integrable down to that value, or
    overflows there.  Rectangles fall back to the nodal sum (sub-cell
    resolution in eps is interval-only; documented limitation).
    """
    grid = field.grid
    u = np.maximum(field.values, 0.0)
    if grid.dim == 2:
        return float(np.prod(grid.spacing) * np.sum(g(u[u > 0] + eps)))
    h = grid.spacing[0]
    vals = np.concatenate([[0.0], u, [0.0]])
    live = (vals[:-1] > 0.0) | (vals[1:] > 0.0)
    s = vals + eps
    sa, sb = s[:-1][live], s[1:][live]
    # endpoint values that agree to rounding leave the divided difference
    # to cancellation: those cells take the midpoint rule instead
    flat = np.abs(sb - sa) <= 1e-14 * np.maximum(sa, sb)
    p = g.primitive(s)
    pa, pb = p[:-1][live], p[1:][live]
    steep = ~flat & np.isfinite(pa) & np.isfinite(pb)
    cells = np.full(sa.shape, np.inf)
    cells[flat] = h * g(0.5 * (sa[flat] + sb[flat]))
    cells[steep] = h * (pb[steep] - pa[steep]) / (sb[steep] - sa[steep])
    return float(np.sum(cells))


def reference_mass(grid, g, c2, eps):
    """Continuum integral of g(c2 dist(x) + eps): the divergence gauge.

    On the interval it is the difference of the primitive of g; on the
    rectangle the coarea formula reduces it to a line integral against
    the perimeter of the distance level sets (exact for rectangles).
    """
    if grid.dim == 1:
        half = grid.extents[0] / 2.0
        return float(2.0 * (g.primitive(c2 * half + eps) - g.primitive(eps)) / c2)
    from scipy.integrate import quad

    Lx, Ly = grid.extents
    tmax = min(Lx, Ly) / 2.0

    def perimeter(t):
        return 2.0 * (Lx - 2.0 * t) + 2.0 * (Ly - 2.0 * t)

    val, _ = quad(lambda t: perimeter(t) * g(np.array([c2 * t + eps]))[0],
                  0.0, tmax, limit=200)
    return float(val)


def tail_trend(eps_values, values):
    """(ratios, rho, verdict, tail) of values I(eps) taken down a
    decreasing geometric eps ladder: selab's one rule for whether they sum.

    ratios are |I_k+2 - I_k+1| / |I_k+1 - I_k| (0/0 counts as 0), rho is
    the last; g ~ s^-alpha gives rho = q^(1-alpha) for the step eps -> q
    eps, and the increments sum iff rho < 1 (the ratio test).  "bounded":
    the last three ratios lie below 1 - 0.01; "divergent": all at or above
    it, or a value is not finite (rho is None then); "no-trend": anything
    else, fewer than three ratios or last five eps not geometric included.
    tail is the Cauchy bound |I_last - I_prev| rho / (1 - rho) on what a
    bounded tail still adds, and None for any other verdict.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.abs(np.diff(np.asarray(values, dtype=float)))
        ratios = [float(r) for r in
                  np.where(steps[1:] == 0.0, 0.0, steps[1:] / steps[:-1])]
    if not np.all(np.isfinite(values)):
        return ratios, None, "divergent", None
    rho = ratios[-1] if ratios else None
    q = np.diff(np.log(np.asarray(eps_values[-5:], dtype=float)))
    geometric = len(ratios) >= 3 and q.size == 4 and q[0] < 0.0 \
        and np.allclose(q, q[0], rtol=1e-9, atol=0.0)
    last = np.array(ratios[-3:])
    if geometric and np.all(last < 1.0 - _TAIL_MARGIN):
        return ratios, rho, "bounded", float(steps[-1] * rho / (1.0 - rho))
    if geometric and np.all(last >= 1.0 - _TAIL_MARGIN):
        return ratios, rho, "divergent", None
    return ratios, rho, "no-trend", None
