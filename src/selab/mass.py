"""The singular mass integral I(eps) = int g(u + eps).

The divergence this integral detects lives inside the boundary cells,
where u drops from its first nodal value to 0.  A nodal sum saturates
once eps falls below u(first node) and would report a bounded mass for
any grid; the per-cell piecewise-linear reconstruction keeps the
eps-rate observable.  Its cell integrals are divided differences of the
primitive P of g (`SingularTerm.primitive`), exact for every g family.
The rectangle branch of `reference_mass` is selab's one use of
`scipy.integrate` (`quad`) and imports it there, so no other run loads
it.
"""

from __future__ import annotations

import numpy as np

# points of the mass tail that `halving_rate` fits
_RATE_TAIL = 6


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


def halving_rate(eps_values, masses):
    """Fitted per-halving growth factor 2^(-slope) of log I vs log eps
    over the last 6 points; None if fewer than two points or if one of
    them is not finite (an overflowed mass has no rate)."""
    k = min(_RATE_TAIL, len(masses))
    if k < 2 or not np.all(np.isfinite(masses[-k:])):
        return None
    le = np.log(np.asarray(eps_values[-k:], dtype=float))
    lm = np.log(np.maximum(np.asarray(masses[-k:], dtype=float), 1e-300))
    slope = np.polyfit(le, lm, 1)[0]
    return float(2.0 ** (-slope))


def mass_trend(eps_values, masses):
    """(factors, fitted, divergent) for masses taken down a decreasing eps
    ladder: the per-halving factors, the fitted factor (halving_rate), and
    whether the tail diverges - a mass overflowed (no rate is fitted then),
    or the fitted factor is at least 1.1 and the last three factors exceed
    1.02."""
    factors = [b / a for a, b in zip(masses, masses[1:])]
    fitted = halving_rate(eps_values, masses)
    divergent = not np.all(np.isfinite(masses)) or (
        fitted is not None and fitted >= 1.1
        and all(f > 1.02 for f in factors[-3:]))
    return factors, fitted, divergent
