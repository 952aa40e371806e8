"""Quadrature of the singular mass integral I(eps) = int g(u + eps).

The divergence this integral detects lives inside the boundary cells,
where u drops from its first nodal value to 0.  A nodal sum saturates
once eps falls below u(first node) and would report a bounded mass for
any grid; the per-cell piecewise-linear reconstruction keeps the
eps-rate observable (for g = s^-alpha the cell integral is closed form).
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad


def mass_integral(g, field, eps, support_only=True):
    """Integral of g(u + eps) with u piecewise linear between nodes.

    With support_only the cells where u vanishes identically are
    excluded: the mass is taken over the region where the candidate
    solution lives, so a collapsed plateau does not masquerade as a
    boundary layer.  Rectangles fall back to the nodal sum (sub-cell
    resolution in eps is interval-only; documented limitation).
    """
    grid = field.grid
    u = np.maximum(field.values, 0.0)
    if grid.dim == 2:
        mask = u > 0 if support_only else np.ones_like(u, dtype=bool)
        return float(np.prod(grid.spacing) * np.sum(g(u[mask] + eps)))
    h = grid.spacing[0]
    vals = np.concatenate([[0.0], u, [0.0]])
    total = 0.0
    for ua, ub in zip(vals[:-1], vals[1:]):
        if support_only and ua <= 0.0 and ub <= 0.0:
            continue
        total += _cell_mass(g, ua + eps, ub + eps, h)
    return float(total)


def _cell_mass(g, sa, sb, h):
    if abs(sb - sa) <= 1e-14 * max(sa, sb):
        return h * float(g(np.array([0.5 * (sa + sb)]))[0])
    m = (sb - sa) / h
    if getattr(g, "family", None) == "power":
        alpha = g.alpha
        if abs(alpha - 1.0) < 1e-14:
            return float(np.log(sb / sa) / m)
        return float((sb ** (1 - alpha) - sa ** (1 - alpha)) / (m * (1 - alpha)))
    val, _ = quad(lambda x: g(np.array([sa + m * x]))[0], 0.0, h, limit=100)
    return float(val)


def reference_mass(grid, g, c2, eps):
    """Continuum integral of g(c2 dist(x) + eps): the divergence gauge.

    Closed form / 1d quadrature on the interval; on the rectangle the
    coarea formula reduces it to a line integral against the perimeter
    of the distance level sets (exact for rectangles).
    """
    if grid.dim == 1:
        L = grid.extents[0]
        return 2.0 * _line_mass(g, c2, eps, L / 2.0)
    Lx, Ly = grid.extents
    tmax = min(Lx, Ly) / 2.0

    def perimeter(t):
        return 2.0 * (Lx - 2.0 * t) + 2.0 * (Ly - 2.0 * t)

    val, _ = quad(lambda t: perimeter(t) * g(np.array([c2 * t + eps]))[0],
                  0.0, tmax, limit=200)
    return float(val)


def _line_mass(g, c, eps, length):
    if getattr(g, "family", None) == "power":
        alpha = g.alpha
        if abs(alpha - 1.0) < 1e-14:
            return float(np.log((c * length + eps) / eps) / c)
        return float(((c * length + eps) ** (1 - alpha) - eps ** (1 - alpha))
                     / (c * (1 - alpha)))
    val, _ = quad(lambda x: g(np.array([c * x + eps]))[0], 0.0, length, limit=200)
    return float(val)


def halving_rate(eps_values, masses, tail=6):
    """Fitted per-halving growth factor 2^(-slope) of log I vs log eps
    over the last `tail` points; None if fewer than two points or if one
    of them is not finite (an overflowed mass has no rate)."""
    k = min(tail, len(masses))
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
