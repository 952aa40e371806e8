"""Ordering check for sub/super pairs of -Lap(u) = Psi(x, u).

Given v, w > 0 in the interior with

    Lap(v) + Psi(x, v) >= 0   (v is a sub-solution),
    Lap(w) + Psi(x, w) <= 0   (w is a super-solution),
    v <= w on the boundary,

and s -> Psi(x, s)/s strictly decreasing at each x, the conclusion is
v <= w in the interior.  (The discrete -Laplacian is an M-matrix, so the
usual sliding argument max(v/theta w) carries over verbatim.)

The checker is deliberately split: it first verifies every hypothesis
numerically - inequality residuals nodewise with a tolerance, boundary
ordering (trivial here, both traces are 0), and the strict-decrease
probe of Psi(x,s)/s on sampled s - and only when they hold does it grade
the conclusion.  A conclusion failure under verified hypotheses is a
discretization bug and is reported as "violated"; hypothesis failures
yield "hypotheses-not-met" and no ordering claim.  In the positive-K
regime the right Psi for catalog pairs is lambda f alone (the K g and
convection terms have the good sign and are absorbed into the sub-side
inequality); including -K g with K > 0 breaks the strict-decrease
hypothesis for small s, and the probe will say so.  `psi_from_spec`
hands the checker the solver's own Psi, `ProblemSpec.psi`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .grid import Field

# the band of the hypothesis residuals and of the conclusion margin
_TOL = 1e-8


@dataclass
class ComparisonReport:
    """Hypothesis shares, the conclusion margin, and the verdict:
    "ordered", "violated", or "hypotheses-not-met"."""

    verdict: str
    max_violation: float
    sub_share: float
    super_share: float
    boundary_ok: bool
    strict_decrease_ok: bool
    l1_lap_sub: float
    l1_lap_super: float
    details: dict

    @property
    def ordered(self):
        return self.verdict == "ordered"


def psi_from_spec(spec):
    """The spec's zeroth-order part `ProblemSpec.psi` in the
    psi(grid, s) form check_ordering takes:
    Psi(x, s) = lambda f(x, s) - K(x) g(s + eps), with s floored at
    1e-300 so a zero node at eps = 0 stays finite.

    This is the Psi the ordering lemma is applied to for the eigen
    sub-solution against the super-solution U (for K > 0 the super side
    gives Lap U + Psi(U) = -K g(U) <= 0, and the sub certificate
    absorbs the gradient term with the right sign).  The eps shift
    matches the regularized equation, so eps > 0 bracket pairs satisfy
    the hypotheses exactly; at eps = 0 it is the plain singular Psi.
    Psi(x, s)/s is strictly decreasing on all of (0, inf) when K <= 0;
    for K > 0 only above a crossover level, which is why check_ordering
    probes the range the pair actually attains.
    """
    def psi(grid, s):
        return spec.psi(np.maximum(s, 1e-300))

    return psi


def check_ordering(grid, psi, v, w):
    """Grade the pair (v, w) for -Lap(u) = psi(grid, u); see module doc.

    psi(grid, s) returns nodal values for an array s of nodal values,
    and broadcasts a one-element level np.array([s]) against its nodal
    coefficients (K and q for `psi_from_spec`; every psi of the package,
    the demos and the tests does).  One tolerance, 1e-8 (details["tol"]),
    bands both the hypothesis residuals, relative to max(1,
    |psi(w)|_inf), and the conclusion margin.  The strict-decrease probe
    samples psi(x, s)/s at 41 levels s on a log grid spanning the pair's
    positive values, one psi call per level, and compares each level's
    nodal ratios with the previous level's.
    """
    vv = np.asarray(v.values if isinstance(v, Field) else v, dtype=float)
    wv = np.asarray(w.values if isinstance(w, Field) else w, dtype=float)
    Av, Aw = grid.apply_neg_laplacian(vv), grid.apply_neg_laplacian(wv)
    psi_w = psi(grid, wv)

    sub_res = psi(grid, vv) - Av              # want >= 0 (Lap v + Psi >= 0)
    super_res = psi_w - Aw                    # want <= 0
    scale = max(1.0, float(np.max(np.abs(psi_w))))
    sub_share = float(np.mean(sub_res >= -_TOL * scale))
    super_share = float(np.mean(super_res <= _TOL * scale))
    boundary_ok = True  # both traces are the Dirichlet 0

    lo = max(min(float(vv[vv > 0].min()) if np.any(vv > 0) else 1e-3,
                 float(wv[wv > 0].min()) if np.any(wv > 0) else 1e-3), 1e-9)
    hi = max(float(wv.max()), float(vv.max()), 2 * lo)
    s = np.geomspace(lo, hi, 41)
    ratios = (psi(grid, np.array([si])) / si for si in s)
    strict = all(np.all(b < a * (1.0 - 1e-12) + 1e-300)
                 for a, b in pairwise(ratios))

    hypotheses_ok = (
        sub_share >= 1.0 - 1e-12
        and super_share >= 1.0 - 1e-12
        and boundary_ok
        and strict
    )
    max_violation = float(np.max(vv - wv))
    if not hypotheses_ok:
        verdict = "hypotheses-not-met"
    elif max_violation <= _TOL:
        verdict = "ordered"
    else:
        verdict = "violated"
    return ComparisonReport(
        verdict=verdict,
        max_violation=max_violation,
        sub_share=sub_share,
        super_share=super_share,
        boundary_ok=boundary_ok,
        strict_decrease_ok=strict,
        l1_lap_sub=float(np.sum(np.abs(Av)) * np.prod(grid.spacing)),
        l1_lap_super=float(np.sum(np.abs(Aw)) * np.prod(grid.spacing)),
        details={
            "worst_sub_residual": float(sub_res.min()),
            "worst_super_residual": float(super_res.max()),
            "s_probe_range": (float(s[0]), float(s[-1])),
            "tol": _TOL,
        },
    )
