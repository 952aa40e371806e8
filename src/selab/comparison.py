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
hypothesis for small s, and the probe will say so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field


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
    """The zeroth-order part of the equation moved to one side:
    Psi(x, s) = lambda f(x, s) - K(x) g(s + eps).

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
    k = spec.k_nodal()

    def psi(grid, s):
        return (spec.lam * spec.f_at(s)
                - k * spec.g_at(np.maximum(s, 1e-300) + spec.eps))

    return psi


def check_ordering(grid, psi, v, w, tol=1e-8, s_probe=None):
    """Grade the pair (v, w) for -Lap(u) = psi(grid, u); see module doc.

    psi(grid, s_values) returns nodal values.  `tol` is used both for the
    hypothesis residuals and the conclusion margin.  The strict-decrease
    probe samples psi(x, s)/s on a log grid (override with `s_probe`).
    """
    vv = np.asarray(v.values if isinstance(v, Field) else v, dtype=float)
    wv = np.asarray(w.values if isinstance(w, Field) else w, dtype=float)
    A = grid.neg_laplacian()

    sub_res = psi(grid, vv) - A @ vv          # want >= 0 (Lap v + Psi >= 0)
    super_res = psi(grid, wv) - A @ wv        # want <= 0
    scale = max(1.0, float(np.max(np.abs(psi(grid, wv)))))
    sub_share = float(np.mean(sub_res >= -tol * scale))
    super_share = float(np.mean(super_res <= tol * scale))
    boundary_ok = True  # both traces are the Dirichlet 0

    lo = max(min(float(vv[vv > 0].min()) if np.any(vv > 0) else 1e-3,
                 float(wv[wv > 0].min()) if np.any(wv > 0) else 1e-3), 1e-9)
    hi = max(float(wv.max()), float(vv.max()), 2 * lo)
    s = np.geomspace(lo, hi, 41) if s_probe is None else np.asarray(s_probe)
    ratios = np.array([psi(grid, np.full(grid.n_total, si)) / si for si in s])
    strict = bool(np.all(ratios[1:] < ratios[:-1] * (1.0 - 1e-12) + 1e-300))

    hypotheses_ok = (
        sub_share >= 1.0 - 1e-12
        and super_share >= 1.0 - 1e-12
        and boundary_ok
        and strict
    )
    max_violation = float(np.max(vv - wv))
    if not hypotheses_ok:
        verdict = "hypotheses-not-met"
    elif max_violation <= tol:
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
        l1_lap_sub=float(np.sum(np.abs(A @ vv)) * np.prod(grid.spacing)),
        l1_lap_super=float(np.sum(np.abs(A @ wv)) * np.prod(grid.spacing)),
        details={
            "worst_sub_residual": float(sub_res.min()),
            "worst_super_residual": float(super_res.max()),
            "s_probe_range": (float(s[0]), float(s[-1])),
            "tol": tol,
        },
    )
