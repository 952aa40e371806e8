"""Certified sub- and super-solution constructions.

Each construction returns its field together with a certificate: the
nodal residual of the defining inequality for the spec's problem

    -Lap(u) + |grad u|^a - psi(x, u),   psi = lambda f(x, u) - K(x) g(u + eps)

(`ProblemSpec.psi`, so an eps stage is certified at its own eps),
nonpositive for a sub-solution, and metadata (fitted constants,
thresholds, iteration counts).  Certificates are evaluated with the same
stencils the solver uses, so "certified" means certified on this grid.

* Super-solution U: the solution of the gradient-free sublinear problem
  -Lap(U) = lambda f(x, U) + K^-(x) g(eps), K^- = max(-K, 0), by fixed
  point from phi_1.  g is nonincreasing, so K^- g(eps) >= -K g(U + eps)
  for U >= 0 and U is a super-solution of the eps problem in both sign
  regimes (for K > 0, K^- = 0: the gradient-free envelope, a start of
  the continuation and the field whose mass the nonexistence diagnostic
  measures).  Its
  certificate is A U - (lambda f(U) + K^- g(eps)); c1 = min U/dist and
  c2 = max U/dist witness the two-sided distance bounds.

* Convection sub-solution v (negative-K regime): solves
  -Lap(v) + |grad v|^a = p(x) with the forcing floor
  p(x) = min{lambda f(x,1), -K(x) g(1)} > 0, by Picard with a lagged
  gradient.  Since p <= lambda f(x,s) - K(x) g(s) for every s, v is a
  sub-solution wherever it is positive.  Its certificate is the residual
  of the inequality itself, not p - psi(v), which equals it only where v
  solves its equation exactly.

The super-solution is the solver's `anderson_fixed_point`, the
convection sub-solution its plain `fixed_point`: there mixing saves two
of about eleven sweeps, and where a < 1, |grad v|^a is not Lipschitz at a
vanishing gradient, so the mixed sweep settles on fields whose equation
residual is far above the stop, which the plain one reports as
stagnated.

* Eigenfunction sub-solution M h(phi_1) (positive-K regime, integrable
  g): h is the flat-start profile h'' = g(h), M = max{1, 2 K* / delta^2}
  with delta the collar gradient floor.  The certificate closes only for
  lambda >= lambda_threshold, the smallest lambda passing the two
  discrete conditions (collar condition via f(x,s)/s monotonicity, core
  condition comparing the worst core residual against lambda min f);
  below it a CertificateError carrying the threshold is raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (
    CertificateError,
    ConvergenceError,
    DegenerateSolutionError,
    ModelError,
    PositivityError,
    RegimeError,
)
from .grid import Field, boundary_distance, gradient_magnitude
from .hprofile import build_h_profile
from .model import compute_p
from .solver import anderson_fixed_point, fixed_point, residual, settled
from .spectral import first_eigenpair, hopf_collar

# the fixed points' stop (`solver.settled`) and sweep caps, and the
# residual above which a node violates a sub-solution certificate
_FIXED_POINT_TOL = 1e-11
_SUPER_SWEEPS = 2000
_SUBCONV_SWEEPS = 5000
_CERTIFICATE_TOL = 1e-9


@dataclass
class Construction:
    """A constructed field plus its certificate residual and metadata."""

    kind: str
    field: Field
    certificate: Field
    metadata: dict = dataclass_field(default_factory=dict)


def build_supersolution(spec):
    """Fixed-point solve of -Lap(U) = lambda f(x, U) + K^-(x) g(eps) from
    phi_1: `solver.anderson_fixed_point` with N(U) = -(lambda f(x, U) +
    lift), the lift K^- g(eps) = -K g(eps) formed only when K < 0.  With
    p = 1/2 an interval takes 9-13 mixed sweeps and a rectangle 12-14,
    where plain sweeps took 31-41.

    On K < 0, eps = 0 or a g(eps) that is not finite raises ModelError.
    Stagnation or a non-finite lambda f(x, U) raises ConvergenceError,
    collapse onto zero DegenerateSolutionError.
    """
    grid = spec.grid
    lift = None
    if spec.regime() == "negative":
        g_eps = float(spec.singular(spec.eps)) if spec.eps > 0 else np.inf
        if not np.isfinite(g_eps):
            raise ModelError(
                "the K < 0 super-solution lifts by K^- g(epsilon), which needs "
                f"epsilon > 0 and a finite g(epsilon); got epsilon = {spec.eps:g}")
        lift = -spec.k_nodal() * g_eps

    def forcing(v):
        rhs = spec.lam * spec.f_at(v)
        return rhs if lift is None else rhs + lift

    u, it, inc = anderson_fixed_point(grid.lu(), lambda v: -forcing(v),
                                      first_eigenpair(grid).phi1.values,
                                      tol=_FIXED_POINT_TOL,
                                      max_iter=_SUPER_SWEEPS)
    if not settled(u, inc, _FIXED_POINT_TOL):
        why = "stagnated" if np.isfinite(inc) else "met a lambda f that is not finite"
        raise ConvergenceError(f"super-solution fixed point {why}",
                               residual=inc, iterations=it)
    if float(np.max(np.abs(u))) < 1e-10:
        raise DegenerateSolutionError("super-solution collapsed onto zero")
    dist = boundary_distance(grid).values
    ratios = u / dist
    res = grid.apply_neg_laplacian(u) - forcing(u)
    return Construction(
        kind="super",
        field=Field(grid, u),
        certificate=Field(grid, res),
        metadata={
            "c1": float(ratios.min()),
            "c2": float(ratios.max()),
            "residual_max": float(np.max(np.abs(res))),
            "iterations": it,
        },
    )


def build_subsolution_convection(spec):
    """Picard solve of -Lap(v) + |grad v|^a = p(x) with lagged gradient.

    Requires the forcing floor p to be positive everywhere (the
    negative-K regime); a converged v must be positive in the interior,
    otherwise the grid is too coarse and PositivityError is raised.  The
    certificate is `solver.residual` of v, its nodes above 1e-9 counted
    in certificate_violations.
    """
    grid = spec.grid
    p, positive = compute_p(spec)
    if not positive:
        raise RegimeError(
            "forcing floor min{lambda f(x,1), -K g(1)} is not positive; "
            "convection sub-solution needs the negative-K regime"
        )

    def nonlinear(v):
        return gradient_magnitude(grid, Field(grid, v)).values**spec.conv_a - p.values

    v, it, inc = fixed_point(grid.lu(), nonlinear, np.zeros(grid.n_total),
                             tol=_FIXED_POINT_TOL, max_iter=_SUBCONV_SWEEPS)
    if not settled(v, inc, _FIXED_POINT_TOL):
        raise ConvergenceError("convection sub-solution Picard stagnated",
                               residual=inc, iterations=_SUBCONV_SWEEPS)
    if float(v.min()) <= 0.0:
        raise PositivityError(
            "convection sub-solution lost interior positivity; refine the grid"
        )
    field = Field(grid, v)
    mag = gradient_magnitude(grid, field).values
    eq_res = grid.apply_neg_laplacian(v) + mag**spec.conv_a - p.values
    # sub-solution certificate against the spec's problem, eps included
    cert = residual(spec, field).values
    return Construction(
        kind="sub-convection",
        field=field,
        certificate=Field(grid, cert),
        metadata={
            "residual_max": float(np.max(np.abs(eq_res))),
            "iterations": it,
            "min_interior": float(v.min()),
            "forcing_floor_min": float(p.values.min()),
            "certificate_violations": int(np.sum(cert > _CERTIFICATE_TOL)),
        },
    )


def build_subsolution_eigen(spec):
    """Assemble M h(phi_1) and certify it at spec.lam.

    The collar is four grid spacings wide.  Raises RegimeError outside the
    positive-K regime, KellerOssermanError through the profile for
    non-integrable g, and CertificateError carrying lambda_threshold when
    spec.lam sits below the smallest certified lambda.

    The collar inequality of the continuum proof (the singular term
    dominating the gradient term near the boundary) is not checked: the
    certificate is already the nodal residual of the full equation,
    counted in certificate_violations, so the collar inequality from the
    continuum proof adds nothing on the grid.
    """
    grid = spec.grid
    if spec.regime() != "positive":
        raise RegimeError("eigenfunction sub-solution needs K > 0 on the closure")
    eigenpair = first_eigenpair(grid)
    collar = hopf_collar(grid, eigenpair)
    k_star = float(spec.k_nodal().max())
    M = max(1.0, 2.0 * k_star / collar.delta**2)
    phi = eigenpair.phi1.values
    phi_max = float(phi.max())
    profile = build_h_profile(spec.singular, T=phi_max)
    h_phi = profile.h_at(phi)
    dh_phi = profile.dh_at(phi)
    u = M * h_phi
    lam1 = eigenpair.lambda1
    gmag = gradient_magnitude(grid, eigenpair.phi1).values

    core = collar.core
    # collar condition: lambda f(x, u)/u >= 2 lambda_1 on the collar follows
    # from f(x,s)/s monotonicity once it holds at the peak value
    den1 = float(np.min(spec.f_at(np.full(grid.n_total,
                                          M * profile.h_at(phi_max)))[core]))
    if den1 <= 0:
        raise CertificateError("reaction vanishes at the peak height",
                               lambda_threshold=np.inf)
    lam_cond1 = 2.0 * lam1 * M * phi_max / den1
    # core condition: worst residual surrogate vs lambda min f
    core_val = (k_star * spec.singular(h_phi[core])
                + 2.0 * lam1 * M * h_phi[core]
                + M**spec.conv_a * dh_phi[core]**spec.conv_a
                * gmag[core]**spec.conv_a)
    den2 = float(np.min(spec.f_at(u)[core]))
    if den2 <= 0:
        raise CertificateError("reaction vanishes on the core",
                               lambda_threshold=np.inf)
    lam_cond2 = float(np.max(core_val)) / den2
    lam_threshold = max(lam_cond1, lam_cond2)

    if spec.lam < lam_threshold:
        raise CertificateError(
            f"lambda = {spec.lam:g} below certification threshold "
            f"{lam_threshold:g}",
            lambda_threshold=lam_threshold,
        )
    cert = residual(spec, Field(grid, u)).values
    return Construction(
        kind="sub-eigen",
        field=Field(grid, u),
        certificate=Field(grid, cert),
        metadata={
            "M": M,
            "delta": collar.delta,
            "lambda_threshold": lam_threshold,
            "lambda_cond_collar": lam_cond1,
            "lambda_cond_core": lam_cond2,
            "collar_width": collar.width,
            "residual_max": float(np.max(cert)),
            "certificate_violations": int(np.sum(cert > _CERTIFICATE_TOL)),
        },
    )
