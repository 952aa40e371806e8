"""Certified sub- and super-solution constructions.

Each construction returns its field together with a certificate: the
nodal residual of the defining inequality for the full problem

    -Lap(u) + K(x) g(u) + |grad u|^a - lambda f(x, u),

nonpositive for a sub-solution, and metadata (fitted constants,
thresholds, iteration counts).  Certificates are evaluated with the same
stencils the solver uses, so "certified" means certified on this grid.

* Super-solution U: the solution of the gradient-free sublinear problem
  -Lap(U) = lambda f(x, U), by fixed point U_{k+1} = (-Lap)^{-1}(lambda
  f(., U_k)) from phi_1; sublinearity makes the iterates ordered after
  the first sweep.  The extremal ratios c1 = min U/dist, c2 = max U/dist
  witness the two-sided distance bounds.

* Convection sub-solution v (negative-K regime): solves
  -Lap(v) + |grad v|^a = p(x) with the forcing floor
  p(x) = min{lambda f(x,1), -K(x) g(1)} > 0, by Picard with a lagged
  gradient.  Since p <= lambda f(x,s) - K(x) g(s) for every s, v is a
  sub-solution wherever it is positive.

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
    PositivityError,
    RegimeError,
)
from .grid import Field, boundary_distance, gradient_magnitude
from .hprofile import build_h_profile
from .model import compute_p
from .solver import fixed_point, residual
from .spectral import default_collar_width, first_eigenpair, hopf_collar


@dataclass
class Construction:
    """A constructed field plus its certificate residual and metadata."""

    kind: str
    field: Field
    certificate: Field
    metadata: dict = dataclass_field(default_factory=dict)


def build_supersolution(spec, tol=1e-11, max_iter=2000):
    """Fixed-point solve of -Lap(U) = lambda f(x, U) starting from phi_1.

    Oscillating iterates are damped by averaging; stagnation raises
    ConvergenceError and collapse onto zero DegenerateSolutionError.
    """
    grid = spec.grid
    lu = grid.lu()
    pair = first_eigenpair(grid)
    u = pair.phi1.values.copy()
    prev_diff = None
    monotone_after_first = True
    for it in range(1, max_iter + 1):
        u_next = lu.solve(spec.lam * spec.f_at(u))
        diff = u_next - u
        if prev_diff is not None and float(diff @ prev_diff) < 0.0:
            u_next = 0.5 * (u_next + u)
            diff = u_next - u
        inc = float(np.max(np.abs(diff)))
        if it > 2:
            monotone_after_first &= bool(np.all(diff >= -1e-12) or
                                         np.all(diff <= 1e-12))
        u = u_next
        prev_diff = diff
        if inc < tol * max(1.0, float(np.max(np.abs(u)))):
            break
    else:
        raise ConvergenceError("super-solution fixed point stagnated",
                               residual=inc, iterations=max_iter)
    if float(np.max(np.abs(u))) < 1e-10:
        raise DegenerateSolutionError("super-solution collapsed onto zero")
    dist = boundary_distance(grid).values
    ratios = u / dist
    res = grid.neg_laplacian() @ u - spec.lam * spec.f_at(u)
    return Construction(
        kind="super",
        field=Field(grid, u),
        certificate=Field(grid, res),
        metadata={
            "c1": float(ratios.min()),
            "c2": float(ratios.max()),
            "residual_max": float(np.max(np.abs(res))),
            "iterations": it,
            "monotone_after_first": monotone_after_first,
        },
    )


def build_subsolution_convection(spec, tol=1e-11, max_iter=5000):
    """Picard solve of -Lap(v) + |grad v|^a = p(x) with lagged gradient.

    Requires the forcing floor p to be positive everywhere (the
    negative-K regime); a converged v must be positive in the interior,
    otherwise the grid is too coarse and PositivityError is raised.
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
                             tol=tol, max_iter=max_iter)
    if not inc < tol:  # also catches a NaN increment
        raise ConvergenceError("convection sub-solution Picard stagnated",
                               residual=inc, iterations=max_iter)
    if float(v.min()) <= 0.0:
        raise PositivityError(
            "convection sub-solution lost interior positivity; refine the grid"
        )
    mag = gradient_magnitude(grid, Field(grid, v)).values
    eq_res = grid.neg_laplacian() @ v + mag**spec.conv_a - p.values
    # sub-solution certificate against the full problem at s = v
    cert = p.values + spec.k_nodal() * spec.g_at(v) - spec.lam * spec.f_at(v)
    return Construction(
        kind="sub-convection",
        field=Field(grid, v),
        certificate=Field(grid, cert),
        metadata={
            "residual_max": float(np.max(np.abs(eq_res))),
            "iterations": it,
            "min_interior": float(v.min()),
            "forcing_floor_min": float(p.values.min()),
        },
    )


def build_subsolution_eigen(spec, eigenpair=None, collar=None, profile=None,
                            tol=1e-9):
    """Assemble M h(phi_1) and certify it at spec.lam.

    eigenpair / collar / profile are computed when not supplied (collar
    width defaults to four spacings).  Raises RegimeError outside the
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
    if eigenpair is None:
        eigenpair = first_eigenpair(grid)
    if collar is None:
        collar = hopf_collar(grid, eigenpair, default_collar_width(grid))
    k_star = spec.k_max()
    M = max(1.0, 2.0 * k_star / collar.delta**2)
    phi = eigenpair.phi1.values
    phi_max = float(phi.max())
    if profile is None:
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
    core_val = (k_star * spec.g_at(h_phi[core])
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
            "certificate_violations": int(np.sum(cert > tol)),
        },
    )
