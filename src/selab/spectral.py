"""First Dirichlet eigenpair of the discrete -Laplacian and the boundary
collar on which its gradient stays bounded away from 0.

Inverse power iteration with the grid's cached LU factorization: each
step solves A v_{k+1} = v_k, so the Rayleigh quotient converges to the
smallest eigenvalue geometrically in (lambda_1/lambda_2)^2.  On a 1d grid
with n interior nodes the exact discrete value is (2/h^2)(1 - cos(pi h)),
which the iteration reproduces to rounding; on the unit interval it
approaches pi^2 = 9.8696... from below at rate O(h^2), and the unit
square value approaches 2 pi^2.

The collar of width d collects interior nodes within distance d of the
boundary; delta = min |grad phi_1| over the collar is the Hopf-type
gradient floor used by the eigenfunction-based sub-solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollarError, ConvergenceError
from .grid import Field, boundary_distance, gradient_magnitude


@dataclass
class EigenPair:
    """Principal eigenvalue and positive, sup-normalized eigenfunction."""

    lambda1: float
    phi1: Field
    residual: float
    iterations: int


def first_eigenpair(grid, tol=1e-13, max_iter=2000):
    """Smallest eigenvalue of the discrete -Laplacian and its eigenfunction.

    Stops when the Rayleigh quotient stalls to relative `tol`; the
    eigenfunction is fixed positive and normalized to sup-norm 1.
    Raises ConvergenceError if the quotient has not settled in time.
    """
    cached = getattr(grid, "_eigenpair", None)
    if cached is not None and cached[0] <= tol:
        _, rho, v, res, it = cached
        return EigenPair(lambda1=rho, phi1=Field(grid, v), residual=res, iterations=it)
    A = grid.neg_laplacian()
    lu = grid.lu()
    v = np.ones(grid.n_total)
    v /= np.linalg.norm(v)
    rho_prev = np.inf
    for it in range(1, max_iter + 1):
        w = lu.solve(v)
        w /= np.linalg.norm(w)
        rho = float(w @ (A @ w))
        step = min(np.max(np.abs(w - v)), np.max(np.abs(w + v)))
        if abs(rho - rho_prev) <= tol * max(1.0, abs(rho)) and step <= 100 * tol:
            v = w
            break
        rho_prev = rho
        v = w
    else:
        raise ConvergenceError(
            "inverse power iteration did not settle",
            residual=abs(rho - rho_prev),
            iterations=max_iter,
        )
    if v.sum() < 0:
        v = -v
    if v.min() < 0:
        # a settled principal eigenvector is one-signed; anything else
        # means the iteration stopped on a spurious stall
        raise ConvergenceError("principal eigenvector is not one-signed")
    v = v / v.max()
    rho = float((v @ (A @ v)) / (v @ v))
    res = float(np.max(np.abs(A @ v - rho * v)))
    # the grid caches plain values, not the pair: phi1's Field points back
    # at the grid, and that cycle would keep a dropped grid alive
    v.flags.writeable = False
    grid._eigenpair = (tol, rho, v, res, it)
    return EigenPair(lambda1=rho, phi1=Field(grid, v), residual=res, iterations=it)


@dataclass
class HopfCollar:
    """Boundary collar of width d and the interior core away from it.

    collar / core are index arrays into the interior nodes; delta is the
    minimum of |grad phi_1| over the collar.
    """

    width: float
    collar: np.ndarray
    core: np.ndarray
    delta: float


def default_collar_width(grid):
    """Thinnest collar the stencil resolves: four grid spacings."""
    return 4.0 * max(grid.spacing)


def hopf_collar(grid, eigenpair, d):
    """Split interior nodes into a boundary collar (dist <= d) and the
    core, recording delta = min |grad phi_1| on the collar.

    Raises CollarError when d exceeds half the smallest extent, when the
    split leaves either part empty, or when the collar reaches nodes
    where the eigenfunction gradient (numerically) vanishes, i.e. the
    gradient floor delta would be ~0.
    """
    d = float(d)
    half = min(grid.extents) / 2.0
    if not 0.0 < d <= half * (1.0 + 1e-12):
        raise CollarError(
            f"collar width must lie in (0, {half}] (half the smallest extent), got {d}"
        )
    dist = boundary_distance(grid).values
    fuzz = 1e-9 * max(grid.spacing)
    in_collar = dist <= d + fuzz
    collar = np.flatnonzero(in_collar)
    core = np.flatnonzero(~in_collar)
    if collar.size == 0:
        raise CollarError(f"collar of width {d} contains no interior node")
    if core.size == 0:
        raise CollarError(f"collar of width {d} swallows every interior node")
    gmag = gradient_magnitude(grid, eigenpair.phi1).values
    delta = float(gmag[collar].min())
    if delta <= 1e-10:
        raise CollarError(
            f"eigenfunction gradient vanishes on the collar (delta = {delta:.3e}); "
            "shrink d"
        )
    return HopfCollar(width=d, collar=collar, core=core, delta=delta)
