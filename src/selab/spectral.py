"""First Dirichlet eigenpair of the discrete -Laplacian and the boundary
collar on which its gradient stays bounded away from 0.

The pair has a closed form on selab's grids.  The 3-point stencil with
n interior nodes and spacing h = L/(n+1) has the sine modes sin(k pi x/L)
as exact eigenvectors, with eigenvalues (4/h^2) sin^2(k pi h / 2L)
(`Grid.sine_eigenvalues`, which `Grid.lu` divides by on a rectangle); the
5-point stencil on a rectangle is the Kronecker sum of two such stencils,
so its principal pair is the sum of the per-axis values and the tensor
product of the per-axis sines.  On the unit interval lambda_1 approaches
pi^2 = 9.8696... from below at rate O(h^2), and on the unit square 2 pi^2.

The collar of width d = 4 max(h) collects interior nodes within
distance d of the boundary; delta = min |grad phi_1| over the collar is
the Hopf-type gradient floor used by the eigenfunction-based
sub-solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollarError
from .grid import Field, boundary_distance, gradient_magnitude


@dataclass
class EigenPair:
    """Principal eigenvalue and positive, sup-normalized eigenfunction;
    `residual` is max |A phi_1 - lambda_1 phi_1|, A applied by its stencil,
    and `iterations` is 0 (the pair is computed, not iterated)."""

    lambda1: float
    phi1: Field
    residual: float
    iterations: int


def first_eigenpair(grid):
    """Smallest eigenvalue of the discrete -Laplacian and its eigenfunction
    lambda_1 = sum_k (4/h_k^2) sin^2(pi h_k / 2 L_k),
    phi_1 = prod_k sin(pi x_k / L_k) in row-major order, scaled to
    sup-norm 1."""
    lam = sum(eigenvalues[0] for eigenvalues in grid.sine_eigenvalues())
    phi = np.sin(np.pi * grid.axes[0] / grid.extents[0])
    for x, L in zip(grid.axes[1:], grid.extents[1:]):
        phi = np.multiply.outer(phi, np.sin(np.pi * x / L)).ravel()
    phi /= phi.max()
    res = float(np.max(np.abs(grid.apply_neg_laplacian(phi) - lam * phi)))
    return EigenPair(lambda1=float(lam), phi1=Field(grid, phi), residual=res,
                     iterations=0)


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


def hopf_collar(grid, eigenpair):
    """Split interior nodes into a boundary collar (dist <= d) and the
    core, recording delta = min |grad phi_1| on the collar.  d is four
    grid spacings, 4 max(h), the thinnest collar the stencil resolves; it
    always holds the nodes next to the boundary.

    Raises CollarError when the collar swallows every interior node (a
    grid too coarse for d, such as n <= 8 on an interval), or when it
    reaches nodes where the eigenfunction gradient (numerically)
    vanishes, i.e. the gradient floor delta would be ~0.
    """
    d = 4.0 * max(grid.spacing)
    dist = boundary_distance(grid).values
    fuzz = 1e-9 * max(grid.spacing)
    in_collar = dist <= d + fuzz
    collar = np.flatnonzero(in_collar)
    core = np.flatnonzero(~in_collar)
    if core.size == 0:
        raise CollarError(f"collar of width {d} swallows every interior node")
    gmag = gradient_magnitude(grid, eigenpair.phi1).values
    delta = float(gmag[collar].min())
    if delta <= 1e-10:
        raise CollarError(
            f"eigenfunction gradient vanishes on the collar (delta = {delta:.3e})"
        )
    return HopfCollar(width=d, collar=collar, core=core, delta=delta)
