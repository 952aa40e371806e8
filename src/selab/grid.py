"""Uniform Dirichlet grids on an interval or axis-aligned rectangle.

Interior nodes only are stored: with n interior nodes per axis the spacing
is h = extent / (n + 1) and the boundary carries the homogeneous Dirichlet
value 0, so every stencil that reaches a boundary node substitutes 0.

The discrete -Laplacian is the standard second-order 3-point (1d) or
5-point (2d) stencil; it is exact on quadratics and O(h^2) on smooth
fields.  Gradients are central differences per axis, again feeding the
Dirichlet 0 into stencils adjacent to the boundary.  Quadrature is the
h-weighted node sum, i.e. composite trapezoid given the zero boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import GridError, ShapeError

_KINDS = ("interval", "rectangle")


class Grid:
    """Immutable uniform grid; build with :func:`build_grid`.

    Attributes
    ----------
    kind : "interval" or "rectangle"
    extents : tuple of axis lengths
    shape : tuple of interior node counts per axis
    n_total : total number of interior nodes
    spacing : tuple of h per axis
    axes : tuple of 1d interior coordinate arrays per axis

    Derived sparse operators (the -Laplacian matrix, its LU factorization,
    central-difference matrices) are built once on first use and cached;
    they are pure functions of the grid, so the cache does not break
    value-immutability.
    """

    def __init__(self, kind, extents, shape):
        if kind not in _KINDS:
            raise GridError(f"unknown grid kind {kind!r}; expected one of {_KINDS}")
        dim = 1 if kind == "interval" else 2
        extents = tuple(float(e) for e in np.atleast_1d(extents))
        shape = tuple(int(n) for n in np.atleast_1d(shape))
        if len(extents) == 1 and dim == 2:
            extents = extents * 2
        if len(shape) == 1 and dim == 2:
            shape = shape * 2
        if len(extents) != dim or len(shape) != dim:
            raise GridError(
                f"{kind} grid needs {dim} extent(s) and node count(s), "
                f"got extents={extents}, shape={shape}"
            )
        if any(e <= 0 for e in extents):
            raise GridError(f"extents must be positive, got {extents}")
        if any(n < 3 for n in shape):
            raise GridError(f"need at least 3 interior nodes per axis, got {shape}")
        self.kind = kind
        self.extents = extents
        self.shape = shape
        self.spacing = tuple(e / (n + 1) for e, n in zip(extents, shape))
        self.n_total = int(np.prod(shape))
        self.axes = tuple(
            h * np.arange(1, n + 1) for h, n in zip(self.spacing, shape)
        )
        self._coords = None
        self._matrix = None
        self._lu = None
        self._diff = None
        self._eigenpair = None

    @property
    def dim(self):
        return len(self.shape)

    def coords(self):
        """Interior node coordinates, shape (n_total, dim), row-major
        (for a rectangle the x index varies slowest, matching the flat
        field layout and the CSV row order)."""
        if self._coords is None:
            if self.dim == 1:
                self._coords = self.axes[0][:, None].copy()
            else:
                X, Y = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
                self._coords = np.column_stack([X.ravel(), Y.ravel()])
        return self._coords

    def boundary_coords(self):
        """Coordinates of the (implicit, Dirichlet-0) boundary nodes."""
        if self.dim == 1:
            return np.array([[0.0], [self.extents[0]]])
        hx, hy = self.spacing
        nx, ny = self.shape
        xs = hx * np.arange(0, nx + 2)
        ys = hy * np.arange(0, ny + 2)
        rows = [(x, 0.0) for x in xs] + [(x, self.extents[1]) for x in xs]
        rows += [(0.0, y) for y in ys[1:-1]] + [(self.extents[0], y) for y in ys[1:-1]]
        return np.array(rows)

    def field(self, values):
        return Field(self, np.asarray(values, dtype=float))

    def zeros(self):
        return self.field(np.zeros(self.n_total))

    # ---- Discrete operators ----

    def _axis_operator(self, axis):
        n = self.shape[axis]
        h = self.spacing[axis]
        return sp.diags(
            [-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
            offsets=[-1, 0, 1],
            format="csr",
        ) / h**2

    def neg_laplacian(self):
        """Sparse matrix A with (A u)_i = (-Laplacian u)_i."""
        if self._matrix is None:
            if self.dim == 1:
                self._matrix = self._axis_operator(0).tocsr()
            else:
                Ax = self._axis_operator(0)
                Ay = self._axis_operator(1)
                Ix = sp.identity(self.shape[0], format="csr")
                Iy = sp.identity(self.shape[1], format="csr")
                self._matrix = (sp.kron(Ax, Iy) + sp.kron(Ix, Ay)).tocsr()
        return self._matrix

    def lu(self):
        """LU factorization of the -Laplacian, computed once and reused."""
        if self._lu is None:
            self._lu = splu(self.neg_laplacian().tocsc())
        return self._lu

    def diff_matrices(self):
        """Central-difference matrices per axis (Dirichlet 0 beyond the
        boundary), used for gradient components and their linearization."""
        if self._diff is None:
            mats = []
            for axis in range(self.dim):
                n = self.shape[axis]
                h = self.spacing[axis]
                D1 = sp.diags(
                    [-np.ones(n - 1), np.ones(n - 1)], offsets=[-1, 1], format="csr"
                ) / (2 * h)
                if self.dim == 1:
                    mats.append(D1.tocsr())
                elif axis == 0:
                    mats.append(sp.kron(D1, sp.identity(self.shape[1])).tocsr())
                else:
                    mats.append(sp.kron(sp.identity(self.shape[0]), D1).tocsr())
            self._diff = tuple(mats)
        return self._diff

    def __repr__(self):
        return f"Grid(kind={self.kind!r}, extents={self.extents}, shape={self.shape})"


@dataclass
class Field:
    """Interior node values of a scalar function with 0 boundary trace."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_total,):
            raise ShapeError(
                f"field has {self.values.shape} values, grid has "
                f"{self.grid.n_total} interior nodes"
            )

    def min(self):
        return float(self.values.min())

    def max(self):
        return float(self.values.max())

    def copy(self):
        return Field(self.grid, self.values.copy())


def build_grid(kind, extents, n_interior):
    """Build a uniform grid with n_interior nodes per axis.

    `extents` and `n_interior` may be scalars (broadcast to both axes of a
    rectangle) or per-axis sequences.  Spacing is extent / (n_interior + 1).
    """
    return Grid(kind, extents, n_interior)


def _check_field(grid, field):
    if field.grid is not grid and (
        field.grid.kind != grid.kind
        or field.grid.shape != grid.shape
        or field.grid.extents != grid.extents
    ):
        raise ShapeError("field does not live on this grid")
    if field.values.shape != (grid.n_total,):
        raise ShapeError("field length does not match grid")


def apply_laplacian(grid, field):
    """Return -Laplacian of the field (second-order stencil, Dirichlet 0)."""
    _check_field(grid, field)
    return Field(grid, grid.neg_laplacian() @ field.values)


def gradient_components(grid, field):
    """Central-difference derivative per axis; list of plain arrays."""
    _check_field(grid, field)
    return [D @ field.values for D in grid.diff_matrices()]


def gradient_magnitude(grid, field):
    """|grad u| at interior nodes via central differences; stencils
    adjacent to the boundary use the Dirichlet 0 value."""
    comps = gradient_components(grid, field)
    if len(comps) == 1:
        return Field(grid, np.abs(comps[0]))
    return Field(grid, np.sqrt(sum(c**2 for c in comps)))


def boundary_distance(grid):
    """Exact distance of each interior node to the boundary."""
    c = grid.coords()
    dist = np.full(grid.n_total, np.inf)
    for i in range(grid.dim):
        dist = np.minimum(dist, c[:, i])
        dist = np.minimum(dist, grid.extents[i] - c[:, i])
    return Field(grid, dist)


def integrate(grid, field):
    """h-weighted node sum (composite trapezoid, boundary terms vanish)."""
    _check_field(grid, field)
    return float(np.prod(grid.spacing) * field.values.sum())


# ---- Field snapshots (CSV, row-major, header x[,y],value) ----

def write_field_csv(field, path):
    grid = field.grid
    cols = [grid.coords()[:, i] for i in range(grid.dim)]
    header = ("x,value" if grid.dim == 1 else "x,y,value") + "\n"
    with open(path, "w") as fh:
        fh.write(header)
        for row in zip(*cols, field.values):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_field_csv(grid, path):
    with open(path) as fh:
        header = fh.readline().strip()
        expected = "x,value" if grid.dim == 1 else "x,y,value"
        if header != expected:
            raise ShapeError(f"bad field CSV header {header!r}, expected {expected!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] != grid.n_total or data.shape[1] != grid.dim + 1:
        raise ShapeError(
            f"field CSV has shape {data.shape}, grid expects "
            f"({grid.n_total}, {grid.dim + 1})"
        )
    return Field(grid, data[:, -1])
