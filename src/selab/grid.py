"""Uniform Dirichlet grids on an interval or axis-aligned rectangle.

Interior nodes only are stored: with n interior nodes per axis the spacing
is h = extent / (n + 1) and the boundary carries the homogeneous Dirichlet
value 0, so every stencil that reaches a boundary node substitutes 0.

The discrete -Laplacian is the standard second-order 3-point (1d) or
5-point (2d) stencil; it is exact on quadratics and O(h^2) on smooth
fields.  Gradients are central differences per axis, again feeding the
Dirichlet 0 into stencils adjacent to the boundary.  Quadrature is the
h-weighted node sum, i.e. composite trapezoid given the zero boundary.

Every difference matrix D_k reaches only neighbours the -Laplacian A
already couples, so a Newton Jacobian A + diag(d) + sum_k diag(w_k) D_k
has exactly the sparsity of A.  `Grid.jacobian` assembles it on that
fixed pattern: a tridiagonal band solved by LAPACK `dgtsv` on intervals,
a refilled copy of A's CSC data for `splu` on rectangles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv
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
    value-immutability.  So is the Jacobian pattern behind `jacobian`:
    on an interval A's (3, n) band template, on a rectangle A in CSC
    form with the positions of its diagonal and of every D_k entry in
    its `data`.  The caches hold arrays and matrices only, never a Field
    or anything else that points back at the grid, so a dropped grid is
    freed by reference counting alone.
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
        self._pattern = None

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

    def apply_neg_laplacian(self, u):
        """A u as an array.  On an interval the 3-point stencil is applied
        by slicing, which sums the same products in the same order as the
        sparse product."""
        if self.dim == 2:
            return self.neg_laplacian() @ u
        inv = 1.0 / self.spacing[0] ** 2
        pad = np.concatenate(([0.0], u, [0.0]))
        return -inv * pad[:-2] + 2.0 * inv * pad[1:-1] - inv * pad[2:]

    def central_differences(self, u):
        """Central-difference derivative of u per axis, as a list of arrays
        (by slicing on an interval, like `apply_neg_laplacian`)."""
        if self.dim == 2:
            return [D @ u for D in self.diff_matrices()]
        c = 1.0 / (2 * self.spacing[0])
        pad = np.concatenate(([0.0], u, [0.0]))
        return [c * pad[2:] - c * pad[:-2]]

    def jacobian(self, diag, weights):
        """The Newton Jacobian A + diag(diag) + sum_k diag(weights[k]) D_k,
        filled into A's cached sparsity pattern; `weights` is empty when
        there is no convection term."""
        if self._pattern is None:
            self._pattern = self._jacobian_pattern()
        if self.dim == 1:
            template, upper, lower = self._pattern
            band = template.copy()
            band[1] += diag
            for w in weights:
                band[0, 1:] += w[:-1] * upper
                band[2, :-1] += w[1:] * lower
            return Jacobian(band)
        csc, diag_pos, entries = self._pattern
        data = csc.data.copy()
        data[diag_pos] += diag
        for w, (pos, rows, coef) in zip(weights, entries):
            data[pos] += w[rows] * coef
        return Jacobian(sp.csc_matrix((data, csc.indices, csc.indptr),
                                      shape=csc.shape))

    def _jacobian_pattern(self):
        A = self.neg_laplacian()
        diffs = self.diff_matrices()
        if self.dim == 1:
            # LAPACK band storage: entry (i, j) sits at band[1 + i - j, j]
            band = np.zeros((3, self.n_total))
            band[0, 1:] = A.diagonal(1)
            band[1] = A.diagonal()
            band[2, :-1] = A.diagonal(-1)
            D, = diffs
            return band, D.diagonal(1), D.diagonal(-1)
        csc = A.tocsc()
        csc.sort_indices()
        n = self.n_total
        # column-major keys of the stored entries, ascending in data order
        keys = (np.repeat(np.arange(n, dtype=np.int64), np.diff(csc.indptr)) * n
                + csc.indices)

        def positions(rows, cols):
            return np.searchsorted(keys, cols.astype(np.int64) * n + rows)

        nodes = np.arange(n)
        entries = []
        for D in diffs:
            coo = D.tocoo()
            entries.append((positions(coo.row, coo.col), coo.row, coo.data))
        return csc, positions(nodes, nodes), tuple(entries)

    def __repr__(self):
        return f"Grid(kind={self.kind!r}, extents={self.extents}, shape={self.shape})"


class Jacobian:
    """A Newton Jacobian built by `Grid.jacobian`: a (3, n) array in LAPACK
    band storage on an interval, a CSC matrix on a rectangle."""

    def __init__(self, matrix):
        self.matrix = matrix

    def solve(self, rhs):
        """J^-1 rhs.  A singular J raises RuntimeError (splu) on a
        rectangle.  On an interval the band's three diagonals go straight
        to LAPACK `dgtsv` (the routine `solve_banded` dispatches to for a
        (1, 1) band, without its wrapper's 20-30 us per call): a zero
        pivot (info > 0) raises numpy.linalg.LinAlgError, and a non-finite
        J or rhs raises ValueError, of which LinAlgError is a subclass;
        `dgtsv` does not check finiteness itself, so it is checked here.
        (Its info < 0 flags a malformed argument, which the band's fixed
        shape rules out.)"""
        band = self.matrix
        if sp.issparse(band):
            return splu(band).solve(rhs)
        if not (np.isfinite(band).all() and np.isfinite(rhs).all()):
            raise ValueError("Jacobian band or right-hand side is not finite")
        _, _, _, x, info = dgtsv(band[2, :-1], band[1], band[0, 1:], rhs)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular matrix (zero pivot {info})")
        return x

    def toarray(self):
        if sp.issparse(self.matrix):
            return self.matrix.toarray()
        band = self.matrix
        return np.diag(band[1]) + np.diag(band[0, 1:], 1) + np.diag(band[2, :-1], -1)


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
    return Field(grid, grid.apply_neg_laplacian(field.values))


def gradient_components(grid, field):
    """Central-difference derivative per axis; list of plain arrays."""
    _check_field(grid, field)
    return grid.central_differences(field.values)


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
