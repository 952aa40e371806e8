"""Uniform Dirichlet grids on an interval or axis-aligned rectangle.

Interior nodes only are stored: with n interior nodes per axis the spacing
is h = extent / (n + 1) and the boundary carries the homogeneous Dirichlet
value 0, so every stencil that reaches a boundary node substitutes 0.

The discrete -Laplacian is the standard second-order 3-point (1d) or
5-point (2d) stencil; it is exact on quadratics and O(h^2) on smooth
fields.  Gradients are central differences per axis, again feeding the
Dirichlet 0 into stencils adjacent to the boundary.

Every matrix on the grid is such a stencil: A itself (fixed-point
sweeps, the envelope), the monotone sweep's A + diag(D), and the Newton
Jacobian A + diag(d) + sum_k diag(w_k) D_k, since every difference
matrix D_k reaches only neighbours A already couples.  Each is held as
its stencil's coefficients (`Grid._coefficients`, built on A's and
D_k's, which the grid fixes when it is made) and applied to a copy of
the field padded with its Dirichlet zeros, one contiguous slice per
neighbour (`_apply`; Jacobian-free Newton-Krylov, Knoll & Keyes, J.
Comput. Phys. 193, 2004, likewise applies a Jacobian without assembling
it).  The products are summed in the column order of the matrix's
sparse rows, so each is the sparse product's bit for bit.  A sparse
matrix is assembled from the same coefficients (`_assemble`) only where
a factorization needs one, and for `neg_laplacian` and
`diff_matrices`, which no solver uses.  `Grid.factor` forms the
coefficients, checks they are finite and returns the one `Factor`
class, whose solves check their right-hand side as well; `Grid.lu` is
A's, computed once.  On intervals the three diagonals are factored by
LAPACK `dgttrf`; on rectangles the matrix is a `Stencil`, solved
through a `LaggedFactor` chain.

A itself is never factored on a rectangle.  It is the Kronecker sum of
two 3-point stencils, whose eigenvectors are the sine modes, so the
orthonormal type-I sine matrices S_x and S_y of the two axes (each
symmetric and its own inverse) diagonalize it:
A^-1 b = S_x ((S_x B S_y) / Lambda) S_y, with B the right-hand side as an
nx x ny array and Lambda[j, k] the sum of the per-axis eigenvalues
`Grid.sine_eigenvalues` (the fast Poisson solver: Hockney, J. ACM 12,
1965; Swarztrauber, SIAM Review 19, 1977).  Each transform is two small
matrix products (see `Grid.lu`), so no FFT module is loaded.  `splu`,
`dgttrf` and `dgttrs` are module attributes, so rebinding one (as a
tracer does) sees every call.

Every other rectangle matrix A + diag(d) + sum_k diag(w_k) D_k is A plus
lower-order terms, so A^-1 preconditions it well (Concus & Golub, SIAM
J. Numer. Anal. 10, 1973; Elman & Schultz, SIAM J. Numer. Anal. 23,
1986), and it is rarely factored.  Each joins a `LaggedFactor` chain,
carried by its caller (a Newton solve, a branch trace), never by the
grid, whose preconditioner is A^-1 (`Grid.lu`) until GMRES on it falls
short, then the last exact factor.  GMRES stops at the tolerance the
caller asks for (never below 1e-12 relative; a Newton step's forcing
term, see `solver.newton_solve`), and a matrix is factored, becoming the
lagged factor, only when GMRES would need more than 12 iterations; its
later solves take that factor alone, so the monotone sweep factors
A + diag(D) at most once.  A chain counts the exact factorizations and
GMRES iterations it spends, an interval Jacobian factored for it as one.

That factor is the one `splu` call, on the matrix's CSC form assembled
for it alone (`Stencil.tocsc`) and a fill-reducing ordering it
computes for its matrix: SuperLU's multiple minimum degree on A^T + A
(Liu, ACM TOMS 11, 1985), named once, in `_ORDERING`, whose factors hold
about 0.56 times the entries of COLAMD's (`splu`'s default) on the
five-point pattern.  No ordering is kept between factors: computing one
costs a tenth to a fifth of the factorization it serves, and SuperLU
yields one only with a whole factor, which the few exact factors of a
chain do not repay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import splu

from .errors import GridError, ShapeError

_KINDS = ("interval", "rectangle")
# the column ordering of every rectangle factor (see the module docstring)
_ORDERING = "MMD_AT_PLUS_A"
# GMRES on A^-1 or on a lagged Jacobian factor must reach its target
# within this many iterations, or the Jacobian is factored afresh; no
# target is tighter than this relative residual
_KRYLOV_RTOL = 1e-12
_KRYLOV_CAP = 12


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

    Derived operators (the -Laplacian matrix, its `Factor`,
    central-difference matrices, the sine eigenvalues) are built once on
    first use and cached; they are pure functions of the grid, so the
    cache does not break value-immutability.  The solvers apply stencils
    and keep no work array on the grid, so threads can share one.  The
    caches hold arrays, matrices and factors only, never a Field or
    anything else that points back at the grid, so a dropped grid is
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
        # the stencils of A (the coefficient of either neighbour along each
        # axis, and of the node) and of D_k (the neighbour a step up axis k;
        # the one a step down takes its negative)
        self._offdiag = tuple(-1.0 / h**2 for h in self.spacing)
        self._diag = sum(2.0 / h**2 for h in self.spacing)
        self._central = tuple(1.0 / (2 * h) for h in self.spacing)
        self._coords = None
        self._matrix = None
        self._lu = None
        self._sines = None
        self._diff = None

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

    def _coefficients(self, diag, weights):
        """(minus, center, plus) of A + diag(diag) + sum_k diag(weights[k]) D_k
        as a stencil: per axis k, the coefficient of the neighbour one step
        down and of the one a step up axis k, then the diagonal, each a
        scalar or an array in `_on_rows` layout.  An off-diagonal is A's
        -1/h_k^2 plus w_k times D_k's -+1/(2 h_k), the diagonal sum_k
        2/h_k^2 plus d, each summed in that order: the sparse sum
        A + diag(d) + sum_k diag(w_k) D_k, with A the Kronecker sum of the
        axes' 3-point stencils, forms every entry so."""
        minus, plus = list(self._offdiag), list(self._offdiag)
        for k, (w, c) in enumerate(zip(weights, self._central)):
            w = _on_rows(w, self.shape)
            minus[k] = minus[k] + w * -c
            plus[k] = plus[k] + w * c
        if np.ndim(diag):
            diag = _on_rows(diag, self.shape)
        return minus, self._diag + diag, plus

    def neg_laplacian(self):
        """Sparse matrix A with (A u)_i = (-Laplacian u)_i, assembled once
        from the stencil of `apply_neg_laplacian`; no solver forms it."""
        if self._matrix is None:
            self._matrix = sp.csr_matrix(
                _assemble(self.shape, self._offdiag, self._diag, self._offdiag),
                shape=(self.n_total,) * 2)
        return self._matrix

    def apply_neg_laplacian(self, u):
        """A u from the stencil on u padded with its Dirichlet zeros, bit for
        bit the sparse product `neg_laplacian() @ u`."""
        return _off_rows(_apply(_padded(u, self.shape), self.shape, self._offdiag,
                                self._diag, self._offdiag), self.shape)

    def sine_eigenvalues(self):
        """Per axis, the eigenvalues (4/h^2) sin^2(k pi h / 2L), k = 1..n,
        of the 3-point stencil on its sine modes sin(k pi x / L); A's are
        their sums over the axes.  Computed once."""
        if self._sines is None:
            self._sines = tuple(
                4.0 / h**2 * np.sin(np.arange(1, n + 1) * np.pi * h / (2.0 * L)) ** 2
                for h, L, n in zip(self.spacing, self.extents, self.shape))
        return self._sines

    def lu(self):
        """The -Laplacian A as a `Factor`, computed once and reused.  On an
        interval it is `factor(0, ())`.  On a rectangle nothing is
        factored: a solve is S_x ((S_x B S_y) / Lambda) S_y, the sine
        transform, a division by A's eigenvalues and the transform back,
        with the sine matrices of `_sine_matrix` built once.  That is
        4 nx ny (nx + ny) flops per solve, O(n^3) on an n x n grid, where
        an FFT takes O(n^2 log n).  On n x n grids one transform's two
        products take 6, 18, 52 and 167 us at n = 39, 63, 95 and 127,
        against 26, 49, 95 and 229 us for an FFT sine transform, which
        overtakes them at about n = 150 and takes 0.9 against 1.5 ms at
        n = 255 (one BLAS thread on a 2-vCPU x86-64 machine).  The grid
        ladder selab's performance is measured on stops at 127^2."""
        if self._lu is None:
            if self.dim == 1:
                self._lu = self.factor(0.0, ())
            else:
                sx, sy = (_sine_matrix(n) for n in self.shape)
                lx, ly = self.sine_eigenvalues()
                eig = lx[:, None] + ly[None, :]
                shape = self.shape  # the solve must not point back at the grid

                def solve(rhs, rtol, atol):
                    b = sx @ rhs.reshape(shape) @ sy
                    return (sx @ (b / eig) @ sy).ravel()

                self._lu = Factor(solve)
        return self._lu

    def diff_matrices(self):
        """Central-difference matrices per axis (Dirichlet 0 beyond the
        boundary), assembled once from the stencil of
        `central_differences`, the only one the solvers apply."""
        if self._diff is None:
            mats = []
            for k, c in enumerate(self._central):
                minus, plus = [None] * self.dim, [None] * self.dim
                minus[k], plus[k] = -c, c
                mats.append(sp.csr_matrix(_assemble(self.shape, minus, None, plus),
                                          shape=(self.n_total,) * 2))
            self._diff = tuple(mats)
        return self._diff

    def central_differences(self, u):
        """Central-difference derivative of u per axis, as a list of arrays,
        by slicing u padded with its Dirichlet zeros."""
        return self._differences(_padded(u, self.shape))

    def residual_stencils(self, u):
        """(A u, central_differences(u)), the two stencils of a residual,
        both from one padded copy of u; A u is bit for bit the sparse
        product (see `_apply`)."""
        pad = _padded(u, self.shape)
        Au = _apply(pad, self.shape, self._offdiag, self._diag, self._offdiag)
        return _off_rows(Au, self.shape), self._differences(pad)

    def _differences(self, pad):
        strides = _strides(self.shape)
        first, size = strides[0], self.shape[0] * strides[0]
        comps = []
        for step, c in zip(strides, self._central):
            comp = c * pad[first + step:first + step + size]
            comp -= c * pad[first - step:first - step + size]
            comps.append(_off_rows(comp, self.shape))
        return comps

    def factor(self, diag, weights, lagged=None):
        """A + diag(diag) + sum_k diag(weights[k]) D_k, formed as its
        stencil's coefficients (`_coefficients`), as a `Factor` for any
        number of solves; `weights` is empty for A itself and for the
        monotone sweep's A + diag(D).  A non-finite coefficient raises
        ValueError before any factorization.  On an interval the three
        diagonals go straight to LAPACK `dgttrf` (Gaussian elimination with
        partial pivoting): a zero pivot raises numpy.linalg.LinAlgError, a
        ValueError; the factor counts in `lagged.factorizations` when a
        chain is given.

        On a rectangle nothing is factored or assembled here: the matrix is
        a `Stencil` and joins the chain `lagged`, a fresh `LaggedFactor`
        when none is given.  Each solve runs GMRES, which applies the
        stencil, preconditioned by A^-1 (`lu`) or, once one has been made,
        by the chain's last exact factor, and assembles and factors the
        matrix by `splu` on its own minimum-degree ordering (`_ORDERING`)
        only when GMRES falls short, raising RuntimeError then if it is
        singular (see `LaggedFactor.solve`)."""
        minus, center, plus = self._coefficients(diag, weights)
        if self.dim == 1:
            band = np.empty((3, self.n_total))
            band[0], band[1], band[2] = plus[0], center, minus[0]
            _require_finite(band, "matrix")
            *lu, info = dgttrf(band[2, 1:], band[1], band[0, :-1])
            if info > 0:
                raise np.linalg.LinAlgError(f"singular matrix (zero pivot {info})")
            if lagged is not None:
                lagged.factorizations += 1
            return Factor(lambda rhs, rtol, atol: dgttrs(*lu, rhs)[0])
        for coef in (*minus, center, *plus):
            _require_finite(coef, "matrix")
        matrix = Stencil(self.shape, minus, center, plus)
        if lagged is None:
            lagged = LaggedFactor()
        poisson = self.lu()
        return Factor(lambda rhs, rtol, atol:
                      lagged.solve(matrix, poisson, rhs, rtol, atol))

    def __repr__(self):
        return f"Grid(kind={self.kind!r}, extents={self.extents}, shape={self.shape})"


class Factor:
    """A factored matrix of `Grid.factor` or `Grid.lu`: `solve` maps a
    right-hand side to the solution, after checking it is finite.  The
    callable it wraps takes (rhs, rtol, atol); only GMRES, on a rectangle
    matrix its chain has not factored, reads the tolerances, and the
    exact solves (LAPACK, SuperLU, sine transforms) ignore them."""

    def __init__(self, solve):
        self._solve = solve

    def solve(self, rhs, rtol=_KRYLOV_RTOL, atol=0.0):
        """M^-1 rhs; a non-finite rhs raises ValueError.  Through GMRES,
        x is returned once |rhs - M x| <= max(rtol |rhs|, atol) in 2-norm
        (rtol no tighter than 1e-12); an exact factor ignores both
        tolerances."""
        _require_finite(rhs, "right-hand side")
        return self._solve(rhs, rtol, atol)


class LaggedFactor:
    """The preconditioner of a run of rectangle matrices: the grid's
    A^-1 until GMRES on it falls short, then the last exact factor,
    which solves its own matrix and preconditions the ones after it
    (Knoll & Keyes, J. Comput. Phys. 193, 2004, on frozen
    preconditioners).  A Newton solve carries one from step to step, a
    continuation from stage to stage and `solver.branch_fold` from point
    to point; the grid never holds one, so a solve does not depend on
    what ran on its grid before.  It keeps at most one factor alive.
    `factorizations` and `krylov_iterations` count the exact factors
    made for it and the GMRES iterations run on it."""

    def __init__(self):
        self._superlu = None
        self._matrix = None  # the matrix `_superlu` factors
        self.factorizations = 0
        self.krylov_iterations = 0

    def solve(self, matrix, poisson, rhs, rtol, atol):
        """matrix^-1 rhs for a `Stencil` of `Grid.factor`: by the lagged
        factor alone when it is this matrix's own; otherwise by GMRES on
        the lagged factor, or on `poisson` (the grid's A^-1 `Factor`) while
        there is none, when it reaches max(rtol |rhs|, atol); otherwise by
        an exact factor of the matrix, assembled for `splu` only then,
        which becomes the lagged one."""
        if matrix is self._matrix:
            return self._superlu.solve(rhs)
        precondition = poisson.solve if self._superlu is None else self._superlu.solve
        x, iterations = gmres(matrix, precondition, rhs, rtol, atol)
        self.krylov_iterations += iterations
        if x is not None:
            return x
        # drop the stale factor before the new one
        self._superlu = self._matrix = None
        self._superlu = splu(matrix.tocsc(), permc_spec=_ORDERING)
        self._matrix = matrix
        self.factorizations += 1
        return self._superlu.solve(rhs)


class Stencil:
    """A rectangle matrix A + diag(d) + sum_k diag(w_k) D_k held as the
    coefficients of its five-point stencil (`Grid._coefficients`): `@`
    applies it to a vector, bit for bit the product with its sparse
    form, and `tocsc` assembles that form."""

    def __init__(self, shape, minus, center, plus):
        self.shape = shape
        self.minus, self.center, self.plus = minus, center, plus

    def __matmul__(self, x):
        return _off_rows(_apply(_padded(x, self.shape), self.shape, self.minus,
                                self.center, self.plus), self.shape)

    def tocsc(self):
        """The matrix in CSC form with sorted row indices, the form `splu`
        takes: the CSR form of its transpose, whose stencil reads each
        off-diagonal coefficient at the neighbour it couples to."""
        shape = self.shape
        size = shape[0] * _strides(shape)[0]

        def nodal(coef):
            return _off_rows(np.broadcast_to(coef, (size,)), shape).reshape(shape)

        minus = [np.roll(nodal(c), 1, axis=k) for k, c in enumerate(self.plus)]
        plus = [np.roll(nodal(c), -1, axis=k) for k, c in enumerate(self.minus)]
        n = int(np.prod(shape))
        return sp.csc_matrix(_assemble(shape, minus, nodal(self.center), plus),
                             shape=(n, n))


def gmres(matrix, precondition, rhs, rtol, atol):
    """(x, iterations) with |rhs - matrix x| <= max(rtol |rhs|, atol) in
    2-norm, rtol raised to _KRYLOV_RTOL if it is below, by GMRES from
    x = 0 right-preconditioned by `precondition` (an approximate
    matrix^-1), so the residual it minimizes is the true one (Saad &
    Schultz, SIAM J. Sci. Stat. Comput. 7, 1986; Gram-Schmidt twice,
    Givens rotations).  Each preconditioned basis vector z_k is kept, as
    flexible GMRES keeps them (Saad, SIAM J. Sci. Comput. 14, 1993), and
    x is their combination, so no solve follows the last iteration.  x
    is None when _KRYLOV_CAP iterations do not reach the target, or once
    the last iteration's rate of decrease, kept up over the iterations
    left, would not."""
    norm = float(np.linalg.norm(rhs))
    if norm == 0.0:
        return np.zeros_like(rhs), 0
    target = max(max(rtol, _KRYLOV_RTOL) * norm, atol)
    basis = np.zeros((_KRYLOV_CAP + 1, rhs.size))
    basis[0] = rhs / norm
    preconditioned = np.zeros((_KRYLOV_CAP, rhs.size))
    hess = np.zeros((_KRYLOV_CAP + 1, _KRYLOV_CAP))
    # the residual of the projected least-squares problem, rotated
    g = np.zeros(_KRYLOV_CAP + 1)
    g[0] = norm
    rotations = []
    for k in range(_KRYLOV_CAP):
        preconditioned[k] = precondition(basis[k])
        w = matrix @ preconditioned[k]
        for _ in range(2):
            coef = basis[:k + 1] @ w
            w -= coef @ basis[:k + 1]
            hess[:k + 1, k] += coef
        hess[k + 1, k] = np.linalg.norm(w)
        if hess[k + 1, k] > 0.0:
            basis[k + 1] = w / hess[k + 1, k]
        for i, (c, s) in enumerate(rotations):
            hess[i, k], hess[i + 1, k] = (c * hess[i, k] + s * hess[i + 1, k],
                                          c * hess[i + 1, k] - s * hess[i, k])
        r = np.hypot(hess[k, k], hess[k + 1, k])
        if r == 0.0:  # matrix times the preconditioner is singular
            return None, k + 1
        c, s = hess[k, k] / r, hess[k + 1, k] / r
        rotations.append((c, s))
        hess[k, k] = r
        g[k + 1] = -s * g[k]
        g[k] *= c
        # this iteration cut the residual by |s|
        rho = abs(g[k + 1])
        if rho <= target:
            y = np.linalg.solve(np.triu(hess[:k + 1, :k + 1]), g[:k + 1])
            return y @ preconditioned[:k + 1], k + 1
        if k > 0 and rho * abs(s) ** (_KRYLOV_CAP - 1 - k) > target:
            return None, k + 1
    return None, _KRYLOV_CAP


def _padded(u, shape):
    """u with a border of Dirichlet zeros as a flat array, in which a step
    along axis k is `_strides(shape)[k]` entries."""
    if len(shape) == 1:
        return np.concatenate(([0.0], u, [0.0]))
    nx, ny = shape
    pad = np.zeros((nx + 2) * (ny + 2))
    pad.reshape(nx + 2, ny + 2)[1:-1, 1:-1] = np.reshape(u, shape)
    return pad


def _strides(shape):
    return (shape[1] + 2, 1) if len(shape) == 2 else (1,)


def _on_rows(values, shape):
    """Nodal values in the layout of `_apply`: the grid's rows along its
    first axis, on a rectangle each with a 0 at either end, flat."""
    if len(shape) == 1:
        return values
    rows = np.zeros((shape[0], shape[1] + 2))
    rows[:, 1:-1] = np.reshape(values, shape)
    return rows.ravel()


def _off_rows(rows, shape):
    """The nodal values, in node order, of an array in `_on_rows` layout."""
    return rows if len(shape) == 1 else rows.reshape(shape[0], -1)[:, 1:-1].ravel()


def _apply(pad, shape, minus, center, plus):
    """The stencil (minus, center, plus) of `Grid._coefficients` applied to
    the `_padded` field `pad`, in `_on_rows` layout: every term is then a
    contiguous slice of `pad`.  The terms are summed in the column order of
    the stencil's sparse rows (a step down each axis from the first, the
    node, a step up each axis from the last), so the result is the sparse
    product's bit for bit, but for the sign of a zero: a neighbour past
    the boundary adds its coefficient times the padding's 0, and a sum
    whose every term is -0 stays -0, where the sparse product, which
    starts from +0, gives +0.  Each product is formed in one scratch
    array and added into the result in place."""
    step = _strides(shape)[0]
    size = shape[0] * step
    out = np.multiply(minus[0], pad[:size])
    rest = [(center, step)]
    if len(shape) == 2:
        rest = [(minus[1], step - 1), (center, step), (plus[1], step + 1)]
    scratch = np.empty(size)
    for coef, start in rest + [(plus[0], 2 * step)]:
        out += np.multiply(coef, pad[start:start + size], out=scratch)
    return out


def _assemble(shape, minus, center, plus):
    """(data, indices, indptr) of the CSR form of the stencil (minus,
    center, plus) on a grid of `shape`, each row's entries in column order;
    a neighbour past the boundary, or a coefficient of None, stores no
    entry."""
    dim = len(shape)
    index = np.arange(int(np.prod(shape)), dtype=np.int32).reshape(shape)
    position = np.indices(shape, dtype=np.int32)
    strides = [int(np.prod(shape[k + 1:])) for k in range(dim)]
    terms = ([(minus[k], -strides[k], position[k] > 0) for k in range(dim)]
             + [(center, 0, True)]
             + [(plus[k], strides[k], position[k] < shape[k] - 1)
                for k in reversed(range(dim))])
    terms = [term for term in terms if term[0] is not None]
    stored = np.stack([np.broadcast_to(term[2], shape) for term in terms], axis=-1)
    data = np.stack([np.broadcast_to(term[0], shape) for term in terms], axis=-1)
    indices = np.stack([index + term[1] for term in terms], axis=-1)
    indptr = np.zeros(index.size + 1, dtype=np.int32)
    np.cumsum(stored.reshape(index.size, -1).sum(axis=1), out=indptr[1:])
    return data[stored], indices[stored], indptr


def _sine_matrix(n):
    """The orthonormal type-I sine matrix, S[j, k] = sqrt(2 / (n + 1))
    sin(pi (j + 1)(k + 1) / (n + 1)): symmetric, S S = I.  The angle's
    integer factor is reduced mod 2(n + 1) first, so sin never sees an
    argument beyond 2 pi; unreduced, S S - I reaches 1.1e-14 at n = 255,
    reduced 8.9e-16."""
    k = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(k, k) % (2 * (n + 1))
                                           * (np.pi / (n + 1)))


def _require_finite(values, what):
    if not np.isfinite(values).all():
        raise ValueError(f"{what} is not finite")


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


def gradient_components(grid, field):
    """Central-difference derivative per axis; list of plain arrays."""
    _check_field(grid, field)
    return grid.central_differences(field.values)


def magnitude(comps):
    """|grad u| as an array, from its central-difference components."""
    return np.abs(comps[0]) if len(comps) == 1 else np.sqrt(sum(c**2 for c in comps))


def gradient_magnitude(grid, field):
    """|grad u| at interior nodes via central differences; stencils
    adjacent to the boundary use the Dirichlet 0 value."""
    return Field(grid, magnitude(gradient_components(grid, field)))


def boundary_distance(grid):
    """Exact distance of each interior node to the boundary."""
    c = grid.coords()
    dist = np.full(grid.n_total, np.inf)
    for i in range(grid.dim):
        dist = np.minimum(dist, c[:, i])
        dist = np.minimum(dist, grid.extents[i] - c[:, i])
    return Field(grid, dist)


# ---- Field snapshots (CSV, row-major, header x[,y],value) ----

def write_field_csv(field, path):
    """One row per node, its coordinates and value each written as the
    repr of the float (the shortest text that reads back to it).  Each
    axis coordinate is formatted once, not once per row: a rectangle's
    rows are written one line of x at a time, the leading "x," shared by
    its rows and the ",y," texts by every line; an interval's 1024 at a
    time, which is as fast as one write and holds a tenth of the text."""
    grid = field.grid
    values = list(map(repr, field.values.tolist()))
    with open(path, "w") as fh:
        if grid.dim == 1:
            fh.write("x,value\n")
            xs = [x + "," for x in map(repr, grid.axes[0].tolist())]
            for start in range(0, grid.n_total, 1024):
                stop = start + 1024
                fh.write("\n".join(map(str.__add__, xs[start:stop],
                                       values[start:stop])) + "\n")
            return
        fh.write("x,y,value\n")
        ys = ["," + y + "," for y in map(repr, grid.axes[1].tolist())]
        ny = len(ys)
        for i, x in enumerate(map(repr, grid.axes[0].tolist())):
            line = values[i * ny:(i + 1) * ny]
            fh.write(x + ("\n" + x).join(map(str.__add__, ys, line)) + "\n")


def read_field_csv(grid, path):
    """The Field on `grid` that `write_field_csv` wrote to `path`; a wrong
    header or shape, an entry that is not finite, or a row whose
    coordinates are more than a thousandth of a spacing off its grid node
    raises ShapeError."""
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
    if not np.all(np.isfinite(data)):
        raise ShapeError(f"field CSV {path!r} entries must be finite")
    nodes = grid.coords()
    off = np.abs(data[:, :-1] - nodes) > 1e-3 * np.asarray(grid.spacing)
    if off.any():
        row = int(np.flatnonzero(off.any(axis=1))[0])
        raise ShapeError(
            f"field CSV {path!r} row {row + 1} sits at {data[row, :-1].tolist()}, "
            f"not at the grid node {nodes[row].tolist()}")
    return Field(grid, data[:, -1])
