import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

import selab.grid
from selab.errors import GridError, ShapeError
from selab.grid import (
    Factor,
    Field,
    boundary_distance,
    build_grid,
    gradient_components,
    gradient_magnitude,
    read_field_csv,
    write_field_csv,
)


def test_interval_layout():
    g = build_grid("interval", (1.0,), 9)
    assert g.dim == 1
    assert g.spacing == (0.1,)
    np.testing.assert_allclose(g.axes[0], 0.1 * np.arange(1, 10))
    assert g.n_total == 9


def test_rectangle_broadcasts_scalars():
    g = build_grid("rectangle", 2.0, 5)
    assert g.extents == (2.0, 2.0)
    assert g.shape == (5, 5)
    assert g.coords().shape == (25, 2)


@pytest.mark.parametrize(
    "kind,extents,n",
    [
        ("interval", (0.0,), 9),
        ("interval", (1.0,), 2),
        ("triangle", (1.0,), 9),
        ("rectangle", (1.0, -1.0), 5),
    ],
)
def test_degenerate_grids_rejected(kind, extents, n):
    with pytest.raises(GridError):
        build_grid(kind, extents, n)


def test_field_shape_checked():
    g = build_grid("interval", (1.0,), 9)
    with pytest.raises(ShapeError):
        Field(g, np.zeros(8))


def test_laplacian_matches_quadratic_exactly():
    # second differences are exact on quadratics
    g = build_grid("interval", (1.0,), 57)
    x = g.coords()[:, 0]
    out = g.neg_laplacian() @ (x * (1.0 - x))
    # sign convention: the operator is -Laplacian
    np.testing.assert_allclose(out, np.full(g.n_total, 2.0),
                               atol=1e-12)


def test_laplacian_eigenfunction_1d():
    g = build_grid("interval", (1.0,), 401)
    x = g.coords()[:, 0]
    u = np.sin(np.pi * x)
    out = g.neg_laplacian() @ u
    h = g.spacing[0]
    lam_h = 2.0 / h**2 * (1.0 - np.cos(np.pi * h))
    # discrete sine modes are exact eigenvectors of the stencil
    np.testing.assert_allclose(out, lam_h * u, atol=1e-11)


def test_laplacian_2d_separable():
    g = build_grid("rectangle", (1.0, 1.0), 31)
    xy = g.coords()
    u = np.sin(np.pi * xy[:, 0]) * np.sin(2 * np.pi * xy[:, 1])
    out = g.neg_laplacian() @ u
    hx, hy = g.spacing
    lam = (2 / hx**2 * (1 - np.cos(np.pi * hx))
           + 2 / hy**2 * (1 - np.cos(2 * np.pi * hy)))
    np.testing.assert_allclose(out, lam * u, atol=1e-10)


def test_neg_laplacian_is_an_m_matrix():
    g = build_grid("rectangle", (1.0, 1.0), 12)
    A = g.neg_laplacian().toarray()
    assert np.all(np.diag(A) > 0)
    off = A - np.diag(np.diag(A))
    assert np.all(off <= 0)
    np.testing.assert_allclose(A, A.T)


@pytest.mark.parametrize("kind,n", [("interval", 31), ("rectangle", 9)])
def test_lu_is_a_factor_of_the_neg_laplacian(kind, n, rng):
    g = build_grid(kind, 1.0, n)
    F = g.lu()
    assert isinstance(F, Factor) and g.lu() is F
    x = rng.standard_normal(g.n_total)
    b = g.neg_laplacian() @ x
    np.testing.assert_allclose(F.solve(b), x, rtol=0, atol=1e-12)
    b[3] = np.inf
    with pytest.raises(ValueError, match="not finite"):
        F.solve(b)


def test_lu_solves_an_uneven_rectangle_by_sine_transforms(rng):
    # unequal node counts and extents: both axes' eigenvalues, and the
    # row-major layout, must line up with the transforms
    g = build_grid("rectangle", (2.0, 0.5), (7, 12))
    x = rng.standard_normal(g.n_total)
    b = g.neg_laplacian() @ x
    got = g.lu().solve(b)
    assert np.linalg.norm(g.neg_laplacian() @ got - b) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(got - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("extents,shape", [(1.0, (3, 3)), ((1.0, 2.0), (31, 47))])
def test_lu_on_a_rectangle_agrees_with_splu(extents, shape, rng):
    # the sine-matrix products against a SuperLU factor of A itself
    g = build_grid("rectangle", extents, shape)
    b = rng.standard_normal(g.n_total)
    want = splu(g.neg_laplacian().tocsc()).solve(b)
    assert np.linalg.norm(g.lu().solve(b) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [3, 39, 127, 255])
def test_the_sine_matrix_is_symmetric_and_its_own_inverse(n):
    S = selab.grid._sine_matrix(n)
    np.testing.assert_array_equal(S, S.T)
    assert np.abs(S @ S - np.eye(n)).max() <= 1e-14


def counted_splu(monkeypatch):
    """The `permc_spec` of every `splu` call the grid makes."""
    calls = []

    def captured(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    monkeypatch.setattr(selab.grid, "splu", captured)
    return calls


def test_lu_on_a_rectangle_factors_nothing(monkeypatch, rng):
    calls = counted_splu(monkeypatch)
    g = build_grid("rectangle", (1.0, 1.3), (15, 11))
    g.lu().solve(rng.standard_normal(g.n_total))
    assert calls == []


def test_each_rectangle_factor_is_one_minimum_degree_splu(monkeypatch, rng):
    # the grid keeps no ordering: every factor on a rectangle is one
    # splu call that orders its own matrix by minimum degree, made when
    # GMRES falls short (a cap of 0 iterations here), and the matrix's
    # later solves use it
    monkeypatch.setattr(selab.grid, "_KRYLOV_CAP", 0)
    calls = counted_splu(monkeypatch)
    g = build_grid("rectangle", (1.0, 1.3), (15, 11))
    d = 1.0 + rng.uniform(0.0, 1.0, g.n_total)
    weights = (rng.standard_normal(g.n_total),) * 2
    for diag, w in ((d, ()), (2.0 * d, weights)):
        F = g.factor(diag, w)
        assert calls == []
        dense = g.neg_laplacian().toarray() + np.diag(diag)
        for wk, D in zip(w, g.diff_matrices()):
            dense += wk[:, None] * D.toarray()
        b = rng.standard_normal(g.n_total)
        want = np.linalg.solve(dense, b)
        for _ in range(2):
            assert np.linalg.norm(F.solve(b) - want) <= 1e-12 * np.linalg.norm(want)
        assert calls == ["MMD_AT_PLUS_A"]
        del calls[:]


# ---- the rectangle stencil against Kronecker-sum sparse matrices ----

STENCIL_GRIDS = pytest.mark.parametrize("extents,shape", [
    ((1.0, 1.3), (3, 3)), ((1.0, 1.3), (5, 7)), ((1.0, 1.3), (31, 29)),
    (1.0, (39, 39))])


def kron_operators(g):
    """A and the central differences D_k of `g`, built here as Kronecker
    sums of 1d stencils, independently of the grid's own assembly."""
    def second(n, h):
        return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                        offsets=[-1, 0, 1], format="csr") / h**2

    def first(n, h):
        return sp.diags([-np.ones(n - 1), np.ones(n - 1)], offsets=[-1, 1],
                        format="csr") / (2 * h)

    (nx, ny), (hx, hy) = g.shape, g.spacing
    Ix, Iy = sp.identity(nx, format="csr"), sp.identity(ny, format="csr")
    A = (sp.kron(second(nx, hx), Iy) + sp.kron(Ix, second(ny, hy))).tocsr()
    D = [sp.kron(first(nx, hx), Iy).tocsr(), sp.kron(Ix, first(ny, hy)).tocsr()]
    return A, D


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@STENCIL_GRIDS
def test_the_stencil_is_the_sparse_product_bit_for_bit(extents, shape, rng):
    g = build_grid("rectangle", extents, shape)
    A, D = kron_operators(g)
    u = rng.standard_normal(g.n_total) * 10.0 ** rng.integers(-3, 4, g.n_total)
    Au, comps = g.residual_stencils(u)
    assert same_bits(Au, A @ u) and same_bits(g.apply_neg_laplacian(u), A @ u)
    for comp, again, Dk in zip(comps, g.central_differences(u), D):
        assert same_bits(comp, Dk @ u) and same_bits(again, Dk @ u)
    # the assembled matrices are the Kronecker sums, entry for entry
    for mine, ref in zip((g.neg_laplacian(), *g.diff_matrices()), (A, *D)):
        for part in ("data", "indices", "indptr"):
            assert same_bits(getattr(mine, part), getattr(ref, part))


@STENCIL_GRIDS
def test_the_jacobian_stencil_and_its_csc_are_the_sparse_ones(extents, shape, rng,
                                                              monkeypatch):
    # J x in GMRES and the CSC matrix handed to splu are, bit for bit,
    # those of the sparse sum J = A + diag(d) + sum_k diag(w_k) D_k of the
    # Kronecker-sum matrices (a cap of 0 GMRES iterations forces the splu)
    g = build_grid("rectangle", extents, shape)
    A, D = kron_operators(g)
    d = rng.standard_normal(g.n_total) * 1e3
    w = [rng.standard_normal(g.n_total) * 1e2 for _ in D]
    J = (A + sp.diags(d)).tocsr()
    for wk, Dk in zip(w, D):
        J = J + sp.diags(wk) @ Dk
    J = J.tocsc()
    J.sort_indices()
    applied, factored = [], []
    gmres = selab.grid.gmres

    def spied(matrix, *args):
        applied.append(matrix)
        return gmres(matrix, *args)

    def captured(matrix, **kwargs):
        factored.append(matrix)
        return splu(matrix, **kwargs)

    monkeypatch.setattr(selab.grid, "gmres", spied)
    monkeypatch.setattr(selab.grid, "splu", captured)
    monkeypatch.setattr(selab.grid, "_KRYLOV_CAP", 0)
    g.factor(d, w).solve(rng.standard_normal(g.n_total))
    (matrix,), (csc,) = applied, factored
    for _ in range(3):
        x = rng.standard_normal(g.n_total)
        assert same_bits(matrix @ x, J @ x)
    assert csc.format == "csc" and csc.shape == J.shape
    for part in ("data", "indices", "indptr"):
        assert same_bits(getattr(csc, part), getattr(J, part))


@pytest.mark.parametrize("which", ["d", "w0", "w1"])
def test_a_coefficient_that_is_not_finite_raises_before_any_solve(which, rng,
                                                                 monkeypatch):
    # a NaN in d, an inf in w_0, or a finite w_1 whose product with D_1's
    # 1/(2h) overflows (numpy's overflow warning is silenced: the check
    # under test is the ValueError)
    g = build_grid("rectangle", (1.0, 1.3), (5, 7))
    d = rng.standard_normal(g.n_total)
    w = [rng.standard_normal(g.n_total) for _ in range(2)]
    {"d": d, "w0": w[0], "w1": w[1]}[which][12] = {"d": np.nan, "w0": np.inf,
                                                   "w1": 1e308}[which]
    monkeypatch.setattr(selab.grid, "gmres", lambda *args: pytest.fail("GMRES ran"))
    monkeypatch.setattr(selab.grid, "splu", lambda *args, **kw: pytest.fail("splu ran"))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        g.factor(d, w)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_gradient_exact_on_affine(a, b):
    g = build_grid("interval", (1.0,), 41)
    x = g.coords()[:, 0]
    u = a * x + 0 * b
    (dx,) = gradient_components(g, Field(g, u))
    # stencils next to the wall see the implicit 0 trace, not the affine
    # extension, so compare on interior-of-interior nodes only
    np.testing.assert_allclose(dx[1:-1], np.full(g.n_total - 2, a),
                               atol=1e-10)


def test_gradient_magnitude_2d():
    g = build_grid("rectangle", (1.0, 1.0), 41)
    xy = g.coords()
    u = 2.0 * xy[:, 0] + 1.0 * xy[:, 1]
    # the implicit zero boundary bends the plane; compare away from it
    mag = gradient_magnitude(g, Field(g, u)).values
    dist = boundary_distance(g).values
    inner = dist > 2.5 * max(g.spacing)
    np.testing.assert_allclose(mag[inner], np.sqrt(5.0), atol=1e-9)


def test_boundary_distance_interval():
    g = build_grid("interval", (1.0,), 9)
    x = g.coords()[:, 0]
    np.testing.assert_allclose(boundary_distance(g).values,
                               np.minimum(x, 1.0 - x))


def test_field_csv_round_trip(tmp_path):
    g = build_grid("rectangle", (1.0, 1.0), 7)
    u = Field(g, np.linspace(0.0, 1.0, g.n_total) ** 2)
    path = tmp_path / "f.csv"
    write_field_csv(u, path)
    back = read_field_csv(g, path)
    np.testing.assert_array_equal(back.values, u.values)


@pytest.mark.parametrize("kind,extents,n", [("interval", (1.0,), 9),
                                            ("rectangle", (0.7, 1.3), (5, 3))])
def test_field_csv_round_trip_passes_the_node_check(kind, extents, n, tmp_path):
    g = build_grid(kind, extents, n)
    u = Field(g, np.sin(np.arange(g.n_total)))
    path = tmp_path / "f.csv"
    write_field_csv(u, path)
    np.testing.assert_array_equal(read_field_csv(g, path).values, u.values)


@pytest.mark.parametrize("axis", [0, 1])
def test_field_csv_rejects_a_row_off_its_node(axis, tmp_path):
    # a file with the grid's shape and header but a node moved by a
    # hundredth of a spacing is not this grid's field
    g = build_grid("rectangle", (0.7, 1.3), (5, 3))
    path = tmp_path / "f.csv"
    write_field_csv(Field(g, np.ones(g.n_total)), path)
    header, *rows = path.read_text().splitlines()
    cells = rows[7].split(",")
    cells[axis] = repr(float(cells[axis]) + 0.01 * g.spacing[axis])
    rows[7] = ",".join(cells)
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ShapeError, match="row 8"):
        read_field_csv(g, path)


@pytest.mark.parametrize("kind,extents,n", [
    ("interval", (1.0,), 255), ("interval", (1.0,), 1024),
    ("interval", (1.0,), 2049), ("rectangle", (1.0, 1.3), (23, 19)),
    ("rectangle", (1.0, 1.3), (47, 45)), ("rectangle", (0.7, 1.3), (5, 3))])
def test_field_csv_bytes_are_those_of_one_repr_per_value(kind, extents, n, tmp_path):
    # the file is what writing each row's repr(float(v)) gives, byte for
    # byte, on values of every magnitude and sign, in one block of rows
    # or several, the last one full or not
    g = build_grid(kind, extents, n)
    rng = np.random.default_rng(4)
    values = rng.standard_normal(g.n_total) * 10.0 ** rng.integers(-300, 300, g.n_total)
    values[:4] = (0.0, -0.0, 1e-320, 0.1)
    path = tmp_path / "f.csv"
    write_field_csv(Field(g, values), path)
    cols = [g.coords()[:, i] for i in range(g.dim)]
    want = ("x,value" if g.dim == 1 else "x,y,value") + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*cols, values))
    assert path.read_bytes() == want.encode()


def test_field_csv_rejects_wrong_grid(tmp_path):
    g = build_grid("interval", (1.0,), 9)
    path = tmp_path / "f.csv"
    write_field_csv(Field(g, np.zeros(9)), path)
    other = build_grid("interval", (1.0,), 11)
    with pytest.raises(ShapeError):
        read_field_csv(other, path)
