import gc
import weakref

import numpy as np
import pytest

from selab.errors import CollarError
from selab.grid import boundary_distance, build_grid, gradient_magnitude
from selab.spectral import first_eigenpair, hopf_collar


def discrete_lambda1_interval(n):
    h = 1.0 / (n + 1)
    return 2.0 / h**2 * (1.0 - np.cos(np.pi * h))


@pytest.mark.parametrize("n", [3, 15, 64, 255])
def test_lambda1_matches_dst_closed_form(n):
    pair = first_eigenpair(build_grid("interval", (1.0,), n))
    assert abs(pair.lambda1 - discrete_lambda1_interval(n)) < 1e-10


@pytest.mark.parametrize("kind,extents,n", [
    ("interval", (1.0,), 3),
    ("interval", (1.0,), 8),
    ("rectangle", (1.0, 2.0), (5, 6)),
])
def test_closed_form_pair_matches_dense_eigh(kind, extents, n):
    grid = build_grid(kind, extents, n)
    pair = first_eigenpair(grid)
    vals, vecs = np.linalg.eigh(grid.neg_laplacian().toarray())
    phi = vecs[:, 0] / vecs[np.argmax(np.abs(vecs[:, 0])), 0]
    assert abs(pair.lambda1 - vals[0]) <= 1e-12 * vals[0]
    np.testing.assert_allclose(pair.phi1.values, phi, rtol=0, atol=1e-12)
    assert pair.iterations == 0


def test_lambda1_continuum_limit():
    pair = first_eigenpair(build_grid("interval", (1.0,), 1023))
    assert abs(pair.lambda1 - np.pi**2) < 1e-4


def test_lambda1_2d_rectangle():
    # separable modes: lambda1 = sum of per-axis 1d values
    pair = first_eigenpair(build_grid("rectangle", (1.0, 2.0), (31, 63)))
    lx = discrete_lambda1_interval(31)
    h = 2.0 / 64
    ly = 2.0 / h**2 * (1.0 - np.cos(np.pi * h / 2.0))
    assert abs(pair.lambda1 - (lx + ly)) < 1e-9


def test_eigenfunction_shape():
    grid = build_grid("interval", (1.0,), 127)
    pair = first_eigenpair(grid)
    x = grid.coords()[:, 0]
    phi = pair.phi1.values
    assert phi.max() == pytest.approx(1.0)
    assert np.all(phi > 0)
    target = np.sin(np.pi * x)
    np.testing.assert_allclose(phi, target / target.max(), atol=1e-9)


def test_eigen_residual_reported():
    grid = build_grid("interval", (1.0,), 64)
    pair = first_eigenpair(grid)
    res = grid.neg_laplacian() @ pair.phi1.values - pair.lambda1 * pair.phi1.values
    assert np.max(np.abs(res)) <= max(pair.residual, 1e-12) * 10


def test_collar_split_covers_interior():
    grid = build_grid("interval", (1.0,), 64)
    pair = first_eigenpair(grid)
    col = hopf_collar(grid, pair)
    assert col.collar.size + col.core.size == grid.n_total
    assert np.intersect1d(col.collar, col.core).size == 0
    dist = boundary_distance(grid).values
    assert dist[col.collar].max() <= col.width + 1e-9
    assert dist[col.core].min() > col.width - 1e-9


def test_collar_delta_is_the_gradient_floor():
    grid = build_grid("interval", (1.0,), 64)
    pair = first_eigenpair(grid)
    col = hopf_collar(grid, pair)
    gmag = gradient_magnitude(grid, pair.phi1).values
    assert col.delta == pytest.approx(float(gmag[col.collar].min()))
    assert col.delta > 0


def test_collar_width_limits():
    # the collar is four spacings wide: on n = 9 that is 0.4 and the middle
    # node stays in the core, on n = 7 it is 1/2 and swallows every node
    grid = build_grid("interval", (1.0,), 9)
    col = hopf_collar(grid, first_eigenpair(grid))
    assert col.width == pytest.approx(0.4)
    assert col.core.tolist() == [4]
    grid = build_grid("interval", (1.0,), 7)
    with pytest.raises(CollarError, match="swallows every interior node"):
        hopf_collar(grid, first_eigenpair(grid))


def test_collar_2d():
    grid = build_grid("rectangle", (1.0, 1.0), 24)
    pair = first_eigenpair(grid)
    col = hopf_collar(grid, pair)
    assert col.core.size > 0 and col.collar.size > 0
    assert col.delta > 0


def test_dropped_grid_is_freed_without_the_cycle_collector():
    # the eigenpair cache must not hold a Field pointing back at its grid
    gc.disable()
    try:
        grid = build_grid("interval", (1.0,), 15)
        first_eigenpair(grid)
        cached = first_eigenpair(grid)
        assert cached.phi1.grid is grid
        del cached
        ref = weakref.ref(grid)
        del grid
        assert ref() is None
    finally:
        gc.enable()
