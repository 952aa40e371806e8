import gc
import itertools
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from selab.constructions import build_subsolution_convection, build_supersolution
from selab.errors import ConvergenceError, OrderingError
from selab.grid import Field, LaggedFactor, build_grid, gradient_magnitude
import selab.grid
from selab.model import Potential, ProblemSpec, ReactionTerm, SingularTerm
import selab.solver
from selab.solver import (
    _linearization,
    branch_fold,
    default_schedule,
    default_shift,
    fixed_point,
    monotone_iterate,
    newton_solve,
    nonlinear_part,
    residual,
    solve_with_continuation,
)
from selab.spectral import first_eigenpair


def with_n(spec, n):
    return replace(spec, grid=build_grid("interval", spec.grid.extents, n),
                   source=None)


def manufactured(n, u_star_fn, grad_fn=None, lam=1.0, eps=1e-2, kval=-1.0,
                 conv_a=1.0):
    """Problem whose source pins the given target; grad_fn=None takes the
    grid gradient so the target is an exact discrete solution."""
    grid = build_grid("interval", (1.0,), n)
    x = grid.coords()[:, 0]
    u = u_star_fn(x)
    g = SingularTerm("power", alpha=0.5)
    f = ReactionTerm("power", p=0.5)
    pot = Potential(kval)
    mag = (gradient_magnitude(grid, Field(grid, u)).values
           if grad_fn is None else grad_fn(x))
    src = (grid.neg_laplacian() @ u + pot.nodal(grid) * g(u + eps)
           + mag**conv_a - lam * f.value(grid, u))
    spec = ProblemSpec(grid, pot, g, f, conv_a, lam, eps, Field(grid, src))
    return spec, u


# ---- residual assembly ----


def test_residual_vanishes_on_manufactured_target():
    spec, u = manufactured(41, lambda x: x * (1.0 - x))
    res = residual(spec, Field(spec.grid, u))
    assert np.max(np.abs(res.values)) < 1e-11


def test_residual_sign_of_each_term():
    # bumping u by a constant must raise -K g (K<0 means +|K|g falls),
    # checked through the assembled residual on a flat field
    grid = build_grid("interval", (1.0,), 9)
    g = SingularTerm("power", alpha=0.5)
    f = ReactionTerm("power", p=0.5)
    spec = ProblemSpec(grid, Potential(-1.0), g, f, 1.0, 1.0, 1e-2, None)
    flat = Field(grid, np.full(9, 0.25))
    r = residual(spec, flat).values
    # interior of a flat field: A u small only away from the wall; at
    # the center node A u = 0 so r = -|K| g(u+eps) - lam sqrt(u)
    center = 4
    expect = -(0.25 + 1e-2) ** -0.5 - np.sqrt(0.25)
    # central node gradient is 0, the Laplacian row sums to 0 there
    assert r[center] == pytest.approx(-expect, rel=1e-12) or \
        r[center] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("kind, n, kval", [
    ("interval", 41, -1.3), ("interval", 41, 0.7), ("rectangle", 9, -1.3),
    ("rectangle", 9, 0.7),
])
def test_nonlinear_part_is_the_inline_sum_bit_for_bit(kind, n, kval, rng):
    # N(u) = |grad u|^a - psi(u) - source rounds exactly like the sum
    # -lambda f + K g(u+eps) + |grad u|^a - source it replaced
    grid = build_grid(kind, (1.0,), n)
    src = Field(grid, rng.normal(size=grid.n_total))
    spec = ProblemSpec(grid, Potential(kval), SingularTerm("power", alpha=0.5),
                       ReactionTerm("power", p=0.5), 1.5, 2.7, 1e-3, src)
    for _ in range(5):
        u = rng.uniform(1e-3, 2.0, grid.n_total)
        comps = grid.central_differences(u)
        mag = (np.abs(comps[0]) if len(comps) == 1
               else np.sqrt(sum(c**2 for c in comps)))
        inline = (-spec.lam * spec.f_at(u) + spec.k_nodal() * spec.singular(u + spec.eps)
                  + mag**spec.conv_a) - src.values
        assert np.array_equal(nonlinear_part(spec, u), inline)


# ---- fixed-point sweep ----


@pytest.fixture
def poisson():
    grid = build_grid("interval", (1.0,), 15)
    c = np.sin(2.0 * np.pi * grid.axes[0]) + 0.5
    return grid, c, grid.lu().solve(c)


def test_fixed_point_constant_nonlinearity_lands_in_one_sweep(poisson):
    # N(u) = -c: the first sweep solves A u = c, the second moves nothing
    grid, c, exact = poisson
    u, sweeps, inc = fixed_point(grid.lu(), lambda v: -c, np.zeros(15),
                                 tol=1e-12, max_iter=10)
    assert sweeps == 2 and inc == 0.0
    assert np.array_equal(u, exact)


def test_fixed_point_relax_halves_the_increment(poisson):
    grid, c, exact = poisson
    incs = [fixed_point(grid.lu(), lambda v: -c, np.zeros(15), relax=0.5,
                        tol=0.0, max_iter=k)[2] for k in range(1, 6)]
    assert incs[0] == pytest.approx(0.5 * np.max(np.abs(exact)), rel=1e-12)
    for a, b in zip(incs, incs[1:]):
        assert b == pytest.approx(0.5 * a, rel=1e-9)


def test_fixed_point_floor_clips(poisson):
    grid, c, exact = poisson
    c = c - 0.5  # A^-1 c now changes sign
    exact = grid.lu().solve(c)
    assert exact.min() < 0.0 < exact.max()
    u, _, _ = fixed_point(grid.lu(), lambda v: -c, np.zeros(15), floor=0.0,
                          tol=0.0, max_iter=1)
    assert np.array_equal(u, np.maximum(exact, 0.0))


def test_fixed_point_reports_exhaustion(poisson):
    grid, c, _ = poisson
    tol = 1e-6
    _, sweeps, inc = fixed_point(grid.lu(), lambda v: -c, np.zeros(15),
                                 relax=0.5, tol=tol, max_iter=3)
    assert sweeps == 3
    assert inc >= tol


def test_fixed_point_stops_relative_to_a_large_iterate(poisson):
    # |u|_inf ~ 1e7: the sweep stops at the first increment below
    # tol |u|_inf, far above the absolute tol
    grid, c, exact = poisson
    tol = 1e-10

    def sweep(max_iter):
        return fixed_point(grid.lu(), lambda v: -1e8 * c, np.zeros(15),
                           relax=0.5, tol=tol, max_iter=max_iter)

    u, sweeps, inc = sweep(200)
    scale = float(np.abs(u).max())
    assert scale > 1e6 and sweeps < 200
    assert tol < inc < tol * scale
    u_prev, _, inc_prev = sweep(sweeps - 1)
    assert inc_prev >= tol * float(np.abs(u_prev).max())


def test_fixed_point_stops_at_a_non_finite_nonlinearity(poisson):
    # the grid's Factor refuses a non-finite right-hand side, so the sweep
    # keeps its last finite iterate instead of running on NaN
    grid, c, exact = poisson
    calls = []

    def nonlinear(v):
        calls.append(1)
        return -c if len(calls) == 1 else np.full(15, np.nan)

    u, sweeps, inc = fixed_point(grid.lu(), nonlinear, np.zeros(15),
                                 tol=0.0, max_iter=10)
    assert (len(calls), sweeps, inc) == (2, 1, np.inf)
    assert np.array_equal(u, exact)


def test_supersolution_reports_a_non_finite_reaction(theorem3_spec):
    # q = 1e308 is finite, but lambda q s^p overflows once s is above 0
    spec = replace(theorem3_spec, reaction=ReactionTerm("power", p=0.5, q=1e308),
                   lam=50.0)
    with np.errstate(over="ignore"), pytest.raises(ConvergenceError,
                                                   match="not finite"):
        build_supersolution(spec)


# ---- Newton ----


@pytest.mark.parametrize("n", [17, 33, 129])
def test_newton_recovers_exact_discrete_solution(n):
    spec, u = manufactured(n, lambda x: x * (1.0 - x))
    rep = newton_solve(spec, Field(spec.grid, 0.5 * u))
    assert rep.converged
    assert np.max(np.abs(rep.solution.values - u)) < 1e-8


def test_newton_second_order_in_h():
    errs = []
    for n in (32, 64, 128):
        spec, u = manufactured(
            n, lambda x: np.sin(np.pi * x),
            grad_fn=lambda x: np.pi * np.abs(np.cos(np.pi * x)),
        )
        rep = newton_solve(spec, Field(spec.grid, 0.5 * u))
        errs.append(np.max(np.abs(rep.solution.values - u)))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.8 <= q <= 2.2 for q in orders)


def test_newton_quadratic_tail():
    # once in the basin the residual should collapse in a handful of
    # steps; iteration counts in the dozens would flag damping trouble
    spec, u = manufactured(65, lambda x: x * (1.0 - x))
    rep = newton_solve(spec, Field(spec.grid, 0.9 * u))
    assert rep.iterations <= 8


def test_newton_exhaustion_raises():
    spec, u = manufactured(33, lambda x: x * (1.0 - x))
    with pytest.raises(ConvergenceError):
        newton_solve(spec, Field(spec.grid, 0.01 + 0 * u), max_iter=1)


def test_newton_keeps_positivity_with_singular_term():
    spec, u = manufactured(33, lambda x: x * (1.0 - x), eps=1e-3)
    rep = newton_solve(spec, Field(spec.grid, 0.5 * u))
    assert rep.min_interior > 0


# ---- linearization on the grid's fixed pattern ----

GRIDS = {
    "interval": ("interval", (1.0,), 9),
    "rectangle": ("rectangle", (1.0, 1.3), (7, 6)),
}


def dense_matrix(grid, d, w):
    """A + diag(d) + sum_k diag(w_k) D_k as a dense array in node order."""
    dense = grid.neg_laplacian().toarray() + np.diag(d)
    for wk, D in zip(w, grid.diff_matrices()):
        dense += wk[:, None] * D.toarray()
    return dense


def linearized(kind, a, kval, rng, monkeypatch):
    """A spec, u, the `Grid.factor` of J(u) and J(u) as a dense array.  A
    GMRES cap of 0 makes a rectangle factor the `splu` of the matrix
    `Grid.factor` filled, so both kinds solve exactly."""
    monkeypatch.setattr(selab.grid, "_KRYLOV_CAP", 0)
    grid = build_grid(*GRIDS[kind])
    spec = ProblemSpec(grid, Potential(kval), SingularTerm("power", alpha=0.5),
                       ReactionTerm("power", p=0.5), a, 2.0, 1e-2, None)
    u = 0.3 + rng.uniform(0.0, 1.0, grid.n_total)
    d, w = _linearization(spec, u)
    return spec, u, grid.factor(d, w), dense_matrix(grid, d, w)


linearization_cases = pytest.mark.parametrize(
    "kind,a,kval", list(itertools.product(GRIDS, [0.5, 1.0, 2.0], [-1.0, 1.0])))


@linearization_cases
def test_jacobian_is_the_derivative_of_the_residual(kind, a, kval, rng, monkeypatch):
    spec, u, F, dense = linearized(kind, a, kval, rng, monkeypatch)
    v = rng.standard_normal(spec.grid.n_total)
    Jv = dense @ v
    # the factored matrix is the dense one: it takes J v back to v
    np.testing.assert_allclose(F.solve(Jv), v, rtol=0, atol=1e-13)
    delta = 1e-6
    diff = (residual(spec, Field(spec.grid, u + delta * v)).values
            - residual(spec, Field(spec.grid, u - delta * v)).values) / (2 * delta)
    np.testing.assert_allclose(Jv, diff, rtol=0, atol=1e-6 * np.abs(Jv).max())


@linearization_cases
def test_newton_step_is_the_dense_solve(kind, a, kval, rng, monkeypatch):
    spec, u, F, dense = linearized(kind, a, kval, rng, monkeypatch)
    rhs = -residual(spec, Field(spec.grid, u)).values
    want = np.linalg.solve(dense, rhs)
    np.testing.assert_allclose(F.solve(rhs), want, rtol=0,
                               atol=1e-10 * np.abs(want).max())


def singular_linearization(kind):
    """A spec and (d, w) whose J has an all-zero first row: its diagonal
    cancelled through d, its neighbours through the weights (h = 1/8
    keeps the arithmetic exact)."""
    grid = build_grid(kind, *{"interval": ((1.0,), 7),
                              "rectangle": ((1.0, 2.0), (7, 15))}[kind])
    spec = ProblemSpec(grid, Potential(1.0), SingularTerm("power", alpha=0.5),
                       ReactionTerm("power", p=0.5), 1.0, 2.0, 1e-2, None)
    A = grid.neg_laplacian().tocsr()
    d = np.zeros(grid.n_total)
    d[0] = -A[0, 0]
    weights = []
    for D in grid.diff_matrices():
        w = np.zeros(grid.n_total)
        (j,) = D[0].indices
        w[0] = -A[0, j] / D[0, j]
        weights.append(w)
    return spec, d, weights


@pytest.mark.parametrize("kind", list(GRIDS))
def test_newton_reports_a_singular_jacobian(kind, monkeypatch, rng):
    spec, d, weights = singular_linearization(kind)
    grid = spec.grid
    assert not np.any(dense_matrix(grid, d, weights)[0])
    # GMRES on A^-1 cannot reach the zero row, so the chain calls splu
    with pytest.raises((RuntimeError, ValueError), match="singular"):
        grid.factor(d, weights).solve(np.ones(grid.n_total))
    monkeypatch.setattr(selab.solver, "_linearization", lambda spec, u: (d, weights))
    u = 0.3 + rng.uniform(0.0, 1.0, grid.n_total)
    with pytest.raises(ConvergenceError, match="Jacobian factorization failed"):
        newton_solve(spec, Field(grid, u))


@pytest.mark.parametrize("kind", ["interval", "rectangle"])
def test_newton_reports_a_non_finite_jacobian(kind, monkeypatch, rng):
    # LAPACK dgttrf does not check finiteness, and SuperLU calls a NaN
    # pivot "exactly singular"; Grid.factor checks before it factors
    n, node = {"interval": (9, 4), "rectangle": (7, 3)}[kind]
    grid = build_grid(kind, (1.0,), n)
    spec = ProblemSpec(grid, Potential(1.0), SingularTerm("power", alpha=0.5),
                       ReactionTerm("power", p=0.5), 1.0, 2.0, 1e-2, None)
    d = np.zeros(grid.n_total)
    d[node] = np.nan
    weights = [np.zeros(grid.n_total)] * grid.dim
    monkeypatch.setattr(selab.solver, "_linearization", lambda spec, u: (d, weights))
    u = 0.3 + rng.uniform(0.0, 1.0, grid.n_total)
    with pytest.raises(ConvergenceError, match="Jacobian.*not finite"):
        newton_solve(spec, Field(grid, u))


# ---- Newton-Krylov on A^-1, then on a lagged factor (rectangles) ----


def counted_splu(monkeypatch):
    calls = []

    def captured(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(selab.grid, "splu", captured)
    return calls


def rectangle_spec():
    grid = build_grid("rectangle", (1.0, 1.3), (31, 29))
    return ProblemSpec(grid, Potential(-1.0), SingularTerm("power", alpha=0.5),
                       ReactionTerm("power", p=0.5), 1.0, 2.0, 1e-2, None)


def lagged_pair(rng, shift, monkeypatch):
    """A 31 x 29 rectangle, a LaggedFactor holding the factor of one
    Jacobian, and the (d, w) of a second one whose diagonal is moved by
    `shift` times a random field.  GMRES on A^-1 would solve the first
    Jacobian without a factor, so a cap of 0 GMRES iterations forces it."""
    spec = rectangle_spec()
    grid = spec.grid
    u = 0.3 + rng.uniform(0.0, 1.0, grid.n_total)
    lagged = LaggedFactor()
    with monkeypatch.context() as patch:
        patch.setattr(selab.grid, "_KRYLOV_CAP", 0)
        grid.factor(*_linearization(spec, u), lagged).solve(np.ones(grid.n_total))
    assert lagged.factorizations == 1
    d, w = _linearization(spec, u + 0.01 * rng.uniform(0.0, 1.0, grid.n_total))
    return grid, lagged, d + shift * rng.uniform(0.0, 1.0, grid.n_total), w


def assert_is_the_exact_solve(grid, d, w, rhs, x):
    want = np.linalg.solve(dense_matrix(grid, d, w), rhs)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


def test_a_fresh_lagged_factor_preconditions_with_a_inverse(rng, monkeypatch):
    # before any factor is made, GMRES runs on the grid's A^-1: a Newton
    # Jacobian is A plus lower-order terms, so it needs no splu at all
    spec = rectangle_spec()
    grid = spec.grid
    d, w = _linearization(spec, 0.3 + rng.uniform(0.0, 1.0, grid.n_total))
    preconditioners = []
    gmres = selab.grid.gmres

    def spied(matrix, precondition, rhs, rtol, atol):
        preconditioners.append(precondition)
        return gmres(matrix, precondition, rhs, rtol, atol)

    monkeypatch.setattr(selab.grid, "gmres", spied)
    calls = counted_splu(monkeypatch)
    lagged = LaggedFactor()
    rhs = rng.standard_normal(grid.n_total)
    x = grid.factor(d, w, lagged).solve(rhs)
    assert calls == [] and lagged.factorizations == 0
    assert preconditioners == [grid.lu().solve]
    assert 0 < lagged.krylov_iterations <= selab.grid._KRYLOV_CAP
    assert_is_the_exact_solve(grid, d, w, rhs, x)


def test_lagged_factor_serves_a_nearby_jacobian_through_gmres(rng, monkeypatch):
    grid, lagged, d, w = lagged_pair(rng, 0.0, monkeypatch)
    calls = counted_splu(monkeypatch)
    rhs = rng.standard_normal(grid.n_total)
    x = grid.factor(d, w, lagged).solve(rhs)
    assert calls == []
    assert_is_the_exact_solve(grid, d, w, rhs, x)


def test_stale_lagged_factor_falls_back_to_an_exact_factor(rng, monkeypatch):
    # a diagonal moved by up to 1e5 (the Jacobian's own is about 1e3)
    # leaves the lagged factor useless: GMRES gives up, the new Jacobian
    # is factored, after the stale factor is dropped, and serves next
    grid, lagged, d, w = lagged_pair(rng, 1e5, monkeypatch)
    released = []

    def captured(*args, **kwargs):
        released.append(lagged._superlu is None)
        return splu(*args, **kwargs)

    monkeypatch.setattr(selab.grid, "splu", captured)
    rhs = rng.standard_normal(grid.n_total)
    x = grid.factor(d, w, lagged).solve(rhs)
    assert released == [True]
    assert_is_the_exact_solve(grid, d, w, rhs, x)
    calls = counted_splu(monkeypatch)
    grid.factor(d, w, lagged).solve(rhs)
    assert calls == []


def test_a_factored_matrix_is_solved_by_its_factor_alone(rng, monkeypatch):
    # a bordered step's second solve, and every monotone sweep after the
    # first: once the chain has factored a matrix, its solves run no GMRES
    # and ignore the Krylov targets
    grid, lagged, d, w = lagged_pair(rng, 1e5, monkeypatch)
    F = grid.factor(d, w, lagged)
    F.solve(rng.standard_normal(grid.n_total))
    assert lagged.factorizations == 2
    calls = counted_splu(monkeypatch)
    krylov = lagged.krylov_iterations
    monkeypatch.setattr(selab.grid, "gmres", lambda *args: pytest.fail("GMRES ran"))
    rhs = rng.standard_normal(grid.n_total)
    x = F.solve(rhs, 0.5, 1e3)
    assert calls == [] and lagged.krylov_iterations == krylov
    assert x.tobytes() == lagged._superlu.solve(rhs).tobytes()
    assert_is_the_exact_solve(grid, d, w, rhs, x)


def test_a_fold_trace_carries_one_chain(theorem3_spec, monkeypatch):
    # every bordered Jacobian of the trace joins one LaggedFactor, so a
    # factor made at one point preconditions the points after it
    spec = replace(theorem3_spec, grid=build_grid("rectangle", (1.0,), 15),
                   source=None, lam=100.0)
    top = solve_with_continuation(spec)
    chains = []

    class Counted(LaggedFactor):
        def __init__(self):
            super().__init__()
            chains.append(self)

    monkeypatch.setattr(selab.solver, "LaggedFactor", Counted)
    calls = counted_splu(monkeypatch)
    fold = branch_fold(spec.with_eps(default_schedule()[-1]), top.solution, 0.1)
    assert fold == pytest.approx(17.752899, abs=1e-6)
    assert len(chains) == 1
    assert 0 < len(calls) == chains[0].factorizations


def test_lagged_factor_checks_finiteness_before_any_gmres(rng, monkeypatch):
    grid, lagged, d, w = lagged_pair(rng, 0.0, monkeypatch)
    calls = []
    monkeypatch.setattr(selab.grid, "gmres", lambda *args: calls.append(args))
    d[5] = np.inf
    with pytest.raises(ValueError, match="not finite"):
        grid.factor(d, w, lagged)
    assert calls == []


def test_newton_reports_a_singular_jacobian_behind_a_lagged_factor(
        monkeypatch, rng):
    # the first step is solved by GMRES on A^-1; the second Jacobian is
    # singular, so GMRES cannot solve it and its exact factorization fails
    spec, d, weights = singular_linearization("rectangle")
    steps = []

    def linearization(spec, u):
        steps.append(1)
        return _linearization(spec, u) if len(steps) == 1 else (d, weights)

    monkeypatch.setattr(selab.solver, "_linearization", linearization)
    u = 0.3 + rng.uniform(0.0, 1.0, spec.grid.n_total)
    with pytest.raises(ConvergenceError, match="Jacobian factorization failed") \
            as info:
        newton_solve(spec, Field(spec.grid, u))
    assert info.value.iterations == 2


@pytest.mark.parametrize("config,lam", [("theorem1", 1.0), ("theorem3", 80.0)])
@pytest.mark.parametrize("n", [39, 47])
def test_lagged_continuation_matches_the_exact_one(config, lam, n, request,
                                                   monkeypatch):
    # the lagged factor changes the stage solutions only within Newton's
    # tolerance: verdict, mode, eps path and each stage's initial guess are
    # those of a run that factors every Jacobian (a cap of 0 GMRES
    # iterations), with far fewer factorizations; it lives in the call, so
    # a rerun on the same grid gives the same bits.  The Newton steps per
    # stage may differ: a predicted start is close enough to the solution
    # that differences at the tolerance decide whether one more step is
    # taken (theorem3 takes 2 against 1 in stage 3 on 39^2).  In all,
    # theorem3 on 39^2 factors 0 times (GMRES on A^-1 serves every step)
    # against 13 times
    spec = request.getfixturevalue(f"{config}_spec")
    spec = replace(spec, grid=build_grid("rectangle", (1.0,), n), source=None,
                   lam=lam)

    def fingerprint(rep):
        return (rep.diagnostics["verdict"], rep.diagnostics["mode"], rep.eps_path,
                [s["initial"] for s in rep.diagnostics["stages"]])

    def assert_agree(a, b):
        scale = max(1.0, float(np.abs(b).max()))
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10 * scale)

    calls = counted_splu(monkeypatch)
    first = solve_with_continuation(spec)
    factored = len(calls)
    again = solve_with_continuation(spec)
    np.testing.assert_array_equal(again.solution.values, first.solution.values)
    assert again.residual_inf == first.residual_inf
    assert fingerprint(again) == fingerprint(first)
    assert [s["iterations"] for s in again.diagnostics["stages"]] == \
        [s["iterations"] for s in first.diagnostics["stages"]]
    del calls[:]
    monkeypatch.setattr(selab.grid, "_KRYLOV_CAP", 0)
    exact = solve_with_continuation(spec)
    assert fingerprint(first) == fingerprint(exact)
    assert exact.diagnostics["verdict"] == "converged"
    for key in ("min", "max"):
        assert_agree([s[key] for s in first.diagnostics["stages"]],
                     [s[key] for s in exact.diagnostics["stages"]])
    assert_agree(first.solution.values, exact.solution.values)
    assert 2 * factored <= len(calls)


@pytest.mark.parametrize("config,lam", [("theorem1", 1.0), ("theorem3", 80.0)])
@pytest.mark.parametrize("n", [39, 43, 47, 55, 63])
def test_solve_ladder_rectangles_factor_no_jacobian(config, lam, n, request,
                                                    monkeypatch):
    # the rectangles of the solve ladder: GMRES on A^-1 serves every
    # Newton step of every stage, where GMRES on a lagged factor needed
    # one splu in the first stage, with the same converged verdict and
    # full eps path
    spec = request.getfixturevalue(f"{config}_spec")
    spec = replace(spec, grid=build_grid("rectangle", (1.0,), n), source=None,
                   lam=lam)
    calls = counted_splu(monkeypatch)
    rep = solve_with_continuation(spec)
    assert (rep.diagnostics["verdict"], rep.diagnostics["mode"]) == ("converged", None)
    assert rep.eps_path == default_schedule()
    assert calls == []
    assert all(s["factorizations"] == 0 for s in rep.diagnostics["stages"])
    assert sum(s["krylov_iterations"] for s in rep.diagnostics["stages"]) > 0


# ---- inexact Newton: each step's GMRES target (forcing terms) ----


def krylov_problem(rng, shift):
    """A shifted 31 x 29 five-point matrix, a right-hand side, and the
    exact factor's solve of the matrix with its diagonal moved by `shift`
    times a random field, as a preconditioner."""
    A = build_grid("rectangle", (1.0, 1.3), (31, 29)).neg_laplacian().tocsc()
    d = rng.uniform(0.0, 100.0, A.shape[0])
    matrix = (A + sp.diags(d)).tocsc()
    near = splu((A + sp.diags(d + shift * rng.uniform(0.0, 1.0, d.size))).tocsc())
    return matrix, near.solve, rng.standard_normal(A.shape[0])


@pytest.mark.parametrize("rtol,atol", [(1e-4, 0.0), (1e-8, 0.0), (1e-20, 0.0),
                                       (1e-12, 1e-3), (1e-6, 1e-3)])
def test_gmres_meets_the_looser_of_its_two_targets(rtol, atol, rng):
    # a relative target below 1e-12 is raised to it
    matrix, precondition, rhs = krylov_problem(rng, 50.0)
    x, iterations = selab.grid.gmres(matrix, precondition, rhs, rtol, atol)
    norm = np.linalg.norm(rhs)
    target = max(max(rtol, 1e-12) * norm, atol)
    assert np.linalg.norm(rhs - matrix @ x) <= 1.01 * target
    assert 1 <= iterations <= selab.grid._KRYLOV_CAP
    # a looser target never takes more iterations
    _, tight = selab.grid.gmres(matrix, precondition, rhs, 1e-12, 0.0)
    assert iterations <= tight


def test_gmres_makes_one_preconditioner_solve_per_iteration(rng):
    # x is the combination of the kept preconditioned basis vectors, so
    # no solve follows the last iteration
    matrix, precondition, rhs = krylov_problem(rng, 50.0)
    calls = []

    def counted(v):
        calls.append(v)
        return precondition(v)

    x, iterations = selab.grid.gmres(matrix, counted, rhs, 1e-10, 0.0)
    assert np.linalg.norm(rhs - matrix @ x) <= 1.01e-10 * np.linalg.norm(rhs)
    assert len(calls) == iterations >= 2


def test_gmres_returns_none_past_its_cap(rng, monkeypatch):
    matrix, precondition, rhs = krylov_problem(rng, 50.0)
    _, needed = selab.grid.gmres(matrix, precondition, rhs, 1e-12, 0.0)
    monkeypatch.setattr(selab.grid, "_KRYLOV_CAP", needed - 1)
    x, iterations = selab.grid.gmres(matrix, precondition, rhs, 1e-12, 0.0)
    assert x is None and 1 <= iterations < needed
    # a stale preconditioner gives up within the cap as well
    monkeypatch.setattr(selab.grid, "_KRYLOV_CAP", 12)
    matrix, precondition, rhs = krylov_problem(rng, 1e5)
    x, iterations = selab.grid.gmres(matrix, precondition, rhs, 1e-12, 0.0)
    assert x is None and iterations <= 12


@pytest.mark.parametrize("kind", ["interval", "rectangle"])
def test_exact_factors_ignore_the_krylov_targets(kind, rng, monkeypatch):
    # a rectangle matrix its chain has factored is solved by that factor
    # alone, as an interval's is
    spec, u, factor, _ = linearized(kind, 1.0, -1.0, rng, monkeypatch)
    rhs = rng.standard_normal(spec.grid.n_total)
    for exact in (factor, spec.grid.lu()):
        want = exact.solve(rhs)
        assert exact.solve(rhs, 0.5, 1e3).tobytes() == want.tobytes()


def test_an_interval_jacobian_counts_as_one_factorization(theorem1_spec):
    # an interval stage factors every Newton step and runs no GMRES
    rep = solve_with_continuation(theorem1_spec)
    for stage in rep.diagnostics["stages"]:
        assert stage["factorizations"] == stage["iterations"]
        assert stage["krylov_iterations"] == 0


def test_forcing_terms_halve_the_gmres_work(theorem1_spec, monkeypatch):
    # theorem1 on 39^2 at lambda = 1, where GMRES on A^-1 serves every
    # Newton step and no Jacobian is factored.  From predicted starts the
    # forcing terms take 106 GMRES iterations (26 Newton steps), against
    # 176 with GMRES run to 1e-12 on every step, as before forcing terms,
    # and 152 with the forcing terms held at their 1e-12 floor, the
    # absolute target alone (25 Newton steps each: stage 10 takes a
    # second step after the looser solve).  With every stage started warm
    # (33 Newton steps each way) they take 133 against 233 and 169.  That
    # is 0.60 and 0.57 of the tight solves' work, and 0.70 and 0.79 of
    # the floored ones'.  Preconditioned by a lagged Jacobian factor the
    # same runs took 89, 185 and 122, and 114, 251 and 176 (0.48 and 0.45
    # of tight): on A^-1 the forcing terms save less, and the bounds this
    # test held them to, 0.6 of tight from predicted starts and 0.7 of
    # floored from warm ones, fail by a little.  It pins the counts
    # instead and keeps the bounds that still hold
    spec = replace(theorem1_spec, grid=build_grid("rectangle", (1.0,), 39),
                   source=None, lam=1.0)

    def outcome(rep):
        stages = rep.diagnostics["stages"]
        return ((rep.diagnostics["verdict"], rep.diagnostics["mode"], rep.eps_path),
                rep.iterations,
                sum(s["krylov_iterations"] for s in stages),
                sum(s["factorizations"] for s in stages))

    def runs():
        """Newton steps and GMRES iterations, (forced, floored, tight),
        of one way to start."""
        with monkeypatch.context() as patch:
            forced, steps, krylov, factored = outcome(solve_with_continuation(spec))
            assert forced[0] == "converged" and factored == 0 and krylov > 0
            patch.setattr(selab.solver, "_FORCING_MAX", 1e-12)
            floored, floored_steps, floored_krylov, _ = outcome(
                solve_with_continuation(spec))
            assert floored == forced
            patch.undo()
            gmres = selab.grid.gmres
            patch.setattr(selab.grid, "gmres", lambda matrix, precondition, rhs,
                          rtol, atol: gmres(matrix, precondition, rhs, 1e-12, 0.0))
            tight, tight_steps, tight_krylov, _ = outcome(solve_with_continuation(spec))
            assert tight == forced
        return (steps, floored_steps, tight_steps), (krylov, floored_krylov,
                                                     tight_krylov)

    steps, (predicted, predicted_floored, predicted_tight) = runs()
    assert steps == (26, 25, 25)
    assert (predicted, predicted_floored, predicted_tight) == (106, 152, 176)
    assert 0 < predicted < predicted_floored < predicted_tight
    # the zeroth-order predictor: each stage starts from the last solution
    monkeypatch.setattr(selab.solver, "extrapolate", lambda path, eps: path[-1][1])
    steps, (krylov, floored_krylov, tight_krylov) = runs()
    assert steps == (33, 33, 33)
    assert (krylov, floored_krylov, tight_krylov) == (133, 169, 233)
    assert krylov < floored_krylov
    assert 0 < krylov < 0.6 * tight_krylov
    assert predicted < krylov


def captured_factors(monkeypatch):
    """(permc_spec, SuperLU) of every `splu` call the grid makes."""
    factors = []

    def captured(*args, **kwargs):
        factors.append((kwargs.get("permc_spec"), splu(*args, **kwargs)))
        return factors[-1][1]

    monkeypatch.setattr(selab.grid, "splu", captured)
    return factors


def assert_minimum_degree_fill(factors, matrix):
    """The one factor is a minimum-degree splu of `matrix` and holds far
    fewer entries than COLAMD's (0.57 times for a Jacobian at 63^2)."""
    (spec, factor), = factors
    assert spec == "MMD_AT_PLUS_A"
    colamd = splu(matrix.tocsc())
    assert factor.L.nnz + factor.U.nnz <= 0.65 * (colamd.L.nnz + colamd.U.nnz)


def test_rectangle_factors_use_minimum_degree_fill(theorem3_spec, monkeypatch):
    # a Newton Jacobian is one splu call on its own minimum-degree
    # ordering; A's own solves factor nothing
    grid = build_grid("rectangle", (1.0,), 63)
    spec = replace(theorem3_spec, grid=grid, source=None, lam=80.0).with_eps(1e-2)
    x, y = grid.coords().T
    d, w = _linearization(spec, 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y) + 0.01)
    factors = captured_factors(monkeypatch)
    grid.lu().solve(np.ones(grid.n_total))
    assert factors == []
    grid.factor(d, w).solve(np.ones(grid.n_total))
    A = grid.neg_laplacian()
    J = A + sp.diags(d) + sum(sp.diags(wk) @ D for wk, D in zip(w, grid.diff_matrices()))
    assert_minimum_degree_fill(factors, J)


def test_every_rectangle_factorization_is_counted(theorem3_spec, monkeypatch):
    # each splu call of a continuation is one exact Jacobian factor and
    # shows in its stage's "factorizations"; no factor is made aside.
    # With a = 1 GMRES on A^-1 serves every step on 31^2; with a = 2 the
    # first stage falls back to one factor
    spec = replace(theorem3_spec, grid=build_grid("rectangle", (1.0,), 31),
                   source=None, lam=80.0, conv_a=2.0)
    calls = counted_splu(monkeypatch)
    rep = solve_with_continuation(spec)
    assert rep.diagnostics["verdict"] == "converged"
    assert len(calls) == sum(s["factorizations"] for s in rep.diagnostics["stages"])
    assert len(calls) > 0


def test_the_rectangle_solve_path_assembles_no_matrix(theorem1_spec, theorem2_spec,
                                                      theorem3_spec, monkeypatch):
    # residuals, gradients and GMRES's J x run on stencil coefficients, so
    # a continuation that needs no exact factor assembles no sparse
    # matrix at all; one that does assembles each matrix once, for splu
    def refuse(*args, **kwargs):
        pytest.fail("a sparse matrix was assembled")

    assemble = selab.grid._assemble
    monkeypatch.setattr(selab.grid, "_assemble", refuse)
    monkeypatch.setattr(sp, "kron", refuse)
    calls = counted_splu(monkeypatch)
    for spec, n, lam in ((theorem3_spec, 31, 80.0), (theorem1_spec, 39, 1.0)):
        rep = solve_with_continuation(replace(
            spec, grid=build_grid("rectangle", (1.0,), n), source=None, lam=lam))
        assert rep.diagnostics["verdict"] == "converged"
    assert calls == []
    # theorem2 on 47^2 at lambda = 1 falls back to splu in its first stage
    assembled = []

    def counted(*args):
        assembled.append(len(calls))
        return assemble(*args)

    monkeypatch.setattr(selab.grid, "_assemble", counted)
    rep = solve_with_continuation(replace(
        theorem2_spec, grid=build_grid("rectangle", (1.0,), 47), source=None, lam=1.0))
    assert len(calls) > 0
    # each splu call follows exactly one assembly of its matrix
    assert assembled == list(range(len(calls)))
    stages = rep.diagnostics["stages"] + [rep.diagnostics["failed_stage"] or {}]
    assert sum(s.get("factorizations", 0) for s in stages) == len(calls)


def test_a_failed_stage_reports_what_it_spent(theorem1_spec, theorem2_spec,
                                             monkeypatch):
    # theorem2 on 47^2 at lambda = 1 fails in its first stage after two
    # exact factorizations, which no converged stage lists: there GMRES
    # on A^-1 falls short, and the chain falls back to splu
    spec = replace(theorem2_spec, grid=build_grid("rectangle", (1.0,), 47),
                   source=None, lam=1.0)
    calls = counted_splu(monkeypatch)
    rep = solve_with_continuation(spec)
    assert rep.diagnostics["stages"] == []
    failed = rep.diagnostics["failed_stage"]
    assert failed["eps"] == 0.1
    assert failed["initials"] == ["warm", "picard", "envelope"]
    assert failed["factorizations"] == len(calls) == 2
    assert failed["krylov_iterations"] > 0
    assert solve_with_continuation(theorem1_spec).diagnostics["failed_stage"] is None


def test_each_stage_reports_the_initial_guess_that_won(theorem1_spec, tmp_path):
    # the first two stages have no path to extrapolate and start warm; the
    # rest start from the predictor; report.json carries the same entries
    from selab.cli import main

    rep = solve_with_continuation(theorem1_spec)
    assert [s["initial"] for s in rep.diagnostics["stages"]] == \
        ["warm"] * 2 + ["predicted"] * 10
    out = tmp_path / "run"
    assert main(["solve", "--config", "theorem1.cfg", "--out", str(out)]) == 0
    with open(out / "report.json") as fh:
        stages = json.load(fh)["diagnostics"]["stages"]
    assert [s["initial"] for s in stages] == [s["initial"] for s in
                                              rep.diagnostics["stages"]]


def test_a_failed_stage_lists_the_predicted_start_it_tried(theorem3_spec):
    # theorem3 on n = 64 just below lambda* (about 10.40) converges seven
    # stages and fails the eighth from every initial guess in turn
    rep = solve_with_continuation(replace(theorem3_spec, lam=10.39))
    assert (rep.diagnostics["verdict"], rep.diagnostics["mode"]) == \
        ("nonexistence-indicated", "collapse")
    assert len(rep.eps_path) == 7
    failed = rep.diagnostics["failed_stage"]
    assert failed["eps"] == default_schedule()[7]
    assert failed["initials"] == ["predicted", "warm", "picard", "envelope"]


@pytest.mark.parametrize("a,lam", [(0.25, 1.0), (0.5, 1.0), (0.5, 10.0)])
def test_predicted_starts_carry_theorem1_below_a_1(theorem1_spec, a, lam):
    # theorem1 has a solution for every lambda; on n = 511 warm starts
    # stagnated after 8, 3 and 7 stages, where |grad u|^a is not Lipschitz
    spec = replace(with_n(theorem1_spec, 511), conv_a=a, lam=lam)
    rep = solve_with_continuation(spec)
    assert (rep.diagnostics["verdict"], rep.diagnostics["mode"]) == ("converged", None)
    assert rep.eps_path == default_schedule()


def test_extrapolation_reproduces_a_quadratic_path(rng):
    # the Lagrange polynomial through three points of a path quadratic in
    # eps is that path; through two points of a linear one, that line
    c0, c1, c2 = rng.uniform(-1.0, 1.0, (3, 50))
    schedule = default_schedule()

    def quadratic(eps):
        return c0 + c1 * eps + c2 * eps**2

    for k in range(3, len(schedule)):
        path = [(e, quadratic(e)) for e in schedule[k - 3:k]]
        np.testing.assert_allclose(selab.solver.extrapolate(path, schedule[k]),
                                   quadratic(schedule[k]), rtol=0.0, atol=1e-15)
    line = [(e, c0 + c1 * e) for e in schedule[:2]]
    np.testing.assert_allclose(selab.solver.extrapolate(line, schedule[2]),
                               c0 + c1 * schedule[2], rtol=0.0, atol=1e-15)


def test_the_predictor_extrapolates_through_the_last_three_stages(theorem1_spec,
                                                                  monkeypatch):
    calls = []
    extrapolate = selab.solver.extrapolate

    def recorded(path, eps):
        calls.append(([e for e, _ in path], eps))
        return extrapolate(path, eps)

    monkeypatch.setattr(selab.solver, "extrapolate", recorded)
    schedule = default_schedule()
    solve_with_continuation(theorem1_spec)
    assert calls == [(schedule[max(0, k - 3):k], schedule[k])
                     for k in range(2, len(schedule))]


def test_a_rejected_prediction_falls_back_to_the_warm_start(theorem1_spec,
                                                            monkeypatch):
    # Newton refuses a predicted start that is not finite, and every
    # stage converges from its warm start as before
    monkeypatch.setattr(selab.solver, "extrapolate",
                        lambda path, eps: np.full_like(path[-1][1], np.nan))
    rep = solve_with_continuation(theorem1_spec)
    assert (rep.diagnostics["verdict"], rep.diagnostics["mode"]) == ("converged", None)
    assert rep.eps_path == default_schedule()
    assert [s["initial"] for s in rep.diagnostics["stages"]] == ["warm"] * 12
    assert rep.diagnostics["failed_stage"] is None


def test_a_prediction_gets_a_corrector_budget(theorem1_spec, monkeypatch):
    # theorem1 with a = 0.25 at lambda = 1 on 31^2: a prediction Newton
    # does not finish within _CORRECTOR_STEPS gives way to the warm start
    # (stages 3 and 11).  The run takes 61 Newton steps with the budget
    # and 70 without.  On a < 1 rectangles these counts move with the
    # rounding of each step, so the test pins them.  Over the 12 theorem1
    # rectangles with a in {0.25, 0.5}, lambda in {1, 10} and n in {31,
    # 47, 63} the budget saves steps: 605 against 661.  At lambda = 10,
    # where this test used to run, every prediction now finishes within
    # the budget: Newton checks the residual of its last allowed step,
    # and one prediction converges on its 8th
    spec = replace(theorem1_spec, grid=build_grid("rectangle", (1.0,), 31),
                   source=None, lam=1.0, conv_a=0.25)
    rep = solve_with_continuation(spec)
    assert (rep.diagnostics["verdict"], rep.diagnostics["mode"]) == ("converged", None)
    stages = rep.diagnostics["stages"]
    assert "warm" in [s["initial"] for s in stages[2:]]
    assert all(s["iterations"] <= selab.solver._CORRECTOR_STEPS
               for s in stages if s["initial"] == "predicted")
    assert rep.iterations == 61
    monkeypatch.setattr(selab.solver, "_CORRECTOR_STEPS", 60)
    unbudgeted = solve_with_continuation(spec)
    assert unbudgeted.diagnostics["verdict"] == "converged"
    assert unbudgeted.iterations == 70


def test_stagnating_newton_gives_up_within_the_line_search_budget(
        theorem3_spec, monkeypatch):
    # theorem3 has no solution at lambda = 5 (lambda* is about 10.4), so
    # this stage stagnates; each iteration may try at most 8 steps
    spec = replace(with_n(theorem3_spec, 48), lam=5.0).with_eps(0.1)
    u0 = 0.5 * first_eigenpair(spec.grid).phi1.values
    calls = []
    evaluate = selab.solver._residual

    def counted(spec, u):
        calls.append(1)
        return evaluate(spec, u)

    monkeypatch.setattr(selab.solver, "_residual", counted)
    with pytest.raises(ConvergenceError, match="stagnated") as info:
        newton_solve(spec, Field(spec.grid, u0))
    assert len(calls) <= 1 + 8 * info.value.iterations


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("kval", [-1.0, 1.0])
def test_interval_stencils_match_the_sparse_matrices(a, kval, rng, monkeypatch):
    spec, u, _, _ = linearized("interval", a, kval, rng, monkeypatch)
    grid = spec.grid
    want = grid.neg_laplacian() @ u + nonlinear_part(spec, u)
    np.testing.assert_allclose(residual(spec, Field(grid, u)).values, want,
                               rtol=1e-15, atol=1e-15 * np.abs(want).max())
    (D,) = grid.diff_matrices()
    np.testing.assert_allclose(grid.central_differences(u)[0], D @ u,
                               rtol=1e-15, atol=1e-15 * np.abs(D @ u).max())


# ---- monotone iteration ----


def theorem1_bracket(theorem1_spec, kind, n):
    """theorem1 (K < 0) at eps = 1e-3 on an interval or n x n rectangle,
    with its convection sub-solution and super-solution."""
    grid = build_grid(kind, theorem1_spec.grid.extents, n)
    spec = replace(theorem1_spec, grid=grid, source=None, eps=1e-3)
    sub = build_subsolution_convection(spec)
    return spec, sub.field, build_supersolution(spec).field


@pytest.fixture
def bracket(theorem1_spec):
    return theorem1_bracket(theorem1_spec, "interval", 127)


def pinch(monkeypatch, spec, sub, sup, tol=selab.solver._PINCH_TOL,
          sweeps=selab.solver._PINCH_SWEEPS):
    """`monotone_iterate` with its increment stop and sweep budget set."""
    monkeypatch.setattr(selab.solver, "_PINCH_TOL", tol)
    monkeypatch.setattr(selab.solver, "_PINCH_SWEEPS", sweeps)
    return monotone_iterate(spec, sub, sup)


def test_monotone_iterate_converges_inside_bracket(bracket, monkeypatch):
    spec, sub, sup = bracket
    rep = pinch(monkeypatch, spec, sub, sup, tol=1e-12)
    assert rep.converged
    assert rep.residual_inf < 1e-8
    assert rep.diagnostics["monotone"]
    assert not rep.diagnostics["bracket_escape"]
    assert np.all(rep.solution.values >= sub.values - 1e-10)
    assert np.all(rep.solution.values <= sup.values + 1e-10)


def newton_gap(spec, sub, pinch):
    """Sup-norm distance from a pinch to the Newton solution found from
    the sub-solution, a start independent of the pinch (Newton polishing
    the pinch itself returns after 0 iterations)."""
    newton = newton_solve(spec, sub)
    assert newton.iterations >= 1
    return float(np.max(np.abs(newton.solution.values - pinch.solution.values)))


def test_monotone_agrees_with_newton(bracket, monkeypatch):
    spec, sub, sup = bracket
    rep = pinch(monkeypatch, spec, sub, sup, tol=1e-12)
    assert newton_gap(spec, sub, rep) < 1e-9
    # the check sees a pinch stopped early (6e-6 away after 20 sweeps)
    assert newton_gap(spec, sub, pinch(monkeypatch, spec, sub, sup, sweeps=20)) > 1e-9


def test_monotone_rejects_crossed_pair(bracket):
    # handing the super-solution as the lower field crosses the pair; the
    # ordering precondition must fire rather than iterate
    spec, sub, sup = bracket
    with pytest.raises(OrderingError):
        monotone_iterate(spec, sup, sub)


def test_default_shift_dominates_the_slope(bracket):
    spec, sub, sup = bracket
    D = default_shift(spec, sub, sup)
    # node by node, s -> D_i s - N_i(s) must be nondecreasing over
    # [sub_i, super_i]: D_i >= dN_i/ds = K_i g'(s+eps) - lam f'(s)
    assert D.shape == (spec.grid.n_total,)
    assert np.all(D >= 0) and D.max() > 0
    s = np.linspace(sub.values, sup.values, 200)
    assert np.all(s > 0)
    alpha, p = spec.singular.alpha, spec.reaction.p
    slope = (spec.k_nodal() * -alpha * (s + spec.eps) ** (-alpha - 1.0)
             - spec.lam * p * s ** (p - 1.0))
    assert np.all(D >= 0.99 * slope.max(axis=0))


def test_monotone_bracket_pinches_within_100_sweeps(bracket, monkeypatch):
    # a scalar shift, set by the node next to the boundary, took 3809
    # sweeps on this bracket
    spec, sub, sup = bracket
    rep = pinch(monkeypatch, spec, sub, sup, tol=1e-12)
    assert rep.converged
    assert rep.iterations <= 100


def test_monotone_sweeps_do_not_grow_with_the_grid(theorem1_spec):
    # a scalar shift took 1551 sweeps on n = 63 and 12462 on n = 511
    sweeps = []
    for n in (63, 511):
        rep = monotone_iterate(*theorem1_bracket(theorem1_spec, "interval", n))
        assert rep.converged
        sweeps.append(rep.iterations)
    assert max(sweeps) <= 1.5 * min(sweeps)


def test_monotone_iterate_on_a_rectangle(theorem1_spec, monkeypatch):
    spec, sub, sup = theorem1_bracket(theorem1_spec, "rectangle", 31)
    rep = pinch(monkeypatch, spec, sub, sup, tol=1e-12)
    assert rep.converged
    assert rep.diagnostics["monotone"]
    assert not rep.diagnostics["bracket_escape"]
    assert np.all(rep.solution.values >= sub.values - 1e-10)
    assert np.all(rep.solution.values <= sup.values + 1e-10)
    assert newton_gap(spec, sub, rep) < 1e-9
    # a pinch stopped after 40 sweeps is 9e-8 away
    assert newton_gap(spec, sub, pinch(monkeypatch, spec, sub, sup, sweeps=40)) > 1e-9
    assert rep.iterations <= 150


def test_a_rectangle_pinch_factors_its_matrix_once(theorem1_spec, monkeypatch):
    # the first sweep's GMRES on A^-1 falls short against the large shift
    # near the boundary, and the factor it makes serves every later sweep
    spec, sub, sup = theorem1_bracket(theorem1_spec, "rectangle", 31)
    calls = counted_splu(monkeypatch)
    krylov = []
    gmres = selab.grid.gmres

    def spied(*args):
        krylov.append(1)
        return gmres(*args)

    monkeypatch.setattr(selab.grid, "gmres", spied)
    rep = monotone_iterate(spec, sub, sup)
    assert rep.converged and rep.iterations > 1
    assert len(calls) == len(krylov) == 1


def test_monotone_reports_a_shift_that_overflows(theorem1_spec):
    # g = exp(1/s) - 1 overflows below s ~ 1/709, so near sub = 0 the
    # shift is infinite: a reported failure, not a crash
    spec = replace(with_n(theorem1_spec, 31), eps=1e-4,
                   singular=SingularTerm("shifted-exp"))
    n = spec.grid.n_total
    rep = monotone_iterate(spec, np.zeros(n), np.ones(n))
    assert not rep.converged
    assert rep.iterations == 0
    assert rep.diagnostics["shift"] == np.inf


def test_monotone_factor_uses_minimum_degree_fill(theorem1_spec, monkeypatch):
    # A + diag(D) goes through Grid.factor: one splu call on its own
    # minimum-degree ordering, not on COLAMD
    spec, sub, sup = theorem1_bracket(theorem1_spec, "rectangle", 63)
    factors = captured_factors(monkeypatch)
    pinch(monkeypatch, spec, sub, sup, sweeps=1)
    shifted = spec.grid.neg_laplacian() + sp.diags(default_shift(spec, sub, sup))
    assert_minimum_degree_fill(factors, shifted)


# ---- continuation ----


def test_default_schedule_halves():
    sch = default_schedule()
    assert len(sch) == 12
    np.testing.assert_allclose(sch, 0.1 * 0.5 ** np.arange(12))


def test_continuation_negative_regime_converges(theorem1_spec):
    rep = solve_with_continuation(theorem1_spec)
    assert rep.converged
    assert rep.diagnostics["verdict"] == "converged"
    assert rep.diagnostics["mode"] is None
    assert rep.min_interior > 0
    assert rep.eps_path == default_schedule()
    # eps tail must be Cauchy
    incs = rep.diagnostics["increments"]
    assert incs[-1] < rep.diagnostics["path_tol"]


def test_continuation_is_deterministic(theorem1_spec):
    a = solve_with_continuation(theorem1_spec)
    b = solve_with_continuation(theorem1_spec)
    np.testing.assert_array_equal(a.solution.values, b.solution.values)
    assert a.residual_inf == b.residual_inf


@pytest.mark.parametrize("config,n,lam,verdict,mode,stages", [
    ("theorem1", 39, 1.0, "converged", None, [4, 3, 3, 2, 2, 2, 2, 2, 2, 2, 1, 1]),
    ("theorem3", 39, 80.0, "converged", None, [3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 0, 0]),
    ("theorem2", 47, 1.0, "nonexistence-indicated", "collapse", []),
], ids=["theorem1-39", "theorem3-39", "theorem2-47"])
def test_rectangle_continuation_is_pinned(config, n, lam, verdict, mode, stages,
                                          request):
    # a change of fill-reducing ordering moves rounding only: the verdict,
    # its mode and every stage's Newton iterations stay put.  GMRES on
    # A^-1 in place of a lagged Jacobian factor took theorem1's stage 10
    # from 1 Newton step to 2, with the same verdict and mode
    spec = request.getfixturevalue(f"{config}_spec")
    spec = replace(spec, grid=build_grid("rectangle", (1.0,), n), source=None,
                   lam=lam)
    rep = solve_with_continuation(spec)
    assert (rep.diagnostics["verdict"], rep.diagnostics["mode"]) == (verdict, mode)
    assert [s["iterations"] for s in rep.diagnostics["stages"]] == stages
    assert rep.iterations == sum(stages)


def test_continuation_reports_collapse(theorem2_spec):
    rep = solve_with_continuation(theorem2_spec)
    assert not rep.converged
    assert rep.diagnostics["verdict"] == "nonexistence-indicated"
    assert rep.diagnostics["mode"] == "collapse"


def test_continuation_reports_mass_divergence(theorem2_spec):
    # at large lambda every regularized stage solves; the integral of
    # g(u+eps) is what blows up
    rep = solve_with_continuation(replace(theorem2_spec, lam=100.0))
    assert not rep.converged
    assert rep.diagnostics["mode"] == "mass-divergence"
    assert rep.diagnostics["mass_fitted"] > 1.1


def test_continuation_reports_mass_overflow_as_divergence():
    # exp(1/s) - 1 is not integrable, so no solution exists; every stage
    # still solves on a coarse grid while the stage masses overflow to inf
    grid = build_grid("interval", (1.0,), 31)
    spec = ProblemSpec(grid, Potential(1.0), SingularTerm("shifted-exp"),
                       ReactionTerm("power", p=0.5), 1.0, 100.0)
    rep = solve_with_continuation(spec)
    assert not np.isfinite(rep.diagnostics["stages"][-1]["mass"])
    assert rep.diagnostics["mode"] == "mass-divergence"
    assert rep.diagnostics["mass_fitted"] is None


def test_continuation_passes_on_an_error_of_a_callable_k(theorem3_spec):
    # K is evaluated on the boundary only by the regime test; its error
    # must surface, not read as "not the positive regime" and silently
    # switch off the stage masses
    def K(x):
        if np.any((x == 0.0) | (x == 1.0)):
            raise ZeroDivisionError("K is undefined on the boundary")
        return np.ones_like(x)

    spec = replace(theorem3_spec, potential=Potential(K), lam=20.0)
    with pytest.raises(ZeroDivisionError):
        solve_with_continuation(spec, initial=np.full(spec.grid.n_total, 0.1))


def test_continuation_caller_initial(theorem1_spec):
    warm = solve_with_continuation(theorem1_spec)
    again = solve_with_continuation(theorem1_spec,
                                    initial=warm.solution.values)
    assert again.converged
    assert again.diagnostics["initial"] == "caller"
    assert again.diagnostics["opening_amplitude"] is None


def half_phi1(spec):
    return 0.5 * first_eigenpair(spec.grid).phi1.values


@pytest.mark.parametrize("kind,n,lam", [("rectangle", 39, 80.0),
                                        ("interval", 511, 50.0)])
def test_a_positive_continuation_opens_at_the_projected_amplitude(
        theorem3_spec, kind, n, lam, monkeypatch):
    # from 0.5 phi_1 the first stage's warm Newton stagnates and a Picard
    # rescue solves it; from c* phi_1 Newton converges warm, to the same
    # stage solutions and verdict
    spec = replace(theorem3_spec, grid=build_grid(kind, (1.0,), n),
                   source=None, lam=lam)
    half = solve_with_continuation(spec, initial=half_phi1(spec))
    assert half.diagnostics["stages"][0]["initial"] == "picard"

    def refused(stage, u0):
        raise AssertionError(f"Picard rescue at eps = {stage.eps}")

    monkeypatch.setattr(selab.solver, "_picard_rescue", refused)
    rep = solve_with_continuation(spec)
    assert rep.diagnostics["stages"][0]["initial"] == "warm"
    assert rep.diagnostics["opening_amplitude"] > 0.5
    assert (rep.diagnostics["verdict"], rep.diagnostics["mode"], rep.eps_path) == \
        (half.diagnostics["verdict"], half.diagnostics["mode"], half.eps_path)
    assert rep.diagnostics["verdict"] == "converged"
    np.testing.assert_allclose(rep.solution.values, half.solution.values,
                               rtol=1e-12, atol=0.0)


def test_the_projected_amplitude_is_a_sign_change(theorem3_spec):
    # F(c) < 0 just below c* and F(c*) >= 0, F the one-mode projection
    stage = replace(theorem3_spec, lam=80.0, eps=0.1)
    pair = first_eigenpair(stage.grid)
    phi = pair.phi1.values

    def projection(c):
        return float(phi @ (pair.lambda1 * c * phi
                            + nonlinear_part(stage, c * phi)))

    c = selab.solver.opening_amplitude(stage, pair)
    assert projection(c) >= 0.0 > projection(c * (1.0 - 2.0**-8))
    assert all(projection(c * 2.0**k) >= 0.0 for k in range(1, 20))


@pytest.mark.parametrize("config,n,lam", [("theorem2", 127, 1.0),
                                          ("theorem3", 48, 0.5),
                                          ("theorem1", 127, 1.0)])
def test_an_opening_without_a_crossing_keeps_half_phi1(config, n, lam, request):
    # where the projection onto phi_1 has no sign change,
    # and for K < 0, the run is bitwise the one from 0.5 phi_1
    spec = replace(with_n(request.getfixturevalue(f"{config}_spec"), n), lam=lam)
    rep = solve_with_continuation(spec)
    half = solve_with_continuation(spec, initial=half_phi1(spec))
    assert rep.diagnostics["opening_amplitude"] == 0.5
    np.testing.assert_array_equal(rep.solution.values, half.solution.values)
    assert (rep.iterations, rep.residual_inf, rep.eps_path, rep.min_interior) == \
        (half.iterations, half.residual_inf, half.eps_path, half.min_interior)
    for key in ("initial", "opening_amplitude"):
        del rep.diagnostics[key], half.diagnostics[key]
    assert rep.diagnostics == half.diagnostics


@pytest.mark.parametrize("n,lam", [(255, 80.0), (511, 20.0), (511, 80.0)])
def test_theorem3_at_a_0_1_converges_from_the_projected_amplitude(
        theorem3_spec, n, lam):
    # from 0.5 phi_1 these stagnated, n = 255 after 3 stages and n = 511
    # in the first
    rep = solve_with_continuation(replace(with_n(theorem3_spec, n), conv_a=0.1,
                                          lam=lam))
    assert (rep.diagnostics["verdict"], rep.diagnostics["mode"]) == ("converged", None)
    assert rep.eps_path == default_schedule()


def test_continuation_stage_stats_carry_mass(theorem3_spec):
    rep = solve_with_continuation(replace(theorem3_spec, lam=20.0))
    assert rep.converged
    stages = rep.diagnostics["stages"]
    assert len(stages) == 12
    assert all("mass" in s for s in stages)
    assert rep.diagnostics["mass_fitted"] is not None


def test_continuation_with_a_table_g_converges(theorem3_spec):
    # the stage masses of tabulated g are differences of its primitive:
    # no quadrature per cell, so no IntegrationWarning under the filter
    s = np.geomspace(1e-8, 10.0, 400)
    table = SingularTerm("table", table_s=s, table_g=s**-0.5)
    rep = solve_with_continuation(replace(theorem3_spec, singular=table,
                                          lam=50.0))
    assert rep.converged
    assert all(np.isfinite(st["mass"]) for st in rep.diagnostics["stages"])
    assert rep.diagnostics["mass_fitted"] < 1.1


def test_failed_stage_leaves_no_reference_cycle(theorem3_spec):
    # a failed Newton attempt must not keep its exception (whose traceback
    # holds the continuation frame) and with it the grid's LU and matrices
    gc.disable()
    try:
        spec = replace(theorem3_spec, grid=build_grid("interval", (1.0,), 31),
                       lam=5.0)
        rep = solve_with_continuation(spec)
        assert rep.diagnostics["mode"] == "collapse"
        ref = weakref.ref(spec.grid)
        del rep, spec
        assert ref() is None
    finally:
        gc.enable()
