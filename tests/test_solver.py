import gc
import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest

from selab.constructions import build_subsolution_convection, build_supersolution
from selab.errors import ConvergenceError, OrderingError
from selab.grid import Field, build_grid, gradient_magnitude
from selab.model import Potential, ProblemSpec, ReactionTerm, SingularTerm
import selab.solver
from selab.solver import (
    _linearization,
    default_schedule,
    default_shift,
    fixed_point,
    monotone_iterate,
    newton_solve,
    nonlinear_part,
    residual,
    solve_with_continuation,
)


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
                        max_iter=k)[2] for k in range(1, 6)]
    assert incs[0] == pytest.approx(0.5 * np.max(np.abs(exact)), rel=1e-12)
    for a, b in zip(incs, incs[1:]):
        assert b == pytest.approx(0.5 * a, rel=1e-9)


def test_fixed_point_floor_clips(poisson):
    grid, c, exact = poisson
    c = c - 0.5  # A^-1 c now changes sign
    exact = grid.lu().solve(c)
    assert exact.min() < 0.0 < exact.max()
    u, _, _ = fixed_point(grid.lu(), lambda v: -c, np.zeros(15), floor=0.0,
                          max_iter=1)
    assert np.array_equal(u, np.maximum(exact, 0.0))


def test_fixed_point_reports_exhaustion(poisson):
    grid, c, _ = poisson
    tol = 1e-6
    _, sweeps, inc = fixed_point(grid.lu(), lambda v: -c, np.zeros(15),
                                 relax=0.5, tol=tol, max_iter=3)
    assert sweeps == 3
    assert inc >= tol


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


def linearized(kind, a, kval, rng):
    grid = build_grid(*GRIDS[kind])
    spec = ProblemSpec(grid, Potential(kval), SingularTerm("power", alpha=0.5),
                       ReactionTerm("power", p=0.5), a, 2.0, 1e-2, None)
    u = 0.3 + rng.uniform(0.0, 1.0, grid.n_total)
    d, w = _linearization(spec, u)
    dense = grid.neg_laplacian().toarray() + np.diag(d)
    for wk, D in zip(w, grid.diff_matrices()):
        dense += wk[:, None] * D.toarray()
    return spec, u, grid.jacobian(d, w), dense


linearization_cases = pytest.mark.parametrize(
    "kind,a,kval", list(itertools.product(GRIDS, [0.5, 1.0, 2.0], [-1.0, 1.0])))


@linearization_cases
def test_jacobian_is_the_derivative_of_the_residual(kind, a, kval, rng):
    spec, u, J, dense = linearized(kind, a, kval, rng)
    np.testing.assert_allclose(J.toarray(), dense, rtol=1e-15,
                               atol=1e-15 * np.abs(dense).max())
    v = rng.standard_normal(spec.grid.n_total)
    delta = 1e-6
    diff = (residual(spec, Field(spec.grid, u + delta * v)).values
            - residual(spec, Field(spec.grid, u - delta * v)).values) / (2 * delta)
    Jv = J.toarray() @ v
    np.testing.assert_allclose(Jv, diff, rtol=0, atol=1e-6 * np.abs(Jv).max())


@linearization_cases
def test_newton_step_is_the_dense_solve(kind, a, kval, rng):
    spec, u, J, dense = linearized(kind, a, kval, rng)
    rhs = -residual(spec, Field(spec.grid, u)).values
    want = np.linalg.solve(dense, rhs)
    np.testing.assert_allclose(J.solve(rhs), want, rtol=0,
                               atol=1e-10 * np.abs(want).max())


@pytest.mark.parametrize("kind", list(GRIDS))
def test_newton_reports_a_singular_jacobian(kind, monkeypatch, rng):
    # cancel the first row of J exactly (h = 1/8 keeps the arithmetic
    # exact): its diagonal through d, its neighbours through the weights
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
    J = grid.jacobian(d, weights)
    assert not np.any(J.toarray()[0])
    monkeypatch.setattr(selab.solver, "_linearization", lambda spec, u: (d, weights))
    u = 0.3 + rng.uniform(0.0, 1.0, grid.n_total)
    with pytest.raises(ConvergenceError, match="Jacobian"):
        newton_solve(spec, Field(grid, u))


def test_newton_reports_a_non_finite_interval_jacobian(monkeypatch, rng):
    # LAPACK dgtsv does not check finiteness; Jacobian.solve must
    grid = build_grid("interval", (1.0,), 9)
    spec = ProblemSpec(grid, Potential(1.0), SingularTerm("power", alpha=0.5),
                       ReactionTerm("power", p=0.5), 1.0, 2.0, 1e-2, None)
    d = np.zeros(grid.n_total)
    d[4] = np.nan
    monkeypatch.setattr(selab.solver, "_linearization",
                        lambda spec, u: (d, [np.zeros(grid.n_total)]))
    u = 0.3 + rng.uniform(0.0, 1.0, grid.n_total)
    with pytest.raises(ConvergenceError, match="Jacobian"):
        newton_solve(spec, Field(grid, u))


def test_stagnating_newton_gives_up_within_the_line_search_budget(
        theorem3_spec, monkeypatch):
    # theorem3 has no solution at lambda = 5 (lambda* is about 10.4), so
    # this stage stagnates; each iteration may try at most 8 steps
    spec = replace(with_n(theorem3_spec, 48), lam=5.0).with_eps(0.1)
    u0, _ = selab.solver._initial_iterate(spec)
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
def test_interval_stencils_match_the_sparse_matrices(a, kval, rng):
    spec, u, _, _ = linearized("interval", a, kval, rng)
    grid = spec.grid
    want = grid.neg_laplacian() @ u + nonlinear_part(spec, u)
    np.testing.assert_allclose(residual(spec, Field(grid, u)).values, want,
                               rtol=1e-15, atol=1e-15 * np.abs(want).max())
    (D,) = grid.diff_matrices()
    np.testing.assert_allclose(grid.central_differences(u)[0], D @ u,
                               rtol=1e-15, atol=1e-15 * np.abs(D @ u).max())


# ---- monotone iteration ----


def bumped_dominator(spec, start):
    """Upward fixed point of w -> A^-1(lambda f(w) + |K| g(eps)): a
    super-solution of the eps problem that dominates `start`."""
    lu = spec.grid.lu()
    bump = -spec.k_nodal() * spec.g_at(np.full(spec.grid.n_total, spec.eps))
    w = np.asarray(start, dtype=float).copy()
    for _ in range(600):
        w = np.maximum(w, lu.solve(spec.lam * spec.f_at(w) + bump))
    return Field(spec.grid, w)


@pytest.fixture
def bracket(theorem1_spec):
    spec = replace(with_n(theorem1_spec, 127), eps=1e-3)
    sub = build_subsolution_convection(spec)
    sup = bumped_dominator(spec, sub.field.values)
    return spec, sub.field, sup


def test_monotone_iterate_converges_inside_bracket(bracket):
    spec, sub, sup = bracket
    rep = monotone_iterate(spec, sub, sup, tol=1e-12)
    assert rep.converged
    assert rep.residual_inf < 1e-8
    assert rep.diagnostics["monotone"]
    assert not rep.diagnostics["bracket_escape"]
    assert np.all(rep.solution.values >= sub.values - 1e-10)
    assert np.all(rep.solution.values <= sup.values + 1e-10)


def test_monotone_two_sided_runs_pinch_the_same_solution(bracket):
    spec, sub, sup = bracket
    up = monotone_iterate(spec, sub, sup, tol=1e-12)
    down = monotone_iterate(spec, sub, sup, tol=1e-12, from_super=True)
    assert down.converged
    # descending iterates stay above ascending ones and meet at the
    # solver tolerance
    assert np.max(np.abs(up.solution.values - down.solution.values)) < 1e-6


def test_monotone_agrees_with_newton(bracket):
    spec, sub, sup = bracket
    rep = monotone_iterate(spec, sub, sup, tol=1e-12)
    polished = newton_solve(spec, rep.solution)
    assert np.max(np.abs(polished.solution.values
                         - rep.solution.values)) < 1e-6


def test_monotone_rejects_crossed_pair(theorem1_spec):
    # the gradient-free envelope is NOT a super-solution once K < 0
    # feeds the singular term; it dips below the convection floor field
    # and the ordering precondition must fire rather than iterate
    spec = replace(with_n(theorem1_spec, 127), eps=1e-3)
    sub = build_subsolution_convection(spec)
    env = build_supersolution(spec)
    assert float(np.max(sub.field.values - env.field.values)) > 0
    with pytest.raises(OrderingError):
        monotone_iterate(spec, sub.field, env.field)


def test_default_shift_dominates_the_slope(bracket):
    spec, sub, sup = bracket
    D = default_shift(spec, sub, sup)
    # the shifted map s -> D s - K g(s+eps) + lam f(s) must be monotone
    # over the bracket: D + dN/ds >= 0 with
    # dN/ds = -K g'(s+eps) + lam f'(s)
    s = np.linspace(float(sub.values.min()), float(sup.values.max()), 200)
    s = s[s > 0]
    alpha, p = spec.singular.alpha, spec.reaction.p
    k = float(spec.k_nodal().min())
    dN = (-k) * (-alpha) * (s + spec.eps) ** (-alpha - 1.0) \
        + spec.lam * p * s ** (p - 1.0)
    assert D >= -np.min(dN) * 0.99
    assert D > 0


# ---- continuation ----


def test_continuation_schedule_validation(theorem1_spec):
    with pytest.raises(ValueError):
        solve_with_continuation(theorem1_spec, schedule=[0.1, 0.1])
    with pytest.raises(ValueError):
        solve_with_continuation(theorem1_spec, schedule=[0.1, -0.05])


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


def test_continuation_caller_initial(theorem1_spec):
    warm = solve_with_continuation(theorem1_spec)
    again = solve_with_continuation(theorem1_spec,
                                    initial=warm.solution.values)
    assert again.converged
    assert again.diagnostics["initial"] == "caller"


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


def test_continuation_empty_schedule_rejected(theorem1_spec):
    with pytest.raises((ValueError, IndexError)):
        solve_with_continuation(theorem1_spec, schedule=[])


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
