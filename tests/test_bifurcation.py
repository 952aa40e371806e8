"""Lambda-axis machinery: sweeps, threshold bracketing, the explicit
lambda_0 bound, and the mass-divergence diagnostic."""

import numpy as np
import pytest
from dataclasses import replace

import selab.bifurcation
from selab.bifurcation import (
    _refined,
    _thread_budget,
    estimate_lambda_star,
    lambda0_bound,
    lambda_sweep,
    nonexistence_diagnostic,
)
from selab.errors import ModelError, RegimeError
from selab.grid import Field, build_grid
from selab.model import (
    Potential,
    ReactionTerm,
    SingularTerm,
    classify_singularity,
    make_problem,
)
from selab.solver import solve_with_continuation
from selab.spectral import first_eigenpair


def coarsen(spec, n):
    grid = build_grid(spec.grid.kind, spec.grid.extents, n)
    return replace(spec, grid=grid, source=None)


# ---------------------------------------------------------------- lambda_0


def test_lambda0_canonical_is_one(theorem3_spec):
    # f = s^1/2, K = 1, g = s^-1/2: the crossover level is exactly c = 1
    # with m = 1, and lambda_1/2 > 1, so the min picks the constant branch
    assert lambda0_bound(theorem3_spec) == 1.0


def test_lambda0_eigen_branch():
    # q = 100 pushes the crossover down to c = (k/q)^{1/(p+alpha)} = 0.01
    # and m = q c^{p-1} = 1000 up, so the eigenvalue branch wins
    n = 63
    grid = build_grid("interval", (1.0,), n)
    spec = make_problem(
        grid,
        Potential(1.0),
        SingularTerm("power", alpha=0.5),
        ReactionTerm("power", p=0.5, q=100.0),
        conv_a=1.0,
        lam=1.0,
    )
    h = 1.0 / (n + 1)
    lambda1_h = 2.0 / h**2 * (1.0 - np.cos(np.pi * h))
    expected = lambda1_h / (2.0 * 1000.0)
    got = lambda0_bound(spec)
    assert got < 1.0
    assert got == pytest.approx(expected, rel=1e-9)


def test_lambda0_saturates_when_margin_stays_negative():
    # q = 1e-30 keeps f - K g negative further out than the doubling
    # search looks; the level saturates, m collapses, and the min
    # falls back to the constant branch
    grid = build_grid("interval", (1.0,), 31)
    spec = make_problem(
        grid,
        Potential(1.0),
        SingularTerm("power", alpha=0.5),
        ReactionTerm("power", p=0.5, q=1e-30),
        conv_a=1.0,
        lam=1.0,
    )
    assert lambda0_bound(spec) == 1.0


def test_lambda0_negative_regime_rejected(theorem1_spec):
    with pytest.raises(RegimeError):
        lambda0_bound(theorem1_spec)


def test_lambda0_without_singular_rejected(theorem3_spec):
    # a spec without g cannot be built, so it never reaches lambda0_bound
    with pytest.raises(ModelError, match="SingularTerm"):
        replace(theorem3_spec, singular=None)


def test_lambda0_requires_margin_near_zero():
    # bounded g and a constant-in-s reaction: f - K g = 2 - 1 >= 0 already
    # at s -> 0, the level c does not exist and the bound must refuse
    grid = build_grid("interval", (1.0,), 31)
    bounded = SingularTerm(
        "table",
        table_s=np.array([0.1, 1.0]),
        table_g=np.array([1.0, 0.5]),
    )
    spec = make_problem(
        grid,
        Potential(1.0),
        bounded,
        ReactionTerm("power", p=0.0, q=2.0),
        conv_a=1.0,
        lam=1.0,
    )
    with pytest.raises(ModelError, match="no margin"):
        lambda0_bound(spec)


# ------------------------------------------------------- lambda* bracketing


def test_estimate_below_range_sentinel(theorem1_spec):
    # negative K solves at every lambda, so even the left endpoint
    # converges and the flip lies below the range
    est = estimate_lambda_star(theorem1_spec, 0.5, 5.0, iters=4)
    assert est.sentinel == "below-range"
    assert est.lo is None
    assert est.hi == 0.5
    assert est.iters == 0
    assert est.history == [(0.5, "converged")]
    assert est.lambda0 is None
    assert est.lambda0_below_hi is True


def test_estimate_records_no_lambda0_where_the_bound_does_not_apply():
    # K > 0, but g is so small that f - K g >= 0 near 0: lambda0_bound
    # refuses with ModelError, and the bracket records lambda0 = None
    # instead of raising
    s = np.geomspace(1e-2, 1.0, 50)
    spec = make_problem(
        build_grid("interval", (1.0,), 31),
        Potential(1.0),
        SingularTerm("table", table_s=s, table_g=1e-3 * s**-0.5),
        ReactionTerm("power", p=0.0, q=1.0),
        conv_a=1.0,
        lam=1.0,
    )
    with pytest.raises(ModelError, match="no margin"):
        lambda0_bound(spec)
    assert lambda_sweep(spec, [1.0, 2.0]).verdicts == ["converged"] * 2
    est = estimate_lambda_star(spec, 0.1, 100.0, iters=4)
    assert est.sentinel == "below-range"
    assert est.lambda0 is None
    assert est.lambda0_below_hi is True


def test_estimate_above_range_sentinel(theorem2_spec):
    # non-integrable g never solves, so even the right endpoint fails
    est = estimate_lambda_star(theorem2_spec, 0.5, 2.0, iters=4)
    assert est.sentinel == "above-range"
    assert est.lo == 2.0
    assert est.hi is None
    assert [v for _, v in est.history] == ["nonexistence-indicated"] * 2
    # c = 1, m = 1 here as well, so the explicit bound still reports 1
    assert est.lambda0 == 1.0
    assert est.lambda0_below_hi is None


def test_estimate_bracket_structure(theorem3_spec):
    est = estimate_lambda_star(theorem3_spec, 0.1, 100.0, iters=6, refine=False)
    assert est.sentinel is None
    assert est.refined_consistent is None
    assert est.grid_n == 64
    assert 0.1 < est.lo < est.hi < 100.0
    assert est.hi - est.lo == pytest.approx(99.9 / 2**6, rel=1e-12)
    # two endpoints and the two ends of the fold's cell
    assert len(est.history) == 2 + 2
    converged = [lam for lam, v in est.history if v == "converged"]
    failed = [lam for lam, v in est.history if v == "nonexistence-indicated"]
    assert est.hi == min(converged)
    assert est.lo == max(failed)
    assert est.lambda0 == 1.0
    assert est.lambda0_below_hi is True


def test_estimate_refined_consistency(theorem3_spec):
    # 4 iterations leave a bracket a few units wide around the threshold;
    # the doubled grid must agree with both bracket ends
    est = estimate_lambda_star(coarsen(theorem3_spec, 32), 0.1, 100.0, iters=4)
    assert est.sentinel is None
    assert est.grid_n == 32
    assert est.refined_consistent is True


def bisection_cells(spec, lo, hi, halvings):
    """The cell after each halving of a plain bisection of the verdict,
    `solve_with_continuation(...).converged`, on [lo, hi]."""
    cells = [(lo, hi)]
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        if solve_with_continuation(spec.with_lambda(mid)).converged:
            hi = mid
        else:
            lo = mid
        cells.append((lo, hi))
    return cells


@pytest.mark.parametrize("kind,n,halvings", [
    ("interval", 64, 24), ("interval", 255, 24), ("rectangle", 15, 12)])
def test_the_fold_guided_bracket_is_the_bisection_bracket(theorem3_spec, kind, n,
                                                          halvings):
    # the 12-halving cell from the fold and two confirming probes is the
    # plain bisection's, float for float (n = 64 is `selab verify`'s
    # case), and the fold lies in the bisection's last cell
    spec = replace(theorem3_spec, grid=build_grid(kind, (1.0,), n), source=None)
    cells = bisection_cells(spec, 0.1, 100.0, halvings)
    est = estimate_lambda_star(spec, 0.1, 100.0, iters=12, refine=False)
    assert (est.lo, est.hi) == cells[12]
    assert len(est.history) == 2 + 2
    lo, hi = cells[-1]
    assert lo < est.fold <= hi


@pytest.mark.parametrize("located,probes", [(50.0, 1), (2.0, 2), (None, 0)],
                         ids=["above", "below", "none"])
def test_a_fold_the_verdicts_refute_falls_back_to_bisection(
        theorem3_spec, monkeypatch, located, probes):
    # a wrong fold's cell is refuted by a confirming probe (its lower end
    # converges, or its upper end fails, and the probes stop there), and
    # no fold skips them; either way the verdict is bisected, and the
    # bracket is the one the true fold gives
    guided = estimate_lambda_star(theorem3_spec, 0.1, 100.0, iters=6, refine=False)
    monkeypatch.setattr(selab.bifurcation, "branch_fold",
                        lambda spec, initial, lambda_min: located)
    est = estimate_lambda_star(theorem3_spec, 0.1, 100.0, iters=6, refine=False)
    assert (est.lo, est.hi) == (guided.lo, guided.hi)
    assert est.fold == located
    assert len(est.history) == 2 + probes + 6
    assert est.history[:2] == guided.history[:2]


def test_estimate_rejects_bad_range(theorem3_spec):
    with pytest.raises(ModelError):
        estimate_lambda_star(theorem3_spec, 5.0, 2.0)
    with pytest.raises(ModelError):
        estimate_lambda_star(theorem3_spec, 0.0, 10.0)


def test_estimate_rejects_negative_iters(theorem3_spec):
    with pytest.raises(ModelError, match="iters"):
        estimate_lambda_star(theorem3_spec, 0.1, 100.0, iters=-3)


# ---------------------------------------------------------------- sweeps


def test_sweep_requires_ascending(theorem3_spec):
    with pytest.raises(ModelError):
        lambda_sweep(theorem3_spec, [1.0, 0.5])
    with pytest.raises(ModelError):
        lambda_sweep(theorem3_spec, [1.0, 1.0])


def test_sweep_rejects_no_lambdas(theorem3_spec):
    with pytest.raises(ModelError, match="at least one"):
        lambda_sweep(theorem3_spec, [])


@pytest.fixture(scope="module")
def coarse_sweep(theorem3_spec):
    lambdas = [0.5, 4.0, 12.0, 30.0, 70.0]
    return lambdas, lambda_sweep(coarsen(theorem3_spec, 32), lambdas)


def test_sweep_upset_and_rows(coarse_sweep):
    lambdas, result = coarse_sweep
    assert result.mode == "sequential-warm"
    assert result.verdicts_form_upset()
    assert "converged" in result.verdicts
    assert "nonexistence-indicated" in result.verdicts
    rows = list(result.rows())
    assert len(rows) == len(lambdas)
    for (lam, verdict, max_u, min_u, mass), st in zip(rows, result.stats):
        assert lam in lambdas and verdict in {"converged",
                                              "nonexistence-indicated"}
        assert 0.0 <= min_u <= max_u
        assert mass > 0.0
        assert st["max_u"] == max_u


def test_sweep_parallel_matches_warm(theorem3_spec, coarse_sweep):
    lambdas, warm = coarse_sweep
    cold = lambda_sweep(coarsen(theorem3_spec, 32), lambdas,
                        warm_start=False, threads=2)
    assert cold.mode == "parallel-2"
    assert cold.verdicts == warm.verdicts


def test_a_converged_verdict_below_lambda0_is_recorded(theorem3_spec, monkeypatch,
                                                     caplog):
    # a bound of 100 puts both converged verdicts below lambda_0: each row
    # records int(u phi_1) = h sum u phi_1, and a warning names it
    monkeypatch.setattr(selab.bifurcation, "lambda0_bound", lambda spec: 100.0)
    spec = coarsen(theorem3_spec, 48)
    with caplog.at_level("WARNING", logger="selab.bifurcation"):
        result = lambda_sweep(spec, [20.0, 40.0])
    assert result.verdicts == ["converged"] * 2
    phi1 = first_eigenpair(spec.grid).phi1.values
    h = spec.grid.spacing[0]
    for lam, st, rep in zip(result.lambdas, result.stats, result.reports):
        assert st["sub_bound_inconsistency"] == h * float(rep.solution.values @ phi1)
        assert st["sub_bound_inconsistency"] > 0.0
        assert f"converged verdict at lambda={lam:.6g} below lambda0=100" in caplog.text
    assert len(caplog.records) == 2


@pytest.mark.parametrize("warm,iterations", [
    (True, [0] * 7 + [22, 12, 13, 10, 8]),
    (False, [0] * 7 + [22, 15, 11, 8, 6]),
])
def test_sweep_verdicts_and_iterations_are_pinned(theorem3_spec, warm,
                                                  iterations):
    # recorded with a 31-halving line search: the 8-step budget must give
    # up only where that one failed, and take the same steps elsewhere.
    # Each cold lambda opens at its own phi_1 amplitude and makes its first
    # stage's Newton steps from there, where a Picard rescue used to
    # leave Newton 0 steps to make
    result = lambda_sweep(coarsen(theorem3_spec, 48), np.geomspace(0.5, 64, 12),
                          warm_start=warm)
    assert "".join(v[0] for v in result.verdicts) == "nnnnnnnccccc"
    assert [r.iterations for r in result.reports] == iterations


@pytest.mark.parametrize("kind, extents, shape, fine", [
    ("interval", (1.0,), (64,), (128,)),
    ("rectangle", (1.0, 2.0), (15, 31), (30, 62)),
])
def test_refinement_doubles_every_axis(theorem3_spec, kind, extents, shape, fine):
    # the refined_consistent check must run on a grid finer on every axis
    grid = build_grid(kind, extents, shape)
    refined = _refined(replace(theorem3_spec, grid=grid)).grid
    assert refined.shape == fine
    assert refined.extents == grid.extents
    assert all(a < b for a, b in zip(refined.spacing, grid.spacing))


def test_thread_budget():
    assert 1 <= _thread_budget() <= 4
    assert _thread_budget(7) == 7
    assert _thread_budget(0) == 1


# ----------------------------------------------------------- mass diagnostic


def test_diagnostic_schedule_halves(theorem2_spec):
    # the default ladder: 20 stages from 0.1, halving each time
    sched = nonexistence_diagnostic(coarsen(theorem2_spec, 31)).eps
    assert len(sched) == 20
    assert sched[0] == 0.1
    assert all(b == 0.5 * a for a, b in zip(sched, sched[1:]))


def test_diagnostic_mass_overflow_is_divergent():
    # exp(1/s) - 1 overflows once s < 1/709: the masses reach inf, they
    # have no rate, and the verdict must still be divergence
    grid = build_grid("interval", (1.0,), 15)
    spec = make_problem(grid, Potential(1.0), SingularTerm("shifted-exp"),
                        ReactionTerm("power", p=0.5))
    rep = nonexistence_diagnostic(spec)
    assert not np.isfinite(rep.mass[-1])
    assert rep.verdict == "mass-divergent"
    assert rep.fitted_factor is None
    assert rep.reference_factor is None
    assert rep.mass_tail is None


def test_diagnostic_divergent_rate(theorem2_spec):
    # alpha = 3/2: the mass above the singular layer grows like
    # eps^{-1/2}, its increments by a factor sqrt(2) per halving, and the
    # reference integral of g(c2 dist + eps) has the same rate
    rep = nonexistence_diagnostic(theorem2_spec)
    assert rep.verdict == "mass-divergent"
    assert rep.mass_tail is None
    assert 1.3 < rep.fitted_factor < 1.55
    assert rep.reference_factor == pytest.approx(rep.fitted_factor, rel=0.1)
    assert all(f > 1.02 for f in rep.factors[-3:])
    assert len(rep.mass) == len(rep.eps) == 20
    assert rep.c2 > 0.0
    assert set(rep.sources) <= {"descent", "envelope"}
    assert len(rep.collapsed) == len(rep.eps)


def test_diagnostic_bounded_above_threshold(theorem3_spec):
    # integrable g = s^-1/2 with lambda above the threshold: the
    # regularized masses converge, their increments shrinking by 2^-1/2
    # per halving, and a small Cauchy tail is left below the last eps
    rep = nonexistence_diagnostic(theorem3_spec.with_lambda(20.0))
    assert rep.verdict == "mass-bounded"
    assert rep.fitted_factor == pytest.approx(2.0**-0.5, abs=1e-3)
    assert 0.0 < rep.mass_tail < 1e-3 * rep.mass[-1]
    assert all(np.isfinite(m) and m > 0 for m in rep.mass)


@pytest.mark.parametrize("alpha,continuation,diagnostic", [
    (0.5, ("converged", None), "mass-bounded"),
    (0.9, ("converged", None), "mass-bounded"),
    (1.0, ("nonexistence-indicated", "mass-divergence"), "mass-divergent"),
    (1.1, ("nonexistence-indicated", "mass-divergence"), "mass-divergent"),
    (1.5, ("nonexistence-indicated", "mass-divergence"), "mass-divergent"),
])
def test_one_tail_rule_at_the_borderline(theorem2_spec, alpha, continuation,
                                         diagnostic):
    # g = s^-alpha on theorem2's data at lambda = 80, where every stage
    # solves: the continuation, the diagnostic and the integrability
    # classification decide the tail by the same increment ratio, which
    # reads 2^(alpha-1).  g = 1/s is not integrable and reads 1; a
    # log-log fit of the masses read 1.04 and 1.09 for alpha = 1 and 1.1
    # and called both bounded
    spec = replace(coarsen(theorem2_spec, 255), lam=80.0,
                   singular=SingularTerm("power", alpha=alpha))
    rep = solve_with_continuation(spec)
    diag = nonexistence_diagnostic(spec)
    assert (rep.diagnostics["verdict"], rep.diagnostics["mode"]) == continuation
    assert diag.verdict == diagnostic
    assert rep.diagnostics["mass_fitted"] == pytest.approx(2.0 ** (alpha - 1.0),
                                                           abs=1e-3)
    assert diag.fitted_factor == pytest.approx(2.0 ** (alpha - 1.0), abs=1e-3)
    integrable = classify_singularity(spec.singular) == "integrable"
    assert integrable == (diag.verdict == "mass-bounded")
    assert (rep.diagnostics["mass_tail"] is None) == (not integrable)


def test_diagnostic_negative_regime_rejected(theorem1_spec):
    with pytest.raises(RegimeError):
        nonexistence_diagnostic(theorem1_spec)


def test_diagnostic_source_rejected(theorem2_spec):
    grid = theorem2_spec.grid
    spec = replace(theorem2_spec, source=Field(grid, np.ones(grid.n_total)))
    with pytest.raises(ModelError):
        nonexistence_diagnostic(spec)
