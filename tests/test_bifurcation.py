"""Lambda-axis machinery: sweeps, threshold bracketing, the explicit
lambda_0 bound, and the mass-divergence diagnostic."""

import numpy as np
import pytest
from dataclasses import replace

from selab.bifurcation import (
    THREADS_ENV,
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
    make_problem,
)
from selab.solver import default_schedule


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
    assert len(est.history) == 2 + 6
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


def test_estimate_rejects_bad_range(theorem3_spec):
    with pytest.raises(ModelError):
        estimate_lambda_star(theorem3_spec, 5.0, 2.0)
    with pytest.raises(ModelError):
        estimate_lambda_star(theorem3_spec, 0.0, 10.0)


# ---------------------------------------------------------------- sweeps


def test_sweep_requires_ascending(theorem3_spec):
    with pytest.raises(ModelError):
        lambda_sweep(theorem3_spec, [1.0, 0.5])
    with pytest.raises(ModelError):
        lambda_sweep(theorem3_spec, [1.0, 1.0])


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


@pytest.mark.parametrize("warm,iterations", [
    (True, [0] * 7 + [32, 18, 18, 15, 15]),
    (False, [0] * 7 + [32, 18, 14, 11, 11]),
])
def test_sweep_verdicts_and_iterations_are_pinned(theorem3_spec, warm,
                                                  iterations):
    # recorded with a 31-halving line search: the 8-step budget must give
    # up only where that one failed, and take the same steps elsewhere
    result = lambda_sweep(coarsen(theorem3_spec, 48), np.geomspace(0.5, 64, 12),
                          warm_start=warm)
    assert "".join(v[0] for v in result.verdicts) == "nnnnnnnccccc"
    assert [r.iterations for r in result.reports] == iterations


def test_thread_budget(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    assert 1 <= _thread_budget() <= 4
    assert _thread_budget(7) == 7
    assert _thread_budget(0) == 1
    monkeypatch.setenv(THREADS_ENV, "3")
    assert _thread_budget() == 3
    monkeypatch.setenv(THREADS_ENV, "0")
    assert _thread_budget() == 1
    monkeypatch.setenv(THREADS_ENV, "junk")
    assert 1 <= _thread_budget() <= 4
    # explicit argument wins over the environment
    monkeypatch.setenv(THREADS_ENV, "3")
    assert _thread_budget(5) == 5


# ----------------------------------------------------------- mass diagnostic


def test_diagnostic_schedule_halves(theorem2_spec):
    # the default ladder: 20 stages from 0.1, halving each time
    sched = nonexistence_diagnostic(coarsen(theorem2_spec, 31)).eps
    assert len(sched) == 20
    assert sched[0] == 0.1
    assert all(b == 0.5 * a for a, b in zip(sched, sched[1:]))


def test_diagnostic_mass_overflow_is_divergent():
    # exp(1/s) - 1 overflows once s < 1/709: the masses reach inf, no
    # rate can be fitted, and the verdict must still be divergence
    grid = build_grid("interval", (1.0,), 15)
    spec = make_problem(grid, Potential(1.0), SingularTerm("shifted-exp"),
                        ReactionTerm("power", p=0.5))
    rep = nonexistence_diagnostic(spec, eps_schedule=default_schedule(8))
    assert not np.isfinite(rep.mass[-1])
    assert rep.verdict == "mass-divergent"
    assert rep.fitted_factor is None
    assert rep.reference_factor is None


def test_diagnostic_divergent_rate(theorem2_spec):
    # alpha = 3/2: the mass above the singular layer grows like
    # eps^{-1/2}, a factor sqrt(2) per halving, and the reference
    # integral of g(c2 dist + eps) fits the same rate
    rep = nonexistence_diagnostic(theorem2_spec)
    assert rep.verdict == "mass-divergent"
    assert 1.3 < rep.fitted_factor < 1.55
    assert rep.reference_factor == pytest.approx(rep.fitted_factor, rel=0.1)
    assert all(f > 1.02 for f in rep.factors[-3:])
    assert len(rep.mass) == len(rep.eps) == 20
    assert rep.c2 > 0.0
    assert set(rep.sources) <= {"descent", "envelope"}
    assert len(rep.collapsed) == len(rep.eps)


def test_diagnostic_bounded_above_threshold(theorem3_spec):
    # integrable g with lambda above the threshold: the regularized
    # masses converge, no sustained growth
    rep = nonexistence_diagnostic(theorem3_spec.with_lambda(20.0))
    assert rep.verdict == "mass-bounded"
    assert rep.fitted_factor < 1.1
    assert all(np.isfinite(m) and m > 0 for m in rep.mass)


def test_diagnostic_flags_non_decreasing_schedule(theorem2_spec):
    rep = nonexistence_diagnostic(theorem2_spec, eps_schedule=[0.1, 0.2])
    assert rep.verdict == "no-trend"
    assert rep.factors == []
    assert rep.fitted_factor is None
    assert rep.reference_factor is None


def test_diagnostic_negative_regime_rejected(theorem1_spec):
    with pytest.raises(RegimeError):
        nonexistence_diagnostic(theorem1_spec)


def test_diagnostic_source_rejected(theorem2_spec):
    grid = theorem2_spec.grid
    spec = replace(theorem2_spec, source=Field(grid, np.ones(grid.n_total)))
    with pytest.raises(ModelError):
        nonexistence_diagnostic(spec)
