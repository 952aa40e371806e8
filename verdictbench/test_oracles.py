"""The benchmark's independent checks are not vacuous: they agree with
selab where selab is right and reject an output that is wrong.

    python3 -m pytest verdictbench/test_oracles.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import selab  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("kind,n", [("interval", 50), ("rectangle", 13)])
@pytest.mark.parametrize("a", [0.7, 1.0, 2.0])
def test_residual_matches_selab_on_random_positive_field(kind, n, a):
    rng = np.random.default_rng(7)
    inst = oracles.Instance(kind, n, K=1.3, alpha=0.6, p=0.4, a=a, lam=3.0)
    spec = workloads._power_spec(inst).with_eps(1e-3)
    u = rng.uniform(0.05, 1.0, size=n if kind == "interval" else n * n)
    ours, lap = oracles.residual(inst, u, 1e-3)
    theirs = selab.residual(spec, selab.Field(spec.grid, u)).values
    assert np.max(np.abs(ours - theirs)) <= 1e-12 * np.max(np.abs(lap))


@pytest.fixture(scope="module")
def solved():
    inst = oracles.Instance("interval", 64, K=1.0, alpha=0.5, p=0.5, a=1.0, lam=20.0)
    rep = selab.solve_with_continuation(workloads._power_spec(inst))
    assert rep.converged
    return inst, rep.solution.values, rep.eps_path[-1]


def test_residual_accepts_a_converged_solution(solved):
    inst, u, eps = solved
    assert oracles.solution_problems(inst, u, eps) == []


@pytest.mark.parametrize("node,rel", [(0, 1e-6), (31, 1e-6), (63, 1e-5)])
def test_residual_rejects_a_perturbed_solution(solved, node, rel):
    inst, u, eps = solved
    bad = u.copy()
    bad[node] *= 1.0 + rel
    assert oracles.solution_problems(inst, bad, eps)


def test_residual_rejects_a_solution_at_the_wrong_lambda(solved):
    inst, u, eps = solved
    other = oracles.Instance(inst.kind, inst.n, inst.K, inst.alpha, inst.p, inst.a,
                             inst.lam * (1.0 + 1e-6))
    assert oracles.solution_problems(other, u, eps)


@pytest.mark.parametrize("kind,n", [("interval", 31), ("interval", 120),
                                    ("rectangle", 15), ("rectangle", 40)])
def test_closed_form_lambda1_matches_first_eigenpair(kind, n):
    grid = selab.build_grid(kind, 1.0, n)
    exact = oracles.discrete_lambda1(grid.shape)
    assert selab.first_eigenpair(grid).lambda1 == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("K,alpha,p,saturated", [
    (1.0, 0.5, 0.5, True), (4.0, 0.3, 0.6, True), (0.05, 0.7, 0.2, False)])
def test_closed_form_lambda0_matches_selab(K, alpha, p, saturated):
    inst = oracles.Instance("interval", 48, K=K, alpha=alpha, p=p, a=1.0, lam=1.0)
    ours = oracles.lambda0_closed_form(inst)
    assert (ours == 1.0) == saturated
    assert selab.lambda0_bound(workloads._power_spec(inst)) == pytest.approx(ours, rel=1e-9)


def test_profile_closed_form_solves_the_profile_equation():
    alpha = 0.4
    t = np.linspace(0.2, 1.0, 801)
    h = oracles.profile_closed_form(alpha, t)
    dt = t[1] - t[0]
    second = (h[2:] - 2.0 * h[1:-1] + h[:-2]) / dt**2
    assert np.max(np.abs(second / h[1:-1] ** -alpha - 1.0)) < 1e-4


def test_upset_check():
    assert oracles.is_upset([3.0, 1.0, 2.0], [True, False, True])
    assert not oracles.is_upset([1.0, 2.0, 3.0], [True, False, True])


def test_read_field_csv_round_trips_selab_output(tmp_path):
    grid = selab.build_grid("rectangle", 1.0, 5)
    values = np.random.default_rng(3).uniform(size=grid.n_total)
    path = tmp_path / "u.csv"
    selab.write_field_csv(selab.Field(grid, values), path)
    assert np.array_equal(oracles.read_field_csv(path), values)
