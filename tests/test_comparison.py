from dataclasses import replace

import numpy as np
import pytest

from selab.acceptance import comparison_suite
from selab.comparison import check_ordering, psi_from_spec
from selab.constructions import build_subsolution_eigen, build_supersolution
from selab.grid import Field, build_grid
from selab.model import Potential, ProblemSpec, ReactionTerm, SingularTerm
from selab.spectral import first_eigenpair


def canonical_negative(n=31, eps=1e-3):
    grid = build_grid("interval", (1.0,), n)
    return ProblemSpec(
        grid, Potential(-1.0), SingularTerm("power", alpha=0.5),
        ReactionTerm("power", p=0.5), 1.0, 1.0, eps, None,
    )


def test_psi_shape_negative_regime():
    spec = canonical_negative()
    psi = psi_from_spec(spec)
    s = np.full(spec.grid.n_total, 0.25)
    # K = -1: psi = lam sqrt(s) + g(s + eps)
    expect = np.sqrt(0.25) + (0.25 + spec.eps) ** -0.5
    np.testing.assert_allclose(psi(spec.grid, s), expect)


def test_psi_shape_positive_regime(theorem3_spec):
    psi = psi_from_spec(theorem3_spec)
    s = np.full(theorem3_spec.grid.n_total, 0.25)
    expect = np.sqrt(0.25) - 0.25**-0.5  # eps = 0 in the config
    np.testing.assert_allclose(psi(theorem3_spec.grid, s), expect)


def test_psi_is_finite_at_a_zero_node(theorem3_spec):
    # eps = 0 and a node at s = 0: psi_from_spec floors s, so g(0) = inf
    # never enters the hypothesis residuals
    assert theorem3_spec.eps == 0.0
    grid = theorem3_spec.grid
    s = np.full(grid.n_total, 0.25)
    s[0] = 0.0
    vals = psi_from_spec(theorem3_spec)(grid, s)
    assert np.all(np.isfinite(vals))
    flat = theorem3_spec.psi(np.full(grid.n_total, 0.25))
    np.testing.assert_array_equal(vals[1:], flat[1:])


def test_ordered_verdict_on_certified_pair(theorem3_spec):
    probe = build_subsolution_eigen(replace(theorem3_spec, lam=1e5))
    lam = 2.0 * probe.metadata["lambda_threshold"]
    spec = replace(theorem3_spec, lam=lam)
    sub = build_subsolution_eigen(spec)
    sup = build_supersolution(spec)
    rep = check_ordering(spec.grid, psi_from_spec(spec), sub.field, sup.field)
    assert rep.verdict == "ordered"
    assert rep.ordered
    assert rep.sub_share == 1.0 and rep.super_share == 1.0
    assert rep.strict_decrease_ok
    assert rep.max_violation <= 0.0


def test_swapped_pair_blames_hypotheses(theorem3_spec):
    # handing the envelope as the sub-solution breaks the sub
    # inequality; the report must not claim an ordering counterexample
    probe = build_subsolution_eigen(replace(theorem3_spec, lam=1e5))
    lam = 2.0 * probe.metadata["lambda_threshold"]
    spec = replace(theorem3_spec, lam=lam)
    sub = build_subsolution_eigen(spec)
    sup = build_supersolution(spec)
    rep = check_ordering(spec.grid, psi_from_spec(spec), sup.field, sub.field)
    assert rep.verdict == "hypotheses-not-met"
    assert rep.max_violation > 0  # the fields really are out of order


def test_doubled_upper_field_is_a_hypothesis_failure():
    # v = 2w fails Delta v + psi(v) >= 0 strictly for sublinear f and
    # nonincreasing g, at every interior node
    spec = canonical_negative()
    w = build_supersolution(spec).field
    rep = check_ordering(spec.grid, psi_from_spec(spec),
                         Field(spec.grid, 2.0 * w.values), w)
    assert rep.verdict == "hypotheses-not-met"
    assert rep.sub_share < 1.0


def test_violated_verdict_reachable_within_tolerance():
    # eigenfunction pairs against psi(s) = lambda1 s - gamma s^2:
    # gamma = 2e-8 keeps both hypothesis residuals (gamma s^2 <= 1.3e-8)
    # inside the tolerance band and psi(s)/s decreasing beyond the
    # probe's slack, while the ordering violation is macroscopic; the
    # check must call that violated rather than excuse it
    grid = build_grid("interval", (1.0,), 31)
    pair = first_eigenpair(grid)
    lam1, phi = pair.lambda1, pair.phi1.values
    gamma = 2e-8

    def psi(g, s):
        return lam1 * s - gamma * s * s

    v = Field(grid, 0.8 * phi)
    w = Field(grid, 0.4 * phi)
    rep = check_ordering(grid, psi, v, w)
    assert rep.sub_share == 1.0 and rep.super_share == 1.0
    assert rep.strict_decrease_ok
    assert rep.verdict == "violated"
    assert rep.max_violation == pytest.approx(0.4, abs=1e-9)


def test_boundary_traces_always_comparable():
    spec = canonical_negative()
    z = Field(spec.grid, np.zeros(spec.grid.n_total))
    rep = check_ordering(spec.grid, psi_from_spec(spec), z, z)
    assert rep.boundary_ok


def test_probe_range_spans_the_pair():
    grid = build_grid("interval", (1.0,), 15)

    def psi(g, s):
        return 1.0 / s

    v = Field(grid, np.full(15, 0.5))
    w = Field(grid, np.full(15, 1.0))
    rep = check_ordering(grid, psi, v, w)
    assert rep.details["s_probe_range"] == (0.5, 1.0)


def test_suite_instances_all_ordered():
    runs = comparison_suite(seed=11)
    assert len(runs) == 50
    for rep, spec, tag in runs:
        assert rep is not None, tag
        assert rep.verdict == "ordered", (tag, rep.verdict, rep.details)
        assert rep.max_violation <= 1e-8


def test_suite_has_both_regimes():
    runs = comparison_suite(seed=5)
    tags = {tag for _, _, tag in runs}
    assert tags == {"scaled-vs-dominating", "eigen-vs-envelope"}
