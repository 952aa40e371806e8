from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

import selab.model
from selab.errors import ConfigError, ModelError, RegimeError
from selab.grid import build_grid
from selab.model import (
    Potential,
    ProblemSpec,
    ReactionTerm,
    SingularTerm,
    classify_singularity,
    compute_p,
    hypothesis_probe,
    make_problem,
    parse_config,
    problem_from_config,
)


def g_power(alpha):
    return SingularTerm("power", alpha=alpha)


def f_power(p):
    return ReactionTerm("power", p=p)


# ---- singular term ----


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(0.1, 3.0),
    s1=st.floats(1e-6, 1e3),
    s2=st.floats(1e-6, 1e3),
)
def test_power_g_nonincreasing(alpha, s1, s2):
    lo, hi = sorted((s1, s2))
    g = g_power(alpha)
    assert g(np.array([lo]))[0] >= g(np.array([hi]))[0]


def test_power_g_values():
    g = g_power(0.5)
    np.testing.assert_allclose(g(np.array([0.25, 1.0, 4.0])),
                               [2.0, 1.0, 0.5])


def test_shifted_exp_values():
    g = SingularTerm("shifted-exp")
    np.testing.assert_allclose(g(np.array([1.0])), [np.e - 1.0])
    assert g(np.array([1e-2]))[0] > 1e40


def test_table_g_validation():
    with pytest.raises(ModelError):
        SingularTerm("table", table_s=np.array([0.1, 0.2]),
                     table_g=np.array([1.0, 2.0]))  # increasing values
    with pytest.raises(ModelError):
        SingularTerm("table", table_s=np.array([-0.1, 0.2]),
                     table_g=np.array([2.0, 1.0]))  # nonpositive abscissa


def test_table_g_builds_its_pchip_once(monkeypatch):
    s = np.geomspace(1e-3, 2.0, 40)
    g = SingularTerm("table", table_s=s, table_g=s**-0.5)
    x = np.concatenate([np.geomspace(1e-3, 2.0, 97), [1e-4, 3.0]])
    inside = np.clip(x, s[0], s[-1])
    fresh = PchipInterpolator(s, s**-0.5, extrapolate=False)
    expect = fresh(inside)
    expect_d = np.where((x < s[0]) | (x > s[-1]), 0.0,
                        fresh.derivative()(inside))
    np.testing.assert_array_equal(g(x), expect)
    np.testing.assert_array_equal(g.deriv(x), expect_d)

    def rebuilt(*args, **kwargs):
        raise AssertionError("table g rebuilt its PCHIP on a call")

    monkeypatch.setattr(selab.model, "PchipInterpolator", rebuilt)
    np.testing.assert_array_equal(g(x), expect)
    np.testing.assert_array_equal(g.deriv(x), expect_d)


@pytest.mark.parametrize(
    "alpha,expected",
    [(0.5, "integrable"), (0.99, "integrable"),
     (1.0, "non-integrable"), (1.5, "non-integrable")],
)
def test_classify_power(alpha, expected):
    assert classify_singularity(g_power(alpha)) == expected


def test_classify_shifted_exp():
    assert classify_singularity(SingularTerm("shifted-exp")) == "non-integrable"


@pytest.mark.parametrize("alpha,expected",
                         [(0.5, "integrable"), (1.5, "non-integrable")])
def test_classify_table_tracks_the_sampled_power(alpha, expected):
    s = np.geomspace(1e-8, 2.0, 400)
    g = SingularTerm("table", table_s=s, table_g=s**-alpha)
    assert classify_singularity(g) == expected


def test_classify_agrees_with_quadrature():
    # independent check on one integrable case
    g = g_power(0.7)
    val = quad(lambda s: g(np.array([s]))[0], 0.0, 1.0)[0]
    assert classify_singularity(g) == "integrable"
    assert abs(val - 1.0 / 0.3) < 1e-6


# ---- reaction term ----


def test_reaction_exponent_range():
    with pytest.raises(ModelError):
        f_power(1.0)
    with pytest.raises(ModelError):
        f_power(-0.1)
    f_power(0.0)  # constant-in-s probe is admissible


def test_reaction_weight_positive():
    g = build_grid("interval", (1.0,), 9)
    f = ReactionTerm("power", p=0.5, q=lambda x: x - 0.5)
    with pytest.raises(ModelError):
        f.weight(g)


def test_nodal_k_and_q_are_built_once_per_grid():
    calls = []

    def q(x):
        calls.append("q")
        return 1.0 + x

    def k(x):
        calls.append("k")
        return 2.0 + x

    f = ReactionTerm("power", p=0.5, q=q)
    pot = Potential(k)
    g1 = build_grid("interval", (1.0,), 9)
    g2 = build_grid("interval", (1.0,), 11)
    for _ in range(3):
        assert f.weight(g1) is f.weight(g1)
        assert pot.nodal(g1) is pot.nodal(g1)
    assert sorted(calls) == ["k", "q"]
    assert f.weight(g2).shape == (11,) and pot.nodal(g2).shape == (11,)
    assert sorted(calls) == ["k", "k", "q", "q"]
    with pytest.raises(ValueError):
        f.weight(g1)[0] = 0.0


def test_reaction_value_and_derivative():
    g = build_grid("interval", (1.0,), 9)
    f = f_power(0.5)
    s = np.full(9, 4.0)
    np.testing.assert_allclose(f.value(g, s), 2.0)
    np.testing.assert_allclose(f.deriv(g, s), 0.25)


@settings(max_examples=25, deadline=None)
@given(p=st.floats(0.05, 0.95), s=st.floats(1e-3, 1e3), c=st.floats(1.01, 10))
def test_reaction_is_sublinear(p, s, c):
    # f(cs) <= c f(s) for c >= 1 is the workhorse inequality
    g = build_grid("interval", (1.0,), 3)
    f = f_power(p)
    lhs = f.value(g, np.full(3, c * s))
    rhs = c * f.value(g, np.full(3, s))
    assert np.all(lhs <= rhs * (1 + 1e-12))


# ---- potential ----


def test_potential_regimes():
    g = build_grid("interval", (1.0,), 9)
    assert Potential(-2.0).regime(g) == "negative"
    assert Potential(0.5).regime(g) == "positive"
    with pytest.raises(RegimeError):
        Potential(lambda x: x - 0.5).regime(g)


def test_positive_regime_requires_positive_closure():
    # K(x) = x(1-x) is positive at interior nodes but vanishes on the
    # boundary, which the positive regime does not allow
    g = build_grid("interval", (1.0,), 9)
    with pytest.raises(RegimeError):
        Potential(lambda x: x * (1.0 - x)).regime(g)


def test_negative_regime_tolerates_boundary_zero():
    g = build_grid("interval", (1.0,), 9)
    assert Potential(lambda x: -x * (1.0 - x) - 1e-9).regime(g) == "negative"


# ---- assembly ----


def test_make_problem_validates():
    g = build_grid("interval", (1.0,), 9)
    pot, gs, f = Potential(-1.0), g_power(0.5), f_power(0.5)
    with pytest.raises(ModelError):
        make_problem(g, pot, gs, f, conv_a=2.5)
    with pytest.raises(ModelError):
        make_problem(g, pot, gs, f, lam=0.0)
    with pytest.raises(ModelError):
        make_problem(g, pot, gs, f, eps=-1e-3)
    with pytest.raises(ModelError):
        make_problem(g, pot, None, f)
    spec = make_problem(g, pot, gs, f, conv_a=1.0, lam=2.0, eps=1e-3)
    assert spec.lam == 2.0 and spec.eps == 1e-3


@pytest.mark.parametrize(
    "change", [{"singular": None}, {"conv_a": 0.0}, {"conv_a": 2.5}])
def test_spec_construction_and_replace_validate(theorem3_spec, change):
    spec = theorem3_spec
    fields = dict(grid=spec.grid, potential=spec.potential,
                  singular=spec.singular, reaction=spec.reaction,
                  conv_a=spec.conv_a, lam=spec.lam, eps=spec.eps)
    with pytest.raises(ModelError):
        ProblemSpec(**{**fields, **change})
    with pytest.raises(ModelError):
        replace(spec, **change)


def test_compute_p_canonical():
    # K = -1, f = sqrt(s), lambda = 1: both branches equal 1 at s = 1
    g = build_grid("interval", (1.0,), 9)
    spec = make_problem(g, Potential(-1.0), g_power(0.5), f_power(0.5))
    p, positive = compute_p(spec)
    assert positive
    np.testing.assert_allclose(p.values, 1.0)


def test_compute_p_takes_the_smaller_branch():
    g = build_grid("interval", (1.0,), 9)
    spec = make_problem(g, Potential(-0.25), g_power(0.5), f_power(0.5),
                        lam=3.0)
    p, positive = compute_p(spec)
    assert positive
    np.testing.assert_allclose(p.values, 0.25)  # -K g(1) < lambda f(1)


def test_hypothesis_probe_passes_canonical():
    g = build_grid("interval", (1.0,), 9)
    rep = hypothesis_probe(f_power(0.5), g_power(0.5), g)
    assert rep.passed


def test_hypothesis_probe_flags_superlinear_surrogate():
    g = build_grid("interval", (1.0,), 9)
    f = ReactionTerm("custom", fn=lambda x, s: s**2, dfn=lambda x, s: 2 * s)
    rep = hypothesis_probe(f, g_power(0.5), g)
    assert not rep.passed
    assert not rep.f_ratio_nonincreasing


def test_hypothesis_probe_flags_bounded_g():
    g = build_grid("interval", (1.0,), 9)
    s = np.geomspace(1e-8, 10.0, 50)
    flat = SingularTerm("table", table_s=s, table_g=np.full(50, 2.0))
    rep = hypothesis_probe(f_power(0.5), flat, g)
    assert rep.g_nonincreasing
    assert not rep.g_blows_up_at_zero


# ---- config files ----

GOOD = """
# comment line
domain.kind = interval
domain.n = 31
K.family = constant
K.value = -1.0
g.family = power
g.alpha = 0.5
f.p = 0.5
a = 1.0
lambda = 1.0
"""


def test_parse_config_round_trip():
    entries = parse_config(GOOD)
    assert entries["domain.kind"] == "interval"
    assert entries["lambda"] == "1.0"


def test_problem_from_config():
    grid, spec = problem_from_config(GOOD)
    assert grid.shape == (31,)
    assert spec.lam == 1.0
    assert spec.eps == 0.0
    assert spec.regime() == "negative"


@pytest.mark.parametrize(
    "mangle",
    [
        lambda s: s.replace("domain.kind = interval", "domain.kind = disk"),
        lambda s: s.replace("domain.n = 31", "domain.n = two"),
        lambda s: s + "wibble = 1\n",
        lambda s: s + "lambda = 2.0\n",  # duplicate key
        lambda s: s.replace("lambda = 1.0\n", ""),  # missing key
        lambda s: s.replace("a = 1.0", "a = 3.0"),  # out-of-range passthrough
    ],
)
def test_config_errors(mangle):
    with pytest.raises(ConfigError):
        problem_from_config(mangle(GOOD))


def test_bundled_configs_load(theorem1_spec, theorem2_spec, theorem3_spec):
    assert theorem1_spec.regime() == "negative"
    assert theorem2_spec.regime() == "positive"
    assert classify_singularity(theorem2_spec.singular) == "non-integrable"
    assert theorem3_spec.regime() == "positive"
    assert classify_singularity(theorem3_spec.singular) == "integrable"
