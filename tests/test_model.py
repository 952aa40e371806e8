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
    make_problem,
    parse_config,
    problem_from_config,
)
from selab.solver import solve_with_continuation


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


@pytest.mark.parametrize("alpha", [None, 0.0, -0.5, np.inf, np.nan])
def test_power_g_needs_a_finite_positive_alpha(alpha):
    with pytest.raises(ModelError, match="alpha"):
        g_power(alpha)


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
    # below, at and just beside both table ends, and beyond them
    ends = [s[0], s[-1], np.nextafter(s[0], 0.0), np.nextafter(s[0], 1.0),
            np.nextafter(s[-1], 0.0), np.nextafter(s[-1], 3.0)]
    x = np.concatenate([np.geomspace(1e-3, 2.0, 97), [1e-4, 3.0], ends])
    # the table's clamp is np.clip's, bit for bit
    inside = np.clip(x, s[0], s[-1])
    fresh = PchipInterpolator(s, s**-0.5, extrapolate=False)
    expect = fresh(inside)
    expect_d = np.where((x < s[0]) | (x > s[-1]), 0.0,
                        fresh.derivative()(inside))
    expect_p = fresh.antiderivative()(inside) + expect * (x - inside)
    np.testing.assert_array_equal(g(x), expect)
    np.testing.assert_array_equal(g.deriv(x), expect_d)

    def rebuilt(*args, **kwargs):
        raise AssertionError("table g rebuilt its PCHIP on a call")

    # a rebuild on a call would go through the module's _Pchip
    monkeypatch.setattr(selab.model, "_Pchip", rebuilt)
    np.testing.assert_array_equal(g(x), expect)
    np.testing.assert_array_equal(g.deriv(x), expect_d)
    np.testing.assert_array_equal(g.primitive(x), expect_p)


# ---- the numpy PCHIP against scipy's, bit for bit ----


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_pchip_matches_scipy(x, y, at):
    ours = selab.model._Pchip(x, y)
    ref = PchipInterpolator(x, y)
    assert_bitwise(ours(at), ref(at))
    assert_bitwise(ours.derivative(at), ref.derivative()(at))
    assert_bitwise(ours.antiderivative(at), ref.antiderivative()(at))


def probe_points(x, rng):
    """The knots, both ends and beyond, and random points between."""
    span = x[-1] - x[0]
    return np.concatenate([x, [x[0], x[-1], x[0] - 0.1 * span,
                               x[-1] + 0.1 * span],
                           rng.uniform(x[0], x[-1], 200)])


@pytest.mark.parametrize("alpha", [0.35, 0.5, 1.0, 1.5])
def test_pchip_matches_scipy_on_a_geometric_power_table(alpha):
    s = np.geomspace(1e-8, 10.0, 400)
    at = np.concatenate([probe_points(s, np.random.default_rng(1)),
                         np.geomspace(1e-9, 20.0, 301)])
    assert_pchip_matches_scipy(s, s**-alpha, at)


@pytest.mark.parametrize("seed", range(8))
def test_pchip_matches_scipy_on_nonincreasing_tables_with_flat_runs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 120))
    x = np.cumsum(rng.uniform(1e-3, 1.0, n))
    y = np.sort(rng.uniform(0.0, 5.0, n))[::-1].copy()
    for start in rng.integers(0, n - 2, 3):
        y[start:start + 3] = y[start]      # a flat run of three knots
    assert np.any(np.diff(y) == 0)
    assert_pchip_matches_scipy(x, y, probe_points(x, rng))


@pytest.mark.parametrize("x,y", [
    pytest.param([0.5, 2.0], [3.0, 1.0], id="two-knots"),
    pytest.param([0.5, 0.75, 2.0], [3.0, 2.5, 1.0], id="three-knots"),
    pytest.param([0.5, 0.75, 2.0], [3.0, 3.0, 1.0], id="three-knots-flat"),
    pytest.param([0.1, 0.2, 5.0], [9.0, 1.0, 0.9], id="three-knots-steep"),
    # the end slopes' two clamps: to 0 against the end secant, and to 3
    # times it where the secants change sign
    pytest.param([0.0, 1.0, 1.1], [0.0, 1.0, 3.0], id="end-slope-zero"),
    pytest.param([0.0, 1.0, 1.1], [0.0, 1.0, -5.0], id="end-slope-three"),
])
def test_pchip_matches_scipy_on_short_tables(x, y):
    x, y = np.array(x), np.array(y)
    assert_pchip_matches_scipy(x, y, probe_points(x, np.random.default_rng(2)))


def test_pchip_keeps_the_shape_of_its_input():
    x = np.geomspace(1e-3, 2.0, 30)
    ours, ref = selab.model._Pchip(x, x**-0.5), PchipInterpolator(x, x**-0.5)
    for at in (np.float64(0.3), np.array(x[7]), np.array([[0.01, 0.5], [1.0, 2.0]])):
        assert_bitwise(ours(at), ref(at))
        assert_bitwise(ours.derivative(at), ref.derivative()(at))
        assert_bitwise(ours.antiderivative(at), ref.antiderivative()(at))


def test_pchip_antiderivative_overflows_to_inf_like_scipy():
    # the integral of 1e308 passes the float range near s = 1.8: inf from
    # there on, with no overflow warning (the suite runs with -W error)
    s = np.geomspace(1e-8, 10.0, 50)
    at = np.concatenate([s, np.geomspace(1e-9, 20.0, 301)])
    ours = selab.model._Pchip(s, np.full(50, 1e308)).antiderivative(at)
    ref = PchipInterpolator(s, np.full(50, 1e308)).antiderivative()(at)
    assert_bitwise(ours, ref)
    assert np.isinf(ours).any() and np.isfinite(ours[at <= 1.0]).all()


@pytest.mark.parametrize("x,y", [
    pytest.param([0.1, 0.2, 0.2, 0.4], [4.0, 3.0, 2.0, 1.0], id="repeated-knot"),
    pytest.param([0.1, 0.3, 0.2], [3.0, 2.0, 1.0], id="decreasing-knots"),
    pytest.param([0.1, np.nan, 0.4], [3.0, 2.0, 1.0], id="nan-knot"),
    pytest.param([0.1, 0.2, np.inf], [3.0, 2.0, 1.0], id="inf-knot"),
    pytest.param([0.1, 0.2, 0.4], [3.0, np.inf, 1.0], id="inf-value"),
    pytest.param([0.1], [3.0], id="one-knot"),
])
def test_pchip_rejects_bad_knots_with_a_model_error(x, y):
    with pytest.raises(ModelError):
        selab.model._Pchip(np.array(x), np.array(y))


@pytest.mark.parametrize(
    "alpha,expected",
    [(0.5, "integrable"), (0.99, "integrable"),
     (1.0, "non-integrable"), (1.5, "non-integrable")],
)
def test_classify_power(alpha, expected):
    assert classify_singularity(g_power(alpha)) == expected


def test_classify_shifted_exp():
    assert classify_singularity(SingularTerm("shifted-exp")) == "non-integrable"


@pytest.mark.parametrize(
    "alpha,expected",
    [(a, "integrable") for a in (0.35, 0.45, 0.5, 0.6, 0.7, 0.75, 0.9)]
    + [(a, "non-integrable") for a in (1.0, 1.2, 1.5)])
def test_classify_table_tracks_the_sampled_power(alpha, expected):
    s = np.geomspace(1e-8, 2.0, 400)
    g = SingularTerm("table", table_s=s, table_g=s**-alpha)
    assert classify_singularity(g) == expected


def _table_power():
    s = np.geomspace(1e-8, 10.0, 400)
    return SingularTerm("table", table_s=s, table_g=s**-0.5)


@pytest.mark.parametrize("g,a,b,rel", [
    pytest.param(g_power(0.5), 1e-3, 0.7, 1e-12, id="power-0.5"),
    pytest.param(g_power(1.0), 1e-3, 0.7, 1e-12, id="power-1"),
    pytest.param(g_power(1.5), 0.2, 3.0, 1e-12, id="power-1.5"),
    pytest.param(SingularTerm("shifted-exp"), 0.05, 0.3, 1e-12, id="exp-steep"),
    pytest.param(SingularTerm("shifted-exp"), 0.5, 4.0, 1e-12, id="exp-tail"),
    pytest.param(_table_power(), 1e-6, 1e-3, 1e-10, id="table-near-0"),
    pytest.param(_table_power(), 0.01, 2.0, 1e-10, id="table-mid"),
    # outside the table g is held at g(s_0) and g(s_max)
    pytest.param(_table_power(), 1e-10, 1e-7, 1e-10, id="table-below"),
    pytest.param(_table_power(), 5.0, 20.0, 1e-10, id="table-above"),
])
def test_primitive_differences_are_integrals_of_g(g, a, b, rel):
    # split at the table's knots, where PCHIP's second derivative jumps
    knots = [] if g.family != "table" else list(
        g.table_s[(g.table_s > a) & (g.table_s < b)])
    edges = [a] + knots + [b]
    want = sum(quad(lambda s: g(np.array([s]))[0], lo, hi, epsabs=0.0,
                    epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))
    got = g.primitive(b) - g.primitive(a)
    assert got == pytest.approx(want, rel=rel)


def test_shifted_exp_primitive_is_minus_inf_where_g_overflows():
    g = SingularTerm("shifted-exp")
    p = g.primitive(np.array([1.0 / 800.0, 1.0 / 640.0]))
    assert p[0] == -np.inf and np.isfinite(p[1])


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


def test_the_custom_reaction_family_is_gone():
    # "power" is the one family: a free-form f has no field to hold it,
    # and the family name alone is refused
    with pytest.raises(TypeError):
        ReactionTerm("custom", fn=lambda x, s: s)
    with pytest.raises(ModelError, match="unknown reaction family"):
        ReactionTerm("custom", p=0.5)


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


# each constant one read "nonexistence-indicated (stagnation)" at
# lambda = 20 on n = 15: a silent false verdict
NON_FINITE = {
    "alpha=inf": lambda: {"singular": g_power(np.inf)},
    "q=nan": lambda: {"reaction": ReactionTerm("power", p=0.5, q=np.nan)},
    "q=inf": lambda: {"reaction": ReactionTerm("power", p=0.5, q=np.inf)},
    "q(x)=inf": lambda: {"reaction": ReactionTerm(
        "power", p=0.5, q=lambda x: np.where(x > 0.5, np.inf, 1.0))},
    "K=inf": lambda: {"potential": Potential(np.inf)},
    "K=-inf": lambda: {"potential": Potential(-np.inf)},
    "K(x)=-inf": lambda: {"potential": Potential(
        lambda x: np.where(x > 0.5, -np.inf, -1.0))},
}


@pytest.mark.parametrize("change", NON_FINITE.values(), ids=NON_FINITE)
def test_non_finite_model_data_is_refused_not_a_verdict(theorem3_spec, change):
    spec = replace(theorem3_spec, grid=build_grid("interval", (1.0,), 15),
                   lam=20.0)
    with pytest.raises(ModelError, match="finite"):
        solve_with_continuation(replace(spec, **change()))


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
    "change", [{"singular": None}, {"conv_a": 0.0}, {"conv_a": 2.5},
               {"lam": np.inf}, {"lam": np.nan}, {"eps": np.inf},
               {"eps": np.nan}])
def test_spec_construction_and_replace_validate(theorem3_spec, change):
    spec = theorem3_spec
    fields = dict(grid=spec.grid, potential=spec.potential,
                  singular=spec.singular, reaction=spec.reaction,
                  conv_a=spec.conv_a, lam=spec.lam, eps=spec.eps)
    with pytest.raises(ModelError):
        ProblemSpec(**{**fields, **change})
    with pytest.raises(ModelError):
        replace(spec, **change)


@pytest.mark.parametrize("kval, eps", [(-1.0, 0.0), (1.0, 1e-2), (2.5, 0.1)])
def test_psi_and_its_slope(kval, eps):
    grid = build_grid("interval", (1.0,), 9)
    spec = ProblemSpec(grid, Potential(kval), g_power(0.5), f_power(0.5),
                       1.0, 3.0, eps, None)
    s = np.geomspace(0.05, 5.0, 9)
    np.testing.assert_allclose(spec.psi(s),
                               3.0 * np.sqrt(s) - kval * (s + eps) ** -0.5,
                               rtol=1e-14)
    h = 1e-6 * s
    slope = (spec.psi(s + h) - spec.psi(s - h)) / (2.0 * h)
    np.testing.assert_allclose(spec.dpsi(s), slope, rtol=1e-7)


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
