import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from selab.grid import Field, build_grid
from selab.mass import mass_integral, reference_mass, tail_trend
from selab.model import SingularTerm


def brute_mass_1d(grid, values, eps, alpha):
    # trapezoid-free oracle: integrate g(linear interpolant + eps) cell
    # by cell with quadrature, boundary cells included
    xs = np.concatenate([[0.0], grid.axes[0], [grid.extents[0]]])
    us = np.concatenate([[0.0], values, [0.0]])
    total = 0.0
    for (xa, xb), (ua, ub) in zip(zip(xs, xs[1:]), zip(us, us[1:])):
        total += quad(
            lambda x: ((ua + (ub - ua) * (x - xa) / (xb - xa)) + eps)
            ** (-alpha),
            xa,
            xb,
            limit=200,
        )[0]
    return total


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_mass_matches_cellwise_quadrature(alpha, eps):
    grid = build_grid("interval", (1.0,), 31)
    x = grid.axes[0]
    u = np.sin(np.pi * x)
    g = SingularTerm("power", alpha=alpha)
    got = mass_integral(g, Field(grid, u), eps)
    want = brute_mass_1d(grid, u, eps, alpha)
    assert got == pytest.approx(want, rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(0.2, 1.8),
    eps=st.floats(1e-5, 1e-1),
    amp=st.floats(0.1, 5.0),
)
def test_mass_random_profiles(alpha, eps, amp):
    grid = build_grid("interval", (1.0,), 17)
    x = grid.axes[0]
    u = amp * x * (1.0 - x)
    g = SingularTerm("power", alpha=alpha)
    got = mass_integral(g, Field(grid, u), eps)
    want = brute_mass_1d(grid, u, eps, alpha)
    assert got == pytest.approx(want, rel=1e-5)


def cellwise_power_mass(grid, values, eps, alpha):
    # the per-cell closed form, one cell at a time, dead cells skipped
    h = grid.spacing[0]
    us = np.concatenate([[0.0], np.maximum(values, 0.0), [0.0]])
    total = 0.0
    for ua, ub in zip(us[:-1], us[1:]):
        if ua <= 0.0 and ub <= 0.0:
            continue
        sa, sb = ua + eps, ub + eps
        if abs(sb - sa) <= 1e-14 * max(sa, sb):
            total += h * (0.5 * (sa + sb)) ** -alpha
            continue
        m = (sb - sa) / h
        if alpha == 1.0:
            total += np.log(sb / sa) / m
        else:
            total += (sb ** (1 - alpha) - sa ** (1 - alpha)) / (m * (1 - alpha))
    return total


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7])
@pytest.mark.parametrize("plateau", [True, False])
def test_vectorized_mass_matches_the_cell_formula(alpha, plateau):
    # a flat nonzero run (midpoint cells), with or without a zero
    # plateau (dead cells)
    grid = build_grid("interval", (1.0,), 41)
    u = np.sin(np.pi * grid.axes[0])
    if plateau:
        u[12:20] = 0.0
    u[25:29] = 0.5
    g = SingularTerm("power", alpha=alpha)
    got = mass_integral(g, Field(grid, u), 1e-3)
    want = cellwise_power_mass(grid, u, 1e-3, alpha)
    assert got == pytest.approx(want, rel=1e-12)


def test_shifted_exp_mass_near_the_float_limit():
    # g(eps) = exp(640) sits near the float limit: the boundary-cell mass
    # is finite and matches the peak estimate g(eps) eps^2 / slope, and
    # one more halving overflows g itself and reports an infinite mass.
    # The steep wall makes the peak 1e-8 of a cell wide.
    grid = build_grid("interval", (1.0,), 31)
    u = 80.0 * np.sin(np.pi * grid.axes[0])
    g = SingularTerm("shifted-exp")
    eps = 1.0 / 640.0
    got = mass_integral(g, Field(grid, u), eps)
    slope = u[0] / grid.spacing[0]
    peak = np.exp(1.0 / eps) * eps**2 / slope
    assert 2.0 * peak < got < 2.0 * peak * (1.0 + 4.0 * eps)
    assert mass_integral(g, Field(grid, u), eps / 2.0) == np.inf


def test_support_only_skips_dead_cells():
    grid = build_grid("interval", (1.0,), 31)
    u = np.zeros(31)
    u[14:17] = 1.0
    g = SingularTerm("power", alpha=1.5)
    eps = 1e-6
    live = mass_integral(g, Field(grid, u), eps)
    # with three unit nodes the support is four cells, two ramps from 0
    # to 1 and two flat cells at 1; each of the 28 off-support cells
    # would contribute h * eps^-1.5 = 3e7 and dwarf everything
    h = grid.spacing[0]
    ramp = h * ((1.0 + eps) ** -0.5 - eps**-0.5) / -0.5
    assert live < 1e5
    assert live == pytest.approx(2.0 * ramp + 2.0 * h * (1.0 + eps) ** -1.5,
                                 rel=1e-12)


def test_mass_diverges_like_the_boundary_exponent():
    # for u ~ c x near the wall and alpha > 1 the boundary cell gives
    # I(eps) ~ eps^(1-alpha); halving eps must multiply the mass
    # increments by 2^(alpha-1)
    grid = build_grid("interval", (1.0,), 127)
    x = grid.axes[0]
    u = np.sin(np.pi * x)
    g = SingularTerm("power", alpha=1.5)
    eps_values = 0.1 * 0.5 ** np.arange(16)
    masses = [mass_integral(g, Field(grid, u), e) for e in eps_values]
    _, rho, verdict, _ = tail_trend(eps_values, masses)
    assert rho == pytest.approx(np.sqrt(2.0), rel=0.02)
    assert verdict == "divergent"


def test_integrable_mass_saturates():
    # alpha < 1: the increments shrink by 2^(alpha-1) per halving and sum
    grid = build_grid("interval", (1.0,), 127)
    x = grid.axes[0]
    u = np.sin(np.pi * x)
    g = SingularTerm("power", alpha=0.5)
    eps_values = 0.1 * 0.5 ** np.arange(16)
    masses = [mass_integral(g, Field(grid, u), e) for e in eps_values]
    _, rho, verdict, tail = tail_trend(eps_values, masses)
    assert rho == pytest.approx(2.0**-0.5, abs=0.02)
    assert verdict == "bounded"
    # the Cauchy bound covers the mass still to come, the eps = 0 mass
    # less the last, and overshoots it by 0.1%
    rest = mass_integral(g, Field(grid, u), 0.0) - masses[-1]
    assert rest <= tail <= 1.01 * rest


def test_mass_trend_flags_growth_and_overflow():
    eps_values = 0.1 * 0.5 ** np.arange(8)
    ratios, rho, verdict, tail = tail_trend(eps_values, list(1.5 ** np.arange(8)))
    assert ratios == pytest.approx([1.5] * 6)
    assert rho == pytest.approx(1.5) and verdict == "divergent" and tail is None
    # zero increments: every ratio is 0/0, counted as 0, and nothing is left
    assert tail_trend(eps_values, [2.0] * 8)[1:] == (0.0, "bounded", 0.0)
    # an overflowed mass has no rate but still diverges
    _, rho, verdict, tail = tail_trend(eps_values, [1.0] * 7 + [np.inf])
    assert rho is None and verdict == "divergent" and tail is None


def test_reference_mass_1d_quadrature():
    g = SingularTerm("power", alpha=1.5)
    grid = build_grid("interval", (1.0,), 31)
    c2, eps = 2.0, 1e-3
    got = reference_mass(grid, g, c2, eps)
    want = 2.0 * quad(lambda x: (c2 * x + eps) ** -1.5, 0.0, 0.5,
                      limit=200)[0]
    assert got == pytest.approx(want, rel=1e-8)


def test_reference_mass_2d_coarea():
    g = SingularTerm("power", alpha=1.5)
    grid = build_grid("rectangle", (1.0, 1.0), 15)
    c2, eps = 1.0, 1e-3

    def integrand(t):
        perim = 2.0 * (1.0 - 2 * t) + 2.0 * (1.0 - 2 * t)
        return perim * (c2 * t + eps) ** -1.5

    want = quad(integrand, 0.0, 0.5, limit=200)[0]
    got = reference_mass(grid, g, c2, eps)
    assert got == pytest.approx(want, rel=1e-6)


def test_tail_trend_reads_a_geometric_tail():
    eps = 0.1 * 0.5 ** np.arange(10)
    ratios, rho, verdict, tail = tail_trend(eps, 3.0 * eps**-0.5)
    assert ratios == pytest.approx([np.sqrt(2.0)] * 8, rel=1e-9)
    assert rho == pytest.approx(np.sqrt(2.0), rel=1e-9)
    assert (verdict, tail) == ("divergent", None)
    # I_k = 1 - q^k: the Cauchy bound is exactly the mass still to come
    masses = 1.0 - 0.6 ** np.arange(10)
    _, rho, verdict, tail = tail_trend(eps, masses)
    assert rho == pytest.approx(0.6, rel=1e-12)
    assert verdict == "bounded"
    assert tail == pytest.approx(1.0 - masses[-1], rel=1e-9)


def test_tail_trend_needs_a_trend():
    eps = 0.1 * 0.5 ** np.arange(8)
    # ratios 0.5 then 2: the last three are mixed
    masses = np.cumsum([1.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.125, 0.25])
    _, rho, verdict, tail = tail_trend(eps, masses)
    assert rho == pytest.approx(2.0) and (verdict, tail) == ("no-trend", None)
    # fewer than three ratios
    assert tail_trend(eps[:4], 1.5 ** np.arange(4))[2] == "no-trend"
    assert tail_trend(eps[:2], [1.0, 2.0])[:3] == ([], None, "no-trend")


def test_tail_trend_needs_a_geometric_ladder():
    # the ratio test reads rho against one ladder step: a schedule whose
    # last five eps do not shrink by one factor shows no trend, and one
    # that does not decrease at all neither
    growth = 1.5 ** np.arange(8)
    ladder = list(0.1 * 0.5 ** np.arange(7)) + [0.1 * 2.0**-8]
    assert tail_trend(ladder, growth)[2] == "no-trend"
    assert tail_trend(0.1 * 2.0 ** np.arange(8), growth)[2] == "no-trend"
    # any one factor will do
    assert tail_trend(0.1 * 0.25 ** np.arange(8), growth)[2] == "divergent"


def test_mass_2d_is_a_nodal_sum():
    # the nodal sum over the support: the node where u = 0 is skipped
    grid = build_grid("rectangle", (1.0, 1.0), 15)
    vals = np.linspace(0.0, 1.0, grid.n_total)
    g = SingularTerm("power", alpha=0.5)
    eps = 1e-2
    got = mass_integral(g, Field(grid, vals), eps)
    want = float(np.prod(grid.spacing) * np.sum((vals[1:] + eps) ** -0.5))
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_table_mass_matches_the_sampled_power(alpha, eps):
    # the table's cell masses are differences of its PCHIP antiderivative
    # and track the closed-form power masses of the function it samples
    grid = build_grid("interval", (1.0,), 31)
    u = np.sin(np.pi * grid.axes[0])
    s = np.geomspace(1e-8, 10.0, 400)
    table = SingularTerm("table", table_s=s, table_g=s**-alpha)
    power = SingularTerm("power", alpha=alpha)
    got = mass_integral(table, Field(grid, u), eps)
    assert got == pytest.approx(mass_integral(power, Field(grid, u), eps),
                                rel=1e-6)
    assert reference_mass(grid, table, 2.0, eps) == pytest.approx(
        reference_mass(grid, power, 2.0, eps), rel=1e-6)
