import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from selab.grid import Field, build_grid
from selab.mass import halving_rate, mass_integral, mass_trend, reference_mass
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


def cellwise_power_mass(grid, values, eps, alpha, support_only):
    # the per-cell closed form, one cell at a time
    h = grid.spacing[0]
    us = np.concatenate([[0.0], np.maximum(values, 0.0), [0.0]])
    total = 0.0
    for ua, ub in zip(us[:-1], us[1:]):
        if support_only and ua <= 0.0 and ub <= 0.0:
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
@pytest.mark.parametrize("support_only", [True, False])
def test_vectorized_mass_matches_the_cell_formula(alpha, support_only):
    # a zero plateau (dead cells) and a flat nonzero run (midpoint cells)
    grid = build_grid("interval", (1.0,), 41)
    u = np.sin(np.pi * grid.axes[0])
    u[12:20] = 0.0
    u[25:29] = 0.5
    g = SingularTerm("power", alpha=alpha)
    got = mass_integral(g, Field(grid, u), 1e-3, support_only=support_only)
    want = cellwise_power_mass(grid, u, 1e-3, alpha, support_only)
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
    live = mass_integral(g, Field(grid, u), eps, support_only=True)
    # with three unit nodes the support is four cells; the off-support
    # cells would each contribute h * eps^-1.5 and dwarf everything
    assert live < 1e5
    full = mass_integral(g, Field(grid, u), eps, support_only=False)
    h = grid.spacing[0]
    dead = 28 * h * eps**-1.5
    assert full == pytest.approx(live + dead, rel=1e-6)


def test_mass_diverges_like_the_boundary_exponent():
    # for u ~ c x near the wall and alpha > 1 the boundary cell gives
    # I(eps) ~ eps^(1-alpha); halving eps must multiply mass by
    # 2^(alpha-1)
    grid = build_grid("interval", (1.0,), 127)
    x = grid.axes[0]
    u = np.sin(np.pi * x)
    g = SingularTerm("power", alpha=1.5)
    eps_values = 0.1 * 0.5 ** np.arange(16)
    masses = [mass_integral(g, Field(grid, u), e) for e in eps_values]
    rate = halving_rate(eps_values, masses)
    assert rate == pytest.approx(np.sqrt(2.0), rel=0.02)


def test_integrable_mass_saturates():
    grid = build_grid("interval", (1.0,), 127)
    x = grid.axes[0]
    u = np.sin(np.pi * x)
    g = SingularTerm("power", alpha=0.5)
    eps_values = 0.1 * 0.5 ** np.arange(16)
    masses = [mass_integral(g, Field(grid, u), e) for e in eps_values]
    rate = halving_rate(eps_values, masses)
    assert rate == pytest.approx(1.0, abs=0.02)


def test_mass_trend_flags_growth_and_overflow():
    eps_values = 0.1 * 0.5 ** np.arange(8)
    factors, fitted, divergent = mass_trend(eps_values, list(1.5 ** np.arange(8)))
    assert factors == pytest.approx([1.5] * 7)
    assert fitted == pytest.approx(1.5) and divergent
    _, fitted, divergent = mass_trend(eps_values, [2.0] * 8)
    assert fitted == pytest.approx(1.0) and not divergent
    # an overflowed mass has no rate but still diverges
    _, fitted, divergent = mass_trend(eps_values, [1.0] * 7 + [np.inf])
    assert fitted is None and divergent


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


def test_halving_rate_recovers_synthetic_slope():
    eps = 0.1 * 0.5 ** np.arange(10)
    masses = 3.0 * eps**-0.5
    assert halving_rate(eps, masses) == pytest.approx(np.sqrt(2.0), rel=1e-9)
    assert halving_rate(eps[:1], masses[:1]) is None


def test_mass_2d_is_a_nodal_sum():
    grid = build_grid("rectangle", (1.0, 1.0), 15)
    vals = np.linspace(0.0, 1.0, grid.n_total)
    g = SingularTerm("power", alpha=0.5)
    eps = 1e-2
    got = mass_integral(g, Field(grid, vals), eps, support_only=False)
    want = float(np.prod(grid.spacing) * np.sum((vals + eps) ** -0.5))
    assert got == pytest.approx(want, rel=1e-12)
