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
