"""The profile h is defined by h'(t) = sqrt(2 G(h(t))), h(0) = 0, where
G(y) = integral_0^y g.  Tests check the power-family closed form against
an independently derived constant, the tabulated branch against direct
quadrature of t(h) = integral_0^h ds / sqrt(2 G(s)), and the growth
bound t h' <= 2 h.  scipy's PCHIP and cumulative trapezoid are the
bitwise oracles of the tabulated branch's numpy ones."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad
from scipy.interpolate import PchipInterpolator

from selab.errors import KellerOssermanError, ModelError
from selab.hprofile import _cumulative_trapezoid, build_h_profile, verify_h_bound
from selab.model import SingularTerm


def power_profile_constant(alpha):
    beta = 2.0 / (1.0 + alpha)
    return ((1.0 + alpha) / 2.0 * np.sqrt(2.0 / (1.0 - alpha))) ** beta


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_power_family_closed_form(alpha):
    prof = build_h_profile(SingularTerm("power", alpha=alpha))
    C = power_profile_constant(alpha)
    beta = 2.0 / (1.0 + alpha)
    mask = prof.t > 0
    rel = np.abs(prof.h[mask] - C * prof.t[mask] ** beta) / (
        C * prof.t[mask] ** beta
    )
    assert np.max(rel) < 1e-6
    assert prof.closed_form


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_power_family_satisfies_the_ode(alpha):
    prof = build_h_profile(SingularTerm("power", alpha=alpha))
    t = np.geomspace(1e-6, prof.T, 40)
    h = prof.h_at(t)
    dh = prof.dh_at(t)
    G = h ** (1.0 - alpha) / (1.0 - alpha)
    np.testing.assert_allclose(dh, np.sqrt(2.0 * G), rtol=1e-8)


def test_table_branch_matches_quadrature_inverse():
    # tabulated g = s^-0.5 forces the numeric path; its h must agree
    # with inverting t(h) = int_0^h ds/sqrt(2 G(s)) done by quadrature
    alpha = 0.5
    s = np.geomspace(1e-12, 4.0, 600)
    g = SingularTerm("table", table_s=s, table_g=s**-alpha)
    prof = build_h_profile(g)
    assert not prof.closed_form

    def t_of_h(h):
        # G for the sampled power is exact enough for an oracle
        return quad(
            lambda y: 1.0 / np.sqrt(2.0 * y ** (1 - alpha) / (1 - alpha)),
            0.0,
            h,
            limit=200,
        )[0]

    for h_target in (1e-4, 1e-2, 0.3, 0.9):
        t = t_of_h(h_target)
        assert prof.h_at(t) == pytest.approx(h_target, rel=2e-3)


@pytest.mark.parametrize("x", [
    pytest.param(np.geomspace(1e-12, 1.0, 3000), id="geometric"),
    pytest.param(np.cumsum(np.random.default_rng(3).uniform(0.0, 1.0, 257)),
                 id="random"),
    pytest.param(np.array([0.5, 2.0]), id="two-points"),
])
def test_cumulative_trapezoid_matches_scipy(x):
    y = 1.0 / np.sqrt(x)
    got = _cumulative_trapezoid(y, x)
    want = cumulative_trapezoid(y, x, initial=0.0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [0.35, 0.5])
def test_table_profile_interpolates_like_scipy(alpha):
    s = np.geomspace(1e-8, 10.0, 400)
    prof = build_h_profile(SingularTerm("table", table_s=s, table_g=s**-alpha))
    # below, at and just beside both ends of [0, T], and beyond them
    ends = [0.0, prof.T, -np.finfo(float).tiny, np.nextafter(0.0, 1.0),
            np.nextafter(prof.T, 0.0), np.nextafter(prof.T, 2.0 * prof.T)]
    t = np.concatenate([prof.t, np.geomspace(1e-12, 2.0 * prof.T, 301), [-1.0],
                        ends])
    # the profile's clamp is np.clip's, bit for bit
    inside = np.clip(t, 0.0, prof.T)
    for got, knots in ((prof.h_at(t), prof.h), (prof.dh_at(t), prof.dh)):
        want = PchipInterpolator(prof.t, knots)(inside)
        assert got.tobytes() == want.tobytes()


def test_degenerate_t_map_is_a_model_error():
    # 2 G would overflow once h passes 0.9 (and the t(h) knots would stop
    # increasing); the profile refuses g before it takes 1/sqrt(2 G), so
    # no overflow warning escapes under the suite's -W error
    s = np.geomspace(1e-8, 10.0, 50)
    g = SingularTerm("table", table_s=s, table_g=np.full(50, 1e308))
    with pytest.raises(ModelError, match="float range"):
        build_h_profile(g, T=1e-160)


def test_profile_monotone_from_zero():
    prof = build_h_profile(SingularTerm("power", alpha=0.5))
    assert prof.t[0] == 0.0 and prof.h[0] == 0.0
    assert np.all(np.diff(prof.h) > 0)
    assert np.all(prof.dh[1:] > 0)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_growth_bound_ratio_is_one_over_alpha_plus_one(alpha):
    prof = build_h_profile(SingularTerm("power", alpha=alpha))
    rep = verify_h_bound(prof)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(1.0 / (alpha + 1.0), rel=1e-9)


@pytest.mark.parametrize("alpha", [0.35, 0.7])
def test_table_branch_tracks_the_closed_form(alpha):
    # G comes from the table's primitive; an s^-0.7 table classifies as
    # integrable and builds the profile of the power it samples
    s = np.geomspace(1e-8, 10.0, 400)
    prof = build_h_profile(SingularTerm("table", table_s=s, table_g=s**-alpha))
    t = np.geomspace(1e-3, 1.0, 40)
    exact = power_profile_constant(alpha) * t ** (2.0 / (1.0 + alpha))
    assert np.max(np.abs(prof.h_at(t) / exact - 1.0)) <= 3e-2


def test_growth_bound_on_table_branch():
    s = np.geomspace(1e-12, 4.0, 600)
    g = SingularTerm("table", table_s=s, table_g=s**-0.5)
    rep = verify_h_bound(build_h_profile(g))
    assert rep.passed


@pytest.mark.parametrize("alpha", [1.0, 1.25, 2.0])
def test_nonintegrable_rejected(alpha):
    with pytest.raises(KellerOssermanError):
        build_h_profile(SingularTerm("power", alpha=alpha))


def test_shifted_exp_rejected():
    with pytest.raises(KellerOssermanError):
        build_h_profile(SingularTerm("shifted-exp"))


def test_custom_domain_endpoint():
    prof = build_h_profile(SingularTerm("power", alpha=0.5), T=0.25)
    assert prof.T == 0.25
    assert prof.t[-1] == pytest.approx(0.25)
