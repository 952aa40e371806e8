"""Oracles: the gradient-free envelope -U'' = lambda sqrt(U) has center
value lambda^2 / (9 J^4) with J = (2/3) B(2/3, 1/2) (energy integral of
the autonomous ODE); the convection floor problem -v'' + |v'|^a = 1 has
closed forms v(x) = x - e^{-1/2}(e^x - 1) for a = 1 (mirrored at 1/2)
and v = -ln(cosh x + B sinh x), B = (1 - cosh 1)/sinh 1, for a = 2."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from selab.constructions import (
    build_subsolution_convection,
    build_subsolution_eigen,
    build_supersolution,
)
from selab.errors import (
    CertificateError,
    ConvergenceError,
    ModelError,
    RegimeError,
)
from selab.grid import build_grid, boundary_distance
from selab.model import ReactionTerm, SingularTerm, compute_p
from selab.solver import residual
from selab.spectral import first_eigenpair


def with_n(spec, n, kind="interval"):
    return replace(spec, grid=build_grid(kind, spec.grid.extents, n),
                   source=None)


# ---- gradient-free envelope ----


def envelope_center_oracle(lam):
    J = (2.0 / 3.0) * beta_fn(2.0 / 3.0, 0.5)
    return lam**2 / (9.0 * J**4)


@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_envelope_center_value(theorem3_spec, lam):
    spec = replace(with_n(theorem3_spec, 127), lam=lam)
    sup = build_supersolution(spec)
    center = float(sup.field.values[63])
    assert center == pytest.approx(envelope_center_oracle(lam), rel=2e-4)


def test_envelope_scales_quadratically_in_lambda(theorem3_spec):
    # for f = sqrt(s), U_lambda = lambda^2 U_1 exactly
    spec = with_n(theorem3_spec, 64)
    u1 = build_supersolution(replace(spec, lam=1.0)).field.values
    u3 = build_supersolution(replace(spec, lam=3.0)).field.values
    np.testing.assert_allclose(u3, 9.0 * u1, rtol=1e-8)


def test_envelope_fixed_point_residual(theorem3_spec):
    spec = with_n(theorem3_spec, 64)
    sup = build_supersolution(spec)
    res = (spec.grid.neg_laplacian() @ sup.field.values
           - spec.lam * spec.f_at(sup.field.values))
    assert np.max(np.abs(res)) < 1e-8
    assert sup.metadata["residual_max"] < 1e-8


def test_envelope_distance_sandwich(theorem3_spec):
    spec = with_n(theorem3_spec, 64)
    sup = build_supersolution(spec)
    dist = boundary_distance(spec.grid).values
    c1, c2 = sup.metadata["c1"], sup.metadata["c2"]
    assert 0 < c1 <= c2
    assert np.all(sup.field.values >= c1 * dist - 1e-12)
    assert np.all(sup.field.values <= c2 * dist + 1e-12)


def plain_picard_super(spec):
    """U <- A^-1 (lambda f(U) + K^- g(eps)) from phi_1, stopped at an
    increment below 1e-11 max(1, |U|_inf): the unmixed fixed point."""
    grid = spec.grid
    lift = 0.0
    if spec.regime() == "negative":
        lift = -spec.k_nodal() * float(spec.singular(spec.eps))
    u = first_eigenpair(grid).phi1.values
    for sweep in range(1, 2001):
        new = grid.lu().solve(spec.lam * spec.f_at(u) + lift)
        inc = float(np.abs(new - u).max())
        u = new
        if inc < 1e-11 * max(1.0, float(np.abs(u).max())):
            return u, sweep
    raise AssertionError("the plain fixed point did not settle")


@pytest.mark.parametrize("lam", [0.5, 900.0])
@pytest.mark.parametrize("kind,n", [("interval", 255), ("rectangle", 31)])
@pytest.mark.parametrize("config", ["theorem3", "theorem1"])
def test_super_matches_plain_picard_in_fewer_sweeps(
        theorem1_spec, theorem3_spec, config, kind, n, lam):
    base = theorem1_spec if config == "theorem1" else theorem3_spec
    # K < 0 lifts by K^- g(eps), which needs eps > 0
    spec = replace(with_n(base, n, kind), lam=lam,
                   eps=0.1 if config == "theorem1" else 0.0)
    sup = build_supersolution(spec)
    plain, plain_sweeps = plain_picard_super(spec)
    u = sup.field.values
    assert np.max(np.abs(u - plain)) <= 1e-9 * max(1.0, float(np.abs(plain).max()))
    sweeps = sup.metadata["iterations"]
    assert sweeps <= min(15, plain_sweeps)
    # a large lift makes the K < 0 map contract fast at small lambda
    if config == "theorem3" or lam == 900.0:
        assert plain_sweeps >= 30


@pytest.mark.parametrize("kind,n,lam", [("interval", 255, 1e4),
                                        ("rectangle", 95, 900.0)])
def test_super_stays_off_the_trivial_fixed_point_at_large_lambda(
        theorem3_spec, kind, n, lam):
    # mixed sweeps that extrapolate while the increments still grow
    # overshoot onto U = 0 here; mixing only where the increment falls
    # keeps them on the positive branch
    spec = replace(with_n(theorem3_spec, n, kind), lam=lam)
    u = build_supersolution(spec).field.values
    assert float(u.min()) > 0.0


# ---- negative-K super-solution ----


@pytest.mark.parametrize("eps", [1e-3, 4.8828125e-5])
@pytest.mark.parametrize("kind,n", [("interval", 127), ("rectangle", 31)])
def test_negative_super_is_a_super_solution(theorem1_spec, kind, n, eps):
    # A U + |grad U|^a - psi(U) >= 0 at every node, and U above the sub
    spec = replace(with_n(theorem1_spec, n, kind), eps=eps)
    sup = build_supersolution(spec).field
    assert np.all(residual(spec, sup).values >= 0)
    assert np.all(sup.values >= build_subsolution_convection(spec).field.values)


# g(0) = inf; exp(1/s) - 1 overflows below s ~ 1/709
@pytest.mark.parametrize("change", [
    {"eps": 0.0}, {"eps": 1e-4, "singular": SingularTerm("shifted-exp")}])
def test_negative_super_needs_a_finite_lift(theorem1_spec, change):
    with pytest.raises(ModelError, match="epsilon"):
        build_supersolution(replace(with_n(theorem1_spec, 31), **change))


# ---- convection floor sub-solution ----


def conv_oracle_a1(x):
    y = np.minimum(x, 1.0 - x)
    return y - np.exp(-0.5) * (np.exp(y) - 1.0)


def conv_oracle_a2(x):
    B = (1.0 - np.cosh(1.0)) / np.sinh(1.0)
    return -np.log(np.cosh(x) + B * np.sinh(x))


def test_convection_sub_matches_a1_closed_form(theorem1_spec):
    spec = with_n(theorem1_spec, 255)
    p, positive = compute_p(spec)
    assert positive and np.allclose(p.values, 1.0)  # the unit-floor probe
    sub = build_subsolution_convection(spec)
    x = spec.grid.coords()[:, 0]
    assert np.max(np.abs(sub.field.values - conv_oracle_a1(x))) < 5e-5
    assert abs(sub.field.values[127] - (np.exp(-0.5) - 0.5)) < 1e-4


def test_convection_sub_matches_a2_closed_form(theorem1_spec):
    spec = replace(with_n(theorem1_spec, 255), conv_a=2.0)
    sub = build_subsolution_convection(spec)
    x = spec.grid.coords()[:, 0]
    assert np.max(np.abs(sub.field.values - conv_oracle_a2(x))) < 5e-5


def test_convection_sub_order_two(theorem1_spec):
    spec0 = theorem1_spec
    errs = []
    for n in (31, 63, 127):
        spec = with_n(spec0, n)
        sub = build_subsolution_convection(spec)
        x = spec.grid.coords()[:, 0]
        errs.append(float(np.max(np.abs(sub.field.values - conv_oracle_a1(x)))))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.7 <= q <= 2.3 for q in orders)


def test_convection_sub_refuses_a_field_it_cannot_settle(theorem1_spec):
    # at a = 0.1, |grad v|^a is not Lipschitz where the gradient vanishes;
    # mixed sweeps settled here on a field with equation residual 1e-3,
    # the plain sweeps report stagnation
    spec = replace(with_n(theorem1_spec, 255), conv_a=0.1, eps=1e-3,
                   reaction=ReactionTerm("power", p=0.25))
    with pytest.raises(ConvergenceError, match="stagnated"):
        build_subsolution_convection(spec)


def test_convection_sub_is_a_certified_sub(theorem1_spec):
    # the certificate, the residual of the sub-solution inequality, must
    # be <= 0 where it matters; for the canonical instance it vanishes only
    # in sign
    spec = with_n(theorem1_spec, 127)
    sub = build_subsolution_convection(spec)
    assert np.all(sub.certificate.values <= 1e-10)
    assert sub.metadata["min_interior"] > 0


def test_convection_sub_certificate_is_taken_at_the_spec_eps(theorem1_spec):
    # an eps stage is certified against its own psi = lambda f - K g(. + eps),
    # which for K < 0 lies below the eps = 0 one at every node
    spec = with_n(theorem1_spec, 127)
    plain = build_subsolution_convection(spec)
    stage = replace(spec, eps=0.1 * 2.0**-11)
    sub = build_subsolution_convection(stage)
    v = sub.field.values
    np.testing.assert_array_equal(v, plain.field.values)
    np.testing.assert_array_equal(sub.certificate.values,
                                  residual(stage, sub.field).values)
    assert np.all(sub.certificate.values > plain.certificate.values)
    assert np.all(sub.certificate.values <= 0.0)


def test_convection_sub_is_certified_by_the_inequality_itself(theorem1_spec):
    # at a = 1/4, |grad v|^a is not Lipschitz at the centre node and the
    # settled field misses its equation by 6.5e-6; p - psi(v) would hide
    # that, the residual of the sub-solution inequality does not
    spec = replace(with_n(theorem1_spec, 255), conv_a=0.25, eps=1e-3)
    sub = build_subsolution_convection(spec)
    v = sub.field.values
    np.testing.assert_array_equal(sub.certificate.values,
                                  residual(spec, sub.field).values)
    hidden = sub.certificate.values - (compute_p(spec)[0].values - spec.psi(v))
    assert np.max(np.abs(hidden)) > 1e-6
    assert np.all(sub.certificate.values <= 0.0)
    assert sub.metadata["certificate_violations"] == 0


# ---- eigenfunction sub-solution ----


def eigen_threshold(spec):
    probe = build_subsolution_eigen(replace(spec, lam=1e6))
    return probe.metadata["lambda_threshold"]


def test_eigen_sub_requires_positive_regime(theorem1_spec):
    with pytest.raises(RegimeError):
        build_subsolution_eigen(theorem1_spec)


def test_eigen_sub_below_threshold_refused(theorem3_spec):
    thr = eigen_threshold(theorem3_spec)
    with pytest.raises(CertificateError) as err:
        build_subsolution_eigen(replace(theorem3_spec, lam=0.5 * thr))
    assert err.value.lambda_threshold == pytest.approx(thr)


def test_eigen_sub_certificate_nonpositive(theorem3_spec):
    thr = eigen_threshold(theorem3_spec)
    sub = build_subsolution_eigen(replace(theorem3_spec, lam=2.0 * thr))
    assert sub.metadata["certificate_violations"] == 0
    assert np.max(sub.certificate.values) <= 1e-9
    assert sub.metadata["M"] >= 1.0
    assert sub.metadata["delta"] > 0.0


def test_eigen_sub_is_m_h_of_phi(theorem3_spec):
    thr = eigen_threshold(theorem3_spec)
    spec = replace(theorem3_spec, lam=2.0 * thr)
    sub = build_subsolution_eigen(spec)
    pair = first_eigenpair(spec.grid)
    from selab.hprofile import build_h_profile

    prof = build_h_profile(spec.singular, T=float(pair.phi1.values.max()))
    expect = sub.metadata["M"] * prof.h_at(pair.phi1.values)
    np.testing.assert_allclose(sub.field.values, expect, rtol=1e-9)


def test_eigen_sub_certificate_is_the_full_residual(theorem3_spec):
    thr = eigen_threshold(theorem3_spec)
    spec = replace(theorem3_spec, lam=2.0 * thr)
    sub = build_subsolution_eigen(spec)
    np.testing.assert_allclose(
        sub.certificate.values,
        residual(spec, sub.field).values,
        rtol=1e-9, atol=1e-9,
    )


def test_eigen_sub_2d(theorem3_spec):
    spec = replace(theorem3_spec,
                   grid=build_grid("rectangle", (1.0, 1.0), 24), source=None)
    thr = eigen_threshold(spec)
    sub = build_subsolution_eigen(replace(spec, lam=2.0 * thr))
    assert sub.metadata["certificate_violations"] == 0
    assert sub.field.min() > 0
