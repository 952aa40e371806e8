"""Named verification battery behind the `verify` subcommand.

Each check is a zero-argument callable (seeded where randomness is
involved) returning (passed, detail).  The battery is the same one the
test suite pins, so `selab verify` green means the installed package
reproduces the documented numbers, not merely that it imports.  Checks
are ordered cheapest-first so an early structural failure surfaces
before the long regime runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .bifurcation import estimate_lambda_star, lambda_sweep, nonexistence_diagnostic
from .comparison import check_ordering, psi_from_spec
from .constructions import (
    build_subsolution_convection,
    build_subsolution_eigen,
    build_supersolution,
)
from .errors import KellerOssermanError, SelabError
from .grid import Field, build_grid, gradient_magnitude
from .hprofile import build_h_profile, verify_h_bound
from .model import (
    Potential,
    ProblemSpec,
    ReactionTerm,
    SingularTerm,
    problem_from_config,
)
from .solver import (
    fixed_point,
    newton_solve,
    nonlinear_part,
    solve_with_continuation,
)
from .spectral import first_eigenpair

DEFAULT_SEED = 20260823


def bundled_config_text(name):
    """Read one of the shipped .cfg files by bare name."""
    return (resources.files("selab") / "configs" / name).read_text()


def bundled_problem(name):
    _, spec = problem_from_config(bundled_config_text(name))
    return spec


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _fmt(x):
    return f"{x:.6g}"


# ---------------------------------------------------------------- checks


def check_eigenpair():
    """Principal eigenvalue against the closed forms of the discrete
    and continuum operators, in 1D and 2D; on each grid the pair's
    residual against the assembled operator must also stay below
    1e-12 ||A||_inf = 1e-12 sum_k 4/h_k^2."""
    msgs = []
    ok = True
    rel_res = []

    def pair_on(kind, extents, n):
        grid = build_grid(kind, extents, n)
        ep = first_eigenpair(grid)
        rel_res.append(ep.residual / sum(4.0 / h**2 for h in grid.spacing))
        return ep

    ep = pair_on("interval", (1.0,), 1023)
    err = abs(ep.lambda1 - np.pi**2)
    ok &= err < 1e-4
    msgs.append(f"1D n=1023 |lambda1-pi^2|={_fmt(err)} (<1e-4)")

    # n=3, h=1/4: exact discrete value 2/h^2 (1-cos(pi h)) = 32-16 sqrt(2)
    ep3 = pair_on("interval", (1.0,), 3)
    exact3 = 32.0 - 16.0 * np.sqrt(2.0)
    err3 = abs(ep3.lambda1 - exact3)
    ok &= err3 < 1e-10
    msgs.append(f"1D n=3 |lambda1-{exact3:.4f}|={_fmt(err3)} (<1e-10)")

    ep2 = pair_on("rectangle", (1.0, 1.0), 255)
    err2 = abs(ep2.lambda1 - 2.0 * np.pi**2)
    ok &= err2 < 1e-2
    msgs.append(f"2D n=255 |lambda1-2pi^2|={_fmt(err2)} (<1e-2)")

    ok &= max(rel_res) <= 1e-12
    msgs.append(f"max residual/||A||_inf={_fmt(max(rel_res))} (<=1e-12)")
    return ok, "; ".join(msgs)


def check_hprofile():
    """Boundary-profile table vs. the power-law closed form, the growth
    bound t h' <= 2h, and rejection of non-integrable exponents."""
    msgs = []
    ok = True
    for alpha in (0.25, 0.5, 0.75):
        g = SingularTerm(family="power", alpha=alpha)
        prof = build_h_profile(g)
        beta = 2.0 / (1.0 + alpha)
        # independent constant: h = C t^beta solves h' = sqrt(2 G(h))
        C = ((1.0 + alpha) / 2.0 * np.sqrt(2.0 / (1.0 - alpha))) ** beta
        mask = prof.t > 0
        rel = np.max(
            np.abs(prof.h[mask] - C * prof.t[mask] ** beta)
            / (C * prof.t[mask] ** beta)
        )
        bound = verify_h_bound(prof)
        ok &= rel < 1e-6 and bound.passed
        msgs.append(
            f"alpha={alpha}: rel={_fmt(rel)} ratio={_fmt(bound.max_ratio)}"
        )
    for alpha in (1.0, 1.5):
        try:
            build_h_profile(SingularTerm(family="power", alpha=alpha))
        except KellerOssermanError:
            msgs.append(f"alpha={alpha}: rejected")
        else:
            ok = False
            msgs.append(f"alpha={alpha}: NOT rejected")
    return ok, "; ".join(msgs)


def _manufactured_spec(grid, u_star, grad_mag, lam=1.0, eps=1e-2):
    """Negative-potential problem with a source that makes u_star the
    target; grad_mag=None uses the grid gradient (exact recovery),
    otherwise the supplied continuum magnitude (discretization study)."""
    g = SingularTerm(family="power", alpha=0.5)
    f = ReactionTerm(family="power", p=0.5)
    pot = Potential(-1.0)
    vals = np.asarray(u_star, dtype=float)
    A = grid.neg_laplacian()
    if grad_mag is None:
        mag = gradient_magnitude(grid, Field(grid, vals)).values
    else:
        mag = np.asarray(grad_mag, dtype=float)
    src = (
        A @ vals
        + pot.nodal(grid) * g(vals + eps)
        + mag
        - lam * f.value(grid, vals)
    )
    return ProblemSpec(grid, pot, g, f, 1.0, lam, eps, Field(grid, src))


def check_manufactured_order():
    """Exact recovery of a grid-representable target, then order-two
    convergence for a smooth non-representable one."""
    msgs = []
    ok = True
    for n in (33, 97):
        grid = build_grid("interval", (1.0,), n)
        x = grid.coords()[:, 0]
        u_star = x * (1.0 - x)
        spec = _manufactured_spec(grid, u_star, None)
        rep = newton_solve(spec, Field(grid, 0.5 * u_star))
        err = float(np.max(np.abs(rep.solution.values - u_star)))
        ok &= rep.converged and err < 1e-8
        msgs.append(f"exact n={n}: err={_fmt(err)}")

    errs = []
    for n in (32, 64, 128):
        grid = build_grid("interval", (1.0,), n)
        x = grid.coords()[:, 0]
        u_star = np.sin(np.pi * x)
        spec = _manufactured_spec(grid, u_star, np.pi * np.abs(np.cos(np.pi * x)))
        rep = newton_solve(spec, Field(grid, 0.5 * u_star))
        ok &= rep.converged
        errs.append(float(np.max(np.abs(rep.solution.values - u_star))))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    ok &= all(1.8 <= q <= 2.2 for q in orders)
    msgs.append("orders=" + ",".join(_fmt(q) for q in orders))
    return ok, "; ".join(msgs)


def check_negative_regime():
    """Existence for every lambda when the potential is negative, plus
    the closed-form value of the convection sub-solution."""
    spec = bundled_problem("theorem1.cfg")
    msgs = []
    ok = True
    for lam in (0.1, 1.0, 10.0):
        rep = solve_with_continuation(replace(spec, lam=lam))
        ok &= (
            rep.converged
            and rep.residual_inf < 1e-8
            and rep.min_interior > 0.0
        )
        msgs.append(
            f"lam={lam:g}: {rep.diagnostics['verdict']} "
            f"res={_fmt(rep.residual_inf)} min={_fmt(rep.min_interior)}"
        )
    fine = replace(spec, grid=build_grid("interval", (1.0,), 255), source=None)
    sub = build_subsolution_convection(fine)
    x = fine.grid.coords()[:, 0]
    mid = int(np.argmin(np.abs(x - 0.5)))
    target = np.exp(-0.5) - 0.5
    err = abs(float(sub.field.values[mid]) - target)
    ok &= err < 1e-4
    msgs.append(f"v(0.5) err={_fmt(err)} (<1e-4)")
    return ok, "; ".join(msgs)


def check_nonintegrable_regime():
    """Nonexistence indication for the non-integrable singularity, with
    the boundary-mass growth rate at its alpha=1.5 reference value."""
    spec = bundled_problem("theorem2.cfg")
    msgs = []
    ok = True
    for lam in (1.0, 10.0, 100.0):
        rep = solve_with_continuation(replace(spec, lam=lam))
        indicated = rep.diagnostics["verdict"] == "nonexistence-indicated"
        diag = nonexistence_diagnostic(replace(spec, lam=lam))
        fitted = diag.fitted_factor
        in_band = fitted is not None and 1.26 <= fitted <= 1.56
        ok &= indicated and in_band
        msgs.append(
            f"lam={lam:g}: {rep.diagnostics['mode']} "
            f"factor={_fmt(fitted) if fitted is not None else 'none'}"
        )
    return ok, "; ".join(msgs)


def check_threshold_regime():
    """Finite threshold bracket, grid-stable midpoint, and the exact
    unit lower bound for the canonical instance."""
    spec = bundled_problem("theorem3.cfg")
    est = estimate_lambda_star(spec, 0.1, 100.0, iters=12)
    msgs = []
    ok = est.lo is not None and est.hi is not None and est.sentinel is None
    if not ok:
        return False, f"no finite bracket: sentinel={est.sentinel}"
    mid64 = 0.5 * (est.lo + est.hi)
    spec128 = replace(
        spec, grid=build_grid("interval", (1.0,), 128), source=None
    )
    est128 = estimate_lambda_star(spec128, 0.1, 100.0, iters=12, refine=False)
    mid128 = 0.5 * (est128.lo + est128.hi)
    shift = abs(mid128 - mid64) / mid64
    ok &= shift < 0.10
    msgs.append(f"bracket=[{est.lo:.6f},{est.hi:.6f}] shift={_fmt(shift)}")
    ok &= est.lambda0 == 1.0
    msgs.append(f"lambda0={est.lambda0!r} (==1.0)")
    ok &= est.lambda0 is not None and est.lambda0 <= est.hi
    msgs.append(f"lambda0<=hi={est.lambda0 <= est.hi}")
    return ok, "; ".join(msgs)


def _picard_newton(spec, sweeps=400):
    """Deterministic small-instance solve of the fixed-eps problem:
    damped Picard to enter the Newton basin, then a polish."""
    grid = spec.grid
    u, _, _ = fixed_point(grid.lu(), lambda v: nonlinear_part(spec, v),
                          np.full(grid.n_total, 0.1), relax=0.5, floor=1e-12,
                          max_iter=sweeps)
    return newton_solve(spec, Field(grid, u))


def comparison_suite(seed=None, n_instances=50):
    """Randomized admissible bracket instances; returns (reports, specs).

    Negative-potential draws pair a scaled-down fixed-eps solution (the
    scaling preserves the sub inequality for sublinear f and
    nonincreasing g) with the fixed point of w -> A^-1(lambda f(w) +
    |K| g(eps)) iterated upward from the solution, which dominates it
    nodewise by construction.  Positive-potential draws pair the
    certified eigen sub-solution with the gradient-free envelope.
    """
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    out = []
    n_negative = n_instances - max(n_instances // 5, 1)
    for i in range(n_instances):
        n = int(rng.integers(24, 49))
        grid = build_grid("interval", (1.0,), n)
        alpha = float(rng.uniform(0.2, 0.8))
        p = float(rng.uniform(0.15, 0.85))
        g = SingularTerm(family="power", alpha=alpha)
        f = ReactionTerm(family="power", p=p)
        if i < n_negative:
            lam = float(rng.uniform(0.5, 4.0))
            kval = -float(rng.uniform(0.2, 2.0))
            a = float(rng.uniform(0.8, 2.0))
            eps = float(rng.uniform(1e-3, 3e-3))
            spec = ProblemSpec(
                grid, Potential(kval), g, f,
                a, lam, eps, None,
            )
            rep = _picard_newton(spec)
            if not rep.converged:
                out.append((None, spec, "solve failed"))
                continue
            u = rep.solution.values
            lu = grid.lu()
            bump = abs(kval) * g(np.full(grid.n_total, eps))
            w = u.copy()
            for _ in range(400):
                w_next = lu.solve(lam * spec.f_at(w) + bump)
                w = np.maximum(w, w_next)
            v = float(rng.uniform(0.3, 0.9)) * u
            report = check_ordering(
                grid, psi_from_spec(spec), Field(grid, v), Field(grid, w)
            )
            out.append((report, spec, "scaled-vs-dominating"))
        else:
            lam_seed = ProblemSpec(
                grid, Potential(1.0), g, f,
                1.0, 1e4, 0.0, None,
            )
            probe = build_subsolution_eigen(lam_seed)
            thr = probe.metadata["lambda_threshold"]
            lam = float(rng.uniform(2.0, 4.0)) * thr
            # psi(s)/s is decreasing only above the crossover
            # ((alpha+1)/(lambda(1-p)))^(1/(p+alpha)); push lambda up
            # until the crossover sits below the pair's smallest value,
            # otherwise the drawn instance is simply not admissible.
            sub = sup = None
            for _ in range(3):
                spec = replace(lam_seed, lam=lam)
                sub = build_subsolution_eigen(spec)
                sup = build_supersolution(spec)
                s_lo = min(sub.field.min(), sup.field.min())
                lam_dec = (1.0 + alpha) / ((1.0 - p) * s_lo ** (p + alpha))
                if lam >= 1.3 * lam_dec:
                    break
                lam = 1.3 * lam_dec
            report = check_ordering(
                grid, psi_from_spec(spec), sub.field, sup.field
            )
            out.append((report, spec, "eigen-vs-envelope"))
    return out


def check_comparison_suite(seed=None):
    """Fifty randomized admissible pairs must all come back ordered;
    a deliberate top-swap must be flagged as a hypothesis failure."""
    runs = comparison_suite(seed=seed)
    bad = []
    worst = 0.0
    for idx, (report, spec, tag) in enumerate(runs):
        if report is None or not report.ordered:
            verdict = "no-solve" if report is None else report.verdict
            bad.append(f"#{idx}({tag})={verdict}")
        else:
            worst = max(worst, report.max_violation)
    ok = not bad and worst <= 1e-8
    msgs = [f"{len(runs)} instances, max (v-w)+ = {_fmt(worst)}"]
    if bad:
        msgs.append("failed: " + ",".join(bad[:5]))

    # v = 2w breaks the sub inequality strictly (f sublinear, g
    # nonincreasing); the verdict must blame the hypotheses, not claim
    # an ordering violation the lemma never promised to exclude.
    grid = build_grid("interval", (1.0,), 31)
    g = SingularTerm(family="power", alpha=0.5)
    f = ReactionTerm(family="power", p=0.5)
    spec = ProblemSpec(
        grid, Potential(-1.0), g, f,
        1.0, 1.0, 1e-3, None,
    )
    rep = _picard_newton(spec)
    w = rep.solution.values
    viol = check_ordering(
        grid, psi_from_spec(spec), Field(grid, 2.0 * w), Field(grid, w)
    )
    ok &= viol.verdict == "hypotheses-not-met"
    msgs.append(f"top-swap verdict={viol.verdict}")
    return ok, "; ".join(msgs)


def check_sweep_monotone():
    """Sweep verdicts must form an up-set in lambda and warm-started
    solutions must grow nodewise with lambda."""
    spec = bundled_problem("theorem3.cfg")
    lambdas = sorted(set(np.geomspace(0.5, 80.0, 12).tolist()))
    result = lambda_sweep(spec, lambdas)
    ok = result.verdicts_form_upset()
    msgs = [f"verdicts={','.join(v[0] for v in result.verdicts)} upset={ok}"]
    worst = 0.0
    prev = None
    for rep, verdict in zip(result.reports, result.verdicts):
        if verdict != "converged":
            prev = None
            continue
        u = rep.solution.values
        if prev is not None:
            worst = max(worst, float(np.max(prev - u)))
        prev = u
    ok &= worst <= 1e-8
    msgs.append(f"max decrease={_fmt(worst)} (<=1e-8)")
    return ok, "; ".join(msgs)


def check_certificate():
    """At twice the certification threshold the eigen sub-solution must
    certify at every interior node and sit below the envelope."""
    spec = bundled_problem("theorem3.cfg")
    probe = build_subsolution_eigen(replace(spec, lam=1e4))
    thr = probe.metadata["lambda_threshold"]
    spec2 = replace(spec, lam=2.0 * thr)
    sub = build_subsolution_eigen(spec2)
    violations = sub.metadata["certificate_violations"]
    sup = build_supersolution(spec2)
    rep = check_ordering(
        spec2.grid, psi_from_spec(spec2), sub.field, sup.field
    )
    ok = violations == 0 and rep.ordered
    detail = (
        f"lambda=2x{thr:.4f}, violations={violations}, "
        f"cert_max={_fmt(sub.metadata['residual_max'])}, "
        f"ordering={rep.verdict} (shares {rep.sub_share:.2f}/"
        f"{rep.super_share:.2f})"
    )
    return ok, detail


CHECKS = (
    ("eigenpair", check_eigenpair),
    ("hprofile", check_hprofile),
    ("manufactured-order", check_manufactured_order),
    ("negative-regime", check_negative_regime),
    ("nonintegrable-regime", check_nonintegrable_regime),
    ("threshold-regime", check_threshold_regime),
    ("comparison-suite", check_comparison_suite),
    ("sweep-monotone", check_sweep_monotone),
    ("certificate", check_certificate),
)


def run_battery(only=None, seed=None):
    """Run the named checks (optionally filtered by substring) and
    return a list of CheckResult."""
    results = []
    for name, fn in CHECKS:
        if only and only not in name:
            continue
        t0 = time.perf_counter()
        try:
            if fn is check_comparison_suite:
                passed, detail = fn(seed=seed)
            else:
                passed, detail = fn()
        except SelabError as exc:
            passed, detail = False, f"error: {exc}"
        results.append(
            CheckResult(name, bool(passed), detail, time.perf_counter() - t0)
        )
    return results
