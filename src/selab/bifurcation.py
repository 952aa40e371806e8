"""Lambda-axis structure: sweeps, threshold bracketing, the explicit
nonexistence bound lambda_0, and the mass-divergence diagnostic.

In the positive-K regime with integrable g the solvable set is an upper
ray (lambda*, infinity): a solution at lambda_1 seeds a sub-solution at
every lambda_2 > lambda_1.  Sweeps therefore expect verdicts to form an
up-set along ascending lambda, and `estimate_lambda_star` bisects the
verdict predicate.  Nothing here proves nonexistence; failed
continuation indicates it, and the mass diagnostic checks the indicated
mechanism (integral of g(u_eps + eps) diverging like the reference
integral of g(c2 dist + eps)) rather than trusting the solver's word.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .constructions import build_supersolution
from .errors import ModelError, RegimeError
from .grid import Field, build_grid
from .mass import halving_rate, mass_integral, mass_trend, reference_mass
from .solver import (
    default_schedule,
    fixed_point,
    nonlinear_part,
    solve_with_continuation,
)
from .spectral import first_eigenpair

log = logging.getLogger(__name__)

THREADS_ENV = "SELAB_THREADS"


def _thread_budget(threads=None):
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            log.warning("ignoring non-integer %s=%r", THREADS_ENV, env)
    return min(4, os.cpu_count() or 1)


@dataclass
class SweepResult:
    """Per-lambda verdicts and summary stats along an ascending sweep."""

    lambdas: list
    verdicts: list
    stats: list
    mode: str

    def verdicts_form_upset(self):
        """True iff "converged" entries occupy an upper ray of the sweep."""
        flags = [v == "converged" for v in self.verdicts]
        return all(b or not a for a, b in zip(flags, flags[1:]))

    def rows(self):
        for lam, verdict, st in zip(self.lambdas, self.verdicts, self.stats):
            yield (lam, verdict, st["max_u"], st["min_u"], st["mass_integral"])


def _run_one(spec, lam, schedule, tol, initial):
    run_spec = spec.with_lambda(lam)
    report = solve_with_continuation(run_spec, schedule=schedule, tol=tol,
                                     initial=initial)
    if not report.converged and initial is not None:
        # a stale warm start must not flip a solvable lambda
        report = solve_with_continuation(run_spec, schedule=schedule, tol=tol)
    return report


def lambda_sweep(spec_template, lambdas, schedule=None, tol=1e-10,
                 warm_start=True, threads=None):
    """Continuation verdicts along ascending lambda values.

    Warm-started (default): sequential, each lambda seeded with the
    previous converged solution.  With warm_start=False the entries are
    independent and run on a thread pool capped by SELAB_THREADS.
    """
    lambdas = [float(l) for l in lambdas]
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ModelError("lambda values must be strictly ascending")
    if schedule is None:
        schedule = default_schedule()
    eps_final = schedule[-1]
    singular = spec_template.singular

    def stats_of(report):
        return {
            "max_u": float(report.solution.values.max()),
            "min_u": float(report.solution.values.min()),
            "mass_integral": mass_integral(singular, report.solution, eps_final),
        }

    verdicts = []
    stats = []
    reports = []
    if warm_start:
        prev = None
        for lam in lambdas:
            report = _run_one(spec_template, lam, schedule, tol, prev)
            prev = report.solution if report.converged else None
            verdicts.append(report.diagnostics["verdict"])
            stats.append(stats_of(report))
            reports.append(report)
        mode = "sequential-warm"
    else:
        budget = _thread_budget(threads)
        with ThreadPoolExecutor(max_workers=budget) as pool:
            reports = list(pool.map(
                lambda lam: _run_one(spec_template, lam, schedule, tol, None),
                lambdas))
        verdicts = [r.diagnostics["verdict"] for r in reports]
        stats = [stats_of(r) for r in reports]
        mode = f"parallel-{budget}"
    result = SweepResult(lambdas=lambdas, verdicts=verdicts, stats=stats, mode=mode)
    result.reports = reports
    _flag_sub_bound_convergence(spec_template, result)
    return result


def _flag_sub_bound_convergence(spec_template, result):
    # a converged verdict below the proved-nonexistence bound lambda_0 would
    # force int(u phi_1) = 0 for a positive u; record the integral as evidence
    # of the inconsistency instead of letting it pass silently
    try:
        lambda0 = lambda0_bound(spec_template)
    except (RegimeError, ModelError):
        return
    grid = spec_template.grid
    pair = first_eigenpair(grid)
    weight = float(np.prod(grid.spacing))
    for lam, verdict, st, rep in zip(result.lambdas, result.verdicts,
                                     result.stats, result.reports):
        if verdict == "converged" and lam < lambda0:
            overlap = weight * float(rep.solution.values @ pair.phi1.values)
            st["sub_bound_inconsistency"] = overlap
            log.warning("converged verdict at lambda=%.6g below lambda0=%.6g "
                        "(int u phi1 = %.3e, should be 0 for a true solution)",
                        lam, lambda0, overlap)


@dataclass
class LambdaStarEstimate:
    """Bisection bracket for the existence threshold.

    A sentinel replaces one bracket end when the predicate never flips:
    sentinel "below-range" means even lambda_min converged (lo is None),
    "above-range" means even lambda_max failed (hi is None).
    """

    lo: float | None
    hi: float | None
    iters: int
    lambda0: float | None
    grid_n: int
    history: list = dataclass_field(default_factory=list)
    sentinel: str | None = None
    refined_consistent: bool | None = None
    lambda0_below_hi: bool | None = None


def _with_grid_n(spec, n):
    grid = build_grid(spec.grid.kind, spec.grid.extents, n)
    return replace(spec, grid=grid, source=None)


def estimate_lambda_star(spec_template, lambda_min, lambda_max, iters=12,
                         schedule=None, tol=1e-10, refine=True):
    """Bisect the continuation verdict on [lambda_min, lambda_max].

    Endpoints are probed first and sentinel estimates returned when the
    flip lies outside the range.  With refine=True the final bracket is
    re-run on a grid with doubled n per axis and the agreement recorded
    (refined_consistent), not enforced.
    """
    lo, hi = float(lambda_min), float(lambda_max)
    if not 0 < lo < hi:
        raise ModelError(f"need 0 < lambda_min < lambda_max, got {lo}, {hi}")
    if schedule is None:
        schedule = default_schedule()
    n_axis = spec_template.grid.shape[0]

    def converged_at(lam, spec=spec_template):
        rep = solve_with_continuation(spec.with_lambda(lam), schedule=schedule,
                                      tol=tol)
        return rep.converged

    lambda0 = None
    try:
        if spec_template.regime() == "positive":
            lambda0 = lambda0_bound(spec_template)
    except RegimeError:
        lambda0 = None

    history = []
    if converged_at(lo):
        history.append((lo, "converged"))
        return LambdaStarEstimate(lo=None, hi=lo, iters=0, lambda0=lambda0,
                                  grid_n=n_axis, history=history,
                                  sentinel="below-range",
                                  lambda0_below_hi=(lambda0 is None or lambda0 <= lo))
    history.append((lo, "nonexistence-indicated"))
    if not converged_at(hi):
        history.append((hi, "nonexistence-indicated"))
        return LambdaStarEstimate(lo=hi, hi=None, iters=0, lambda0=lambda0,
                                  grid_n=n_axis, history=history,
                                  sentinel="above-range", lambda0_below_hi=None)
    history.append((hi, "converged"))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if converged_at(mid):
            hi = mid
            history.append((mid, "converged"))
        else:
            lo = mid
            history.append((mid, "nonexistence-indicated"))
    refined = None
    if refine:
        fine = _with_grid_n(spec_template, 2 * n_axis)
        refined = (not converged_at(lo, fine)) and converged_at(hi, fine)
    below_hi = None if lambda0 is None else bool(lambda0 <= hi)
    if below_hi is False:
        log.warning("explicit bound lambda0=%.6g exceeds bracket hi=%.6g",
                    lambda0, hi)
    return LambdaStarEstimate(lo=lo, hi=hi, iters=iters, lambda0=lambda0,
                              grid_n=n_axis, history=history,
                              refined_consistent=refined,
                              lambda0_below_hi=below_hi)


def lambda0_bound(spec_template, eigenpair=None):
    """Explicit nonexistence bound lambda_0 = min{1, lambda_1 / (2 m)}.

    c is the largest level with f(x, s) - K(x) g(s) < 0 on (0, c) (found
    by bisection on the nodal max; f - K g is increasing in s in the
    positive regime), and m = max_x f(x, c)/c.  Raises ModelError when
    no such c exists, i.e. f - K g >= 0 already near 0.
    """
    spec = spec_template
    if spec.regime() != "positive":
        raise RegimeError("lambda_0 bound lives in the positive-K regime")
    if eigenpair is None:
        eigenpair = first_eigenpair(spec.grid)
    K = spec.k_nodal()

    def margin(s):
        sv = np.full(spec.grid.n_total, s)
        return float(np.max(spec.f_at(sv) - K * spec.g_at(sv)))

    s_lo = 1e-10
    if margin(s_lo) >= 0:
        raise ModelError(
            "no margin near zero: f - K g is nonnegative at small s, "
            "the explicit lambda_0 bound does not apply"
        )
    s_hi = 1.0
    grew = 0
    while margin(s_hi) < 0 and grew < 64:
        s_hi *= 2.0
        grew += 1
    if margin(s_hi) < 0:
        c = s_hi  # f - K g stays negative as far as we look; bound saturates
    else:
        lo_b, hi_b = s_lo, s_hi
        for _ in range(200):
            mid = 0.5 * (lo_b + hi_b)
            if margin(mid) < 0:
                lo_b = mid
            else:
                hi_b = mid
        c = lo_b
    cv = np.full(spec.grid.n_total, c)
    m = float(np.max(spec.f_at(cv))) / c
    return min(1.0, eigenpair.lambda1 / (2.0 * m))


@dataclass
class NonexistenceReport:
    """Mass trend of the regularized family against the reference rate."""

    eps: list
    mass: list
    mass_reference: list
    factors: list
    fitted_factor: float | None
    reference_factor: float | None
    verdict: str
    c2: float
    sources: list
    collapsed: list


def nonexistence_diagnostic(spec_template, eps_schedule=None, sweeps=800,
                            tol=1e-11):
    """Track I(eps) = integral of g(u_eps + eps) down an eps schedule.

    For each eps the candidate u_eps is sought by a clipped descending
    sweep from the super-solution envelope U of -Lap(U) = lambda f(x, U)
    (any solution of the full problem lies below U).  When the sweep
    collapses to 0 there is no regularized candidate at this eps; the
    envelope itself is measured instead, which still lower-bounds the
    mass of any would-be solution because g is nonincreasing.  The
    per-eps choice is recorded in `sources` ("descent" or "envelope").

    I(eps) is the support-restricted piecewise-linear mass (see
    mass_integral), compared against the reference integral of
    g(c2 dist + eps).  Verdict "mass-divergent" when the fitted
    per-halving factor shows sustained growth or the mass overflows
    (then fitted_factor is None; see mass_trend), "mass-bounded" when
    the tail is Cauchy, "no-trend" for schedules that do not decrease.
    A spec with a source term raises ModelError.  The default
    schedule has 20 halvings from 0.1, deeper than the continuation
    default because the eps-rate is only clean once eps falls well below
    u at the first interior node.
    """
    spec = spec_template
    if spec.regime() != "positive":
        raise RegimeError("mass diagnostic lives in the positive-K regime")
    if spec.source is not None:
        # the super-solution envelope it starts from has no source term
        raise ModelError("mass diagnostic takes no source term")
    if eps_schedule is None:
        eps_schedule = default_schedule(20)
    eps_schedule = [float(e) for e in eps_schedule]
    g = spec.singular
    grid = spec.grid
    lu = grid.lu()
    sup = build_supersolution(spec)
    envelope = sup.field.values
    c2 = sup.metadata["c2"]

    masses = []
    refs = []
    sources = []
    collapsed = []
    prev = None
    for eps in eps_schedule:
        stage = spec.with_eps(eps)
        u, _, _ = fixed_point(lu, lambda v: nonlinear_part(stage, v),
                              envelope if prev is None else prev,
                              floor=0.0, tol=tol, max_iter=sweeps)
        if float(u.max()) > 0.0:
            sources.append("descent")
            prev = u
        else:
            sources.append("envelope")
            u = envelope
            prev = None
        field = Field(grid, u)
        masses.append(mass_integral(g, field, eps, support_only=True))
        refs.append(reference_mass(grid, g, c2, eps))
        collapsed.append(bool(np.any(u <= 0)))

    decreasing = all(b < a for a, b in zip(eps_schedule, eps_schedule[1:]))
    if not decreasing:
        return NonexistenceReport(
            eps=eps_schedule, mass=masses, mass_reference=refs, factors=[],
            fitted_factor=None, reference_factor=None, verdict="no-trend",
            c2=c2, sources=sources, collapsed=collapsed,
        )
    factors, fitted, divergent = mass_trend(eps_schedule, masses)
    rfitted = halving_rate(eps_schedule, refs)
    verdict = "mass-divergent" if divergent else "mass-bounded"
    return NonexistenceReport(
        eps=eps_schedule, mass=masses, mass_reference=refs, factors=factors,
        fitted_factor=fitted, reference_factor=rfitted, verdict=verdict,
        c2=c2, sources=sources, collapsed=collapsed,
    )
