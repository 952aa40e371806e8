"""Lambda-axis structure: sweeps, threshold bracketing, the explicit
nonexistence bound lambda_0, and the mass-divergence diagnostic.

In the positive-K regime with integrable g the solvable set is an upper
ray (lambda*, infinity): a solution at lambda_1 seeds a sub-solution at
every lambda_2 > lambda_1.  Sweeps therefore expect verdicts to form an
up-set along ascending lambda.  `estimate_lambda_star` returns the cell
of a bisection of the verdict predicate, but finds it from the branch of
solutions at the last eps: the verdict flips where that branch folds
back (`solver.branch_fold`), so the bisection's midpoints are replayed
against the fold, and two continuation probes at the cell's ends confirm
it; a cell they refute is bisected probe by probe.  Nothing here proves
nonexistence; failed continuation indicates it, and the mass diagnostic
checks the indicated mechanism (integral of g(u_eps + eps) diverging
like the reference integral of g(c2 dist + eps)) rather than trusting
the solver's word.
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
from .mass import mass_integral, reference_mass, tail_trend
from .solver import (
    _halvings,
    branch_fold,
    default_schedule,
    fixed_point,
    nonlinear_part,
    solve_with_continuation,
)
from .spectral import first_eigenpair

log = logging.getLogger(__name__)

# the mass diagnostic's descending sweep per eps: at most 800 sweeps,
# stopped at an increment below 1e-11 max(1, |u|_inf)
_DESCENT_SWEEPS = 800
_DESCENT_TOL = 1e-11


def _thread_budget(threads=None):
    if threads is not None:
        return max(1, int(threads))
    return min(4, os.cpu_count() or 1)


@dataclass
class SweepResult:
    """Per-lambda verdicts and summary stats along an ascending sweep."""

    lambdas: list
    verdicts: list
    stats: list
    mode: str
    reports: list = dataclass_field(default_factory=list)

    def verdicts_form_upset(self):
        """True iff "converged" entries occupy an upper ray of the sweep."""
        flags = [v == "converged" for v in self.verdicts]
        return all(b or not a for a, b in zip(flags, flags[1:]))

    def rows(self):
        for lam, verdict, st in zip(self.lambdas, self.verdicts, self.stats):
            yield (lam, verdict, st["max_u"], st["min_u"], st["mass_integral"])


def _run_one(spec, lam, initial):
    run_spec = spec.with_lambda(lam)
    report = solve_with_continuation(run_spec, initial=initial)
    if not report.converged and initial is not None:
        # a stale warm start must not flip a solvable lambda
        report = solve_with_continuation(run_spec)
    return report


def lambda_sweep(spec_template, lambdas, warm_start=True, threads=None):
    """Continuation verdicts along ascending lambda values, each on the
    default eps schedule.

    Warm-started (default): sequential, each lambda seeded with the
    previous converged solution.  With warm_start=False the entries are
    independent and run on a pool of `threads` threads (default
    min(4, cpu count)).  An empty or not strictly ascending list of
    lambdas raises ModelError.
    """
    lambdas = [float(l) for l in lambdas]
    if not lambdas:
        raise ModelError("a sweep needs at least one lambda")
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ModelError("lambda values must be strictly ascending")
    eps_final = default_schedule()[-1]
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
            report = _run_one(spec_template, lam, prev)
            prev = report.solution if report.converged else None
            verdicts.append(report.diagnostics["verdict"])
            stats.append(stats_of(report))
            reports.append(report)
        mode = "sequential-warm"
    else:
        budget = _thread_budget(threads)
        with ThreadPoolExecutor(max_workers=budget) as pool:
            reports = list(pool.map(
                lambda lam: _run_one(spec_template, lam, None),
                lambdas))
        verdicts = [r.diagnostics["verdict"] for r in reports]
        stats = [stats_of(r) for r in reports]
        mode = f"parallel-{budget}"
    result = SweepResult(lambdas=lambdas, verdicts=verdicts, stats=stats,
                         mode=mode, reports=reports)
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
    """Bracket [lo, hi] of the existence threshold, the dyadic cell of
    [lambda_min, lambda_max] after `iters` halvings in which the verdict
    flips.

    A sentinel replaces one bracket end when the predicate never flips:
    sentinel "below-range" means even lambda_min converged (lo is None),
    "above-range" means even lambda_max failed (hi is None).  `fold` is
    the fold lambda_f that the trace of the eps_final branch found, None
    when it found none in range and for a sentinel; when a confirming
    probe refutes its cell, the bracket is bisected and need not hold it.
    `history` lists every verdict probe made on the grid, in order: two
    endpoints and at most two confirmations when the fold's cell held,
    and the bisection's probes after them when it did not.
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
    fold: float | None = None


def _refined(spec):
    """`spec` on a grid with twice the interior nodes on every axis."""
    grid = build_grid(spec.grid.kind, spec.grid.extents,
                      tuple(2 * n for n in spec.grid.shape))
    return replace(spec, grid=grid, source=None)


def estimate_lambda_star(spec_template, lambda_min, lambda_max, iters=12,
                         refine=True):
    """The cell of `iters` bisections of [lambda_min, lambda_max] in which
    the continuation verdict flips, found from the fold of the branch.

    Endpoints are probed first and sentinel estimates returned when the
    flip lies outside the range.  Otherwise the eps_final branch through
    lambda_max's solution is traced down to its fold lambda_f
    (`solver.branch_fold`), the bisection's own midpoints are replayed
    with "mid >= lambda_f" in place of the verdict, and the cell's ends
    are probed: its lower end must fail and its upper end converge.
    Bisection keeps the verdict's flip inside its cell, so while the
    verdicts form an up-set these two probes give the cell bisection
    would, without its other iters - 2 continuations.  When no fold is
    found in range, or a probe disagrees, the verdict is bisected as it
    is, probe by probe.  With refine=True the final bracket is re-run on
    a grid with doubled n per axis and the agreement recorded
    (refined_consistent), not enforced.  Every verdict
    is a continuation on the default eps schedule.  Raises ModelError
    unless 0 < lambda_min < lambda_max and iters >= 0.
    """
    lo, hi = float(lambda_min), float(lambda_max)
    if not 0 < lo < hi:
        raise ModelError(f"need 0 < lambda_min < lambda_max, got {lo}, {hi}")
    if iters < 0:
        raise ModelError(f"need iters >= 0, got {iters}")
    n_axis = spec_template.grid.shape[0]
    history = []

    def probe(lam):
        rep = solve_with_continuation(spec_template.with_lambda(lam))
        history.append((lam, rep.diagnostics["verdict"]))
        return rep

    try:
        lambda0 = lambda0_bound(spec_template)
    except (RegimeError, ModelError):
        lambda0 = None  # K is not positive, or f - K g >= 0 near 0

    if probe(lo).converged:
        return LambdaStarEstimate(lo=None, hi=lo, iters=0, lambda0=lambda0,
                                  grid_n=n_axis, history=history,
                                  sentinel="below-range",
                                  lambda0_below_hi=(lambda0 is None or lambda0 <= lo))
    top = probe(hi)
    if not top.converged:
        return LambdaStarEstimate(lo=hi, hi=None, iters=0, lambda0=lambda0,
                                  grid_n=n_axis, history=history,
                                  sentinel="above-range", lambda0_below_hi=None)
    last = spec_template.with_lambda(hi).with_eps(default_schedule()[-1])
    fold = branch_fold(last, top.solution, lo)
    cell = None
    if fold is not None:
        cell = _halvings(lo, hi, iters, lambda mid: mid >= fold)
        # an end that is still lambda_min or lambda_max was probed above
        if not ((cell[0] == lo or not probe(cell[0]).converged)
                and (cell[1] == hi or probe(cell[1]).converged)):
            cell = None
    if cell is None:
        cell = _halvings(lo, hi, iters, lambda mid: probe(mid).converged)
    lo, hi = cell
    refined = None
    if refine:
        fine = _refined(spec_template)

        def converged_at(lam):
            return solve_with_continuation(fine.with_lambda(lam)).converged

        refined = (not converged_at(lo)) and converged_at(hi)
    below_hi = None if lambda0 is None else bool(lambda0 <= hi)
    if below_hi is False:
        log.warning("explicit bound lambda0=%.6g exceeds bracket hi=%.6g",
                    lambda0, hi)
    return LambdaStarEstimate(lo=lo, hi=hi, iters=iters, lambda0=lambda0,
                              grid_n=n_axis, history=history,
                              refined_consistent=refined,
                              lambda0_below_hi=below_hi, fold=fold)


def lambda0_bound(spec_template):
    """Explicit nonexistence bound lambda_0 = min{1, lambda_1 / (2 m)}.

    c is the largest level with f(x, s) - K(x) g(s) < 0 on (0, c) (found
    by bisection on the nodal max; f - K g is increasing in s in the
    positive regime), and m = max_x f(x, c)/c.  Raises ModelError when
    no such c exists, i.e. f - K g >= 0 already near 0.
    """
    spec = spec_template
    if spec.regime() != "positive":
        raise RegimeError("lambda_0 bound lives in the positive-K regime")
    psi = replace(spec, lam=1.0, eps=0.0).psi  # f - K g

    def margin(s):
        return float(np.max(psi(np.full(spec.grid.n_total, s))))

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
        # a NaN margin moves hi, as "not < 0" says
        c, _ = _halvings(s_lo, s_hi, 200, lambda mid: not margin(mid) < 0)
    cv = np.full(spec.grid.n_total, c)
    m = float(np.max(spec.f_at(cv))) / c
    return min(1.0, first_eigenpair(spec.grid).lambda1 / (2.0 * m))


@dataclass
class NonexistenceReport:
    """Mass trend of the regularized family against the reference rate."""

    eps: list
    mass: list
    mass_reference: list
    factors: list
    fitted_factor: float | None
    reference_factor: float | None
    mass_tail: float | None
    verdict: str
    c2: float
    sources: list
    collapsed: list


def nonexistence_diagnostic(spec_template):
    """Track I(eps) = integral of g(u_eps + eps) down 20 halvings of eps
    from 0.1 (`default_schedule(20)`).

    For each eps the candidate u_eps is sought by a clipped descending
    sweep from the super-solution envelope U of -Lap(U) = lambda f(x, U)
    (any solution of the full problem lies below U).  When the sweep
    collapses to 0 there is no regularized candidate at this eps; the
    envelope itself is measured instead, which still lower-bounds the
    mass of any would-be solution because g is nonincreasing.  The
    per-eps choice is recorded in `sources` ("descent" or "envelope").

    I(eps) is the support-restricted piecewise-linear mass (see
    mass_integral), compared against the reference integral of
    g(c2 dist + eps).  `mass.tail_trend` decides the tail of the masses:
    `factors` are its increment ratios, `fitted_factor` the last of them
    (2^(alpha-1) for g = s^-alpha; None when a mass overflows), and
    `reference_factor` the same for the reference integrals.  The verdict
    is "mass-divergent" for a divergent tail, "mass-bounded" for a bounded
    one, whose Cauchy bound on the mass still to come is `mass_tail`
    (None otherwise), and "no-trend" when the ratios are mixed.  A spec
    with a source term raises ModelError.  The ladder is deeper than the
    continuation default because the eps-rate is only clean once eps
    falls well below u at the first interior node.
    """
    spec = spec_template
    if spec.regime() != "positive":
        raise RegimeError("mass diagnostic lives in the positive-K regime")
    if spec.source is not None:
        # the super-solution envelope it starts from has no source term
        raise ModelError("mass diagnostic takes no source term")
    eps_schedule = default_schedule(20)
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
                              floor=0.0, tol=_DESCENT_TOL, max_iter=_DESCENT_SWEEPS)
        if float(u.max()) > 0.0:
            sources.append("descent")
            prev = u
        else:
            sources.append("envelope")
            u = envelope
            prev = None
        field = Field(grid, u)
        masses.append(mass_integral(g, field, eps))
        refs.append(reference_mass(grid, g, c2, eps))
        collapsed.append(bool(np.any(u <= 0)))

    factors, fitted, trend, tail = tail_trend(eps_schedule, masses)
    verdict = {"bounded": "mass-bounded", "divergent": "mass-divergent"}.get(
        trend, "no-trend")
    return NonexistenceReport(
        eps=eps_schedule, mass=masses, mass_reference=refs, factors=factors,
        fitted_factor=fitted, reference_factor=tail_trend(eps_schedule, refs)[1],
        mass_tail=tail, verdict=verdict, c2=c2, sources=sources,
        collapsed=collapsed,
    )
