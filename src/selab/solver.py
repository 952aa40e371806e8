"""Solvers for the regularized problem

    -Lap(u) + K(x) g(u + eps) + |grad u|^a = lambda f(x, u) + source

on a Dirichlet grid, written A u + N(u) = 0 with A the -Laplacian.
`nonlinear_part` is the one place N(u) is assembled, and `fixed_point`
the one relaxed, clipped sweep u <- max((1-relax) u - relax A^-1 N(u),
floor) behind the Picard rescue, the mass diagnostic, the comparison
suite and the convection sub-solution.  Three layers:

* `newton_solve` - damped Newton with the analytic Jacobian
  A + diag(K g'(u+eps) - lambda f_s(x,u)) + sum_k diag(w_k) D_k, where the
  last sum linearizes |grad u|^a through the central differences D_k.
  Its sparsity is that of A, so `Grid.jacobian` refills the grid's cached
  pattern on every iteration: a tridiagonal band solved by LAPACK `dgtsv`
  on intervals, A's CSC data factored by `splu` on rectangles.
  Backtracking line search on the residual sup-norm, steps clipped so
  u stays >= 0.01 eps while eps > 0, and at most 8 trial steps per
  iteration before a stagnating solve gives up (see `newton_solve`).
* `monotone_iterate` - the globalizer: with a shift D dominating the
  one-sided Lipschitz constant of s -> -K g(s+eps) + lambda f(x,s), each
  sweep solves (A + D I) u_{k+1} = D u_k - K g(u_k+eps) - |grad u_k|^a
  + lambda f(x,u_k); from a sub-solution the iterates ascend.  The
  convection term is lagged (it has no one-sided structure), which is why
  bracket escape is recorded as a diagnostic instead of assumed away.
* `solve_with_continuation` - walks eps down a schedule (default
  0.1 * 2^-k, 12 steps), warm-starting each stage; "converged" demands a
  Cauchy tail in eps and an interior minimum clear of eps_final,
  otherwise the run is reported nonexistence-indicated with its mode.
  The eps = 0 singular limit is approached, never evaluated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import (
    ConvergenceError,
    OrderingError,
    SelabError,
    SingularEvaluationError,
)
from .grid import Field
from .mass import mass_integral, mass_trend
from .spectral import first_eigenpair

log = logging.getLogger(__name__)

_GRAD_FLOOR = 1e-14
# line-search trial steps per Newton iteration, t = 1, 1/2, ..., 2^-7;
# the reason for 8 is in `newton_solve`
_TRIAL_STEPS = 8


@dataclass
class SolveReport:
    """Outcome of a solve; `converged` implies residual_inf below the
    caller's tolerance and a strictly positive interior minimum."""

    solution: Field
    converged: bool
    iterations: int
    residual_inf: float
    eps_path: list
    min_interior: float
    diagnostics: dict = dataclass_field(default_factory=dict)


def _gradient_data(spec, u):
    comps = spec.grid.central_differences(u)
    mag = np.abs(comps[0]) if len(comps) == 1 else np.sqrt(sum(c**2 for c in comps))
    return comps, mag


def nonlinear_part(spec, u):
    """N(u) = K g(u+eps) + |grad u|^a - lambda f(x,u) - source as an array:
    every term of the equation but the -Laplacian."""
    _, mag = _gradient_data(spec, u)
    n = (-spec.lam * spec.f_at(u) + spec.k_nodal() * spec.g_at(u + spec.eps)
         + mag**spec.conv_a)
    if spec.source is not None:
        n = n - spec.source.values
    return n


def _residual(spec, u):
    """(A u, A u + N(u)) for an array u; see `residual`."""
    if float(u.min()) + spec.eps <= 0.0:
        raise SingularEvaluationError(
            f"g would be evaluated at min(u)+eps = {float(u.min()) + spec.eps:.3e} <= 0"
        )
    Au = spec.grid.apply_neg_laplacian(u)
    return Au, Au + nonlinear_part(spec, u)


def residual(spec, field):
    """Pointwise residual A u + N(u) of the regularized equation as a Field.

    Requires u + eps > 0 wherever g is evaluated; otherwise raises
    SingularEvaluationError (for eps = 0 this is interior positivity).
    """
    return Field(spec.grid, _residual(spec, np.asarray(field.values, dtype=float))[1])


def fixed_point(lu, nonlinear, u, *, relax=1.0, floor=None, tol=0.0, max_iter):
    """Relaxed, clipped sweep for A u + N(u) = 0:

        u <- max((1-relax) u - relax A^-1 N(u), floor)

    `lu` factors A and `nonlinear` maps an array u to N(u).
    Stops once the sup-norm increment falls below `tol` (tol=0 runs all
    `max_iter` sweeps).  Returns (u, sweeps, last_increment); the caller
    decides whether last_increment >= tol after max_iter is a failure.
    """
    inc = np.inf
    sweep = 0
    for sweep in range(1, max_iter + 1):
        u_new = (1.0 - relax) * u - relax * lu.solve(nonlinear(u))
        if floor is not None:
            u_new = np.maximum(u_new, floor)
        inc = float(np.max(np.abs(u_new - u)))
        u = u_new
        if inc < tol:
            break
    return u, sweep, inc


def _linearization(spec, u):
    """(d, [w_k]) with N'(u) = diag(d) + sum_k diag(w_k) D_k: d from
    K g(u+eps) - lambda f(x,u), w_k = a |grad u|^(a-2) (D_k u) from
    |grad u|^a (0 where the gradient vanishes)."""
    diag = spec.k_nodal() * spec.dg_at(u + spec.eps) - spec.lam * spec.df_at(u)
    comps, mag = _gradient_data(spec, u)
    a = spec.conv_a
    safe = np.maximum(mag, _GRAD_FLOOR)
    return diag, [np.where(mag > _GRAD_FLOOR, a * safe ** (a - 2.0) * comp, 0.0)
                  for comp in comps]


def newton_solve(spec, initial, tol=1e-10, max_iter=60):
    """Damped Newton from `initial`; returns a SolveReport.

    Backtracks through at most 8 steps t = 1, 1/2, ..., 2^-7 until the
    residual sup-norm drops below (1 - 1e-4 t) times its current value
    and positivity of u + eps survives; while eps > 0 iterates are
    clipped at the floor 0.01 eps.  The budget is measured: no solve that
    succeeds in the test suite, `selab verify`, the benchmark workloads
    or a fine-grid ladder (interval n up to 8191) accepts a step below
    t = 1/4, so 2^-7 leaves a factor 32 of room.  The steps tried are a
    prefix of an unbounded halving, so a solve that succeeds within the
    budget is unchanged by it; a stage with no solution, about half of
    every lambda* bracket, gives up after 8 residual evaluations per
    iteration instead of 31.  `tol` is relative to the stiffness scale
    max(1, |A u|_inf): assembling the residual of a field of amplitude U
    already carries rounding noise of order U/h^2 times machine epsilon,
    so an absolute target below that is unreachable.  Raises
    ConvergenceError on stagnation or a singular Jacobian.
    """
    u = np.asarray(initial.values if isinstance(initial, Field) else initial,
                   dtype=float).copy()
    floor = 0.01 * spec.eps if spec.eps > 0 else 0.0
    if spec.eps > 0:
        u = np.maximum(u, floor)
    Au, r = _residual(spec, u)
    rnorm = float(np.max(np.abs(r)))
    for it in range(1, max_iter + 1):
        scale = max(1.0, float(np.max(np.abs(Au))))
        if rnorm < tol * scale:
            sol = Field(spec.grid, u)
            return SolveReport(
                solution=sol, converged=True, iterations=it - 1,
                residual_inf=rnorm, eps_path=[spec.eps],
                min_interior=float(u.min()), diagnostics={"method": "newton"},
            )
        try:
            step = spec.grid.jacobian(*_linearization(spec, u)).solve(-r)
        except (RuntimeError, ValueError) as exc:  # see Jacobian.solve
            raise ConvergenceError(
                f"Jacobian factorization failed: {exc}",
                residual=rnorm, iterations=it,
            ) from exc
        t = 1.0
        for _ in range(_TRIAL_STEPS):
            cand = u + t * step
            if spec.eps > 0:
                cand = np.maximum(cand, floor)
            elif cand.min() <= 0.0:
                t *= 0.5
                continue
            Au_new, r_new = _residual(spec, cand)
            n_new = float(np.max(np.abs(r_new)))
            if n_new < (1.0 - 1e-4 * t) * rnorm:
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                "Newton line search stagnated", residual=rnorm, iterations=it
            )
        u, Au, r, rnorm = cand, Au_new, r_new, n_new
    raise ConvergenceError(
        "Newton did not converge", residual=rnorm, iterations=max_iter
    )


def default_shift(spec, sub, super_):
    """Sampled one-sided Lipschitz bound (96 log-spaced levels, times 1.5) of
    s -> -K g(s+eps) + lambda f(x, s) over [min sub, max super].

    The monotone sweep needs D >= sup_s d/ds [K g(s+eps) - lambda f(x,s)];
    only the negative-K regime makes this positive (there -K g is a large
    decreasing term near s = 0)."""
    sub_vals = sub.values if isinstance(sub, Field) else np.asarray(sub)
    super_vals = super_.values if isinstance(super_, Field) else np.asarray(super_)
    lo = max(float(np.min(sub_vals)), 0.0)
    hi = float(np.max(super_vals))
    if hi <= lo:
        hi = lo + 1.0
    lo_eff = max(lo, 1e-12) if spec.eps == 0.0 else lo
    s_vals = np.geomspace(max(lo_eff, 1e-12), max(hi, 1e-9), 96)
    K = spec.k_nodal()
    worst = 0.0
    for s in s_vals:
        sv = np.full(spec.grid.n_total, s)
        cand = (float(np.max(K * spec.dg_at(sv + spec.eps)))
                - spec.lam * float(np.min(spec.df_at(sv))))
        worst = max(worst, cand)
    return 1.5 * worst


def monotone_iterate(spec, sub, super_, tol=1e-10, max_iter=50000,
                     res_tol=1e-8, from_super=False):
    """Shifted fixed-point sweep between an ordered sub/super pair.

    Starts from `sub` (or `super_` with from_super=True), stops when the
    sup-norm increment falls below `tol`, and reports convergence when
    the equation residual is below `res_tol`.  Iterate monotonicity and
    staying inside the bracket are recorded in diagnostics, not enforced:
    the lagged convection term can break both, and that is worth seeing.
    Raises OrderingError if sub > super anywhere.
    """
    grid = spec.grid
    sub_v = np.asarray(sub.values if isinstance(sub, Field) else sub, dtype=float)
    sup_v = np.asarray(super_.values if isinstance(super_, Field) else super_,
                       dtype=float)
    gap = float(np.max(sub_v - sup_v))
    if gap > 1e-12 * max(1.0, float(np.max(np.abs(sup_v)))):
        raise OrderingError(f"sub exceeds super by {gap:.3e}")
    D = default_shift(spec, sub_v, sup_v)
    A = grid.neg_laplacian()
    M = splu((A + D * sp.identity(grid.n_total, format="csr")).tocsc())
    u = (sup_v if from_super else sub_v).copy()
    slack = 1e-10 * max(1.0, float(np.max(np.abs(sup_v))))
    monotone = True
    inside = True
    it = 0
    for it in range(1, max_iter + 1):
        u_next = M.solve(D * u - nonlinear_part(spec, u))
        if from_super:
            monotone &= bool(np.all(u_next <= u + slack))
        else:
            monotone &= bool(np.all(u_next >= u - slack))
        inside &= bool(np.all(u_next >= sub_v - slack) and
                       np.all(u_next <= sup_v + slack))
        inc = float(np.max(np.abs(u_next - u)))
        u = u_next
        if inc < tol:
            # the increment understates the error by a factor ~ D/lambda_1;
            # keep sweeping until the equation residual agrees or the
            # increment reaches the noise floor of the iterate scale
            if float(u.min()) + spec.eps <= 0:
                break
            res_now = float(np.max(np.abs(residual(spec, Field(grid, u)).values)))
            if res_now < res_tol or inc < 1e-15 * max(1.0, float(np.max(np.abs(u)))):
                break
    sol = Field(grid, u)
    positive = float(u.min()) + spec.eps > 0
    res = float(np.max(np.abs(residual(spec, sol).values))) if positive else np.inf
    return SolveReport(
        solution=sol,
        converged=bool(res < res_tol and positive),
        iterations=it,
        residual_inf=res,
        eps_path=[spec.eps],
        min_interior=float(u.min()),
        diagnostics={
            "method": "monotone",
            "shift": D,
            "monotone": monotone,
            "bracket_escape": not inside,
        },
    )


def default_schedule(steps=12, eps0=0.1):
    """The continuation ladder eps_k = eps0 * 2^-k."""
    return [eps0 * 2.0**-k for k in range(steps)]


def _picard_rescue(spec, u0, sweeps=300, relax=0.5):
    """Relaxed Poisson sweeps with a positivity floor; used to coax a
    warm start into Newton's basin after a failed stage."""
    floor = 0.01 * spec.eps if spec.eps > 0 else 1e-12
    u, _, _ = fixed_point(spec.grid.lu(), lambda v: nonlinear_part(spec, v),
                          np.maximum(np.asarray(u0, dtype=float), floor),
                          relax=relax, floor=floor, tol=1e-12, max_iter=sweeps)
    return u


def _initial_iterate(spec):
    """Sub-solution when the regime offers one, else scaled phi_1."""
    from .constructions import build_subsolution_convection, build_subsolution_eigen
    from .errors import SelabError

    try:
        if spec.regime() == "negative":
            return build_subsolution_convection(spec).field.values.copy(), "sub-convection"
        sub = build_subsolution_eigen(spec)
        return sub.field.values.copy(), "sub-eigen"
    except SelabError:
        pair = first_eigenpair(spec.grid)
        return 0.5 * pair.phi1.values.copy(), "phi1-scaled"


def solve_with_continuation(spec, schedule=None, tol=1e-10, path_tol=None,
                            initial=None, max_iter=60):
    """Walk eps down the schedule with warm starts; see module docstring.

    `tol` is the per-stage Newton residual tolerance.  `path_tol` bounds
    the final consecutive-stage difference (the Cauchy check); the
    default 5 sqrt(eps_final) tracks the physical eps-sensitivity of the
    boundary layer, which dwarfs solver tolerances.

    The report's verdict lives in diagnostics["verdict"]:
    "converged" or "nonexistence-indicated" with a mode among
    "collapse" (positivity lost / minimum below eps_final),
    "stagnation" (a stage refused to converge without losing positivity),
    "path-divergence" (stages converged but the eps-tail is not Cauchy),
    "mass-divergence" (stages converged but the integral of g(u+eps)
    grows at a sustained per-halving rate or overflows; in the
    positive-K regime a true limit solution must keep this mass bounded,
    so divergence indicates the eps-family has no positive limit even
    though every regularized stage solves).  Nonexistence is indicated,
    never proved.
    """
    if schedule is None:
        schedule = default_schedule()
    schedule = [float(e) for e in schedule]
    if not schedule or any(e <= 0 for e in schedule) or any(
        b >= a for a, b in zip(schedule, schedule[1:])
    ):
        raise ValueError("schedule must be nonempty, positive and strictly "
                         "decreasing")
    eps_final = schedule[-1]
    if path_tol is None:
        path_tol = 5.0 * np.sqrt(eps_final)

    if initial is not None:
        u, init_kind = np.asarray(
            initial.values if isinstance(initial, Field) else initial,
            dtype=float).copy(), "caller"
    else:
        u, init_kind = _initial_iterate(spec.with_eps(schedule[0]))

    total_iters = 0
    eps_done = []
    increments = []
    stage_stats = []
    prev_solution = None
    failure_mode = None
    last_residual = np.inf
    solution = Field(spec.grid, u)
    try:
        positive_regime = spec.regime() == "positive"
    except Exception:
        positive_regime = False
    eps_monotone = True if positive_regime else None
    envelope = None

    def stage_initials(stage, warm):
        yield "warm", warm
        yield "picard", _picard_rescue(stage, warm)
        # descending from the gradient-free super-solution is in Newton's
        # basin for sublinear f even when the warm start sits where
        # lambda f'(u) > lambda_1 and the Jacobian goes indefinite
        nonlocal envelope
        if positive_regime:
            if envelope is None:
                from .constructions import build_supersolution
                try:
                    envelope = build_supersolution(spec).field.values
                except SelabError:
                    envelope = False
            if envelope is not False:
                yield "envelope", envelope.copy()

    for eps in schedule:
        stage = spec.with_eps(eps)
        report = None
        picard_u = None
        for kind, attempt in stage_initials(stage, u):
            if kind == "picard":
                picard_u = attempt
            try:
                report = newton_solve(stage, Field(spec.grid, attempt), tol=tol,
                                      max_iter=max_iter)
                break
            except ConvergenceError as exc:
                # the message, not the exception: its traceback holds this
                # frame, and keeping it would make a reference cycle
                last_error = str(exc)
        if report is None:
            floor_frac = float(np.mean(picard_u <= 0.011 * eps)) \
                if (eps > 0 and picard_u is not None) else 0.0
            failure_mode = "collapse" if floor_frac > 0 else "stagnation"
            log.info("continuation stage eps=%.3e failed (%s): %s",
                     eps, failure_mode, last_error)
            break
        total_iters += report.iterations
        last_residual = report.residual_inf
        if prev_solution is not None:
            increments.append(float(np.max(np.abs(
                report.solution.values - prev_solution))))
            if positive_regime:
                # shrinking eps strengthens K g(u+eps), so stages descend
                eps_monotone &= bool(np.all(
                    report.solution.values <= prev_solution + 1e-8))
        prev_solution = report.solution.values.copy()
        u = report.solution.values.copy()
        solution = report.solution
        eps_done.append(eps)
        stage = {
            "eps": eps,
            "min": float(u.min()),
            "max": float(u.max()),
            "iterations": report.iterations,
        }
        if positive_regime:
            stage["mass"] = mass_integral(spec.singular, report.solution, eps)
        stage_stats.append(stage)

    min_interior = float(solution.values.min())
    all_stages = len(eps_done) == len(schedule)
    cauchy = bool(increments and increments[-1] < path_tol) or len(schedule) == 1
    positive = min_interior > eps_final
    mass_fitted = None
    mass_factors = []
    mass_divergent = False
    if positive_regime and all_stages and len(stage_stats) >= 2:
        mass_factors, mass_fitted, mass_divergent = mass_trend(
            eps_done, [s["mass"] for s in stage_stats])
    if all_stages and cauchy and positive and not mass_divergent:
        verdict, mode = "converged", None
    else:
        verdict = "nonexistence-indicated"
        if failure_mode is not None:
            mode = failure_mode
        elif not positive:
            mode = "collapse"
        elif mass_divergent:
            mode = "mass-divergence"
        else:
            mode = "path-divergence"
    return SolveReport(
        solution=solution,
        converged=(verdict == "converged"),
        iterations=total_iters,
        residual_inf=last_residual,
        eps_path=eps_done,
        min_interior=min_interior,
        diagnostics={
            "verdict": verdict,
            "mode": mode,
            "initial": init_kind,
            "increments": increments,
            "stages": stage_stats,
            "path_tol": path_tol,
            "eps_monotone": eps_monotone,
            "mass_fitted": mass_fitted,
            "mass_factors": mass_factors,
        },
    )
