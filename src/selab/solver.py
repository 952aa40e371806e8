"""Solvers for the regularized problem

    -Lap(u) + K(x) g(u + eps) + |grad u|^a = lambda f(x, u) + source

on a Dirichlet grid, written A u + N(u) = 0 with A the -Laplacian and
N(u) = |grad u|^a - psi(x, u) - source, psi = lambda f - K g(. + eps) the
spec's `ProblemSpec.psi`.  `nonlinear_part` is the one place N(u) is
assembled, and `fixed_point` the one unmixed sweep
u <- max((1-relax) u - relax A^-1 N(u), floor), stopped by `settled`:
relaxed and clipped for the Picard rescue, plain for the convection
sub-solution, where a < 1 makes |grad u|^a too rough to mix.
`anderson_fixed_point` is its plain sweep (relax 1, no floor) with
depth-1 Anderson mixing, behind the super-solution (and so the
comparison suite, the envelope and the mass diagnostic), whose plain
sweeps contract only by about the reaction's exponent p.  A^-1 is
the grid's `Grid.lu` (on a rectangle, sine transforms: nothing is
factored), whose solves refuse a non-finite N(u), so the sweep stops
there.  Every other linear solve here is a `Grid.factor` of the same
stencil.  Two layers decide a verdict:

* `newton_solve` - damped Newton with the analytic Jacobian
  A + diag(-psi'(u)) + sum_k diag(w_k) D_k, where the last sum
  linearizes |grad u|^a through the central differences D_k.
  It is a stencil on A's neighbours, so `Grid.factor` forms its
  coefficients on every iteration, and nothing else.  On intervals they
  are a tridiagonal band, factored every time by LAPACK `dgttrf`.  On
  rectangles they are a `grid.Stencil`, which GMRES applies without
  assembling a matrix, solved by Newton-Krylov with a lagged factor
  (`grid.LaggedFactor`):
  GMRES preconditioned by A^-1 (`Grid.lu`, the fast Poisson solve: the
  Jacobian is A plus lower-order terms) or, once that falls short, by the
  last exact Jacobian factor.  One such chain serves a whole continuation.
  GMRES solves each step only as far as Newton's progress calls for: an
  inexact Newton method (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
  Anal. 19, 1982) whose forcing terms follow the residual's observed
  decrease (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996).
  Backtracking line search on the residual sup-norm, steps clipped so
  u stays >= 0.01 eps while eps > 0, and at most 8 trial steps per
  iteration before a stagnating solve gives up (see `newton_solve`).
  Every Newton solve, and every point of `branch_fold`, stops at one
  rule, |r|_inf < 1e-10 max(1, |A u|_inf) (`_newton_targets`).
* `solve_with_continuation` - walks eps down one fixed ladder,
  `default_schedule()`: eps_k = 0.1 * 2^-k for k < 12.  The ladder is
  not a caller's choice, because the verdict's two tail tests need its
  length and its geometry: `mass.tail_trend` calls a mass tail
  divergent only from five geometric stages, and the Cauchy test reads
  the increment between the last two.  A shorter ladder skips both and
  reads "converged" where no solution exists.  ROADMAP item 10 is to
  size the ladder from the grid.  The walk starts from c phi_1: for
  K > 0, c is where the projection of the equation onto phi_1 turns
  from negative to nonnegative (`opening_amplitude`), and 0.5 where it
  does not or K < 0.
  From the third stage on, Newton starts from a predictor, the
  polynomial in eps through the last (up to) three stage solutions
  (`extrapolate`; Allgower & Georg, Numerical Continuation Methods,
  1990), given a corrector's budget of Newton steps.  In the first two
  stages, and where the predictor fails, it starts warm from the last
  solution, then after a Picard rescue and, for K > 0, from the
  gradient-free envelope.
  "converged" demands a Cauchy tail in eps and an interior minimum clear
  of eps_final, otherwise the run is reported nonexistence-indicated with
  its mode.  The eps = 0 singular limit is approached, never evaluated.

`monotone_iterate` is on no verdict path: it pinches an ordered
sub/super pair into a solution (the K < 0 brackets of
demos/negative_potential_bracket.py and of verdictbench's certify
workload).  With a per-node shift D_i bounding the slope -psi'(x_i, s)
from above on node i's own range [sub_i, super_i] (the sector condition
of the monotone scheme: Sattinger, Indiana Univ. Math. J. 21, 1972; Pao,
Nonlinear Parabolic and Elliptic Equations, 1992, ch. 3), each sweep
solves (A + diag(D)) u_{k+1} = D u_k - N(u_k) on one `Grid.factor` of the
M-matrix A + diag(D); the pinch starts from the sub-solution, so the
iterates ascend.  D is large only where sub is near 0, next to the
boundary, so the sweep count does not grow with the grid.  The convection term is lagged (it has no
one-sided structure), which is why bracket escape is recorded as a
diagnostic instead of assumed away.

`branch_fold` follows the branch of solutions at one eps down in lambda
to its fold, by Newton on the Jacobian bordered by the lambda-derivative
and a parametrizing row, each step two solves of one `Grid.factor`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (
    ConvergenceError,
    OrderingError,
    RegimeError,
    SelabError,
    SingularEvaluationError,
)
from .grid import Field, LaggedFactor, magnitude
from .mass import mass_integral, tail_trend
from .spectral import first_eigenpair

log = logging.getLogger(__name__)

_GRAD_FLOOR = 1e-14
# Newton's stopping rule: see `_newton_targets`
_NEWTON_TOL = 1e-10
# Newton steps of a solve, and the residual at which a monotone sweep's
# report counts as converged
_NEWTON_STEPS = 60
_MONOTONE_RES_TOL = 1e-8
# a monotone pinch's sweep increment at which it checks the residual, and
# its sweep budget (see `monotone_iterate`)
_PINCH_TOL = 1e-10
_PINCH_SWEEPS = 50000
# line-search trial steps per Newton iteration, t = 1, 1/2, ..., 2^-7;
# the reason for 8 is in `newton_solve`
_TRIAL_STEPS = 8
# the loosest relative residual a Newton step's GMRES solve may stop at
# (the first step's forcing term); see `newton_solve`
_FORCING_MAX = 1e-4
# Newton steps per point of a traced branch (see `branch_fold`) and from a
# predicted continuation stage (see `solve_with_continuation`), and points
# per trace and per fold localization
_CORRECTOR_STEPS = 8
_TRACE_POINTS = 60
# the first eps of the continuation ladder (see `default_schedule`)
_EPS_START = 0.1
# nodal values per psi call of the opening amplitude's scan (see
# `opening_amplitude`): 16 KB a temporary
_SCAN_VALUES = 2048


@dataclass
class SolveReport:
    """Outcome of a solve; `converged` implies residual_inf below the
    solver's tolerance and a strictly positive interior minimum."""

    solution: Field
    converged: bool
    iterations: int
    residual_inf: float
    eps_path: list
    min_interior: float
    diagnostics: dict = dataclass_field(default_factory=dict)


def nonlinear_part(spec, u, comps=None):
    """N(u) = |grad u|^a - psi(x,u) - source as an array, psi = lambda f -
    K g(. + eps) the spec's zeroth-order part: every term of the equation
    but the -Laplacian.  `comps`, the central differences of u, are taken
    here unless the caller already has them."""
    if comps is None:
        comps = spec.grid.central_differences(u)
    n = magnitude(comps)**spec.conv_a - spec.psi(u)
    if spec.source is not None:
        n = n - spec.source.values
    return n


def _residual(spec, u):
    """(A u, A u + N(u)) for an array u; see `residual`.  The stencils of
    A u and of the gradient are taken together, from one padded u on an
    interval."""
    if float(u.min()) + spec.eps <= 0.0:
        raise SingularEvaluationError(
            f"g would be evaluated at min(u)+eps = {float(u.min()) + spec.eps:.3e} <= 0"
        )
    Au, comps = spec.grid.residual_stencils(u)
    return Au, Au + nonlinear_part(spec, u, comps)


def residual(spec, field):
    """Pointwise residual A u + N(u) of the regularized equation as a Field.

    Requires u + eps > 0 wherever g is evaluated; otherwise raises
    SingularEvaluationError (for eps = 0 this is interior positivity).
    """
    return Field(spec.grid, _residual(spec, np.asarray(field.values, dtype=float))[1])


def settled(u, inc, tol):
    """The fixed-point stop, inc < tol max(1, |u|_inf) (never for a NaN inc):
    relative, since the super-solution reaches 1e4 at lambda = 1000."""
    return inc < tol * max(1.0, float(np.abs(u).max()))


def fixed_point(lu, nonlinear, u, *, relax=1.0, floor=None, tol, max_iter):
    """Relaxed, clipped sweep for A u + N(u) = 0:

        u <- max((1-relax) u - relax A^-1 N(u), floor)

    `lu` is the grid's `Factor` of A and `nonlinear` maps an array u to
    N(u).  Stops once `settled`, or at the first non-finite N(u), which
    leaves u at the last finite iterate and the increment infinite.
    Returns (u, sweeps, last_increment); `not settled(u, last_increment,
    tol)` is a failure.
    """
    inc = np.inf
    sweep = 0
    for sweep in range(1, max_iter + 1):
        n_u = nonlinear(u)
        try:
            u_new = (1.0 - relax) * u - relax * lu.solve(n_u)
        except ValueError:  # N(u) is not finite
            return u, sweep - 1, np.inf
        if floor is not None:
            u_new = np.maximum(u_new, floor)
        inc = float(np.abs(u_new - u).max())
        u = u_new
        if settled(u, inc, tol):
            break
    return u, sweep, inc


def anderson_fixed_point(lu, nonlinear, u, *, tol, max_iter):
    """`fixed_point`'s plain sweep g_k = -A^-1 N(u_k) with depth-1
    Anderson mixing (Anderson, J. ACM 12, 1965; Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011): with f_k = g_k - u_k and df = f_k - f_{k-1},

        u_{k+1} = g_k - gamma (g_k - g_{k-1}),  gamma = <df, f_k> / <df, df>,

    where the increment |f_k|_inf fell below the sweep's before, and
    u_{k+1} = g_k elsewhere (the first sweep, df = 0, and a growing
    increment: a secant step taken while the sweeps still grow, from
    phi_1 at large lambda, overshoots onto the trivial fixed point 0).
    Stops like `fixed_point`, once the increment |g_k - u_k|_inf is
    `settled`, returning g_k, or at the first non-finite N(u).  Returns
    (u, sweeps, last_increment).
    """
    g = u
    g_prev = f_prev = None
    inc = inc_prev = np.inf
    sweep = 0
    for sweep in range(1, max_iter + 1):
        try:
            g = -lu.solve(nonlinear(u))
        except ValueError:  # N(u) is not finite
            return u, sweep - 1, np.inf
        f = g - u
        inc = float(np.abs(f).max())
        if settled(g, inc, tol):
            break
        u = g
        if f_prev is not None and inc < inc_prev:
            df = f - f_prev
            dd = float(df @ df)
            if dd > 0.0:
                u = g - (float(df @ f) / dd) * (g - g_prev)
        g_prev, f_prev, inc_prev = g, f, inc
    return g, sweep, inc


def _linearization(spec, u):
    """(d, [w_k]) with N'(u) = diag(d) + sum_k diag(w_k) D_k: d = -psi'(u)
    from the zeroth-order part, w_k = a |grad u|^(a-2) (D_k u) from
    |grad u|^a (0 where the gradient vanishes)."""
    comps = spec.grid.central_differences(u)
    mag = magnitude(comps)
    a = spec.conv_a
    safe = np.maximum(mag, _GRAD_FLOOR)
    return -spec.dpsi(u), [np.where(mag > _GRAD_FLOOR, a * safe ** (a - 2.0) * comp,
                                    0.0) for comp in comps]


def _newton_targets(Au):
    """(stop, krylov) for a Newton iterate u with stencil A u: a Newton
    solve is done once |r|_inf < stop = _NEWTON_TOL max(1, |A u|_inf),
    and a step's GMRES may stop at an absolute 2-norm residual of
    krylov, a tenth of it.  The tolerance is relative to the stiffness
    scale max(1, |A u|_inf): assembling the residual of a field of
    amplitude U already carries rounding noise of order U/h^2 times
    machine epsilon, so an absolute target below that is unreachable."""
    scale = max(1.0, float(np.abs(Au).max()))
    return _NEWTON_TOL * scale, 0.1 * _NEWTON_TOL * scale


def newton_solve(spec, initial, max_iter=_NEWTON_STEPS, lagged=None):
    """Damped Newton from `initial`; returns a SolveReport.

    Backtracks through at most 8 steps t = 1, 1/2, ..., 2^-7 until the
    residual sup-norm drops below (1 - 1e-4 t) times its current value
    and positivity of u + eps survives; while eps > 0 iterates are
    clipped at the floor 0.01 eps.  The budget is measured: over the
    benchmark workloads and a fine-grid ladder (0.25 <= a <= 2), the
    shortest step a successful solve accepts is t = 1/32, in two
    first-stage solves of the lambda-axis workload (lambda near 17,
    n = 72 and 96); after the first iteration it is t = 1/16, in a < 1
    solves on rectangles.  So 2^-7 leaves a factor 4 of room.  The steps
    tried are a prefix of an unbounded halving, so a solve that succeeds
    within the budget is unchanged by it; a stage with no solution, about
    half of every lambda* bracket, gives up after 8 residual evaluations
    per iteration instead of 31.  The solve stops at the residual of
    `_newton_targets`.  Raises ConvergenceError on stagnation or a
    singular Jacobian.

    On a rectangle each step's Jacobian is solved by GMRES preconditioned
    by `lagged`: A^-1 until GMRES on it falls short, then the last exact
    Jacobian factor, made only when GMRES falls short and made afresh
    each time it does again (see `grid.LaggedFactor`).  A continuation
    passes one along its stages, and by default each solve starts its
    own.  GMRES stops at the relative residual eta_k (the forcing term)
    or at a tenth of the stopping target (`_newton_targets`), whichever
    is looser: eta_0 = 1e-4, then eta_k = min(1e-4, 0.9 (|r_k|_inf /
    |r_k-1|_inf)^2), Eisenstat & Walker's choice 2 with gamma = 0.9 and
    alpha = 2, never below 1e-12.  Their usual cap of 0.1 in place of
    1e-4 adds Newton steps on rectangles and saves no time.  Interval
    Jacobians are factored exactly, and ignore both targets.
    """
    if lagged is None:
        lagged = LaggedFactor()
    u = np.asarray(initial.values if isinstance(initial, Field) else initial,
                   dtype=float).copy()
    floor = 0.01 * spec.eps if spec.eps > 0 else 0.0
    if spec.eps > 0:
        u = np.maximum(u, floor)
    Au, r = _residual(spec, u)
    rnorm = float(np.abs(r).max())
    forcing = _FORCING_MAX
    # the residual after the last allowed step is checked too
    for it in range(1, max_iter + 2):
        stop, krylov = _newton_targets(Au)
        if rnorm < stop:
            sol = Field(spec.grid, u)
            return SolveReport(
                solution=sol, converged=True, iterations=it - 1,
                residual_inf=rnorm, eps_path=[spec.eps],
                min_interior=float(u.min()), diagnostics={"method": "newton"},
            )
        if it > max_iter:
            break
        try:
            step = spec.grid.factor(*_linearization(spec, u), lagged).solve(
                -r, forcing, krylov)
        except (RuntimeError, ValueError) as exc:  # see Grid.factor
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
            n_new = float(np.abs(r_new).max())
            if n_new < (1.0 - 1e-4 * t) * rnorm:
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                "Newton line search stagnated", residual=rnorm, iterations=it
            )
        forcing = min(_FORCING_MAX, 0.9 * (n_new / rnorm) ** 2)
        u, Au, r, rnorm = cand, Au_new, r_new, n_new
    raise ConvergenceError(
        "Newton did not converge", residual=rnorm, iterations=max_iter
    )


def default_shift(spec, sub, super_):
    """Per-node shift of the monotone sweep, an array of shape (n_total,):
    D_i = 1.5 max(0, max_j -psi'(x_i, s_ij)), with -psi' = K g'(s+eps) -
    lambda f_s, over 96 log-spaced levels s_ij spanning node i's own
    range [sub_i, super_i].

    The sweep needs D_i >= sup_s d/ds [K_i g(s+eps) - lambda f(x_i,s)] over
    that range, node by node; only the negative-K regime makes this
    positive (there -K g is a large decreasing term near s = 0), and only
    where sub_i is small."""
    sub_vals = np.asarray(sub.values if isinstance(sub, Field) else sub, dtype=float)
    super_vals = np.asarray(super_.values if isinstance(super_, Field) else super_,
                            dtype=float)
    lo = np.maximum(sub_vals, 0.0)
    hi = np.where(super_vals > lo, super_vals, lo + 1.0)
    worst = np.zeros(spec.grid.n_total)
    for s in np.geomspace(np.maximum(lo, 1e-12), np.maximum(hi, 1e-9), 96):
        worst = np.maximum(worst, -spec.dpsi(s))
    return 1.5 * worst


def monotone_iterate(spec, sub, super_):
    """Shifted fixed-point sweep rising from `sub` inside an ordered
    sub/super pair.

    Stops when the sup-norm increment falls below _PINCH_TOL = 1e-10 (or
    after _PINCH_SWEEPS = 50000 sweeps), and reports convergence when the
    equation residual is below _MONOTONE_RES_TOL = 1e-8.  Every sweep
    solves one `Grid.factor` of A + diag(D): on a rectangle by GMRES on
    A^-1 until it falls short, then by the exact factor that makes.  Iterate
    monotonicity and staying inside the bracket are recorded in
    diagnostics, not enforced: the lagged convection term can break both,
    and that is worth seeing.
    Where g overflows on the bracket (shifted-exp g near s = 0) the shift
    or a sweep is not finite; the sweep stops there and the report is not
    converged.  Raises OrderingError if sub > super anywhere.
    """
    grid = spec.grid
    sub_v = np.asarray(sub.values if isinstance(sub, Field) else sub, dtype=float)
    sup_v = np.asarray(super_.values if isinstance(super_, Field) else super_,
                       dtype=float)
    gap = float(np.max(sub_v - sup_v))
    if gap > 1e-12 * max(1.0, float(np.max(np.abs(sup_v)))):
        raise OrderingError(f"sub exceeds super by {gap:.3e}")
    D = default_shift(spec, sub_v, sup_v)
    u = sub_v.copy()
    slack = 1e-10 * max(1.0, float(np.max(np.abs(sup_v))))
    monotone = True
    inside = True
    it = 0
    try:
        factor = grid.factor(D, ())
        for it in range(1, _PINCH_SWEEPS + 1):
            u_next = factor.solve(D * u - nonlinear_part(spec, u))
            monotone &= bool(np.all(u_next >= u - slack))
            inside &= bool(np.all(u_next >= sub_v - slack) and
                           np.all(u_next <= sup_v + slack))
            inc = float(np.max(np.abs(u_next - u)))
            u = u_next
            if inc < _PINCH_TOL:
                # the increment understates the error by up to ~ max D/lambda_1;
                # keep sweeping until the equation residual agrees or the
                # increment reaches the noise floor of the iterate scale
                if float(u.min()) + spec.eps <= 0:
                    break
                res_now = float(np.max(np.abs(
                    residual(spec, Field(grid, u)).values)))
                if res_now < _MONOTONE_RES_TOL or inc < 1e-15 * max(
                        1.0, float(np.max(np.abs(u)))):
                    break
    except ValueError:
        pass  # g overflowed on the bracket, so D or N(u) is not finite
    sol = Field(grid, u)
    positive = float(u.min()) + spec.eps > 0
    res = float(np.max(np.abs(residual(spec, sol).values))) if positive else np.inf
    return SolveReport(
        solution=sol,
        converged=bool(res < _MONOTONE_RES_TOL and positive),
        iterations=it,
        residual_inf=res,
        eps_path=[spec.eps],
        min_interior=float(u.min()),
        diagnostics={
            "method": "monotone",
            "shift": float(D.max()),
            "monotone": monotone,
            "bracket_escape": not inside,
        },
    )


def default_schedule(steps=12):
    """The continuation ladder eps_k = 0.1 * 2^-k, k < steps."""
    return [_EPS_START * 2.0**-k for k in range(steps)]


def _picard_rescue(spec, u0):
    """300 Poisson sweeps relaxed by 1/2, with a positivity floor; used to
    coax a warm start into Newton's basin after a failed stage."""
    floor = 0.01 * spec.eps if spec.eps > 0 else 1e-12
    u, _, _ = fixed_point(spec.grid.lu(), lambda v: nonlinear_part(spec, v),
                          np.maximum(np.asarray(u0, dtype=float), floor),
                          relax=0.5, floor=floor, tol=1e-12, max_iter=300)
    return u


def _halvings(lo, hi, iters, moves_hi):
    """The cell [lo, hi] after at most `iters` bisections, each at
    mid = 0.5 (lo + hi): mid becomes hi where `moves_hi(mid)`, lo
    elsewhere.  A mid equal to an end stops the bisection early (float
    resolution: every further step would leave both ends in place)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if moves_hi(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def opening_amplitude(stage, pair):
    """The amplitude c at which a positive-K continuation opens, c phi_1,
    or None.  `stage` is the spec at the first eps, `pair` its grid's
    `first_eigenpair`.

    c is the largest c > 0 at which the one-mode projection of the
    equation onto phi_1 (the integral-of-u-phi_1 test of the
    nonexistence results) turns from negative to nonnegative:

        F(c) = <phi_1, A(c phi_1) + |grad(c phi_1)|^a - psi(c phi_1) - source>
             = c lambda_1 <phi_1, phi_1> + c^a <phi_1, |grad phi_1|^a>
               - <phi_1, psi(c phi_1) + source>,

    since A phi_1 = lambda_1 phi_1, so each F(c) is one psi.  There
    F'(c) >= 0: the projected Jacobian is not negative, as at the maximal
    solution, where 0.5 phi_1 can sit where lambda f'(u) > lambda_1 and
    Newton's Jacobian is indefinite.  The scan runs down c = 2^20, 2^19,
    ..., 2^-10 to the first F(c) < 0, then 8 bisections of [c, 2c] give
    the end at which F >= 0 (a NaN F counts as nonnegative).  None when
    no scanned F is negative (no one-mode solution) or the first one is,
    at 2^20.  The scan takes as many c at once as fit in _SCAN_VALUES
    nodal values: a sweep's small grids in one or two psi calls, a fine
    grid or a rectangle one c at a time.
    """
    phi = pair.phi1.values
    linear = pair.lambda1 * float(phi @ phi)
    convection = float(phi @ magnitude(
        stage.grid.central_differences(phi))**stage.conv_a)
    source = 0.0 if stage.source is None else float(phi @ stage.source.values)

    def projection(c):
        # F at each amplitude of the 1-d array c
        return c * linear + c**stage.conv_a * convection \
            - stage.psi(np.multiply.outer(c, phi)) @ phi - source

    scan = 2.0 ** np.arange(20, -11, -1)
    block = max(1, _SCAN_VALUES // phi.size)
    for start in range(0, scan.size, block):
        negative = np.flatnonzero(projection(scan[start:start + block]) < 0.0)
        if negative.size:
            k = start + negative[0]
            if k == 0:
                return None
            return _halvings(scan[k], scan[k - 1], 8,
                             lambda mid: not projection(np.array([mid]))[0] < 0.0)[1]
    return None


def extrapolate(path, eps):
    """The Lagrange polynomial in eps through the points (eps_j, u_j) of
    `path`, evaluated at `eps`: the predictor of a continuation stage."""
    start = 0.0
    for j, (eps_j, u_j) in enumerate(path):
        weight = 1.0
        for m, (eps_m, _) in enumerate(path):
            if m != j:
                weight *= (eps - eps_m) / (eps_j - eps_m)
        start = start + weight * u_j
    return start


def solve_with_continuation(spec, initial=None):
    """Walk eps down the ladder `default_schedule()`; see the module
    docstring for why it is fixed.

    Each stage is a `newton_solve`.  The Cauchy check bounds the final
    consecutive-stage difference by 5 sqrt(eps_final) (diagnostics
    ["path_tol"]): that bound tracks the physical eps-sensitivity of the
    boundary layer, which dwarfs the solver's tolerance.

    The report's verdict lives in diagnostics["verdict"]:
    "converged" or "nonexistence-indicated" with a mode among
    "collapse" (positivity lost / minimum below eps_final),
    "stagnation" (a stage refused to converge without losing positivity),
    "path-divergence" (stages converged but the eps-tail is not Cauchy),
    "mass-divergence" (stages converged but the stage masses, integrals
    of g(u+eps), form a divergent tail by `mass.tail_trend`; in the
    positive-K regime a true limit solution must keep this mass
    bounded).  diagnostics
    ["mass_factors"], ["mass_fitted"] and ["mass_tail"] are tail_trend's
    ratios, rho and tail.  Nonexistence is indicated, never proved.
    diagnostics["solution"] says what the report's solution is: "stage",
    the last converged stage, or "start", the initial iterate, when the
    first stage already failed.

    Without a caller's `initial` the run opens at c phi_1
    (diagnostics["initial"] is "phi1-scaled").  In the positive-K regime
    c is `opening_amplitude` at the first eps.  At lambda well above
    lambda*, 0.5 phi_1 sits where lambda f'(u) > lambda_1, and the first
    stage's warm Newton from it stagnates: on theorem3, 39^2, lambda = 80,
    it spends 8 exact factorizations and 17 GMRES iterations before a
    Picard rescue of 80 sweeps, where from c phi_1 Newton converges in 3
    steps on 13 GMRES iterations and no factorization.  c is 0.5 where
    the projection has no crossing, and for K < 0.
    diagnostics["opening_amplitude"] holds c, and is None when the
    caller gave `initial`.

    Each stage tries its initial guesses in turn until Newton converges
    from one: "predicted", the `extrapolate` of the last three converged
    stages to the new eps (once two have converged); "warm", the last
    converged stage (or the start); "picard", the warm start after a
    Picard rescue; and, in the positive-K regime, "envelope", the
    gradient-free super-solution.  The predictor removes the first- and
    second-order parts of the eps-change that a warm start leaves to
    Newton, so a stage often takes one Newton step fewer.  Newton gets
    _CORRECTOR_STEPS steps from it, not _NEWTON_STEPS: for a < 1 a
    prediction can be far closer to the solution than the warm start and
    still take tens of steps, and its residual does not tell which
    (theorem1, a = 0.25, lambda = 10 on 31^2, last stage: residual 2e-5
    against 2e-2, and 40 steps against 4).

    One `grid.LaggedFactor` serves every Newton solve of the call, each
    stage's attempts alike.  Each entry of diagnostics["stages"] names the
    initial guess that won ("initial") and counts, over all of its
    stage's attempts, the exact Jacobian factorizations
    ("factorizations") and the GMRES iterations ("krylov_iterations") the
    stage spent.  It lists converged stages only;
    diagnostics["failed_stage"] holds the same counts for the stage that
    failed, with its eps and the initial guesses it tried in order
    ("initials"), and is None when every stage converged.
    """
    schedule = default_schedule()
    eps_final = schedule[-1]
    path_tol = 5.0 * np.sqrt(eps_final)

    try:
        positive_regime = spec.regime() == "positive"
    except RegimeError:
        positive_regime = False
    if initial is not None:
        u, init_kind = np.asarray(
            initial.values if isinstance(initial, Field) else initial,
            dtype=float).copy(), "caller"
        amplitude = None
    else:
        pair = first_eigenpair(spec.grid)
        amplitude = opening_amplitude(spec.with_eps(_EPS_START), pair) \
            if positive_regime else None
        if amplitude is None:
            amplitude = 0.5
        u, init_kind = amplitude * pair.phi1.values, "phi1-scaled"

    total_iters = 0
    eps_done = []
    increments = []
    stage_stats = []
    path = []  # (eps, solution) of the last three converged stages
    failure_mode = None
    failed_stage = None
    last_residual = np.inf
    solution = Field(spec.grid, u)
    eps_monotone = True if positive_regime else None
    envelope = None
    lagged = LaggedFactor()

    def stage_initials(stage, warm):
        if len(path) >= 2:
            yield "predicted", extrapolate(path, stage.eps)
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
        tried = []
        spent = (lagged.factorizations, lagged.krylov_iterations)
        for kind, attempt in stage_initials(stage, u):
            tried.append(kind)
            if kind == "picard":
                picard_u = attempt
            budget = _CORRECTOR_STEPS if kind == "predicted" else _NEWTON_STEPS
            try:
                report = newton_solve(stage, Field(spec.grid, attempt),
                                      max_iter=budget, lagged=lagged)
                break
            except ConvergenceError as exc:
                # the message, not the exception: its traceback holds this
                # frame, and keeping it would make a reference cycle
                last_error = str(exc)
        if report is None:
            floor_frac = float(np.mean(picard_u <= 0.011 * eps)) \
                if (eps > 0 and picard_u is not None) else 0.0
            failure_mode = "collapse" if floor_frac > 0 else "stagnation"
            failed_stage = {
                "eps": eps,
                "initials": tried,
                "factorizations": lagged.factorizations - spent[0],
                "krylov_iterations": lagged.krylov_iterations - spent[1],
            }
            log.info("continuation stage eps=%.3e failed (%s): %s",
                     eps, failure_mode, last_error)
            break
        total_iters += report.iterations
        last_residual = report.residual_inf
        if path:
            previous = path[-1][1]
            increments.append(float(np.max(np.abs(
                report.solution.values - previous))))
            if positive_regime:
                # shrinking eps strengthens K g(u+eps), so stages descend
                eps_monotone &= bool(np.all(
                    report.solution.values <= previous + 1e-8))
        path = path[-2:] + [(eps, report.solution.values)]
        u = report.solution.values.copy()
        solution = report.solution
        eps_done.append(eps)
        stage = {
            "eps": eps,
            "initial": kind,
            "min": float(u.min()),
            "max": float(u.max()),
            "iterations": report.iterations,
            "factorizations": lagged.factorizations - spent[0],
            "krylov_iterations": lagged.krylov_iterations - spent[1],
        }
        if positive_regime:
            stage["mass"] = mass_integral(spec.singular, report.solution, eps)
        stage_stats.append(stage)

    min_interior = float(solution.values.min())
    all_stages = len(eps_done) == len(schedule)
    cauchy = bool(increments and increments[-1] < path_tol)
    positive = min_interior > eps_final
    mass_factors, mass_fitted, mass_verdict, mass_tail = [], None, None, None
    if positive_regime and all_stages:
        mass_factors, mass_fitted, mass_verdict, mass_tail = tail_trend(
            eps_done, [s["mass"] for s in stage_stats])
    mass_divergent = mass_verdict == "divergent"
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
            "opening_amplitude": amplitude,
            "solution": "stage" if eps_done else "start",
            "increments": increments,
            "stages": stage_stats,
            "failed_stage": failed_stage,
            "path_tol": path_tol,
            "eps_monotone": eps_monotone,
            "mass_fitted": mass_fitted,
            "mass_factors": mass_factors,
            "mass_tail": mass_tail,
        },
    )


def _branch_point(spec, border, sigma, u, lam, lagged):
    """The solution (u, lam) of F(u, lam) = A u + N(u) = 0 at the spec's
    eps with <border, u> = sigma, by Newton on the bordered system from
    (u, lam), solving J through the chain `lagged`; see `branch_fold`.
    Returns (u, lam, x2), x2 = J^-1 f at the solution, or None when a
    Newton step fails: J singular or not finite, u + eps not positive,
    lam not positive, or a residual that does not fall."""
    grid = spec.grid
    previous = np.inf
    for it in range(_CORRECTOR_STEPS + 1):
        if not 0.0 < lam < np.inf:
            return None
        stage = spec.with_lambda(lam)
        try:
            Au, r = _residual(stage, u)
            jacobian = grid.factor(*_linearization(stage, u), lagged)
            x1 = jacobian.solve(-r)
            x2 = jacobian.solve(stage.f_at(u))
        except (SingularEvaluationError, RuntimeError, ValueError):
            return None
        rnorm = float(np.abs(r).max())
        if rnorm < _newton_targets(Au)[0]:
            return u, lam, x2
        if rnorm >= previous or it == _CORRECTOR_STEPS:
            return None
        previous = rnorm
        dlam = (sigma - float(border @ (u + x1))) / float(border @ x2)
        u = u + x1 + dlam * x2
        lam += dlam
    return None


def branch_fold(spec, initial, lambda_min):
    """lambda at the fold of the branch of solutions at the spec's eps
    that passes through `initial` at spec.lam, followed down in lambda;
    None when the branch falls below lambda_min before it turns, or a
    point of it is not found.

    A point of the branch F(u, lambda) = A u + N(u) = 0 solves F = 0 with
    one more equation <b, u> = sigma, by Newton on the bordered Jacobian
    [[J, -f], [b^T, 0]], J = F_u, solved by block elimination (Govaerts,
    Numerical Methods for Bifurcations of Dynamical Equilibria, SIAM
    2000, ch. 3): two solves of one `Grid.factor` of J, J x1 = -r and
    J x2 = f, then dlambda = (sigma - <b, u + x1>) / <b, x2> and
    du = x1 + dlambda x2.  At a solution x2 = du/dlambda along the
    branch, dlambda/dsigma = 1 / <b, x2>, and du/dsigma is x2 times that.
    Every J of the trace joins one `grid.LaggedFactor` chain (GMRES to
    1e-12 relative on a rectangle), as a Newton solve's do.

    Each step parametrizes the branch by the component of u along the
    last point's x2, b = x2 / |x2| (a local parametrization, as in
    Rheinboldt, Numerical Analysis of Parametrized Nonlinear Equations,
    Wiley 1986): far from the fold x2 is the branch's direction, and
    near it J^-1 f grows into J's null vector, so sigma stays a regular
    parameter through the turn.  A fixed row, such as the first
    eigenfunction's <phi_1, u>_h, turns too sharply where the null vector
    is unlike it: on a rectangle the null vector sits in the corners, and
    a trace on <phi_1, u>_h does not get round the fold of theorem3 on
    31^2.  Steps of sigma go the way lambda falls.  The first is a
    quarter of sigma, and each found point doubles the step, up to half
    of sigma.  A point not found quarters it (down to 1e-9 of sigma), and
    the next point found keeps it: near a sharp turn, doubling straight
    after a miss mostly misses again.

    The fold is where dlambda/dsigma changes sign (Moore & Spence, SIAM
    J. Numer. Anal. 17, 1980, solve for it as an extended system; here
    it is the root of the slope).  With b held at the last point before
    the turn, a secant on the slope, kept inside the bracket of the two
    points around the root, picks the next sigma; near the fold
    lambda(sigma) = lambda_f + slope^2 / (2 curvature) to leading order,
    and lambda_f is the last point's lambda less that term once the
    term is below 1e-10 lambda.
    """
    u = np.asarray(initial.values if isinstance(initial, Field) else initial,
                   dtype=float)
    size = float(np.linalg.norm(u))
    lagged = LaggedFactor()
    point = _branch_point(spec, u / size, size, u, spec.lam, lagged)
    if point is None:
        return None
    step, growth = 0.25, 2.0
    for _ in range(_TRACE_POINTS):
        size = float(np.linalg.norm(point[2]))
        border = point[2] / size
        sigma = float(border @ point[0])
        ds = -step * abs(sigma)
        slope = 1.0 / size
        turned = _branch_point(spec, border, sigma + ds,
                               point[0] + ds * slope * point[2],
                               point[1] + ds * slope, lagged)
        if turned is None:
            step *= 0.25
            if step < 1e-9:
                return None
            growth = 1.0
            continue
        if turned[1] < lambda_min:
            return None
        if float(border @ turned[2]) < 0.0:
            break
        point = turned
        step = min(0.5, growth * step)
        growth = 2.0
    else:
        return None

    def mark(p):
        return float(border @ p[0]), p, 1.0 / float(border @ p[2])

    before, after = mark(point), mark(turned)
    last, newest = before, after
    for _ in range(_TRACE_POINTS):
        lo, hi = after[0], before[0]
        curvature = (newest[2] - last[2]) / (newest[0] - last[0])
        sigma = newest[0] - newest[2] / curvature if curvature > 0.0 else lo
        if not lo < sigma < hi:
            sigma = 0.5 * (lo + hi)
            if not lo < sigma < hi:
                return None
        base = min(before, after, key=lambda m: abs(m[0] - sigma))
        ds = sigma - base[0]
        p = _branch_point(spec, border, sigma, base[1][0] + ds * base[2] * base[1][2],
                          base[1][1] + ds * base[2], lagged)
        if p is None:
            return None
        last, newest = newest, mark(p)
        if newest[2] > 0.0:
            before = newest
        else:
            after = newest
        if curvature > 0.0:
            drop = 0.5 * newest[2] ** 2 / curvature
            if drop <= 1e-10 * p[1]:
                return float(p[1] - drop)
    return None
