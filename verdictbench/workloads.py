"""The three workloads: their seeded inputs, their operations, and the
check each operation's output must pass.

An operation is one call a user would make (a bracket, a sweep, a CLI
solve, a diagnostic, a certificate).  `call` is the timed part and goes
through the `selab` package attributes at call time, so the traced run
sees the wrappers installed there.  `check` runs untimed and returns
(delivered, problems, verdict):

* delivered False - the program did not give the regime's answer; the
  operation counts as failed;
* problems - an answer was given but an independent check rejects it;
  any such problem makes the run incorrect;
* verdict - a short string the traced run must reproduce.

Every operation builds its problem (and so its grid) inside `call`:
grids cache their factorization and eigenpair, and a round that reused
the previous round's grids would time a warmer program than a user gets.

Seeds move the physical parameters and lambda values inside narrow
ranges and leave grid sizes fixed, so that the cost of a round, and the
position of its median operation, barely depend on the seed.  The
operations that are kept although they fail take no seeded input.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import selab
import selab.cli

import oracles

EPS_FINAL = 0.1 * 2.0**-11          # last stage of selab's default schedule
SWEEP_POINTS = 12
BRACKET_ITERS = 8
LAMBDA_RANGE = (0.5, 64.0)
# twelve operations of like size: their cost is mostly per-solve
# overhead and barely grows with n, so the median sits among them
LAMBDA_AXIS_SIZES = (48, 72, 96, 128)


@dataclass
class Op:
    name: str
    call: object
    check: object
    known_fault: str | None = None


def usable_cpus():
    """CPUs this process may run on, as `nproc` counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def jitter(rng, nominal, rel):
    """A seeded value within `rel` of `nominal`.  Operations keep their
    nominal size; the seed moves them only a little, so that a round's
    cost does not depend on which seed drew it."""
    return float(nominal * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def _power_spec(inst):
    grid = selab.build_grid(inst.kind, 1.0, inst.n)
    g = (selab.SingularTerm("power", alpha=inst.alpha) if inst.g is None
         else inst.g)
    return selab.make_problem(grid, selab.Potential(inst.K), g,
                              selab.ReactionTerm("power", p=inst.p),
                              conv_a=inst.a, lam=inst.lam)


def _table_term(alpha):
    s = np.geomspace(1e-8, 10.0, 400)
    return selab.SingularTerm("table", table_s=s, table_g=s ** -alpha)


# ------------------------------------------------------------ lambda-axis

def _bracket_check(inst):
    lam0 = oracles.lambda0_closed_form(inst)

    def check(est, _results):
        if est.sentinel is not None or est.lo is None or est.hi is None:
            return False, [], f"sentinel={est.sentinel}"
        problems = []
        width = (LAMBDA_RANGE[1] - LAMBDA_RANGE[0]) / 2.0**BRACKET_ITERS
        if abs((est.hi - est.lo) - width) > 1e-9 * width:
            problems.append(f"bracket width {est.hi - est.lo!r} != {width!r}")
        lams = [lam for lam, _ in est.history]
        conv = [v == "converged" for _, v in est.history]
        if not oracles.is_upset(lams, conv):
            problems.append("bracket history is not an up-set")
        if any(c and lam < lam0 for lam, c in zip(lams, conv)):
            problems.append(f"converged below lambda0 = {lam0!r}")
        if est.lambda0 is None or abs(est.lambda0 - lam0) > 1e-8 * lam0:
            problems.append(f"lambda0 {est.lambda0!r} != closed form {lam0!r}")
        elif not est.lambda0 <= est.hi:
            problems.append("lambda0 above the bracket")
        return True, problems, f"[{est.lo!r}, {est.hi!r}] {est.refined_consistent}"
    return check


def _sweep_problems(inst, result):
    lam0 = oracles.lambda0_closed_form(inst)
    conv = [v == "converged" for v in result.verdicts]
    problems = []
    if not oracles.is_upset(result.lambdas, conv):
        problems.append("sweep verdicts are not an up-set")
    prev = None
    for lam, ok, rep in zip(result.lambdas, conv, result.reports):
        if not ok:
            continue
        if lam < lam0:
            problems.append(f"converged at lambda {lam:.4g} below lambda0")
        at = oracles.Instance(inst.kind, inst.n, inst.K, inst.alpha, inst.p,
                              inst.a, lam)
        u = rep.solution.values
        problems += [f"lambda {lam:.4g}: {m}"
                     for m in oracles.solution_problems(at, u, EPS_FINAL)]
        if prev is not None and float(np.max(prev - u)) > 1e-8 * max(1.0, float(u.max())):
            problems.append(f"solution at lambda {lam:.4g} not above the previous one")
        prev = u
    return conv, problems


def _sweep_check(inst, warm_name=None):
    def check(result, results):
        conv, problems = _sweep_problems(inst, result)
        if warm_name is not None:
            warm = results.get(warm_name)
            if getattr(warm, "verdicts", None) != result.verdicts:
                problems.append("cold and warm sweeps disagree")
        verdict = "".join("c" if c else "n" for c in conv)
        return conv[-1] and not conv[0], problems, verdict
    return check


def lambda_axis(rng, tmp):
    """Brackets and warm/cold sweeps on four positive-K, integrable-g
    instances, on interval grids of 48 to 128 nodes."""
    threads = min(2, usable_cpus())
    lambdas = np.geomspace(*LAMBDA_RANGE, SWEEP_POINTS).tolist()
    ops = []
    for base in LAMBDA_AXIS_SIZES:
        inst = oracles.Instance(
            "interval", base, K=jitter(rng, 1.0, 0.03),
            alpha=jitter(rng, 0.5, 0.04), p=jitter(rng, 0.5, 0.04),
            a=jitter(rng, 1.0, 0.04), lam=1.0)
        tag = f"n={inst.n}"
        ops.append(Op(
            f"bracket {tag}",
            lambda inst=inst: selab.estimate_lambda_star(
                _power_spec(inst), *LAMBDA_RANGE, iters=BRACKET_ITERS),
            _bracket_check(inst)))
        ops.append(Op(
            f"sweep-warm {tag}",
            lambda inst=inst: selab.lambda_sweep(_power_spec(inst), lambdas),
            _sweep_check(inst)))
        ops.append(Op(
            f"sweep-cold {tag}",
            lambda inst=inst: selab.lambda_sweep(
                _power_spec(inst), lambdas, warm_start=False, threads=threads),
            _sweep_check(inst, warm_name=f"sweep-warm {tag}")))
    return ops


# ------------------------------------------------------------ refine-ladder

# (config, domain kind, n, nominal lambda, relative jitter): lambda is
# drawn per seed within the jitter around the nominal value; every case
# converges, or is the non-integrable regime, at every such lambda.  The
# rectangles climb in small steps so that the median operation sits
# inside a run of like-sized solves.  The largest ones and the
# non-integrable regime, whose cost jumps with lambda, keep their lambda
# fixed so that they do not carry the seed into the round's total.
LADDER_CASES = (
    ("theorem1.cfg", "interval", 511, 1.0, 0.05),
    ("theorem1.cfg", "interval", 1023, 10.0, 0.05),
    ("theorem3.cfg", "interval", 511, 50.0, 0.05),
    ("theorem3.cfg", "interval", 1023, 50.0, 0.05),
    ("theorem2.cfg", "interval", 4095, 1.0, 0.0),
    ("theorem1.cfg", "rectangle", 39, 1.0, 0.05),
    ("theorem3.cfg", "rectangle", 39, 80.0, 0.0),
    ("theorem1.cfg", "rectangle", 43, 1.0, 0.05),
    ("theorem3.cfg", "rectangle", 43, 80.0, 0.0),
    ("theorem1.cfg", "rectangle", 47, 1.0, 0.05),
    ("theorem3.cfg", "rectangle", 47, 80.0, 0.0),
    ("theorem1.cfg", "rectangle", 55, 1.0, 0.05),
    ("theorem3.cfg", "rectangle", 55, 80.0, 0.0),
    ("theorem1.cfg", "rectangle", 63, 1.0, 0.05),
    ("theorem3.cfg", "rectangle", 63, 80.0, 0.0),
    ("theorem2.cfg", "rectangle", 47, 1.0, 0.0),
    ("theorem1.cfg", "rectangle", 95, 10.0, 0.0),
)

LADDER_FAULTS = (
    ("theorem1.cfg", "interval", 4095, 10.0,
     "K < 0 exists for every lambda, yet the solve reports collapse"),
    ("theorem3.cfg", "interval", 4095, 80.0,
     "lambda = 80 is far above lambda* ~ 10.4, yet the solve stagnates"),
)

_EXPECT = {"theorem1.cfg": "converged", "theorem2.cfg": "nonexistence-indicated",
           "theorem3.cfg": "converged"}


def _config_values(text):
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


def _cli_solve(argv):
    sink = _Discard()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return selab.cli.main(argv)


def _ladder_check(inst, expect, out_dir):
    def check(rc, _results):
        csv_path = os.path.join(out_dir, "u.csv")
        json_path = os.path.join(out_dir, "report.json")
        try:
            with open(json_path) as fh:
                report = json.load(fh)
            u = oracles.read_field_csv(csv_path)
        except (OSError, ValueError) as exc:
            return False, [], f"no output: {exc}"
        finally:
            for path in (csv_path, json_path):
                if os.path.exists(path):
                    os.remove(path)
        diag = report["diagnostics"]
        verdict = diag["verdict"] if diag["mode"] is None else \
            f"{diag['verdict']} ({diag['mode']})"
        if diag["verdict"] != expect:
            return False, [], verdict
        problems = []
        if expect == "converged":
            if rc != 0 or not report["converged"]:
                problems.append(f"exit code {rc}, converged={report['converged']}")
            problems += oracles.solution_problems(inst, u, report["eps_path"][-1])
        elif rc != 2:
            problems.append(f"exit code {rc} for indicated nonexistence")
        return True, problems, verdict
    return check


def refine_ladder(rng, tmp):
    """`selab solve` through the CLI entry point on the bundled regimes,
    fine interval grids and rectangles, each writing u.csv and
    report.json; plus the two solves that fail on every run."""
    configs = os.path.join(os.path.dirname(selab.__file__), "configs")
    cases = [(cfg, kind, n, jitter(rng, lam, rel), None)
             for cfg, kind, n, lam, rel in LADDER_CASES]
    cases += [(cfg, kind, n, lam, fault)
              for cfg, kind, n, lam, fault in LADDER_FAULTS]
    ops = []
    for i, (cfg, kind, n, lam, fault) in enumerate(cases):
        with open(os.path.join(configs, cfg)) as fh:
            text = fh.read()
        values = _config_values(text)
        text = text.replace(f"domain.kind = {values['domain.kind']}",
                            f"domain.kind = {kind}")
        text = text.replace(f"domain.n = {values['domain.n']}", f"domain.n = {n}")
        path = os.path.join(tmp, f"case{i}.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        out_dir = os.path.join(tmp, f"out{i}")
        inst = oracles.Instance(kind, n, float(values["K.value"]),
                                float(values["g.alpha"]), float(values["f.p"]),
                                float(values["a"]), lam)
        argv = ["solve", "--config", path, "--lambda", repr(lam), "--out", out_dir]
        ops.append(Op(f"solve {cfg} {kind} n={n} lambda={lam:.4g}",
                      lambda argv=argv: _cli_solve(argv),
                      _ladder_check(inst, _EXPECT[cfg], out_dir),
                      known_fault=fault))
    return ops


# ------------------------------------------------------------ certify

DIAGNOSTIC_FAULT = (
    "g = 1/s is not integrable, yet the diagnostic reports mass-bounded: "
    "factors below 1.1 are labelled bounded without a Cauchy-tail test")


def _diagnostic_check(alpha):
    target = 2.0 ** (alpha - 1.0)

    def check(rep, _results):
        if rep.verdict != "mass-divergent":
            return False, [], rep.verdict
        problems = []
        if not abs(rep.fitted_factor / target - 1.0) <= 0.05:
            problems.append(f"fitted factor {rep.fitted_factor!r} outside 5% "
                            f"of 2^(alpha-1) = {target!r}")
        return True, problems, f"{rep.verdict} {rep.fitted_factor:.6f}"
    return check


def _barrier(inst, eps):
    """Fixed point of -Lap w = lam f(w) - K g(eps), with K < 0: it lies
    above every solution of the eps-problem (dense numpy solve)."""
    n, h = inst.n, inst.h
    A = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
         - np.diag(np.ones(n - 1), -1)) / h**2
    A_inv = np.linalg.inv(A)
    lift = -inst.K * eps ** (-inst.alpha)
    w = A_inv @ np.full(n, lift)
    for _ in range(2000):
        w_next = A_inv @ (inst.lam * w**inst.p + lift)
        if float(np.max(np.abs(w_next - w))) < 1e-13:
            return w_next
        w = w_next
    return w


def _pinch_call(inst, barrier):
    def call():
        stage = _power_spec(inst).with_eps(EPS_FINAL)
        sub = selab.build_subsolution_convection(stage)
        upper = selab.Field(stage.grid, barrier)
        return sub, selab.monotone_iterate(stage, sub.field, upper)
    return call


def _pinch_check(inst, barrier):
    def check(out, _results):
        sub, mono = out
        if not mono.converged:
            return False, [], f"not converged after {mono.iterations} sweeps"
        u = mono.solution.values
        slack = 1e-9 * max(1.0, float(barrier.max()))
        problems = oracles.solution_problems(inst, u, EPS_FINAL, rel_tol=0.0,
                                             abs_tol=2e-8)
        if float(np.max(sub.field.values - u)) > slack:
            problems.append("pinch below the sub-solution")
        if float(np.max(u - barrier)) > slack:
            problems.append("pinch above the barrier")
        return True, problems, f"converged {mono.iterations}"
    return check


def _certificate_call(inst, factor):
    def call():
        spec = _power_spec(inst)
        probe = selab.build_subsolution_eigen(spec.with_lambda(1e7))
        lam = factor * probe.metadata["lambda_threshold"]
        spec = spec.with_lambda(lam)
        sub = selab.build_subsolution_eigen(spec)
        sup = selab.build_supersolution(spec)
        rep = selab.check_ordering(spec.grid, selab.psi_from_spec(spec),
                                   sub.field, sup.field)
        return lam, sub, sup, rep
    return call


def _certificate_check(inst):
    def check(out, _results):
        lam, sub, sup, rep = out
        if rep.verdict != "ordered":
            return False, [], rep.verdict
        at = oracles.Instance(inst.kind, inst.n, inst.K, inst.alpha, inst.p,
                              inst.a, lam)
        v, w = sub.field.values, sup.field.values
        problems = []
        if sub.metadata["certificate_violations"] != 0:
            problems.append("certificate has violations")
        r_sub, lap = oracles.residual(at, v, 0.0)
        if float(r_sub.max()) > 1e-9 * max(1.0, float(np.max(np.abs(lap)))):
            problems.append(f"sub residual {float(r_sub.max()):.3e} > 0")
        lap_w = oracles.neg_laplacian(w, at.shape, at.h)
        r_sup = lap_w - lam * w**at.p
        if float(np.max(np.abs(r_sup))) > 1e-8 * max(1.0, float(np.max(np.abs(lap_w)))):
            problems.append("super-solution residual too large")
        if float(np.max(v - w)) > 1e-9 * max(1.0, float(w.max())):
            problems.append("sub above super")
        # the threshold depends on the grid only through phi_1; the
        # verdict string carries it to compare traced and untraced runs
        return True, problems, f"ordered lam={lam!r}"
    return check


def _table_ladder_call(inst, lams):
    def call():
        spec = _power_spec(inst)
        return [selab.solve_with_continuation(spec.with_lambda(lam)) for lam in lams]
    return call


def _table_ladder_check(inst, lams):
    def check(reports, _results):
        if not all(r.converged for r in reports):
            return False, [], ",".join(r.diagnostics["verdict"] for r in reports)
        problems = []
        for lam, rep in zip(lams, reports):
            at = oracles.Instance(inst.kind, inst.n, inst.K, inst.alpha, inst.p,
                                  inst.a, lam, g=inst.g)
            problems += [f"lambda {lam:.4g}: {m}" for m in
                         oracles.solution_problems(at, rep.solution.values,
                                                   rep.eps_path[-1])]
        return True, problems, "converged x%d" % len(reports)
    return check


def _profile_check(alpha):
    t = np.geomspace(1e-3, 1.0, 40)
    exact = oracles.profile_closed_form(alpha, t)

    def check(profile, _results):
        err = float(np.max(np.abs(profile.h_at(t) / exact - 1.0)))
        problems = [] if err <= 3e-2 else [f"profile off the closed form by {err:.3e}"]
        return True, problems, "profile"
    return check


def certify(rng, tmp):
    """Fixed-point and certificate paths: mass diagnostics on fine
    interval grids, monotone pinching of a K < 0 bracket, eigen
    certificates on rectangles, and tabulated-g classification, profile
    and K < 0 solves."""
    ops = []
    for n, nominal in ((3071, 1.45), (5119, 1.7), (7167, 1.95)):
        alpha = jitter(rng, nominal, 0.02)
        inst = oracles.Instance("interval", n, 1.0, alpha, 0.5, 1.0, 1.0)
        ops.append(Op(f"diagnostic n={n} alpha={alpha:.3f}",
                      lambda inst=inst: selab.nonexistence_diagnostic(_power_spec(inst)),
                      _diagnostic_check(alpha)))
    inst = oracles.Instance("interval", 4095, 1.0, 1.0, 0.5, 1.0, 1.0)
    ops.append(Op("diagnostic n=4095 alpha=1",
                  lambda inst=inst: selab.nonexistence_diagnostic(_power_spec(inst)),
                  _diagnostic_check(1.0), known_fault=DIAGNOSTIC_FAULT))
    for n in (95, 111, 127):
        inst = oracles.Instance("interval", n, jitter(rng, -1.0, 0.03), 0.5,
                                0.5, 1.0, jitter(rng, 1.0, 0.03))
        barrier = _barrier(inst, EPS_FINAL)
        ops.append(Op(f"pinch n={n}", _pinch_call(inst, barrier),
                      _pinch_check(inst, barrier)))
    for n in (95, 111, 127):
        inst = oracles.Instance("rectangle", n, 1.0, 0.5, 0.5, 1.0, 1.0)
        ops.append(Op(f"certificate {n}x{n}",
                      _certificate_call(inst, jitter(rng, 2.0, 0.1)),
                      _certificate_check(inst)))
    for nominal in (0.35, 0.45):
        alpha = jitter(rng, nominal, 0.02)
        g = _table_term(alpha)
        ops.append(Op(f"classify table alpha={alpha:.3f}",
                      lambda g=g: selab.classify_singularity(g),
                      lambda verdict, _r: (verdict == "integrable", [], verdict)))
    for nominal in (0.35, 0.45):
        alpha = jitter(rng, nominal, 0.02)
        g = _table_term(alpha)
        ops.append(Op(f"profile table alpha={alpha:.3f}",
                      lambda g=g: selab.build_h_profile(g), _profile_check(alpha)))
    for n in (255, 383):
        alpha = jitter(rng, 0.4, 0.02)
        inst = oracles.Instance("interval", n, jitter(rng, -1.0, 0.03), alpha,
                                0.5, 1.0, 1.0, g=_table_term(alpha))
        lams = [jitter(rng, lam, 0.03) for lam in (0.1, 1.0, 10.0)]
        ops.append(Op(f"table solves n={n}", _table_ladder_call(inst, lams),
                      _table_ladder_check(inst, lams)))
    return ops


WORKLOADS = {
    "lambda-axis": lambda_axis,
    "refine-ladder": refine_ladder,
    "certify": certify,
}


def warm_up(tmp):
    """One small call down each path the workloads take, untimed, so
    that lazy imports and first-call costs land in set-up."""
    inst = oracles.Instance("interval", 15, 1.0, 0.5, 0.5, 1.0, 20.0)
    selab.lambda_sweep(_power_spec(inst), [10.0, 20.0], warm_start=False,
                       threads=min(2, usable_cpus()))
    selab.build_supersolution(_power_spec(inst))
    rect = oracles.Instance("rectangle", 7, 1.0, 0.5, 0.5, 1.0, 20.0)
    selab.solve_with_continuation(_power_spec(rect))
    selab.nonexistence_diagnostic(_power_spec(
        oracles.Instance("interval", 15, 1.0, 1.5, 0.5, 1.0, 1.0)))
    path = os.path.join(tmp, "warm.cfg")
    with open(path, "w") as fh:
        fh.write("domain.kind = interval\ndomain.n = 15\nK.family = constant\n"
                 "K.value = -1.0\ng.family = power\ng.alpha = 0.5\nf.p = 0.5\n"
                 "a = 1.0\nlambda = 1.0\n")
    _cli_solve(["solve", "--config", path, "--out", os.path.join(tmp, "warm")])
