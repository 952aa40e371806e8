"""Command-line front door.

Subcommands map one-to-one onto the library entry points: solve, sweep,
lambda-star, eigen, hode, construct, compare, verify.  Outputs are plain
CSV and JSON written with shortest round-trip float reprs, so identical
inputs (config plus seed) produce byte-identical files.  Exit codes:
0 success, 1 domain or model errors, 2 convergence failures, 3 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .bifurcation import estimate_lambda_star, lambda_sweep
from .comparison import check_ordering, psi_from_spec
from .constructions import (
    build_subsolution_convection,
    build_subsolution_eigen,
    build_supersolution,
)
from .errors import ConfigError, ConvergenceError, ModelError, SelabError
from .grid import read_field_csv, write_field_csv
from .hprofile import build_h_profile
from .model import SingularTerm, bundled_config_text, problem_from_config
from .solver import solve_with_continuation
from .spectral import first_eigenpair

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_CONVERGENCE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit status 2 on usage errors; remap to 3 so
    2 stays reserved for convergence failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config_text(path):
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read()
    try:
        return bundled_config_text(os.path.basename(path))
    except ConfigError:
        raise SelabError(
            f"config {path!r} not found on disk or among bundled configs"
        ) from None


def _load_spec(args):
    _, spec = problem_from_config(_load_config_text(args.config))
    if getattr(args, "lam", None) is not None:
        spec = replace(spec, lam=float(args.lam))
    return spec


def _out_paths(out, default_csv, default_json):
    """Resolve --out into (csv_path, json_path); a path with an
    extension is taken verbatim for its kind, anything else is treated
    as a directory to drop the defaults into."""
    if out is None:
        out = "."
    root, ext = os.path.splitext(out)
    if ext == ".csv":
        parent = os.path.dirname(out) or "."
        os.makedirs(parent, exist_ok=True)
        return out, os.path.join(parent, default_json)
    if ext == ".json":
        parent = os.path.dirname(out) or "."
        os.makedirs(parent, exist_ok=True)
        return os.path.join(parent, default_csv), out
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, default_csv), os.path.join(out, default_json)


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        # JSON has no Infinity or NaN: a failed first stage's residual
        # is written as null
        return float(x) if np.isfinite(x) else None
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    return x


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_result(result, path):
    """Write a result dataclass as JSON, one key per field in declaration
    order; a `solution` field goes to the CSV, not here."""
    _write_json({f.name: getattr(result, f.name) for f in fields(result)
                 if f.name != "solution"}, path)


def _parse_floats(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise SelabError(f"bad float list {text!r}: {exc}") from None


# ------------------------------------------------------------ subcommands


def _cmd_solve(args):
    spec = _load_spec(args)
    rep = solve_with_continuation(spec)
    csv_path, json_path = _out_paths(args.out, "u.csv", "report.json")
    write_field_csv(rep.solution, csv_path)
    _write_result(rep, json_path)
    verdict = rep.diagnostics["verdict"]
    mode = rep.diagnostics["mode"]
    tag = verdict if mode is None else f"{verdict} ({mode})"
    print(
        f"solve: {tag} lambda={spec.lam:g} residual={rep.residual_inf:.3e} "
        f"min={rep.min_interior:.3e} -> {csv_path}, {json_path}"
    )
    return EXIT_OK if rep.converged else EXIT_CONVERGENCE


def _cmd_sweep(args):
    spec = _load_spec(args)
    if args.lambdas:
        lambdas = _parse_floats(args.lambdas)
    else:
        lo, hi, points = args.lambda_min, args.lambda_max, args.points
        if points < 1 or not 0.0 < lo < hi < np.inf:
            raise ModelError(
                "a geometric lambda range needs at least one point and "
                "finite 0 < --lambda-min < --lambda-max; got --points "
                f"{points} on [{lo:g}, {hi:g}]")
        lambdas = np.geomspace(lo, hi, points).tolist()
    result = lambda_sweep(
        spec,
        lambdas,
        warm_start=not args.no_warm,
        threads=args.threads,
    )
    csv_path, _ = _out_paths(args.out, "sweep.csv", "sweep.json")
    with open(csv_path, "w") as fh:
        fh.write("lambda,verdict,max_u,min_u,mass_integral\n")
        for lam, verdict, max_u, min_u, mass in result.rows():
            fh.write(
                f"{float(lam)!r},{verdict},{float(max_u)!r},"
                f"{float(min_u)!r},{float(mass)!r}\n"
            )
    n_conv = sum(1 for v in result.verdicts if v == "converged")
    print(
        f"sweep: {n_conv}/{len(lambdas)} converged, "
        f"up-set={result.verdicts_form_upset()} -> {csv_path}"
    )
    return EXIT_OK


def _cmd_lambda_star(args):
    spec = _load_spec(args)
    est = estimate_lambda_star(
        spec, args.lambda_min, args.lambda_max, iters=args.iters
    )
    _, json_path = _out_paths(args.out, "lambda_star.csv", "lambda_star.json")
    _write_result(est, json_path)
    if est.sentinel:
        desc = f"sentinel={est.sentinel}"
    else:
        desc = f"bracket=[{est.lo:.6g}, {est.hi:.6g}]"
    print(f"lambda-star: {desc} lambda0={est.lambda0} -> {json_path}")
    return EXIT_OK


def _cmd_eigen(args):
    spec = _load_spec(args)
    pair = first_eigenpair(spec.grid)
    csv_path, _ = _out_paths(args.out, "phi1.csv", "eigen.json")
    write_field_csv(pair.phi1, csv_path)
    print(f"eigen: lambda1={pair.lambda1!r} -> {csv_path}")
    return EXIT_OK


def _cmd_hode(args):
    if args.alpha is not None:
        g = SingularTerm("power", alpha=args.alpha)
    else:
        spec = _load_spec(args)
        g = spec.singular
    prof = build_h_profile(g, T=args.T)
    csv_path, _ = _out_paths(args.out, "hprofile.csv", "hprofile.json")
    with open(csv_path, "w") as fh:
        fh.write("t,h,dh\n")
        for t, h, dh in zip(prof.t, prof.h, prof.dh):
            fh.write(f"{float(t)!r},{float(h)!r},{float(dh)!r}\n")
    print(
        f"hode: {prof.t.size} rows, closed_form={prof.closed_form} "
        f"-> {csv_path}"
    )
    return EXIT_OK


_CONSTRUCTORS = {
    "super": build_supersolution,
    "sub-conv": build_subsolution_convection,
    "sub-eigen": build_subsolution_eigen,
}


def _cmd_construct(args):
    spec = _load_spec(args)
    built = _CONSTRUCTORS[args.kind](spec)
    stem = args.kind.replace("-", "_")
    csv_path, json_path = _out_paths(args.out, f"{stem}.csv", f"{stem}.json")
    write_field_csv(built.field, csv_path)
    meta = built.metadata
    _write_json(
        {
            "kind": built.kind,
            "M": meta.get("M"),
            "delta": meta.get("delta"),
            "lambda_threshold": meta.get("lambda_threshold"),
            "c1": meta.get("c1"),
            "c2": meta.get("c2"),
            "residual_max": meta.get("residual_max"),
            "certificate_violations": meta.get("certificate_violations"),
        },
        json_path,
    )
    print(
        f"construct: {built.kind} max={built.field.max():.6g} "
        f"residual_max={meta.get('residual_max'):.3e} -> {csv_path}, {json_path}"
    )
    return EXIT_OK


def _cmd_compare(args):
    spec = _load_spec(args)
    grid = spec.grid
    v = read_field_csv(grid, args.sub_csv)
    w = read_field_csv(grid, args.super_csv)
    rep = check_ordering(grid, psi_from_spec(spec), v, w)
    _, json_path = _out_paths(args.out, "compare.csv", "compare.json")
    _write_result(rep, json_path)
    print(
        f"compare: {rep.verdict} max(v-w)+={rep.max_violation:.3e} "
        f"-> {json_path}"
    )
    return EXIT_OK


def _cmd_verify(args):
    from .acceptance import run_battery

    results = run_battery(only=args.only, seed=args.seed)
    if not results:
        print(f"verify: no check matches --only {args.only!r}", file=sys.stderr)
        return EXIT_USAGE
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.seconds:6.1f}s  {r.detail}")
    failing = [r.name for r in results if not r.passed]
    if failing:
        print(f"verify: FAILED ({', '.join(failing)})")
        return EXIT_MODEL
    print(f"verify: all {len(results)} checks passed")
    return EXIT_OK


# ------------------------------------------------------------ wiring


def _add_config(p):
    p.add_argument(
        "--config",
        required=True,
        help="problem config path, or the bare name of a bundled config "
        "(theorem1.cfg, theorem2.cfg, theorem3.cfg)",
    )


def _add_out(p):
    p.add_argument("--out", default=None,
                   help="output directory, or a .csv or .json path (the "
                   "other file goes next to it)")


def build_parser():
    parser = _Parser(
        prog="selab",
        description="Finite-difference study of singular semilinear "
        "elliptic problems with gradient terms.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="continuation solve of one instance")
    _add_config(p)
    _add_out(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="override the config lambda")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("sweep", help="verdicts over a ladder of lambdas")
    _add_config(p)
    _add_out(p)
    p.add_argument("--lambdas", default=None,
                   help="comma-separated lambda values (ascending)")
    p.add_argument("--lambda-min", type=float, default=0.5)
    p.add_argument("--lambda-max", type=float, default=80.0)
    p.add_argument("--points", type=int, default=12)
    p.add_argument("--no-warm", action="store_true",
                   help="solve each lambda cold, in parallel")
    p.add_argument("--threads", type=int, default=None,
                   help="worker cap for cold sweeps")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("lambda-star",
                       help="bracket the existence threshold")
    _add_config(p)
    _add_out(p)
    p.add_argument("--lambda-min", type=float, default=0.1)
    p.add_argument("--lambda-max", type=float, default=100.0)
    p.add_argument("--iters", type=int, default=12)
    p.set_defaults(fn=_cmd_lambda_star)

    p = sub.add_parser("eigen",
                       help="principal eigenpair of the grid Laplacian")
    _add_config(p)
    _add_out(p)
    p.set_defaults(fn=_cmd_eigen)

    p = sub.add_parser("hode", help="tabulate the boundary profile h")
    _add_config(p)
    _add_out(p)
    p.add_argument("--alpha", type=float, default=None,
                   help="power-family exponent (overrides the config g)")
    p.add_argument("--T", type=float, default=1.0,
                   help="right endpoint of the h table")
    p.set_defaults(fn=_cmd_hode)

    p = sub.add_parser("construct", help="build a certified field")
    _add_config(p)
    _add_out(p)
    p.add_argument("--kind", required=True, choices=sorted(_CONSTRUCTORS))
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="override the config lambda")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("compare", help="order two saved fields")
    _add_config(p)
    _add_out(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="override the config lambda")
    p.add_argument("sub_csv", help="candidate lower field CSV")
    p.add_argument("super_csv", help="candidate upper field CSV")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--only", default=None,
                   help="substring filter on check names")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the randomized comparison suite")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse help exits 0; our error() exits 3
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConvergenceError as exc:
        print(f"selab {args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except SelabError as exc:
        print(f"selab {args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ValueError as exc:
        # an out-of-contract numeric argument that passes argparse and
        # that numpy refuses before selab checks it; none is known, since
        # `_cmd_sweep` checks the range it hands to np.geomspace
        print(f"selab {args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"selab {args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
