"""Spans around calls into each selab layer, recorded from outside.

`Tracer.install()` rebinds selab's public functions (and `splu`) in every
loaded selab module namespace that holds them, plus three methods on
their classes, to wrappers that record a span: name, start, end, parent
span and thread.  Nothing in selab changes; `uninstall()` restores the
originals.  Spans are kept in memory and written out at the end.

`layer_metrics()` turns the spans of the traced rounds into the
per-layer metrics listed in BENCHMARK.json.  Counts are per round; times
are means per call unless the name says otherwise.  A layer the workload
does not reach reports 0.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

import scipy.sparse.linalg

import selab.bifurcation
import selab.cli
import selab.comparison
import selab.constructions
import selab.grid
import selab.hprofile
import selab.mass
import selab.model
import selab.solver
import selab.spectral

# (span name, module owning the function, attribute)
FUNCTIONS = (
    ("solver.continuation", selab.solver, "solve_with_continuation"),
    ("solver.newton", selab.solver, "newton_solve"),
    ("solver.residual", selab.solver, "residual"),
    ("solver.monotone", selab.solver, "monotone_iterate"),
    ("grid.gradient", selab.grid, "gradient_magnitude"),
    ("grid.gradient", selab.grid, "gradient_components"),
    ("grid.csv_write", selab.grid, "write_field_csv"),
    ("model.classify", selab.model, "classify_singularity"),
    ("spectral.eigenpair", selab.spectral, "first_eigenpair"),
    ("hprofile.build", selab.hprofile, "build_h_profile"),
    ("mass.integral", selab.mass, "mass_integral"),
    ("mass.reference", selab.mass, "reference_mass"),
    ("constructions.super", selab.constructions, "build_supersolution"),
    ("constructions.subconv", selab.constructions, "build_subsolution_convection"),
    ("constructions.subeigen", selab.constructions, "build_subsolution_eigen"),
    ("comparison.ordering", selab.comparison, "check_ordering"),
    ("bifurcation.bracket", selab.bifurcation, "estimate_lambda_star"),
    ("bifurcation.sweep", selab.bifurcation, "lambda_sweep"),
    ("bifurcation.diagnostic", selab.bifurcation, "nonexistence_diagnostic"),
    ("cli.main", selab.cli, "main"),
    ("splu", scipy.sparse.linalg, "splu"),
)

METHODS = (
    ("model.g", selab.model.SingularTerm, "__call__"),
    ("model.f", selab.model.ReactionTerm, "value"),
    ("grid.lu", selab.grid.Grid, "lu"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "tid", "ok", "info",
                 "child_time")

    def __init__(self, name, parent, tid):
        self.name = name
        self.parent = parent
        self.tid = tid
        self.ok = False
        self.info = None
        self.child_time = 0.0

    @property
    def duration(self):
        return self.end - self.start


def _before(name, args, kwargs):
    """Facts about a call that are only visible before it runs."""
    if name == "grid.lu":
        return {"computes": args[0]._lu is None}
    if name == "spectral.eigenpair":
        return {"computes": getattr(args[0], "_eigenpair", None) is None}
    if name == "bifurcation.sweep":
        return {"warm": kwargs.get("warm_start", True), "points": len(args[1]),
                "threads": kwargs.get("threads") or 1}
    if name == "mass.integral":
        grid = args[1].grid
        return {"cells": grid.shape[0] + 1 if grid.dim == 1 else grid.n_total}
    if name == "bifurcation.diagnostic":
        schedule = kwargs.get("eps_schedule") or (args[1] if len(args) > 1 else None)
        return {"stages": len(schedule) if schedule else 20}
    return None


def _after(name, result, info):
    if name == "spectral.eigenpair" and info["computes"]:
        info["iterations"] = result.iterations
    elif name == "solver.monotone":
        info = {"sweeps": result.iterations}
    elif name == "constructions.super":
        info = {"iterations": result.metadata["iterations"]}
    return info


class _TimedFactor:
    """A SuperLU factor whose solves are recorded as child spans of the
    Newton iteration that made it."""

    __slots__ = ("_lu", "_tracer", "_parent")

    def __init__(self, lu, tracer, parent):
        self._lu, self._tracer, self._parent = lu, tracer, parent

    def solve(self, rhs, *args):
        span = Span("splu.solve", self._parent, threading.get_ident())
        span.start = perf_counter()
        try:
            return self._lu.solve(rhs, *args)
        finally:
            span.end = perf_counter()
            span.ok = True
            self._parent.child_time += span.end - span.start
            self._tracer.spans.append(span)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._installed = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, parent, threading.get_ident())
            span.info = _before(name, args, kwargs)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
                tracer.spans.append(span)
            span.info = _after(name, result, span.info)
            if name == "splu" and parent is not None and parent.name == "solver.newton":
                return _TimedFactor(result, tracer, parent)
            return result
        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "selab" or key.startswith("selab.")]
        for name, owner, attr in FUNCTIONS:
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._installed.append((mod, key, orig))
        for name, cls, attr in METHODS:
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, orig))
            self._installed.append((cls, attr, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._installed):
            setattr(owner, key, orig)
        self._installed.clear()

    def write(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                    "thread": s.tid, "ok": s.ok}) + "\n")


def _ancestor(span, name):
    p = span.parent
    while p is not None and p.name != name:
        p = p.parent
    return p


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, rounds):
    """Per-layer metrics from the spans of `rounds` traced rounds."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def dur(name):
        return [s.duration for s in by[name]]

    def per_round(count):
        return count / rounds

    newton = by["solver.newton"]
    factors = [s for s in by["splu"] if s.parent is not None
               and s.parent.name == "solver.newton"]
    iters = len(factors)
    factor_time = sum(s.duration for s in factors) + sum(
        s.duration for s in by["splu.solve"])
    residuals_in_newton = [s for s in by["solver.residual"]
                           if s.parent is not None and s.parent.name == "solver.newton"]
    sweeps = sum(s.info["sweeps"] for s in by["solver.monotone"] if s.ok)
    lu_built = [s.duration for s in by["grid.lu"] if s.info["computes"]]
    gradients = [s.duration for s in by["grid.gradient"]
                 if s.parent is None or s.parent.name != "grid.gradient"]
    eigen = [s for s in by["spectral.eigenpair"] if s.info["computes"] and s.ok]
    integrals = by["mass.integral"]
    cells = sum(s.info["cells"] for s in integrals)

    brackets = by["bifurcation.bracket"]
    probes = [s for s in by["solver.continuation"]
              if _ancestor(s, "bifurcation.bracket") is not None]
    warm = [s for s in by["bifurcation.sweep"] if s.info["warm"]]
    cold = [s for s in by["bifurcation.sweep"] if not s.info["warm"]]
    warm_solves = [s for s in by["solver.continuation"]
                   if s.parent is not None and s.parent.name == "bifurcation.sweep"
                   and s.parent.info["warm"]]
    reruns = len(warm_solves) - sum(s.info["points"] for s in warm)
    busy = []
    for sweep in cold:
        inside = [s.duration for s in by["solver.continuation"]
                  if s.parent is None and s.tid != sweep.tid
                  and sweep.start <= s.start and s.end <= sweep.end]
        busy.append(sum(inside) / (sweep.info["threads"] * sweep.duration))
    diagnostics = by["bifurcation.diagnostic"]
    cli_self = []
    for s in by["cli.main"]:
        inner = sum(c.duration for c in by["solver.continuation"]
                    if _ancestor(c, "cli.main") is s)
        cli_self.append(s.duration - inner)

    return {
        "solver.continuation_s": (_mean(dur("solver.continuation")), "s"),
        "solver.newton_iters": (per_round(iters), "count"),
        "solver.newton_success_ratio": (
            _ratio(sum(s.ok for s in newton), len(newton)), "ratio"),
        "solver.newton_self_us_per_iter": (
            1e6 * _ratio(sum(s.duration - s.child_time for s in newton), iters), "us"),
        "solver.residual_us": (1e6 * _mean(dur("solver.residual")), "us"),
        "solver.residuals_per_iter": (_ratio(len(residuals_in_newton), iters), "ratio"),
        "solver.factor_solve_us": (1e6 * _ratio(factor_time, iters), "us"),
        "solver.monotone_sweeps": (per_round(sweeps), "count"),
        "solver.monotone_us_per_sweep": (
            1e6 * _ratio(sum(dur("solver.monotone")), sweeps), "us"),
        "grid.lu_ms": (1e3 * _mean(lu_built), "ms"),
        "grid.gradient_us": (1e6 * _mean(gradients), "us"),
        "grid.csv_write_ms": (1e3 * _mean(dur("grid.csv_write")), "ms"),
        "model.g_us": (1e6 * _mean(dur("model.g")), "us"),
        "model.g_calls": (per_round(len(by["model.g"])), "count"),
        "model.f_us": (1e6 * _mean(dur("model.f")), "us"),
        "model.classify_s": (_mean(dur("model.classify")), "s"),
        "spectral.eigenpair_ms": (1e3 * _mean([s.duration for s in eigen]), "ms"),
        "spectral.eigen_iters": (
            per_round(sum(s.info["iterations"] for s in eigen)), "count"),
        "hprofile.build_ms": (1e3 * _mean(dur("hprofile.build")), "ms"),
        "mass.integral_us_per_cell": (
            1e6 * _ratio(sum(s.duration for s in integrals), cells), "us"),
        "mass.integral_calls": (per_round(len(integrals)), "count"),
        "mass.reference_ms": (1e3 * _mean(dur("mass.reference")), "ms"),
        "constructions.super_ms": (1e3 * _mean(dur("constructions.super")), "ms"),
        "constructions.super_iters": (per_round(sum(
            s.info["iterations"] for s in by["constructions.super"] if s.ok)), "count"),
        "constructions.subconv_ms": (1e3 * _mean(dur("constructions.subconv")), "ms"),
        "constructions.subeigen_ms": (1e3 * _mean(dur("constructions.subeigen")), "ms"),
        "comparison.ordering_ms": (1e3 * _mean(dur("comparison.ordering")), "ms"),
        "bifurcation.bracket_s": (_mean(dur("bifurcation.bracket")), "s"),
        "bifurcation.probes_per_bracket": (_ratio(len(probes), len(brackets)), "count"),
        "bifurcation.sweep_warm_s": (_mean([s.duration for s in warm]), "s"),
        "bifurcation.sweep_cold_s": (_mean([s.duration for s in cold]), "s"),
        "bifurcation.warm_reruns": (per_round(reruns), "count"),
        "bifurcation.pool_busy_ratio": (_mean(busy), "ratio"),
        "bifurcation.diagnostic_ms_per_stage": (1e3 * _ratio(
            sum(s.duration for s in diagnostics),
            sum(s.info["stages"] for s in diagnostics)), "ms"),
        "cli.self_ms": (1e3 * _mean(cli_self), "ms"),
    }
