"""Source hygiene: every imported name in the package, the demos and the
tests is read somewhere in its module, and only `selab.grid` factors.

Names listed in a module's `__all__` count as read (they are re-exported),
and `from __future__ import annotations` is exempt.  An import kept only
for a side effect would need a name that is read; there is none today.

Every linear solve on a grid goes through `Grid.factor` or `Grid.lu`, so
`splu`, `dgttrf`, `dgttrs` and the Krylov solver `gmres` are called in
`src/selab/grid.py` alone; the tests call `splu` only as a reference.
Every `splu` call there passes the grid's one ordering,
`permc_spec=_ORDERING`, and there is one: `LaggedFactor.solve`'s, the
exact factor of the one chain every rectangle matrix goes through.

Every function the package exports is read somewhere outside the tests:
in another module of the package, a demo or the benchmark harness.  A
function that only tests call is surface nobody uses.

A run loads only the scipy it uses: a fresh interpreter that solves an
interval problem through the CLI, builds, classifies and integrates a
tabulated g and its h-profile, and solves A and a continuation on a
rectangle holds none of the subpackages that only shifted-exp g or a
rectangle's reference mass need, and no FFT at all.  Each module of the
package imports only the scipy names on its allowlist.
"""

import argparse
import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from selab.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src/selab", "demos", "tests")
                 for p in (ROOT / d).rglob("*.py"))


def imported_names(tree):
    """(bound name, line) of every import in the module, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def read_names(tree):
    """Names loaded anywhere in the module, plus the strings in `__all__`."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= {elt.value for elt in node.value.elts
                      if isinstance(elt, ast.Constant)}
    return names


def unused_imports(source):
    tree = ast.parse(source)
    read = read_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_unused_and_exempt_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return np.pi\n"
    )
    assert unused_imports(source) == [("os", 2), ("pi", 4), ("dumps", 7)]


FACTORIZERS = {"splu", "dgttrf", "dgttrs", "gmres"}
GRID = ROOT / "src/selab/grid.py"


def calls(source):
    """(called name, node) of every call, by bare or dotted name."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            yield (func.id if isinstance(func, ast.Name)
                   else getattr(func, "attr", None)), node


def factorizer_calls(source):
    """(name, line) of every call to a factorizer."""
    return [(name, node.lineno) for name, node in calls(source) if name in FACTORIZERS]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.parent.name != "tests"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_the_grid_factors(path):
    calls = sorted(factorizer_calls(path.read_text()))
    if path == GRID:
        assert {name for name, _ in calls} == FACTORIZERS
    else:
        assert calls == []


def test_the_factorizer_scan_sees_bare_and_dotted_calls():
    source = (
        "import scipy.sparse.linalg\n"
        "from scipy.linalg.lapack import dgttrf\n"
        "lu = scipy.sparse.linalg.splu(a)\n"
        "x = dgttrf(dl, d, du)\n"
        "solve = lu.solve\n"
    )
    assert sorted(factorizer_calls(source)) == [("dgttrf", 4), ("splu", 3)]


def splu_orderings(source):
    """(line, permc_spec) of every `splu` call, the argument as source
    text, or None where the call leaves it to `splu`'s COLAMD default."""
    for name, node in calls(source):
        if name == "splu":
            spec = [k.value for k in node.keywords if k.arg == "permc_spec"]
            yield node.lineno, ast.unparse(spec[0]) if spec else None


@pytest.mark.parametrize("path", sorted((ROOT / "src/selab").rglob("*.py")),
                         ids=lambda p: p.name)
def test_every_splu_names_the_grid_ordering(path):
    # a bare splu(matrix) would order by COLAMD, which fills 1.8 times
    # more on the five-point pattern than the grid's minimum degree
    assert [(line, spec) for line, spec in splu_orderings(path.read_text())
            if spec != "_ORDERING"] == []


def test_the_ordering_scan_sees_bare_and_literal_orderings():
    source = (
        "lu = splu(a)\n"
        "lu = scipy.sparse.linalg.splu(a, permc_spec='NATURAL')\n"
        "lu = splu(a, permc_spec=_ORDERING)\n"
    )
    assert list(splu_orderings(source)) == [(1, None), (2, "'NATURAL'"),
                                            (3, "_ORDERING")]


def splu_sites(source):
    """(enclosing function's qualified name, permc_spec) of every `splu`
    call; the name is "" at module level."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and (
                    getattr(child.func, "id", None) == "splu"
                    or getattr(child.func, "attr", None) == "splu"):
                spec = [k.value for k in child.keywords if k.arg == "permc_spec"]
                yield scope, ast.unparse(spec[0]) if spec else None
            yield from visit(child, inner)
    yield from visit(ast.parse(source), "")


def test_one_site_factors_a_rectangle_matrix():
    # every rectangle matrix goes through a LaggedFactor chain, which
    # alone makes an exact factor: a second splu would be a second path
    sites = [(path.name, *site) for path in sorted((ROOT / "src/selab").rglob("*.py"))
             for site in splu_sites(path.read_text())]
    assert sites == [("grid.py", "LaggedFactor.solve", "_ORDERING")]


def test_the_splu_site_scan_names_each_call():
    source = (
        "lu = splu(a)\n"
        "class Grid:\n"
        "    def factor(self, a):\n"
        "        def inner():\n"
        "            return scipy.sparse.linalg.splu(a, permc_spec=_ORDERING)\n"
        "        return splu(a, permc_spec='NATURAL')\n"
    )
    assert list(splu_sites(source)) == [
        ("", None), ("Grid.factor.inner", "_ORDERING"),
        ("Grid.factor", "'NATURAL'")]


SCIPY_ALLOWED = {
    "grid.py": {"sparse", "sparse.linalg.splu", "linalg.lapack.dgttrf",
                "linalg.lapack.dgttrs"},
    "model.py": {"special.expi"},
    "mass.py": {"integrate.quad"},
}


def scipy_imports(source):
    """What a module imports from scipy: `module` for `import scipy.module`
    and `module.name` for `from scipy.module import name`, nested ones too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.removeprefix("scipy.") for alias in node.names
                      if alias.name.split(".")[0] == "scipy"}
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "scipy"):
            module = node.module.removeprefix("scipy").lstrip(".")
            found |= {f"{module}.{alias.name}".lstrip(".") for alias in node.names}
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src/selab").rglob("*.py")),
                         ids=lambda p: p.name)
def test_each_module_imports_only_its_allowed_scipy(path):
    assert scipy_imports(path.read_text()) == SCIPY_ALLOWED.get(path.name, set())


def test_the_scipy_scan_sees_plain_from_and_nested_imports():
    source = (
        "import scipy.sparse as sp\n"
        "import numpy, scipy\n"
        "from scipy import linalg\n"
        "def f():\n"
        "    from scipy.interpolate import PchipInterpolator\n"
    )
    assert scipy_imports(source) == {"sparse", "scipy", "linalg",
                                     "interpolate.PchipInterpolator"}


ON_DEMAND = ("scipy.fft", "scipy.special", "scipy.integrate",
             "scipy.interpolate", "scipy.optimize", "scipy.spatial")
PROBE = """
import json, sys
from dataclasses import replace
import numpy as np
import selab, selab.cli
from selab.grid import build_grid
from selab.hprofile import build_h_profile
from selab.model import SingularTerm, bundled_problem, classify_singularity
from selab.solver import solve_with_continuation

def loaded():
    return [m for m in %r if m in sys.modules]

seen = {}
assert selab.cli.main(["solve", "--config", "theorem1.cfg", "--out", sys.argv[1]]) == 0
seen["interval solve"] = loaded()
s = np.geomspace(1e-8, 10.0, 400)
g = SingularTerm("table", table_s=s, table_g=s**-0.4)
seen["table g"] = loaded()
assert classify_singularity(g) == "integrable"
seen["table classify"] = loaded()
g.primitive(np.geomspace(1e-9, 20.0, 50))
seen["table primitive"] = loaded()
profile = build_h_profile(g)
profile.h_at(np.linspace(0.0, 1.0, 9))
profile.dh_at(np.linspace(0.0, 1.0, 9))
seen["table profile"] = loaded()
build_grid("rectangle", 1.0, 7).lu().solve(np.ones(49))
seen["rectangle A"] = loaded()
spec = replace(bundled_problem("theorem3.cfg"), lam=80.0,
               grid=build_grid("rectangle", 1.0, 15))
assert solve_with_continuation(spec).diagnostics["verdict"] == "converged"
seen["rectangle continuation"] = loaded()
SingularTerm("shifted-exp").primitive(np.array([0.5, 1.0]))
seen["shifted-exp primitive"] = loaded()
print(json.dumps(seen))
""" % (ON_DEMAND,)


def run_probe(probe, *args):
    """The last stdout line of `probe` run in a fresh interpreter, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_an_interval_run_loads_only_the_scipy_it_uses(tmp_path):
    seen = run_probe(PROBE, tmp_path)
    for step in ("interval solve", "table g", "table classify",
                 "table primitive", "table profile", "rectangle A",
                 "rectangle continuation"):
        assert seen[step] == [], step
    # the probe is not vacuous: an on-demand import does load its module
    assert seen["shifted-exp primitive"] == ["scipy.special"]


OPENING_PROBE = """
import json, sys
import selab.cli

assert selab.cli.main(["solve", "--config", "theorem3.cfg", "--lambda", "50",
                       "--out", sys.argv[1]]) == 0
with open(sys.argv[1] + "/report.json") as fh:
    opening = json.load(fh)["diagnostics"]["opening_amplitude"]
print(json.dumps([opening, [m for m in ("scipy.optimize", "scipy.fft")
                            if m in sys.modules]]))
"""


def test_a_positive_interval_opening_loads_no_root_finder(tmp_path):
    # the K > 0 opening amplitude is found by selab's own scan and
    # bisection: neither scipy.optimize nor scipy.fft is imported
    opening, loaded = run_probe(OPENING_PROBE, tmp_path)
    assert opening > 0.5
    assert loaded == []


# Every setting of the CLI and of the library's entry points is listed
# here: a value that every caller leaves at its default is a named
# constant in the module that uses it, not an option or a parameter, so
# a new knob needs an edit of these lists.
SUBCOMMAND_OPTIONS = {
    "solve": {"--config", "--out", "--lambda"},
    "sweep": {"--config", "--out", "--lambdas", "--lambda-min", "--lambda-max",
              "--points", "--no-warm", "--threads"},
    "lambda-star": {"--config", "--out", "--lambda-min", "--lambda-max",
                    "--iters"},
    "eigen": {"--config", "--out"},
    "hode": {"--config", "--out", "--alpha", "--T"},
    "construct": {"--config", "--out", "--kind", "--lambda"},
    "compare": {"--config", "--out", "--lambda", "sub_csv", "super_csv"},
    "verify": {"--only", "--seed"},
}

ENTRY_POINT_PARAMETERS = {
    "solver.newton_solve": ("spec", "initial", "max_iter", "lagged"),
    "solver.fixed_point": ("lu", "nonlinear", "u", "relax", "floor", "tol",
                           "max_iter"),
    "solver.solve_with_continuation": ("spec", "initial"),
    "solver.monotone_iterate": ("spec", "sub", "super_"),
    "solver.branch_fold": ("spec", "initial", "lambda_min"),
    "solver.default_schedule": ("steps",),
    "bifurcation.lambda_sweep": ("spec_template", "lambdas", "warm_start",
                                 "threads"),
    "bifurcation.estimate_lambda_star": ("spec_template", "lambda_min",
                                         "lambda_max", "iters", "refine"),
    "bifurcation.nonexistence_diagnostic": ("spec_template",),
    "constructions.build_supersolution": ("spec",),
    "constructions.build_subsolution_convection": ("spec",),
    "constructions.build_subsolution_eigen": ("spec",),
    "comparison.check_ordering": ("grid", "psi", "v", "w"),
    "spectral.hopf_collar": ("grid", "eigenpair"),
    "acceptance.comparison_suite": ("seed",),
    "hprofile.verify_h_bound": ("profile",),
    "mass.tail_trend": ("eps_values", "values"),
}


def subcommand_options():
    """{subcommand: its option strings and positional names}, help aside."""
    actions = build_parser()._subparsers._group_actions[0]
    return {name: {opt for action in parser._actions
                   if not isinstance(action, argparse._HelpAction)
                   for opt in (action.option_strings or [action.dest])}
            for name, parser in actions.choices.items()}


def test_the_cli_has_only_its_listed_options():
    assert subcommand_options() == SUBCOMMAND_OPTIONS


@pytest.mark.parametrize("name", sorted(ENTRY_POINT_PARAMETERS))
def test_an_entry_point_takes_only_its_listed_parameters(name):
    module, function = name.split(".")
    fn = getattr(importlib.import_module(f"selab.{module}"), function)
    assert tuple(inspect.signature(fn).parameters) == ENTRY_POINT_PARAMETERS[name]


# Callers of the exported functions: the package (its re-exports aside),
# the demos and the benchmark harness, but no test.
CALLERS = sorted(p for d in ("src/selab", "demos", "verdictbench")
                 for p in (ROOT / d).rglob("*.py")
                 if p != ROOT / "src/selab/__init__.py"
                 and not p.name.startswith("test_"))


def read_identifiers(source):
    """Every name and attribute name loaded in the module."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def unread_exports(exported, sources):
    read = set().union(*map(read_identifiers, sources))
    return sorted(name for name in exported if name not in read)


def test_every_exported_function_has_a_caller_outside_the_tests():
    import selab

    functions = [name for name in selab.__all__
                 if inspect.isfunction(getattr(selab, name))]
    assert functions
    assert unread_exports(functions, [p.read_text() for p in CALLERS]) == []


def test_the_export_scan_counts_only_reads():
    source = (
        "import selab\n"
        "from selab import g\n"
        "selab.f(1)\n"
        "h = 2\n"
        "def k():\n"
        "    return m\n"
    )
    assert unread_exports(["f", "g", "h", "k", "m"], [source]) == ["g", "h", "k"]
