"""Model catalog: the singular term g, the reaction f, the potential K,
and the assembled problem

    -Lap(u) + K(x) g(u) + |grad u|^a = lambda f(x, u),   u > 0, u|_bdry = 0.

Structural hypotheses the catalog enforces or probes:

  (g)  g : (0, inf) -> (0, inf) nonincreasing with g(s) -> +inf as s -> 0+;
  (f1) f(x, .) nondecreasing and s -> f(x, s)/s nonincreasing;
  (f2) f(x, s)/s -> +inf as s -> 0+ and -> 0 as s -> +inf, uniformly in x.

Supported g families: power s^-alpha (alpha > 0), shifted exponential
exp(1/s) - 1, and tabulated monotone data.  Integrability of g at 0 splits
the strong and weak singularity regimes; `classify_singularity` decides it.

The potential K must be sign-definite: negative in the interior (it may
vanish on the boundary) or positive on the closure.  Sign-changing K is
out of scope and rejected.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from .errors import ConfigError, ModelError, RegimeError
from .grid import Field, Grid, build_grid

_SINGULAR_FAMILIES = ("power", "shifted-exp", "table")


@dataclass(frozen=True)
class SingularTerm:
    """Nonincreasing g blowing up at 0.

    family "power":        g(s) = s^-alpha
    family "shifted-exp":  g(s) = exp(1/s) - 1
    family "table":        monotone interpolation of (s_i, g_i) samples,
                           extended by the first/last value outside the
                           sampled range.  The PCHIP interpolant and
                           its derivative are built once, on construction.
    """

    family: str
    alpha: float | None = None
    table_s: np.ndarray | None = None
    table_g: np.ndarray | None = None
    _pchip: tuple | None = dataclass_field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in _SINGULAR_FAMILIES:
            raise ModelError(f"unknown singular family {self.family!r}")
        if self.family == "power":
            if self.alpha is None or not self.alpha > 0:
                raise ModelError("power singular term needs alpha > 0")
        if self.family == "table":
            s = np.asarray(self.table_s, dtype=float)
            g = np.asarray(self.table_g, dtype=float)
            if s.ndim != 1 or s.shape != g.shape or s.size < 2:
                raise ModelError("table singular term needs matching 1d samples")
            if not (np.all(np.diff(s) > 0) and np.all(s > 0)):
                raise ModelError("table abscissae must be positive increasing")
            if np.any(np.diff(g) > 0) or np.any(g < 0):
                raise ModelError("table values must be nonnegative nonincreasing")
            object.__setattr__(self, "table_s", s)
            object.__setattr__(self, "table_g", g)
            interp = PchipInterpolator(s, g, extrapolate=False)
            object.__setattr__(self, "_pchip", (interp, interp.derivative()))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.family == "power":
            return s ** (-self.alpha)
        if self.family == "shifted-exp":
            with np.errstate(over="ignore"):
                return np.exp(1.0 / s) - 1.0
        return self._pchip[0](np.clip(s, self.table_s[0], self.table_s[-1]))

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        if self.family == "power":
            return -self.alpha * s ** (-self.alpha - 1.0)
        if self.family == "shifted-exp":
            with np.errstate(over="ignore"):
                return -np.exp(1.0 / s) / s**2
        inside = np.clip(s, self.table_s[0], self.table_s[-1])
        d = self._pchip[1](inside)
        # flat extension outside the table
        d = np.where((s < self.table_s[0]) | (s > self.table_s[-1]), 0.0, d)
        return d


def classify_singularity(g):
    """Classify integral_0^1 g as "integrable" or "non-integrable".

    Power and shifted-exp families are decided analytically (alpha < 1
    iff integrable; exp(1/s) - 1 >= 1/s - 1 diverges).  Tables are probed
    by quadrature on shrinking left endpoints; if the tail increments
    neither die out nor keep growing the verdict is "indeterminate".
    """
    if g.family == "power":
        return "integrable" if g.alpha < 1.0 else "non-integrable"
    if g.family == "shifted-exp":
        return "non-integrable"
    # table: integrate over [2^-k, s_max] and watch the increments
    lo = g.table_s[0]
    hi = min(1.0, g.table_s[-1])
    if lo >= hi:
        return "indeterminate"
    increments = []
    a, b = hi / 4, hi / 2
    while b > lo * 1.0001 and len(increments) < 40:
        if a < lo:
            break  # a truncated cell would fake a trend reversal
        inc = quad(g, a, b, limit=100)[0]
        increments.append(inc)
        b = a
        a = b / 2
    if len(increments) < 4:
        return "indeterminate"
    tail = np.array(increments[-4:])
    if np.all(tail[1:] < 0.75 * tail[:-1]):
        return "integrable"
    if np.all(tail[1:] > 0.95 * tail[:-1]):
        return "non-integrable"
    return "indeterminate"


def _nodal_values(grid, value):
    """A constant or a callable of the space columns at the interior nodes
    of `grid`, as a read-only array (callers cache it per grid)."""
    if callable(value):
        cols = [grid.coords()[:, i] for i in range(grid.dim)]
        out = np.broadcast_to(value(*cols), (grid.n_total,)).astype(float)
    else:
        out = np.full(grid.n_total, float(value))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ReactionTerm:
    """Sublinear reaction f(x, s).

    family "power":  f(x, s) = q(x) * s^p with 0 <= p < 1 and q > 0
                     (p = 0 gives the constant-in-s degenerate probe);
    family "custom": arbitrary callables fn(x_cols..., s), dfn optional.
    """

    family: str
    p: float | None = None
    q: object = 1.0          # constant or callable of the space columns
    fn: object = None
    dfn: object = None
    _weights: weakref.WeakKeyDictionary = dataclass_field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False,
        compare=False)

    def __post_init__(self):
        if self.family == "power":
            if self.p is None or not 0.0 <= self.p < 1.0:
                raise ModelError("power reaction needs exponent p in [0, 1)")
        elif self.family == "custom":
            if not callable(self.fn):
                raise ModelError("custom reaction needs a callable fn")
        else:
            raise ModelError(f"unknown reaction family {self.family!r}")

    def weight(self, grid):
        """Nodal q on `grid` (read-only), built and checked positive once
        per grid."""
        w = self._weights.get(grid)
        if w is None:
            w = _nodal_values(grid, self.q)
            if np.any(w <= 0):
                raise ModelError("reaction weight q must be positive")
            self._weights[grid] = w
        return w

    def value(self, grid, s):
        s = np.asarray(s, dtype=float)
        if self.family == "power":
            base = np.maximum(s, 0.0)
            return self.weight(grid) * base**self.p
        cols = [grid.coords()[:, i] for i in range(grid.dim)]
        return np.broadcast_to(self.fn(*cols, s), s.shape).astype(float)

    def deriv(self, grid, s):
        s = np.asarray(s, dtype=float)
        if self.family == "power":
            if self.p == 0.0:
                return np.zeros_like(s)
            base = np.maximum(s, 1e-300)
            return self.weight(grid) * self.p * base ** (self.p - 1.0)
        if self.dfn is not None:
            cols = [grid.coords()[:, i] for i in range(grid.dim)]
            return np.broadcast_to(self.dfn(*cols, s), s.shape).astype(float)
        # one-sided finite difference fallback
        step = 1e-7 * np.maximum(np.abs(s), 1.0)
        return (self.value(grid, s + step) - self.value(grid, s)) / step

    @property
    def f0_positive(self):
        """Whether a power reaction has f(x, 0) > 0, i.e. p = 0 (recorded,
        not enforced)."""
        return self.p == 0.0


@dataclass(frozen=True)
class Potential:
    """Sign-definite coefficient K of the singular term.

    Either a constant or a closed-form callable of the space columns.
    The sign regime is decided on the grid closure: "negative" means
    K < 0 at every interior node (K may vanish on the boundary),
    "positive" means K > 0 at interior and boundary nodes alike.
    """

    value: object  # constant or callable
    _nodal: weakref.WeakKeyDictionary = dataclass_field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False,
        compare=False)

    def nodal(self, grid):
        """K at the interior nodes of `grid` (read-only), built once per
        grid."""
        k = self._nodal.get(grid)
        if k is None:
            k = self._nodal[grid] = _nodal_values(grid, self.value)
        return k

    def _boundary_values(self, grid):
        if not callable(self.value):
            return np.array([float(self.value)])
        b = grid.boundary_coords()
        cols = [b[:, i] for i in range(b.shape[1])]
        return np.asarray(self.value(*cols), dtype=float)

    def regime(self, grid):
        interior = self.nodal(grid)
        if np.all(interior < 0):
            return "negative"
        if np.all(interior > 0) and np.all(self._boundary_values(grid) > 0):
            return "positive"
        raise RegimeError(
            "potential must be negative in the interior or positive on the "
            "closure; sign-changing K is unsupported"
        )


@dataclass(frozen=True)
class ProblemSpec:
    """Assembled problem instance on a grid: every spec has a singular
    term and a convection exponent a in (0, 2].

    Construction validates the terms and the parameters, so direct
    construction, `make_problem` and `dataclasses.replace` agree: a
    singular or reaction term that is not a catalog term, a not in
    (0, 2], lambda <= 0 or eps < 0 raises ModelError.
    """

    grid: Grid
    potential: Potential
    singular: SingularTerm | None
    reaction: ReactionTerm
    conv_a: float
    lam: float
    eps: float = 0.0
    source: Field | None = None

    def __post_init__(self):
        if not isinstance(self.singular, SingularTerm):
            raise ModelError("singular term must be a SingularTerm")
        if not isinstance(self.reaction, ReactionTerm):
            raise ModelError("reaction term must be a ReactionTerm")
        for name in ("conv_a", "lam", "eps"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.conv_a <= 2.0:
            raise ModelError(
                f"convection exponent a must lie in (0, 2], got {self.conv_a}")
        if not self.lam > 0:
            raise ModelError(f"lambda must be positive, got {self.lam}")
        if self.eps < 0:
            raise ModelError(f"epsilon must be nonnegative, got {self.eps}")

    def k_nodal(self):
        return self.potential.nodal(self.grid)

    def k_min(self):
        return float(self.k_nodal().min())

    def k_max(self):
        return float(self.k_nodal().max())

    def regime(self):
        return self.potential.regime(self.grid)

    def f_at(self, u):
        return self.reaction.value(self.grid, u)

    def df_at(self, u):
        return self.reaction.deriv(self.grid, u)

    def g_at(self, s):
        return self.singular(s)

    def dg_at(self, s):
        return self.singular.deriv(s)

    def with_lambda(self, lam):
        return replace(self, lam=float(lam))

    def with_eps(self, eps):
        return replace(self, eps=float(eps))


def make_problem(grid, potential, singular, reaction, conv_a=1.0, lam=1.0,
                 eps=0.0, source=None):
    """Assemble a ProblemSpec and check its potential's sign regime.

    Plain numbers and callables are promoted to Potential; ProblemSpec
    validates the rest (ModelError), and a sign-indefinite potential
    raises RegimeError.
    """
    if not isinstance(potential, Potential):
        potential = Potential(potential)
    spec = ProblemSpec(grid, potential, singular, reaction, conv_a, lam, eps, source)
    spec.regime()  # rejects sign-changing K early
    return spec


def compute_p(spec):
    """Forcing floor p(x) = min{lambda f(x, 1), -K(x) g(1)} and its
    positivity flag (true iff p > 0 at every interior node).

    p(x) <= lambda f(x, s) - K(x) g(s) for every s > 0: for s >= 1 the
    first branch is a lower bound (f nondecreasing, -K g >= 0 in the
    negative regime), for s < 1 the second one is (g nonincreasing).
    """
    grid = spec.grid
    ones = np.ones(grid.n_total)
    f1 = spec.lam * spec.f_at(ones)
    g1 = float(spec.g_at(np.array([1.0]))[0])
    p = np.minimum(f1, -spec.k_nodal() * g1)
    return Field(grid, p), bool(np.all(p > 0))


@dataclass
class ProbeReport:
    """Sampled verdicts on the structural hypotheses; `passed` is the
    conjunction.  Limit hypotheses are trend checks, not proofs."""

    f_monotone: bool
    f_ratio_nonincreasing: bool
    f_ratio_blows_up_at_zero: bool
    f_ratio_vanishes_at_infinity: bool
    g_nonincreasing: bool
    g_blows_up_at_zero: bool
    details: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self):
        return (
            self.f_monotone
            and self.f_ratio_nonincreasing
            and self.f_ratio_blows_up_at_zero
            and self.f_ratio_vanishes_at_infinity
            and self.g_nonincreasing
            and self.g_blows_up_at_zero
        )


def hypothesis_probe(f, g, sample_spec, s_range=(1e-6, 1e6), n_samples=61):
    """Sample the hypotheses (f1), (f2), (g) on a log grid of s values.

    `sample_spec` supplies the spatial sample nodes: a Grid or a
    ProblemSpec (its grid is used).  A small slack (1e-10 relative)
    absorbs rounding in the monotonicity checks.
    """
    grid = sample_spec.grid if isinstance(sample_spec, ProblemSpec) else sample_spec
    s = np.geomspace(s_range[0], s_range[1], n_samples)
    fx = np.array([f.value(grid, np.full(grid.n_total, si)) for si in s])
    ratios = fx / s[:, None]
    slack = 1.0 + 1e-10
    f_monotone = bool(np.all(fx[1:] >= fx[:-1] / slack))
    ratio_noninc = bool(np.all(ratios[1:] <= ratios[:-1] * slack))
    mid = n_samples // 2
    blows_up = bool(np.all(ratios[0] >= 10.0 * ratios[mid]))
    vanishes = bool(np.all(ratios[-1] <= 0.1 * ratios[mid]))
    gs = g(s)
    g_noninc = bool(np.all(gs[1:] <= gs[:-1] * slack))
    g_blows = bool(gs[0] >= 10.0 * max(gs[mid], 1e-300))
    return ProbeReport(
        f_monotone=f_monotone,
        f_ratio_nonincreasing=ratio_noninc,
        f_ratio_blows_up_at_zero=blows_up,
        f_ratio_vanishes_at_infinity=vanishes,
        g_nonincreasing=g_noninc,
        g_blows_up_at_zero=g_blows,
        details={
            "s_range": s_range,
            "ratio_at_smallest_s": float(ratios[0].min()),
            "ratio_at_largest_s": float(ratios[-1].max()),
            "f0_positive": f.f0_positive if f.family == "power" else None,
        },
    )


# ---- Problem config files (flat key-value text) ----

_CONFIG_KEYS = (
    "domain.kind", "domain.n", "K.family", "K.value",
    "g.family", "g.alpha", "f.p", "a", "lambda", "epsilon",
)
_REQUIRED_KEYS = tuple(k for k in _CONFIG_KEYS if k != "epsilon")


def parse_config(text):
    """Parse flat `key = value` lines (case-sensitive, # comments).

    Exactly the documented keys are recognized; unknown keys are errors.
    The domain extent is fixed at 1.0 (unit interval / unit square).
    """
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    missing = [k for k in _REQUIRED_KEYS if k not in entries]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    return entries


def _config_float(entries, key):
    try:
        return float(entries[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {entries[key]!r}") from exc


def problem_from_config(text):
    """Build (grid, ProblemSpec) from config text; see parse_config."""
    entries = parse_config(text)
    kind = entries["domain.kind"]
    if kind not in ("interval", "rectangle"):
        raise ConfigError(f"domain.kind must be interval or rectangle, got {kind!r}")
    try:
        n = int(entries["domain.n"])
    except ValueError as exc:
        raise ConfigError(f"domain.n must be an integer, got {entries['domain.n']!r}") from exc
    try:
        grid = build_grid(kind, 1.0, n)
    except Exception as exc:
        raise ConfigError(f"bad domain: {exc}") from exc
    if entries["K.family"] != "constant":
        raise ConfigError("config K.family supports only 'constant'")
    if entries["g.family"] not in ("power", "shifted-exp"):
        raise ConfigError("config g.family supports 'power' or 'shifted-exp'")
    if entries["g.family"] == "power":
        singular = SingularTerm("power", alpha=_config_float(entries, "g.alpha"))
    else:
        singular = SingularTerm("shifted-exp")
    reaction = ReactionTerm("power", p=_config_float(entries, "f.p"))
    try:
        spec = make_problem(
            grid,
            Potential(_config_float(entries, "K.value")),
            singular,
            reaction,
            conv_a=_config_float(entries, "a"),
            lam=_config_float(entries, "lambda"),
            eps=_config_float(entries, "epsilon") if "epsilon" in entries else 0.0,
        )
    except ModelError as exc:
        raise ConfigError(str(exc)) from exc
    return grid, spec
