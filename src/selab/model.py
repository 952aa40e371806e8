"""Model catalog: the singular term g, the reaction f, the potential K,
and the assembled problem

    -Lap(u) + K(x) g(u) + |grad u|^a = lambda f(x, u),   u > 0, u|_bdry = 0.

Structural hypotheses of the paper.  Power and shifted-exp g and power f
satisfy them; a table g is checked nonnegative and nonincreasing only:

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
from importlib import resources

import numpy as np

from .errors import ConfigError, ModelError, RegimeError
from .grid import Field, Grid, build_grid
from .mass import tail_trend

_SINGULAR_FAMILIES = ("power", "shifted-exp", "table")


def _end_slope(h0, h1, m0, m1):
    """Three-point one-sided slope at an end knot, clamped to keep the
    shape (Moler, *Numerical Computing with MATLAB*, 3.6)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _power_sum(c, s):
    """sum_j c[:, j] s^(k-1-j) for the k columns of `c` (highest power
    first), added from the lowest power up with the powers of s built by
    repeated multiplication: PPoly's order, not Horner's."""
    out = c[:, -1] + c[:, -2] * s
    z = s
    for j in range(c.shape[1] - 3, -1, -1):
        z = z * s
        out = out + c[:, j] * z
    return out


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant of the knots (x, y).

    The shape-preserving cubic of Fritsch & Carlson (SIAM J. Numer. Anal.
    17, 1980): interior slopes are the weighted harmonic mean of the
    neighboring secants (Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5,
    1984), 0 where the secants change sign or one is 0; end slopes are
    three-point and clamped; two knots give the line.  Outside [x_0,
    x_n-1] the end cubics continue.  Every step follows the arithmetic
    of scipy's `PchipInterpolator` and `PPoly`, so the values, the
    derivative and the antiderivative (0 at x_0) are scipy's, bitwise.
    Knots that are not finite and strictly increasing raise ModelError.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ModelError("interpolation needs matching 1d knots, at least two")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ModelError("interpolation knots and values must be finite")
        h = x[1:] - x[:-1]
        if not np.all(h > 0):
            raise ModelError("interpolation knots must be strictly increasing")
        m = (y[1:] - y[:-1]) / h
        d = np.empty_like(y)
        if m.size == 1:
            d[:] = m[0]
        else:
            sm = np.sign(m)
            flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                d[1:-1] = np.where(flat, 0.0,
                                   1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            d[0] = _end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        self._inner = x[1:-1]
        # one row per interval: the cubic in s = x - x_i, highest power first
        self._c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]), axis=1)
        self._dc = self._c[:, :3] * np.array([3.0, 2.0, 1.0])
        self._ic = None

    def _eval(self, c, x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        # the interval [x_i, x_i+1) holding each point, the last one
        # closed, the end ones continued: i counts the interior knots <= x
        i = np.searchsorted(self._inner, flat, side="right")
        return _power_sum(c.take(i, axis=0), flat - self.x.take(i)).reshape(x.shape)

    def __call__(self, x):
        return self._eval(self._c, x)

    def derivative(self, x):
        return self._eval(self._dc, x)

    def antiderivative(self, x):
        # where the integral leaves the float range it is inf, silently,
        # as scipy's is
        with np.errstate(over="ignore"):
            if self._ic is None:
                # each interval's constant is the previous quartic at its
                # right end, summed term by term as _power_sum does and
                # carried forward one interval at a time (scipy's
                # fix_continuity); built on first use
                ic = np.zeros((self._c.shape[0], 5))
                ic[:, :4] = self._c / np.array([4.0, 3.0, 2.0, 1.0])
                s = (self.x[1:] - self.x[:-1])[:-1]
                z = [s]
                for _ in range(3):
                    z.append(z[-1] * s)
                terms = [(ic[:-1, 3 - j] * z[j]).tolist() for j in range(4)]
                carry = 0.0
                for k, (t1, t2, t3, t4) in enumerate(zip(*terms), start=1):
                    carry = carry + t1 + t2 + t3 + t4
                    ic[k, 4] = carry
                self._ic = ic
            return self._eval(self._ic, x)


@dataclass(frozen=True)
class SingularTerm:
    """Nonincreasing g blowing up at 0, with a primitive P (P' = g).

    family "power":        g(s) = s^-alpha,
                           P(s) = s^(1-alpha)/(1-alpha), or log s at alpha = 1
    family "shifted-exp":  g(s) = exp(1/s) - 1,
                           P(s) = s expm1(1/s) - Ei(1/s)
    family "table":        monotone interpolation of (s_i, g_i) samples,
                           extended by the first/last value outside the
                           sampled range; P is the PCHIP antiderivative,
                           continued linearly outside the range.  The
                           interpolant (`_Pchip`, numpy alone) is built
                           once, on construction, and its antiderivative
                           on the first call of P.

    The interval masses, a table's integrability probe and a table
    profile's G are differences of P: no caller picks an integration
    method by family.  Ei is imported by the shifted-exp primitive alone,
    so only that family loads `scipy.special`.
    """

    family: str
    alpha: float | None = None
    table_s: np.ndarray | None = None
    table_g: np.ndarray | None = None
    _pchip: _Pchip | None = dataclass_field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in _SINGULAR_FAMILIES:
            raise ModelError(f"unknown singular family {self.family!r}")
        if self.family == "power":
            if self.alpha is None or not 0.0 < self.alpha < np.inf:
                raise ModelError("power singular term needs a finite alpha > 0")
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
            object.__setattr__(self, "_pchip", _Pchip(s, g))

    def _in_table(self, s):
        """s clamped to the table's range (np.clip's values, at half
        its cost)."""
        return np.minimum(np.maximum(s, self.table_s[0]), self.table_s[-1])

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.family == "power":
            return s ** (-self.alpha)
        if self.family == "shifted-exp":
            with np.errstate(over="ignore"):
                return np.exp(1.0 / s) - 1.0
        return self._pchip(self._in_table(s))

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        if self.family == "power":
            return -self.alpha * s ** (-self.alpha - 1.0)
        if self.family == "shifted-exp":
            with np.errstate(over="ignore"):
                return -np.exp(1.0 / s) / s**2
        inside = self._in_table(s)
        d = self._pchip.derivative(inside)
        # flat extension outside the table
        d = np.where((s < self.table_s[0]) | (s > self.table_s[-1]), 0.0, d)
        return d

    def primitive(self, s):
        """P(s) with P' = g, so that the integral of g over [a, b] is
        P(b) - P(a).  For shifted-exp, P is -inf where exp(1/s)
        overflows (its limit at 0), so such an integral is inf."""
        s = np.asarray(s, dtype=float)
        if self.family == "power":
            if abs(self.alpha - 1.0) < 1e-14:
                return np.log(s)
            return s ** (1.0 - self.alpha) / (1.0 - self.alpha)
        if self.family == "shifted-exp":
            from scipy.special import expi

            with np.errstate(over="ignore", invalid="ignore"):
                head = s * np.expm1(1.0 / s)
                return np.where(np.isinf(head), -np.inf, head - expi(1.0 / s))
        inside = self._in_table(s)
        return self._pchip.antiderivative(inside) + self._pchip(inside) * (s - inside)


def classify_singularity(g):
    """Classify integral_0^1 g as "integrable" or "non-integrable".

    Power and shifted-exp families are decided analytically (alpha < 1
    iff integrable; exp(1/s) - 1 >= 1/s - 1 diverges).  Tables are probed
    on dyadic cells [c 2^-(k+1), c 2^-k], c = min(1, s_max), down to the
    first sample: the primitive P at the cells' edges is a dyadic tail,
    and `mass.tail_trend` decides whether it sums ("integrable" for a
    bounded tail, "non-integrable" for a divergent one, "indeterminate"
    when it shows no trend, as with fewer than five edges).  Its margin
    of 0.01 keeps a log-divergent table on the non-integrable side:
    interpolation moves its ratios off 1 by about 1e-7 on a 400-point
    geometric table, either way.  The price is that s^-alpha with alpha
    in (0.985, 1) is called non-integrable, which refuses a profile
    instead of building one on a tail too slow to resolve.
    """
    if g.family == "power":
        return "integrable" if g.alpha < 1.0 else "non-integrable"
    if g.family == "shifted-exp":
        return "non-integrable"
    # dyadic edges hi/2, hi/4, ... down to the first sample (at most 40
    # cells): a cell truncated by the table would fake a trend reversal
    hi = min(1.0, g.table_s[-1])
    edges = hi * 0.5 ** np.arange(1, 42)
    edges = edges[edges >= g.table_s[0]]
    verdict = tail_trend(edges, g.primitive(edges))[2]
    return {"bounded": "integrable", "divergent": "non-integrable"}.get(
        verdict, "indeterminate")


def _nodal_values(grid, value, what):
    """A constant or a callable of the space columns at the interior nodes
    of `grid`, as a read-only array (callers cache it per grid).  A value
    that is not finite at some node raises ModelError: an infinite K or q
    would otherwise read as a silent nonexistence verdict."""
    if callable(value):
        cols = [grid.coords()[:, i] for i in range(grid.dim)]
        out = np.broadcast_to(value(*cols), (grid.n_total,)).astype(float)
    else:
        out = np.full(grid.n_total, float(value))
    if not np.all(np.isfinite(out)):
        raise ModelError(f"{what} must be finite at every interior node")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ReactionTerm:
    """Sublinear reaction f(x, s) = q(x) * s^p with 0 <= p < 1 and q > 0
    (p = 0 gives the constant-in-s degenerate probe).  "power" is the one
    family."""

    family: str
    p: float | None = None
    q: object = 1.0          # constant or callable of the space columns
    _weights: weakref.WeakKeyDictionary = dataclass_field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False,
        compare=False)

    def __post_init__(self):
        if self.family != "power":
            raise ModelError(f"unknown reaction family {self.family!r}")
        if self.p is None or not 0.0 <= self.p < 1.0:
            raise ModelError("power reaction needs exponent p in [0, 1)")

    def weight(self, grid):
        """Nodal q on `grid` (read-only), built and checked finite and
        positive once per grid."""
        w = self._weights.get(grid)
        if w is None:
            w = _nodal_values(grid, self.q, "reaction weight q")
            if np.any(w <= 0):
                raise ModelError("reaction weight q must be positive")
            self._weights[grid] = w
        return w

    def value(self, grid, s):
        base = np.maximum(np.asarray(s, dtype=float), 0.0)
        return self.weight(grid) * base**self.p

    def deriv(self, grid, s):
        s = np.asarray(s, dtype=float)
        if self.p == 0.0:
            return np.zeros_like(s)
        base = np.maximum(s, 1e-300)
        return self.weight(grid) * self.p * base ** (self.p - 1.0)


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
            k = self._nodal[grid] = _nodal_values(grid, self.value, "potential K")
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
    (0, 2], lambda not in (0, inf) or eps not in [0, inf) raises
    ModelError (a NaN lies in neither).
    """

    grid: Grid
    potential: Potential
    singular: SingularTerm
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
        if not 0.0 < self.lam < np.inf:
            raise ModelError(f"lambda must be positive and finite, got {self.lam}")
        if not 0.0 <= self.eps < np.inf:
            raise ModelError(
                f"epsilon must be nonnegative and finite, got {self.eps}")

    def k_nodal(self):
        return self.potential.nodal(self.grid)

    def regime(self):
        return self.potential.regime(self.grid)

    def f_at(self, u):
        return self.reaction.value(self.grid, u)

    def df_at(self, u):
        return self.reaction.deriv(self.grid, u)

    def psi(self, s):
        """The zeroth-order part psi(x, s) = lambda f(x, s) - K(x) g(s + eps)
        at nodal levels s: the equation is -Lap u + |grad u|^a = psi + source."""
        return self.lam * self.f_at(s) - self.k_nodal() * self.singular(s + self.eps)

    def dpsi(self, s):
        """d psi / ds = lambda f_s(x, s) - K(x) g'(s + eps)."""
        return self.lam * self.df_at(s) - self.k_nodal() * self.singular.deriv(s + self.eps)

    def with_lambda(self, lam):
        return replace(self, lam=float(lam))

    def with_eps(self, eps):
        return replace(self, eps=float(eps))


def make_problem(grid, potential, singular, reaction, conv_a=1.0, lam=1.0,
                 eps=0.0):
    """Assemble a ProblemSpec and check its potential's sign regime.

    Plain numbers and callables are promoted to Potential; ProblemSpec
    validates the rest (ModelError), and a sign-indefinite potential
    raises RegimeError.
    """
    if not isinstance(potential, Potential):
        potential = Potential(potential)
    spec = ProblemSpec(grid, potential, singular, reaction, conv_a, lam, eps)
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
    g1 = float(spec.singular(np.array([1.0]))[0])
    p = np.minimum(f1, -spec.k_nodal() * g1)
    return Field(grid, p), bool(np.all(p > 0))


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


def bundled_config_text(name):
    """Read one of the shipped .cfg files by bare name (ConfigError if none)."""
    path = resources.files("selab") / "configs" / name
    if not path.is_file():
        raise ConfigError(f"no bundled config {name!r}")
    return path.read_text()


def bundled_problem(name):
    return problem_from_config(bundled_config_text(name))[1]
