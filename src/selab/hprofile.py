"""Flat-start growth profile h with h'' = g(h), h(0) = h'(0) = 0.

The profile exists exactly when g is integrable at 0 (otherwise no orbit
leaves the origin; construction refuses with a KellerOssermanError).
First integral: multiplying by h' gives

    (h')^2(t) = 2 G(h(t)),  G(y) = integral_0^y g,

so t(h) = integral_0^h dy / sqrt(2 G(y)) and the profile is recovered by
inverting this strictly increasing map.  For the power family
g(s) = s^-alpha (alpha < 1) everything is closed form:

    h(t) = C t^(2/(alpha+1)),
    C = ((alpha+1)/2 * sqrt(2/(1-alpha)))^(2/(alpha+1)),

e.g. alpha = 1/2: h(t) = (1.5 t)^(4/3), so h(2/3) = 1 and h'(2/3) = 2.
Two consequences used downstream: the energy identity above, and the
bound t h'(t) <= 2 h(t) (h' is nondecreasing, so h(t) >= t h'(t)/2 by
convexity through the origin; for the power family the ratio
t h' / (2h) is constant and equals 1/(alpha+1)).

A tabulated profile is interpolated by the numpy PCHIP of `selab.model`
and its t(h) map is a cumulative trapezoid, so no profile loads
`scipy.interpolate` or `scipy.integrate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KellerOssermanError, ModelError
from .model import _Pchip, classify_singularity

# the slack of `verify_h_bound`'s ratio test
_BOUND_TOL = 1e-9


@dataclass
class HProfile:
    """Monotone table (t_i, h_i, h'_i) on [0, T].

    For the power family the exact closed forms back the evaluators and
    the table is a sampling of them; otherwise h and h' are monotone
    (PCHIP) interpolants of the table, each built on its first use.
    """

    t: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    T: float
    coeff: float | None = None      # closed-form C, power family only
    exponent: float | None = None   # closed-form 2/(alpha+1)

    def __post_init__(self):
        self._h_interp = None
        self._dh_interp = None

    @property
    def closed_form(self):
        return self.coeff is not None

    def h_at(self, t):
        t = np.asarray(t, dtype=float)
        if self.closed_form:
            return self.coeff * t**self.exponent
        if self._h_interp is None:
            self._h_interp = _Pchip(self.t, self.h)
        return self._h_interp(np.minimum(np.maximum(t, 0.0), self.T))

    def dh_at(self, t):
        t = np.asarray(t, dtype=float)
        if self.closed_form:
            with np.errstate(divide="ignore"):
                out = self.coeff * self.exponent * t ** (self.exponent - 1.0)
            return np.where(t == 0.0, 0.0, out)
        if self._dh_interp is None:
            self._dh_interp = _Pchip(self.t, self.dh)
        return self._dh_interp(np.minimum(np.maximum(t, 0.0), self.T))


def _cumulative_trapezoid(y, x):
    """Trapezoid integrals of y from x_0 to each x_i, starting at 0:
    scipy's `cumulative_trapezoid(y, x, initial=0)`, bitwise."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def _t_grid(T):
    """[0, T]: 48 geometric points from 1e-10 T to 0.1 T (the profile has
    a power cusp at 0), then 160 uniform ones to T."""
    geo = T * np.geomspace(1e-10, 0.1, 48)
    uni = np.linspace(0.1 * T, T, 160)
    return np.concatenate([[0.0], geo, uni[1:]])


def build_h_profile(g, T=1.0):
    """Construct the profile on [0, T].

    Power-family g uses the closed form; tabulated g takes G from its
    primitive, then quadrature of t(h) = integral dy/sqrt(2 G(y)) and
    monotone inversion.
    Raises KellerOssermanError for non-integrable g and ModelError for
    a T that is not positive and finite, an indeterminate table
    classification, a primitive G whose double is not finite, a t(h)
    map that is not finite and strictly increasing, or a table whose h
    or h' is not finite (the closed form overflows for T above about
    1e231 at alpha = 1/2).
    """
    if not 0 < T < np.inf:
        raise ModelError(f"profile domain cap T must be positive and finite, "
                         f"got {T}")
    verdict = classify_singularity(g)
    if verdict == "non-integrable":
        raise KellerOssermanError(
            "g is non-integrable at 0: no flat-start profile h'' = g(h) exists"
        )
    if verdict == "indeterminate":
        raise ModelError("cannot classify g at 0; profile construction refused")

    t = _t_grid(T)
    if g.family == "power":
        alpha = g.alpha
        expo = 2.0 / (alpha + 1.0)
        coeff = ((alpha + 1.0) / 2.0 * np.sqrt(2.0 / (1.0 - alpha))) ** expo
        with np.errstate(divide="ignore", over="ignore"):
            h = coeff * t**expo
            dh = coeff * expo * t ** (expo - 1.0)
        dh[0] = 0.0
        _require_finite_table(h, dh, T)
        return HProfile(t=t, h=h, dh=dh, T=float(T), coeff=float(coeff),
                        exponent=float(expo))

    # tabulated g: G from the primitive of g, then cumulative quadrature
    # of t(h) and monotone inversion.  1/sqrt(2 G) is an integrable
    # power-like singularity at 0, so a geometric grid with an analytic
    # local-power first cell suffices.
    hi = 1.0
    for _ in range(60):
        y = np.concatenate([[0.0], np.geomspace(1e-12 * hi, hi, 3000)])
        G = g.primitive(y) - g.primitive(0.0)
        # 2 G must stay finite (a NaN fails this test as well)
        if not np.all(np.abs(G) <= 0.5 * np.finfo(float).max):
            raise ModelError(
                f"the primitive G of g leaves the float range on [0, {hi:g}]: "
                "2 G is not finite")
        with np.errstate(divide="ignore"):
            w = 1.0 / np.sqrt(2.0 * G[1:])
        # local power G ~ G_1 (y/y_1)^m on the first cell, m < 2
        m = np.log(G[2] / G[1]) / np.log(y[2] / y[1])
        t0 = y[1] * w[0] / (1.0 - m / 2.0)
        ty = np.concatenate(
            [[0.0], t0 + _cumulative_trapezoid(w, y[1:])]
        )
        if ty[-1] >= T:
            break
        hi *= 4.0
    else:
        raise ModelError("profile height escaped; g decays too fast")
    # knots that are not strictly increasing (a degenerate t(h) map)
    # raise ModelError here
    inv = _Pchip(ty, y)
    h = inv(np.minimum(np.maximum(t, 0.0), ty[-1]))
    dh = np.sqrt(2.0 * np.interp(h, y, G))
    dh[0] = 0.0
    _require_finite_table(h, dh, T)
    return HProfile(t=t, h=h, dh=dh, T=float(T))


def _require_finite_table(h, dh, T):
    if not (np.isfinite(h).all() and np.isfinite(dh).all()):
        raise ModelError(f"the profile table on [0, T] with T = {T:g} is not "
                         "finite: h or h' leaves the float range")


@dataclass
class HBoundReport:
    """Result of checking t h'(t) <= 2 h(t) over the table."""

    max_ratio: float
    argmax_t: float
    passed: bool
    tol: float


def verify_h_bound(profile):
    """Check the growth bound t h'(t) <= 2 h(t) at every table point, to
    within a ratio of 1 + 1e-9 (the report's `tol`).

    The ratio t h' / (2 h) is reported; for power-family profiles it is
    identically 1/(alpha+1) < 1.  An empty or single-point table passes
    vacuously.
    """
    mask = profile.t > 0
    if not np.any(mask):
        return HBoundReport(max_ratio=0.0, argmax_t=0.0, passed=True,
                            tol=_BOUND_TOL)
    t = profile.t[mask]
    h = profile.h[mask]
    dh = profile.dh[mask]
    ratio = t * dh / (2.0 * h)
    k = int(np.argmax(ratio))
    return HBoundReport(
        max_ratio=float(ratio[k]),
        argmax_t=float(t[k]),
        passed=bool(ratio[k] <= 1.0 + _BOUND_TOL),
        tol=_BOUND_TOL,
    )
