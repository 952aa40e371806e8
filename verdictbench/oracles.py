"""Checks of selab's outputs that do not go through selab.

Every stencil here is written out with numpy on a zero-padded copy of
the field, so a fault in selab's sparse operators, its gradient matrices
or its residual assembly shows up as a disagreement instead of being
reproduced.  The closed forms (discrete lambda_1, the lambda_0 level c,
the boundary-profile constant) come from the theory, not from selab.

The problems the benchmark generates all have constant K, f(x, s) = s^p
(weight q = 1) and either power g = s^-alpha or a table sampled from
one; the oracles take exactly those parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    """One problem  -Lap u + K g(u + eps) + |grad u|^a = lam u^p  on the
    unit interval or unit square with n interior nodes per axis.

    `g` is None for the power family g = s^-alpha; otherwise it is the
    callable that defines g (a tabulated term), evaluated as given."""

    kind: str
    n: int
    K: float
    alpha: float
    p: float
    a: float
    lam: float
    g: object = None

    @property
    def shape(self):
        return (self.n,) if self.kind == "interval" else (self.n, self.n)

    @property
    def h(self):
        return 1.0 / (self.n + 1)

    def g_of(self, s):
        if self.g is None:
            return s ** (-self.alpha)
        return np.asarray(self.g(s), dtype=float)


def neg_laplacian(u, shape, h):
    """3-point (1d) or 5-point (2d) -Lap u with Dirichlet 0 outside."""
    if len(shape) == 1:
        w = np.pad(u, 1)
        return (2.0 * w[1:-1] - w[:-2] - w[2:]) / h**2
    w = np.pad(u.reshape(shape), 1)
    c = w[1:-1, 1:-1]
    lap = (4.0 * c - w[:-2, 1:-1] - w[2:, 1:-1] - w[1:-1, :-2] - w[1:-1, 2:]) / h**2
    return lap.ravel()


def gradient_magnitude(u, shape, h):
    """|grad u| by central differences, Dirichlet 0 outside; the x
    index varies slowest in the flat layout, as in selab's CSV files."""
    if len(shape) == 1:
        w = np.pad(u, 1)
        return np.abs(w[2:] - w[:-2]) / (2.0 * h)
    w = np.pad(u.reshape(shape), 1)
    gx = (w[2:, 1:-1] - w[:-2, 1:-1]) / (2.0 * h)
    gy = (w[1:-1, 2:] - w[1:-1, :-2]) / (2.0 * h)
    return np.sqrt(gx**2 + gy**2).ravel()


def residual(inst, u, eps):
    """Pointwise residual of the regularized equation and the -Lap u
    term, whose sup-norm sets the rounding scale of the residual."""
    u = np.asarray(u, dtype=float)
    lap = neg_laplacian(u, inst.shape, inst.h)
    grad = gradient_magnitude(u, inst.shape, inst.h)
    r = (lap + inst.K * inst.g_of(u + eps) + grad**inst.a
         - inst.lam * np.maximum(u, 0.0) ** inst.p)
    return r, lap


def solution_problems(inst, u, eps, rel_tol=1e-9, abs_tol=0.0):
    """Reasons `u` is not a positive solution at this eps, or [].

    A converged Newton solve meets max|r| < 1e-10 max(1, |A u|); the
    oracle allows ten times that for rounding differences between the
    two assemblies.  A monotone pinch is converged on an absolute
    residual, so it passes `abs_tol` instead."""
    problems = []
    u = np.asarray(u, dtype=float)
    if u.shape != (int(np.prod(inst.shape)),):
        return [f"solution has {u.shape} values for grid {inst.shape}"]
    if not float(u.min()) > eps:
        problems.append(f"min u = {float(u.min()):.3e} not above eps = {eps:.3e}")
        return problems
    r, lap = residual(inst, u, eps)
    limit = rel_tol * max(1.0, float(np.max(np.abs(lap)))) + abs_tol
    worst = float(np.max(np.abs(r)))
    if not worst <= limit:
        problems.append(f"residual {worst:.3e} above {limit:.3e}")
    return problems


def discrete_lambda1(shape):
    """Smallest eigenvalue of the discrete -Lap on the unit interval or
    square: sum over axes of (2/h^2)(1 - cos(pi h))."""
    return sum(2.0 * (n + 1) ** 2 * (1.0 - np.cos(np.pi / (n + 1))) for n in shape)


def lambda0_closed_form(inst):
    """lambda_0 = min(1, lambda_1 / 2m): f - K g < 0 exactly below
    c = K^(1/(p+alpha)), and m = f(c)/c = c^(p-1)."""
    c = inst.K ** (1.0 / (inst.p + inst.alpha))
    m = c ** (inst.p - 1.0)
    return min(1.0, discrete_lambda1(inst.shape) / (2.0 * m))


def profile_closed_form(alpha, t):
    """h(t) = C t^(2/(alpha+1)) solving h'' = h^-alpha, h(0) = h'(0) = 0."""
    expo = 2.0 / (alpha + 1.0)
    coeff = ((alpha + 1.0) / 2.0 * np.sqrt(2.0 / (1.0 - alpha))) ** expo
    return coeff * np.asarray(t, dtype=float) ** expo


def is_upset(lambdas, converged):
    """True iff the converged lambdas form an upper ray of the samples."""
    flags = [c for _, c in sorted(zip(lambdas, converged))]
    return all(b or not a for a, b in zip(flags, flags[1:]))


def read_field_csv(path):
    """Values column of a selab field CSV, parsed without selab."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, -1]
