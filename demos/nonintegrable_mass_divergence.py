"""Nonexistence for every lambda when g is too singular.

    -u'' + g(u) + |u'| = lambda f(u),  u(0) = u(1) = 0,

with g(s) = s^(-3/2), whose integral over (0, 1] diverges.  A positive
solution would have to climb out of the wall like the profile h with
h'' = g(h), and for non-integrable g no such profile leaves zero
(Keller-Osserman).  Numerically the failure shows up twice:

  * continuation stalls or collapses at every lambda, and
  * the singular mass I(eps) = integral of g(U + eps) of the
    gradient-free super-solution U grows like eps^(-1/2) as the
    regularization is removed, its increments by a factor sqrt(2) per
    halving of eps.  Every solution lies below U and g is nonincreasing,
    so a solution's mass would be at least as large: it cannot settle to
    the finite integral a true solution would have.
"""

import numpy as np

from selab import bundled_problem, lambda_sweep, nonexistence_diagnostic

spec = bundled_problem("theorem2.cfg")

result = lambda_sweep(spec, [1.0, 10.0, 100.0])
print("lambda   verdict                  mode")
for lam, rep in zip(result.lambdas, result.reports):
    d = rep.diagnostics
    print(f"{lam:6g}   {d['verdict']:<24} {d['mode']}")
print()

rep = nonexistence_diagnostic(spec)
print("eps ladder for the singular mass I(eps) of the gradient-free")
print("super-solution envelope, a lower bound on any solution's mass:")
print()
print("      eps       I(eps)      ratio   reference")
for k, (eps, mass, ref) in enumerate(
    zip(rep.eps, rep.mass, rep.mass_reference)
):
    ratio = "" if k < 2 else f"{rep.factors[k - 2]:.4f}"
    print(f"{eps:10.3e}  {mass:9.4f}   {ratio:>6}  {ref:9.4f}")
print()
print("ratio: the increment of I into this row over the one into the row above")
print(f"last increment ratio        {rep.fitted_factor:.4f}")
print(f"reference integral's ratio  {rep.reference_factor:.4f}")
print(f"exact rate for alpha = 3/2  {np.sqrt(2.0):.4f}")
print(f"verdict: {rep.verdict}")
