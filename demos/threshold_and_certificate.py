"""A finite existence threshold when g is singular but integrable.

    -u'' + g(u) + |u'| = lambda f(u),  u(0) = u(1) = 0,

with g(s) = s^(-1/2), f(s) = s^(1/2).  The positive coefficient on g
works against the solution but its integrable singularity can be paid
for once lambda f is strong enough: the solvable lambdas form an upper
ray (lambda*, infinity).  Three artifacts pin the ray down:

  * a bisected bracket [lo, hi] around lambda* from continuation
    verdicts, cross-checked on a doubled grid,
  * the explicit bound lambda_0 = min(1, lambda_1 / 2m) below which no
    solution can exist, and
  * at a lambda comfortably above the bracket, a certified sub/super
    pair: M h(phi_1) below the gradient-free envelope U, ordered by the
    comparison lemma, which is the discrete form of the existence proof.
"""

from selab import (
    build_subsolution_eigen,
    build_supersolution,
    bundled_problem,
    check_ordering,
    estimate_lambda_star,
    psi_from_spec,
)
from selab.errors import CertificateError

spec = bundled_problem("theorem3.cfg")

est = estimate_lambda_star(spec, 0.1, 100.0, iters=10)
print(f"bisection on n = {est.grid_n}:")
print(f"  lambda* in [{est.lo:.6f}, {est.hi:.6f}]  ({est.iters} iterations)")
print(f"  doubled-grid bracket agrees: {est.refined_consistent}")
print(f"  explicit lower bound lambda_0 = {est.lambda0:g}"
      f" (below hi: {est.lambda0_below_hi})")
print()

# the eigen construction carries its own, cruder threshold: the smallest
# lambda at which the certificate closes
try:
    build_subsolution_eigen(spec.with_lambda(1.0))
except CertificateError as exc:
    lam_cert = exc.lambda_threshold
    print(f"certificate threshold {lam_cert:.4f} "
          f"(above lambda*: the construction is sufficient, not sharp)")

lam = 2.0 * lam_cert
sub = build_subsolution_eigen(spec.with_lambda(lam))
sup = build_supersolution(spec.with_lambda(lam))
meta = sub.metadata
print()
print(f"certified pair at lambda = {lam:.4f}:")
print(f"  sub  = M h(phi_1) with M = {meta['M']:.4f}, "
      f"collar delta = {meta['delta']:.4f}")
print(f"  certificate max residual {meta['residual_max']:.3e} "
      f"({meta['certificate_violations']} violations)")
print(f"  super = envelope of -U'' = lambda f(U), "
      f"max U = {sup.field.max():.4f}")

report = check_ordering(spec.grid, psi_from_spec(spec.with_lambda(lam)),
                        sub.field, sup.field)
print(f"  ordering lemma: {report.verdict}, "
      f"max(sub - super) = {report.max_violation:+.3e}")
print()
print("an ordered certified pair brackets a solution; existence above")
print("the threshold follows from the same monotone machinery the solver")
print("uses, not from trusting the solver")
