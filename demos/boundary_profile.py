"""The boundary profile h: how fast a positive solution must leave 0.

h solves the autonomous layer equation

    h'' = g(h),  h(0) = 0,  h' > 0,

integrated in closed form through the energy h' = sqrt(2 G(h)) with
G(y) = integral_0^y g.  For g(s) = s^(-alpha) the profile is exactly
C t^(2/(1+alpha)); for integrable tabulated g, G is a difference of the
table's PCHIP antiderivative, and t(h) is integrated and inverted.  Two structural facts are checked on every profile:

  * the growth bound t h'(t) <= 2 h(t) (equality at the pure power),
  * no profile exists at all when g is non-integrable at 0, which is
    the Keller-Osserman obstruction behind the nonexistence regime.
"""

import numpy as np

from selab import SingularTerm, build_h_profile, verify_h_bound
from selab.errors import KellerOssermanError

print("power singularities g(s) = s^-alpha:")
print()
print("alpha    beta=2/(1+a)   C (measured)   C (closed form)   t h'/h max")
for alpha in (0.25, 0.5, 0.75):
    prof = build_h_profile(SingularTerm("power", alpha=alpha))
    beta = 2.0 / (1.0 + alpha)
    c_closed = ((1.0 + alpha) / 2.0 * np.sqrt(2.0 / (1.0 - alpha))) ** beta
    t = prof.t[prof.t > 0.1]
    c_measured = float(np.mean(prof.h_at(t) / t**beta))
    bound = verify_h_bound(prof)
    print(
        f"{alpha:5.2f}    {beta:.4f}        {c_measured:.8f}    "
        f"{c_closed:.8f}     {bound.max_ratio * 2:.6f}"
    )
print()
print("the ratio t h'/h equals 2/(1+alpha) exactly for powers, so the")
print("growth bound t h' <= 2 h holds with room to spare")
print()

# a sampled table with the same decay builds the same profile
s = np.geomspace(1e-6, 2.0, 400)
table = SingularTerm("table", table_s=s, table_g=s**-0.5)
prof_pow = build_h_profile(SingularTerm("power", alpha=0.5))
prof_tab = build_h_profile(table)
t = prof_pow.t[prof_pow.t > 0.05]
rel = np.max(np.abs(prof_tab.h_at(t) - prof_pow.h_at(t)) / prof_pow.h_at(t))
print(f"tabulated s^-1/2 vs closed form: max rel difference {rel:.2e}")
print()

for alpha in (1.0, 1.5):
    try:
        build_h_profile(SingularTerm("power", alpha=alpha))
        print(f"alpha = {alpha}: built (unexpected)")
    except KellerOssermanError as exc:
        print(f"alpha = {alpha}: refused ({exc})")
