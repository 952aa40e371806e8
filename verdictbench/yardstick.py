"""A fixed piece of work that measures the machine's speed at the moment.

The machine the benchmark was written on changes speed by tens of
percent over seconds to minutes, because it shares its cores with other
guests.  A run that landed on a slow stretch would read as a regression.
So the measuring process times `yardstick()` between every two
operations, and run.py scales each operation's time by how fast the
yardsticks next to it ran (see run.py).

The yardstick does the kinds of work selab's operations do, on inputs
fixed here: Python-level loops over small numpy arrays, a sparse LU of a
tridiagonal and of a 2D five-point matrix, triangular solves, and
elementwise powers.  It calls no selab code, so no change to selab can
change its time.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

_N1 = 2000
_M2 = 40
_STEPS = 4


def _matrices():
    ones = np.ones(_N1)
    a1 = sp.diags([-ones[:-1], 2.0 * ones, -ones[:-1]], [-1, 0, 1], format="csc")
    t = sp.diags([-np.ones(_M2 - 1), 2.0 * np.ones(_M2), -np.ones(_M2 - 1)],
                 [-1, 0, 1], format="csr")
    eye = sp.identity(_M2, format="csr")
    a2 = (sp.kron(t, eye) + sp.kron(eye, t)).tocsc()
    return a1, a2


_A1, _A2 = _matrices()


def yardstick():
    """A few damped Newton-like steps on a 1D and a 2D problem, about
    30 ms on the reference machine.  Returns a number so that the work
    cannot be skipped."""
    acc = 0.0
    for a in (_A1, _A2):
        n = a.shape[0]
        x = np.full(n, 0.5)
        b = np.ones(n)
        for _ in range(_STEPS):
            jac = (a + sp.diags(0.5 * x**-0.5, format="csc")).tocsc()
            dx = splu(jac).solve(b - a @ x - np.sqrt(x))
            x = np.maximum(x + 0.5 * dx, 1e-3)
        for i in range(200):
            acc += float(np.abs(x[i::200]).sum()) ** 0.5
    return acc
