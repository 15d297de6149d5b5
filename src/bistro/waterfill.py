"""Exact solver for min_{q in simplex} max_j (q_j - psi_j).

The minimizer admits a closed form: q_j = max(0, psi_j + v) where v is the
unique level at which sum_j max(0, psi_j + v) = 1. Coordinates with larger
psi receive mass first, like water filling a terraced basin. We compute the
level with a sort and prefix sums in O(d log d); ``verify.waterfill_oracle``
finds the same level by bisection, as an independent cross-check.
"""

from __future__ import annotations

import numpy as np


def waterfill(psi) -> np.ndarray:
    """Return a distribution q minimizing max_j (q_j - psi_j).

    Equal psi entries receive equal mass; the output is invariant to adding
    a constant to psi and equivariant under permutations.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 1 or psi.size < 1 or not np.all(np.isfinite(psi)):
        raise ValueError("psi must be a nonempty finite vector")
    d = psi.size
    # Shifting by the max keeps the prefix sums and the level near 1 at any
    # scale of psi, so the mass stays on the simplex.
    psi = psi - psi.max()
    u = np.sort(psi)[::-1]
    levels = (1.0 - np.cumsum(u)) / np.arange(1, d + 1)
    # Largest active set k with u_k + v_k > 0; k=1 always qualifies.
    k = int(np.nonzero(u + levels > 0)[0].max()) + 1
    return np.maximum(psi + levels[k - 1], 0.0)

