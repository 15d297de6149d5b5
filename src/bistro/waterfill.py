"""Exact solver for min_{q in simplex} max_j (q_j - psi_j).

The minimizer admits a closed form: q_j = max(0, psi_j + v) where v is the
unique level at which sum_j max(0, psi_j + v) = 1. Coordinates with larger
psi receive mass first, like water filling a terraced basin. We compute the
level with a sort and prefix sums in O(d log d); ``verify.waterfill_oracle``
finds the same level by bisection, as an independent cross-check.
"""

from __future__ import annotations

from math import isfinite

from .policies import float_entries


def waterfill(psi) -> list[float]:
    """The list of floats q minimizing max_j (q_j - psi_j), psi any vector of d floats.

    Equal psi entries receive equal mass; the output is invariant to adding
    a constant to psi and equivariant under permutations.

    The body runs on Python floats: d is the number of actions, so NumPy's
    per-call cost would outweigh the work. Its float operations, in their
    order, are those of NumPy's sort, sequential ``cumsum`` and elementwise
    ``maximum``; ``tests/test_waterfill.py`` keeps that NumPy body as the
    reference for the bits.
    """
    values = float_entries(psi)
    if not values or not all(map(isfinite, values)):
        raise ValueError("psi must be a nonempty finite vector")
    # Shifting by the max keeps the prefix sums and the level near 1 at any
    # scale of psi, so the mass stays on the simplex.
    top = max(values)
    values = [v - top for v in values]
    # The level of the largest active set k with u_k + v_k > 0, u sorted
    # descending and v_k = (1 - u_1 - ... - u_k) / k; k = 1 always qualifies.
    acc = 0.0
    for k, u in enumerate(sorted(values, reverse=True), 1):
        acc += u
        v = (1.0 - acc) / k
        if u + v > 0:
            level = v
    return [max(p + level, 0.0) for p in values]
