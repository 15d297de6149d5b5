"""Monte-Carlo estimation of the vector-valued Rademacher average.

For a policy class projected onto contexts x_1..x_n, the complexity is
E_eps sup_f sum_t <M_f[:, t], eps_t> with i.i.d. sign vectors eps_t. The
supremum equals the negated ERM value on the negated sign matrix, so one
logical oracle call prices each sample; the samples reach the oracle in
stacks. Fresh contexts are drawn per sample, which folds the expectation
over the context distribution into the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .erm import ErmOracle

# Target size of one stack of tuning queries: its (S, n) contexts and its
# (S, d, n) costs and fold keys. Its (S, |F|) product may grow to the
# (|F|, d*|X|) one-hot that each stack streams once, so a large class prices
# at least d*|X| samples per pass over the one-hot.
STACK_BYTES = 256 * 1024


@dataclass(frozen=True)
class RademacherEstimate:
    mean: float
    std_error: float


def rademacher_samples(
    oracle: ErmOracle, context_sampler, n: int, samples: int, seed, scale: float = 1.0
) -> np.ndarray:
    """Per-sample supremum values -oracle(contexts, scale * signs); one
    logical oracle call each.

    The RNG stream of sample r derives from (seed, r) alone, so results are
    identical no matter how samples are scheduled, and two classes estimated
    with the same seed see the same contexts and signs. The samples go to
    the oracle in stacks sized by STACK_BYTES; each linear value is a sum of
    +-scale entries, exact in any summation order for a power-of-two scale,
    and a penalty is priced per row, so the stacking cannot change a value.
    """
    if samples < 1:
        raise ValueError("at least one sample required")
    d, size = oracle.policy_class.d, oracle.policy_class.size
    by_query = STACK_BYTES // (8 * (2 * d + 1) * n) if n else samples
    by_product = max(STACK_BYTES, 8 * size * d * oracle.policy_class.universe_size) // (8 * size)
    stack = max(1, min(samples, by_query, by_product))
    contexts = np.empty((stack, n), dtype=np.int64)
    Y = np.empty((stack, d, n))  # the sign bits; the query is scale * (1 - 2 * bits)
    values = np.empty(samples)
    for lo in range(0, samples, stack):
        size = min(stack, samples - lo)
        for s in range(size):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(lo + s,)))
            contexts[s] = context_sampler(rng, n)
            Y[s] = rng.integers(0, 2, size=(d, n))
        values[lo:lo + size] = -oracle(contexts[:size], scale - 2 * scale * Y[:size])
    return values


def rademacher_estimate(
    oracle: ErmOracle, context_sampler, n: int, samples: int, seed, scale: float = 1.0
) -> RademacherEstimate:
    values = rademacher_samples(oracle, context_sampler, n, samples, seed, scale)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return RademacherEstimate(mean=mean, std_error=se)


def tune_gamma(complexity: float, n: int, d: int) -> float:
    """Rate sqrt(complexity / (n d)) minimizing complexity/gamma + n d gamma,
    clamped into (0, 1/d].

    ``complexity`` is the relaxation's value at the empty history without
    its exploration term, in the units of the strategy's playouts. A
    nonpositive complexity returns the floor 1/(n d).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if complexity <= 0.0:
        return 1.0 / (n * d)
    gamma = float(np.sqrt(complexity / (n * d)))
    return min(gamma, 1.0 / d)
