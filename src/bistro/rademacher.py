"""Monte-Carlo estimation of the vector-valued Rademacher average.

For a policy class projected onto contexts x_1..x_n, the complexity is
E_eps sup_f sum_t <M_f[:, t], eps_t> with i.i.d. sign vectors eps_t. The
supremum equals the negated ERM value on the negated sign matrix, so one
oracle call prices each sample. Fresh contexts are drawn per sample, which
folds the expectation over the context distribution into the same loop.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .erm import ErmOracle

log = logging.getLogger(__name__)

DEFAULT_TUNING_SAMPLES = 200


@dataclass(frozen=True)
class RademacherEstimate:
    mean: float
    std_error: float
    samples: int

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("at least one sample required")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def rademacher_samples(
    oracle: ErmOracle, context_sampler, n: int, samples: int, seed
) -> np.ndarray:
    """Per-sample supremum values; one oracle call each.

    The RNG stream of sample r derives from (seed, r) alone, so results are
    identical no matter how samples are scheduled, and two classes estimated
    with the same seed see the same contexts and signs.
    """
    if samples < 1:
        raise ValueError("at least one sample required")
    values = np.empty(samples)
    for r in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        contexts = context_sampler(rng, n)
        signs = rng.integers(0, 2, size=(oracle.policy_class.d, n)) * 2 - 1
        values[r] = -oracle(contexts, -signs.astype(float))
    return values


def rademacher_estimate(
    oracle: ErmOracle, context_sampler, n: int, samples: int, seed
) -> RademacherEstimate:
    values = rademacher_samples(oracle, context_sampler, n, samples, seed)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return RademacherEstimate(mean=mean, std_error=se, samples=samples)


def categorical_sampler(probs):
    """Sampler drawing context ids i.i.d. from a categorical distribution."""
    probs = np.asarray(probs, dtype=float)
    ids = np.arange(probs.size)

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(ids, size=n, p=probs)

    return sample


def fixed_sampler(ids):
    """Sampler returning the same context sequence every time."""
    ids = np.asarray(ids, dtype=np.int64)

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        if n != ids.size:
            raise ValueError("fixed sampler length mismatch")
        return ids

    return sample


def tune_gamma(rad_mean: float, n: int, d: int, floor: float | None = None) -> float:
    """Exploration rate sqrt(2 * rad / (n d)), clamped into (0, 1/d].

    Negative means (Monte-Carlo noise) clamp to zero; a zero mean returns the
    configured floor, 1/(n d) by default.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    rad = max(float(rad_mean), 0.0)
    if rad == 0.0:
        return floor if floor is not None else 1.0 / (n * d)
    gamma = float(np.sqrt(2.0 * rad / (n * d)))
    if gamma > 1.0 / d:
        log.warning("tuned gamma %.4f exceeds 1/d; clamping to pure uniform exploration", gamma)
        return 1.0 / d
    return gamma


def regret_bound(rad_mean: float, n: int, d: int) -> float:
    """Expected-regret bound 2 * sqrt(2 d n rad) for the tuned strategy."""
    rad = max(float(rad_mean), 0.0)
    return float(2.0 * np.sqrt(2.0 * d * n * rad))
