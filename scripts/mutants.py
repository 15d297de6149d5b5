#!/usr/bin/env python3
"""Mutation catalogue: the source edits that the tests are known to catch.

Each mutant replaces one exact snippet, which occurs once in its file, and
names the pytest node ids that must all fail with it in place. The script
copies the checkout into two temporary directories, applies one mutant at a
time in each, runs its ids, and restores the file before the next. It
exits 1 if any mutant survives (one of its ids passes or is not collected)
or if a snippet does not occur exactly once.

The equivalent mutants change no result that a test can see; they are
listed, not run.

    python3 scripts/mutants.py
"""

from __future__ import annotations

import argparse
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKERS = 2  # pytest processes at a time, each in its own copy of the checkout


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    ids: tuple[str, ...]  # node ids that must fail; why it survives, for an equivalent one


ADM, CLI, ENV = ("src/bistro/admissibility.py", "src/bistro/cli.py",
                 "src/bistro/environments.py")
ERM, RUNNER = "src/bistro/erm.py", "src/bistro/runner.py"
CONF = "src/bistro/config.py"
POL = "src/bistro/policies.py"
T_ADM, T_CLI, T_ERM = "tests/test_admissibility.py", "tests/test_cli.py", "tests/test_erm.py"
T_HARNESS, T_RAD = "tests/test_harness.py", "tests/test_rademacher.py"
T_STRAT, T_GOLDEN = "tests/test_strategies.py", "tests/test_golden.py::test_golden_transcript"
T_POL = "tests/test_policies.py"
T_REGRET = "tests/test_regret_reference.py::test_mean_regret_within_the_reference"
T_FOLD = f"{T_POL}::TestFoldQuery"
LABELINGS = tuple(f"{T_POL}::TestPolicyClass::"
                  f"test_all_labelings_equal_the_digit_and_scatter_references[{d}]"
                  for d in range(1, 5))
STRAT = "src/bistro/strategies.py"
RANGE = f"{T_CLI}::test_range_errors_name_their_key"
RECORDED = f"{T_ADM}::test_reports_match_sequence_form_checker"
CAPS = tuple(f"{T_ADM}::test_regularized_report_at_the_caps[{name}]"
             for name in ("pairwise", "coverage"))
# play's mean q, its folded draws enumerated, against the checker's mixed strategy
LAW = tuple(f"{T_ADM}::test_mean_play_is_the_exact_mixed_q[{penalty}]"
            for penalty in ("coverage", "exact", "pairwise"))
TRANSDUCTIVE_LAW = tuple(
    f"{T_ADM}::test_transductive_mean_play_averages_the_known_futures_signs[{penalty}]"
    for penalty in ("coverage", "exact"))
FOLDED = tuple(f"{T_STRAT}::TestQueryMatrixInvariants::"
               f"test_folded_queries_hold_the_history_and_the_future_counts[{p}-{mode}]"
               for p in (1, 3) for mode in ("iid_pool", "transductive"))
ADV, T_REDUCTION = "src/bistro/adversarial.py", "tests/test_adversarial.py::TestReduction"
# the reduction's q* from its running losses against the losses of the
# history, its running losses against the summed history and the fold's values
REDUCTION_FOLD = tuple(f"{T_REDUCTION}::test_fold_prices_the_sequence_form_bit_for_bit[{costs}]"
                       for costs in ("fixed", "adaptive"))
RUNNING_LOSSES = tuple(f"{T_REDUCTION}::test_running_losses_are_the_summed_history[{d}-{costs}]"
                       for d in (2, 3) for costs in ("fixed", "adaptive"))
REDUCTION_PLAY = REDUCTION_FOLD + RUNNING_LOSSES + (
    f"{T_GOLDEN}[adaptive_adversary_adversarial_reduction]",)
# the learners' rows of the context-major layouts against the strided columns
# they replaced, and the layouts themselves against the one-hot's comparison
STRIDED = tuple(f"tests/test_adversarial.py::TestContextMajorRows::"
                f"test_running_losses_and_q_star_match_the_strided_reference[{learner}-{costs}]"
                for learner in ("reduction", "egreedy") for costs in ("fixed", "adaptive"))
STRIDED_STRATEGY = ("tests/test_adversarial.py::TestContextMajorRows::"
                    "test_strategy_on_arbitrary_losses_matches_the_strided_reference",)
LAYOUTS = tuple(f"{T_POL}::TestPolicyClass::test_layouts_are_aligned_read_only_copies[{case}]"
                for case in ("labelings-2-12", "labelings-3-7", "table", "empty"))
# epsilon-greedy's q, actions and running losses against its private body
EGREEDY = tuple(f"{T_STRAT}::TestEpsilonGreedy::test_plays_the_private_body_bit_for_bit[{costs}]"
                for costs in ("fixed", "adaptive"))
FOLD_HISTORY = (f"{T_STRAT}::TestFoldedPlayouts::test_fold_is_the_bincount_of_the_history[bistro]",)
COLUMN_HISTORY = tuple(f"{T_STRAT}::TestFoldedPlayouts::"
                       f"test_column_path_keeps_the_history_columns[{oracle}]"
                       for oracle in ("box", "coverage"))
# the mixed strategy, enumerated, and the walks it steers, recorded bit for bit
MIXED_Q = (f"{T_ADM}::TestBistroChecker::test_exact_mixed_q_matches_sequence_form", *CAPS)
MIXED_Q_WALKS = MIXED_Q + tuple(f"{RECORDED}[bistro {name}]"
                                for name in ("d=2 n=3", "p(x)=0", "d=3 n=3"))
# the goldens of transductive play: the column path under each penalty, and the fold
TRANSDUCTIVE_GOLDENS = tuple(f"{T_GOLDEN}[{name}]" for name in (
    "regularized_pairwise_transductive", "regularized_coverage_transductive",
    "adaptive_adversary_bistro_transductive"))
DELTA_PLAYOUTS_GOLDEN = f"{T_GOLDEN}[fixed_adversarial_bistro_delta_playouts]"
ADAPTIVE_REGULARIZED_GOLDEN = f"{T_GOLDEN}[adaptive_adversary_bistro_regularized]"
# the pairwise penalty against its reference body, and the tensor it keeps
PAIRWISE_BITS = f"{T_ERM}::TestPairwiseBits::test_random_sequences_match_the_reference_body"
KEPT_TENSOR = (f"{T_ERM}::TestPairwiseBits::"
               "test_kept_tensor_follows_the_class_and_the_present_contexts")
# argmax_punish's running totals, resummed from the transcript, and the
# goldens it steers
RUNNING_TOTALS = tuple(f"{T_HARNESS}::TestRunEpisode::"
                       f"test_argmax_punish_running_totals_are_the_resummed_rule[{algorithm}]"
                       for algorithm in ("bistro", "adversarial_reduction"))
ADAPTIVE_GOLDENS = tuple(f"{T_GOLDEN}[{name}]" for name in (
    "adaptive_adversary_bistro", "adaptive_adversary_adversarial_reduction",
    "adaptive_adversary_bistro_transductive"))
OBSERVED = f"{T_HARNESS}::TestRunEpisode::test_adaptive_rule_sees_only_the_allowed_history"
# one learner over episodes of n and n // 2 rounds against fresh learners, per case
REUSE = f"{T_HARNESS}::TestLearnerReuse::test_one_learner_plays_every_episode_as_a_fresh_one"
GROWTH = (f"{T_HARNESS}::TestGrowthInN::"
          "test_bound_grows_as_n_to_three_quarters_and_the_learners_regret_under_it")


def id_checks(outcome: str, dtypes) -> tuple[str, ...]:
    """The id-check tests of ``dtypes`` on all three entry points, for ids
    ``accepted`` (in range) or ``refused`` (outside the universe)."""
    test = {"accepted": "test_in_range_ids_price_as_int64_ids",
            "refused": "test_ids_outside_the_universe_are_refused"}[outcome]
    return tuple(f"{T_POL}::TestIdRangeCheck::{test}[{dtype}-{entry}]"
                 for dtype in dtypes for entry in ("actions_on", "per_policy", "values"))


def non_integer_ids(*kinds: str) -> tuple[str, ...]:
    """The refusal tests of ids of the non-integer ``kinds`` on all three entry points."""
    return tuple(f"{T_POL}::TestIdRangeCheck::test_ids_that_are_not_integers_are_refused"
                 f"[{kind}-{entry}]"
                 for kind in kinds for entry in ("actions_on", "per_policy", "values"))


def on_commands(case: str) -> tuple[str, ...]:
    """A range-error case's ids on run, admissibility and rademacher."""
    return tuple(f"{RANGE}[{case}{suffix}]"
                 for suffix in ("", "-admissibility", "-rademacher"))


def unreadable(*cases: str) -> tuple[str, ...]:
    """An unreadable-file case's ids on run, rademacher and admissibility."""
    return tuple(f"{T_CLI}::test_unreadable_files_exit_2_naming_their_key[{case}-{command}]"
                 for case in cases for command in ("run", "rademacher", "admissibility"))


def malformed(*cases: str) -> tuple[str, ...]:
    """A malformed-document case's ids on run and rademacher."""
    return tuple(f"{T_CLI}::test_malformed_documents_exit_2[{case}-{command}]"
                 for case in cases for command in ("run", "rademacher"))


MUTANTS = [
    # -- the benchmark, filtered at K (erm.benchmark) --
    Mutant("benchmark-strict-budget", ERM,
           "np.where(costs <= K, values, np.inf)", "np.where(costs < K, values, np.inf)",
           (f"{T_ERM}::TestBenchmark::test_matches_sequence_form_reference",
            f"{T_ADM}::test_horizon_benchmark_is_the_filtered_class", *CAPS)),
    Mutant("benchmark-first-row-constraint", ERM,
           "costs = policy_constraint_values(constraint, policy_class, contexts)",
           "costs = policy_constraint_values(constraint, policy_class, "
           "np.atleast_2d(contexts)[0])",
           (f"{T_ERM}::TestBenchmark::test_matches_sequence_form_reference",)),
    Mutant("benchmark-empty-accepted", ERM,
           "if np.isinf(best).any():", "if False:",
           (f"{T_ERM}::TestBenchmark::test_negative_budget_empties",
            f"{T_ERM}::TestBenchmark::test_matches_sequence_form_reference",
            f"{T_ERM}::TestBenchmark::test_empty_class",
            f"{T_CLI}::test_admissibility_refuses_an_empty_filtered_benchmark",
            f"{T_CLI}::test_run_refuses_an_empty_filtered_benchmark",
            f"{T_HARNESS}::TestRegret::test_empty_benchmark_class_errors")),
    # -- the folded playouts (strategies.BistroStrategy) --
    Mutant("playout-pattern-bit-wrong-row", STRAT,
           ">> np.arange(d)", ">> np.arange(d) // 2",
           LAW + (f"{T_GOLDEN}[fixed_adversarial_bistro]",)),
    Mutant("playout-cells-not-divided-by-patterns", STRAT,
           "np.repeat(counts / (counts.sum() * cells), cells)",
           "np.repeat(counts / counts.sum(), cells)",
           LAW + (f"{T_GOLDEN}[fixed_adversarial_bistro]",
                  f"{T_STRAT}::TestFoldedPlayouts::test_exact_queries_never_outgrow_the_universe")),
    Mutant("playout-uniform-contexts", STRAT,
           "np.repeat(counts / (counts.sum() * cells), cells)",
           "np.repeat(np.full(counts.size, 1 / (counts.size * cells)), cells)", LAW),
    Mutant("playout-e_j-at-context-zero", STRAT,
           "self._Z + self._signs @ counts.T, x", "self._Z + self._signs @ counts.T, 0",
           LAW[1:2] + FOLDED + (f"{T_GOLDEN}[fixed_adversarial_bistro]",)),
    Mutant("playout-e_j-left-in-the-query", STRAT,
           "                column[j] = y\n", "                pass\n",
           LAW + (f"{T_GOLDEN}[fixed_adversarial_bistro]",)),
    Mutant("playout-sign-pattern-flipped", STRAT,  # pattern 1 plays pattern 2^d - 2's signs
           "int(SIGN_SCALE) * (2 * bits - 1)",
           "int(SIGN_SCALE) * (2 * bits - 1) * np.where(np.arange(2**policy_class.d) == 1, -1, 1)",
           LAW + TRANSDUCTIVE_LAW),
    Mutant("one-playout-shortcut-at-every-count", STRAT,
           "return q if self.playouts == 1 else [v / self.playouts for v in q]", "return q",
           (f"{T_STRAT}::TestBistroRound::test_playout_average_is_the_running_sum_bit_for_bit[3]",
            f"{T_STRAT}::TestBistroRound::test_playout_average_is_mean_of_waterfills",
            DELTA_PLAYOUTS_GOLDEN)),
    Mutant("playout-sum-in-place", STRAT,  # the first water-fill's list, which a spy still holds
           "q = w if p == 0 else [a + b for a, b in zip(q, w)]",
           "q = w if p == 0 else q.__setitem__(slice(None), [a + b for a, b in zip(q, w)]) or q",
           (f"{T_STRAT}::TestBistroRound::test_playout_average_is_the_running_sum_bit_for_bit[3]",)),
    Mutant("playout-history-not-folded", STRAT,
           "self._Z[action, x] += inc", "pass",
           LAW[1:2] + FOLDED + FOLD_HISTORY
           + (f"{T_ADM}::test_play_queries_price_the_checked_relaxation[bistro]",
              f"{T_GOLDEN}[adaptive_adversary_bistro]")),
    Mutant("history-fold-overwritten", STRAT,
           "self._Z[action, x] += inc", "self._Z[action, x] = inc", FOLD_HISTORY),
    # -- the running losses of the reduction (adversarial.ReductionStrategy) --
    Mutant("reduction-priced-from-a-zero-fold", ADV,
           "self.relaxation.strategy(self._L, x)", "self.relaxation.strategy(0.0 * self._L, x)",
           REDUCTION_FOLD + (f"{T_GOLDEN}[adaptive_adversary_adversarial_reduction]",)),
    Mutant("reduction-losses-on-the-wrong-action", ADV,
           "by_cell[action * self._universe.size + x]",
           "by_cell[(action + 1) % self.policy_class.d * self._universe.size + x]",
           REDUCTION_PLAY + STRIDED[:2]),
    Mutant("reduction-losses-not-reset", ADV,
           "self._L = np.zeros(self.policy_class.size)",
           'self._L = getattr(self, "_L", np.zeros(self.policy_class.size))',
           RUNNING_LOSSES + (f"{REUSE}[adaptive_adversary_adversarial_reduction]",)),
    Mutant("reduction-relaxation-keeps-the-config-horizon", ADV,
           "        self.relaxation.begin(n)", "        pass",
           (f"{T_HARNESS}::TestLearnerReuse::"
            "test_a_reduction_learner_plays_the_rate_of_its_episode[None]",)),
    Mutant("reduction-losses-not-extended", ADV,
           "self._L += inc * self.policy_class.by_cell",
           "self._L += 0.0 * self.policy_class.by_cell",
           REDUCTION_PLAY + STRIDED[:2]),
    # -- the context-major rows the learners stream (PolicyClass.by_context, .by_cell) --
    Mutant("cell-rows-of-the-other-action", POL,
           "np.arange(self.d)[:, None, None]", "np.arange(self.d)[::-1, None, None]",
           LAYOUTS[:3] + STRIDED[:2] + REDUCTION_PLAY),
    Mutant("strategy-reads-a-neighbouring-context", ADV,
           "by_context[x], weights=w", "by_context[x - 1], weights=w",
           STRIDED[:2] + STRIDED_STRATEGY
           + (f"{T_GOLDEN}[adaptive_adversary_adversarial_reduction]",)),
    Mutant("aligned-start-off-by-one-element", POL,
           "raw[start:][:nbytes]", "raw[start + 8:][:nbytes]", LAYOUTS),
    # -- exp-weights prices a history through the class's fold (ExpWeightsRelaxation.value) --
    Mutant("value-prices-the-costs-untransposed", ADV,
           "np.asarray(costs, dtype=float).T)", "np.asarray(costs, dtype=float))",
           (f"{RECORDED}[reduction d=3 n=3]", f"{RECORDED}[reduction p(x)=0]",
            "tests/test_adversarial.py::TestExpWeightsValue::"
            "test_folded_losses_match_sequence_losses")),
    Mutant("reduction-walk-q-untransposed", ADM,
           "policy_class.values(ctx, cols.T)", "policy_class.values(ctx, cols)",
           (f"{RECORDED}[reduction d=3 n=3]", f"{RECORDED}[reduction p(x)=0]")),
    # -- epsilon-greedy, the learner at gamma = epsilon/d (strategies.EpsilonGreedyStrategy) --
    Mutant("egreedy-leader-argmax", STRAT,
           "np.argmin(self._L)", "np.argmax(self._L)", EGREEDY),
    Mutant("egreedy-losses-scaled", STRAT,
           "by_context[x] == action] += est", "by_context[x] == action] += self.gamma * est",
           EGREEDY + STRIDED[2:]),
    Mutant("egreedy-rate-is-epsilon", STRAT,
           "super().__init__(policy_class, epsilon / policy_class.d)",
           "super().__init__(policy_class, epsilon)", EGREEDY),
    Mutant("egreedy-losses-on-other-policies", STRAT,
           "by_context[x] == action] += est", "by_context[x] != action] += est",
           EGREEDY + STRIDED[2:]),
    Mutant("transductive-future-not-decremented", STRAT,
           "self._future[self._known[self._t + 1]] -= 1", "pass",
           TRANSDUCTIVE_LAW + FOLDED[1::2] + TRANSDUCTIVE_GOLDENS),
    Mutant("transductive-future-loses-the-played-round", STRAT,
           "self._future[self._known[self._t + 1]] -= 1", "self._future[self._known[self._t]] -= 1",
           TRANSDUCTIVE_LAW + FOLDED[1::2] + TRANSDUCTIVE_GOLDENS),
    Mutant("transductive-future-starts-a-round-short", STRAT,
           "np.bincount(self._known[1:], minlength=self._universe.size)",
           "np.bincount(self._known[2:], minlength=self._universe.size)",
           TRANSDUCTIVE_LAW + FOLDED[1::2] + TRANSDUCTIVE_GOLDENS),
    Mutant("transductive-slots-from-the-column-buffer", STRAT,
           "np.argsort(self._known[t + 1 :], kind=\"stable\")",
           "np.argsort(self._ctx[t + 1 :], kind=\"stable\")",
           TRANSDUCTIVE_LAW[:1]),
    # -- the column form's history, kept only when the oracle does not fold --
    Mutant("column-history-entry-not-written", STRAT,
           "self._Y[action, self._t] = inc", "pass",
           COLUMN_HISTORY + (LAW[0], f"{T_GOLDEN}[regularized_pairwise]")
           + TRANSDUCTIVE_GOLDENS[:2]),
    Mutant("column-history-entry-a-round-early", STRAT,
           "self._Y[action, self._t] = inc", "self._Y[action, self._t - 1] = inc",
           COLUMN_HISTORY + (LAW[0], f"{T_GOLDEN}[regularized_pairwise]")),
    Mutant("column-history-not-zeroed", STRAT,
           "ctx[t], Y[:, t] = x, 0.0", "ctx[t] = x",
           COLUMN_HISTORY + (LAW[0], LAW[2], f"{T_GOLDEN}[regularized_pairwise]")),
    Mutant("folded-strategy-keeps-columns", STRAT,
           "        if not self.folded:\n            self._ctx, self._Y =",
           "        if True:\n            self._ctx, self._Y =",
           tuple(f"{T_STRAT}::TestFoldedPlayouts::"
                 f"test_folded_state_does_not_grow_with_the_horizon[{learner}]"
                 for learner in ("bistro", "bistro-transductive"))),
    Mutant("transductive-cells-off-their-rounds", STRAT,
           "if self.transductive:  # the signs' order on a context's rounds changes no value",
           "if False:",
           TRANSDUCTIVE_LAW[:1] + TRANSDUCTIVE_GOLDENS[1:2]
           + (f"{T_STRAT}::TestQueryMatrixInvariants::test_past_and_future_column_ranges",)),
    Mutant("columns-in-count-order", STRAT,
           "self._order_rng.shuffle(cells)", "pass",
           LAW[:1]),
    Mutant("column-cell-signs-off-by-a-pattern", STRAT,
           "self._signs[:, self._cells % 2**d]", "self._signs[:, (self._cells + 1) % 2**d]",
           (ADAPTIVE_REGULARIZED_GOLDEN, f"{T_GOLDEN}[regularized_pairwise]",
            f"{T_STRAT}::TestAssembleQueryMatrix::test_first_round_with_future",
            f"{T_ADM}::test_play_queries_price_the_checked_relaxation[bistro_regularized]")),
    Mutant("column-cell-contexts-halved", STRAT,
           "self._cells >> d,", "self._cells >> d + 1,",
           (LAW[0], LAW[2], ADAPTIVE_REGULARIZED_GOLDEN,
            f"{T_STRAT}::TestQueryMatrixInvariants::test_past_and_future_column_ranges")),
    Mutant("penalized-oracle-folds", ERM,
           "self.folds = self.lambda_scaled == 0", "self.folds = True",
           (LAW[0], LAW[2], f"{T_GOLDEN}[regularized_pairwise]",
            f"{T_ADM}::test_play_queries_price_the_checked_relaxation[bistro_regularized]")),
    # -- the fold query on the class's own universe (PolicyClass.values) --
    Mutant("fold-query-non-finite-unchecked", POL,
           "if not isfinite(sum(z.tolist())) and",
           "if contexts is not self.universe and not isfinite(sum(z.tolist())) and",
           (f"{T_FOLD}::test_rejects_non_finite_folds",
            f"{T_POL}::TestFiniteCheck::test_non_finite_entries_refused_on_every_shape")),
    Mutant("finite-check-trusts-an-overflowing-sum", POL,
           " and not np.isfinite(z).all():", ":",
           tuple(f"{T_POL}::TestFiniteCheck::{test}" for test in (
               "test_overflowing_sums_price_as_the_entrywise_test",
               "test_random_queries_price_as_the_entrywise_test"))),
    Mutant("fold-query-shape-unchecked", POL,
           "if contexts is self.universe and Y.shape == self._fold_shape:",
           "if contexts is self.universe:",
           (f"{T_FOLD}::test_rejects_wrong_shapes",)),
    Mutant("fold-query-keyed-on-length", POL,
           "if contexts is self.universe and", "if len(contexts) == self.universe_size and",
           (f"{T_FOLD}::test_other_contexts_take_the_bincount_path",)),
    Mutant("fold-query-universe-writable", POL,
           "        universe.flags.writeable = False\n", "",
           (f"{T_FOLD}::test_universe_is_a_cached_read_only_arange",)),
    # -- the all-labelings table and the one-hot (policies.PolicyClass) --
    Mutant("table-column-period-off-by-one", POL,
           "rows[:, :, :, x] = np.arange(d)[:, None]",
           "rows[:, :, :, x - 1] = np.arange(d)[:, None]", LABELINGS[1:]),
    Mutant("onehot-fortran-ordered", POL,
           "        onehot.flags.writeable = False\n",
           "        onehot = np.asfortranarray(onehot)\n        onehot.flags.writeable = False\n",
           (f"{T_POL}::TestPolicyClass::test_table_and_onehot_are_c_ordered_and_read_only",)),
    Mutant("onehot-compared-on-the-wrong-axis", POL,
           "np.equal(self.table[:, None, :], np.arange(self.d)[:, None], out=onehot)",
           "np.equal(self.table[:, :, None], np.arange(self.d), out=onehot.reshape(size, -1, self.d))",
           LABELINGS[1:] + tuple(f"{T_POL}::TestValues::{test}" for test in (
               "test_onehot_cached_and_read_only",
               "test_matches_sequence_form_and_bruteforce_exactly"))),
    Mutant("tuning-stack-ignores-the-onehot", "src/bistro/rademacher.py",
           "max(STACK_BYTES, 8 * size * d * oracle.policy_class.universe_size)", "STACK_BYTES",
           (f"{T_RAD}::TestEstimator::test_a_stack_streams_the_onehot_for_d_x_samples",)),
    Mutant("tuning-stack-divides-by-an-empty-horizon", "src/bistro/rademacher.py",
           "STACK_BYTES // (8 * (2 * d + 1) * n) if n else samples",
           "STACK_BYTES // (8 * (2 * d + 1) * n)",
           (f"{T_RAD}::TestEstimator::test_empty_horizon_prices_every_sample_at_zero",)),
    Mutant("relaxation-builds-its-own-universe", STRAT,
           "self._universe = policy_class.universe",
           "self._universe = np.arange(policy_class.universe_size)",
           (f"{T_STRAT}::TestFoldedPlayouts::test_fold_queries_skip_the_id_check[bistro]",)),
    # -- the episode state that begin_episode resets (strategies.RelaxationStrategy) --
    Mutant("episode-round-not-reset", STRAT,
           "self.horizon, self._t = int(n), 0", 'self.horizon, self._t = int(n), getattr(self, "_t", 0)',
           tuple(f"{REUSE}[{name}]" for name in (
               "fixed_adversarial_bistro", "fixed_adversarial_egreedy", "regularized_pairwise",
               "adaptive_adversary_adversarial_reduction"))),
    Mutant("fold-kept-across-episodes", STRAT,
           "self._Z = np.zeros((self.policy_class.d, self._universe.size))",
           'self._Z = self._Z if hasattr(self, "_Z") else '
           "np.zeros((self.policy_class.d, self._universe.size))",
           tuple(f"{REUSE}[{name}]" for name in (
               "fixed_adversarial_bistro", "adaptive_adversary_bistro",
               "adaptive_adversary_bistro_transductive", "fixed_adversarial_bistro_delta_playouts"))),
    Mutant("transductive-future-not-rebuilt", STRAT,
           "self._future = np.bincount(self._known[1:], minlength=self._universe.size)",
           'self._future = self._future if hasattr(self, "_future") else '
           "np.bincount(self._known[1:], minlength=self._universe.size)",
           tuple(f"{REUSE}[{name}]" for name in (
               "adaptive_adversary_bistro_transductive", "regularized_pairwise_transductive",
               "regularized_coverage_transductive"))),
    # -- the running totals of argmax_punish (environments.AdaptiveCosts) --
    Mutant("adaptive-totals-not-reset", ENV,
           "self._totals = [0.0] * self.d",
           "self._totals = getattr(self, \"_totals\", [0.0] * self.d)",
           RUNNING_TOTALS + ADAPTIVE_GOLDENS
           + tuple(f"{REUSE}[{name}]" for name in (
               "adaptive_adversary_bistro", "adaptive_adversary_adversarial_reduction",
               "adaptive_adversary_bistro_transductive"))),
    Mutant("adaptive-ties-to-the-last-maximum", ENV,
           "max(range(self.d), key=totals.__getitem__)",
           "max(reversed(range(self.d)), key=totals.__getitem__)",
           tuple(f"{T_HARNESS}::TestRunEpisode::test_argmax_punish_matches_the_numpy_running_sum"
                 f"[{d}]" for d in (2, 3, 4))
           + RUNNING_TOTALS + ADAPTIVE_GOLDENS),
    # -- the round's q and action, shown to the cost process (runner.run_episode) --
    Mutant("observe-not-called", RUNNER,
           "        process.observe(q, a)\n", "",
           RUNNING_TOTALS + ADAPTIVE_GOLDENS + (OBSERVED,)),
    Mutant("observe-extends-the-previous-row", RUNNER,
           "process.observe(q, a)", "process.observe(distributions[t - 1], a)",
           RUNNING_TOTALS + ADAPTIVE_GOLDENS + (OBSERVED,)),
    Mutant("observe-handed-the-previous-q", RUNNER,  # round 0 is handed its own
           "process.observe(q, a)",
           'process.observe(getattr(process, "_last", q), a); process._last = q',
           RUNNING_TOTALS + ADAPTIVE_GOLDENS + (OBSERVED,)),
    # -- the round's q, read as a list (runner.draw_action, policies.float_entries) --
    Mutant("draw-list-without-negative-check", RUNNER,
           "if not all(map((0.0).__le__, p)):",
           "if type(q) is not list and not all(map((0.0).__le__, p)):",
           tuple(f"{T_HARNESS}::TestRunEpisode::test_action_draw_refuses_bad_distributions[q{i}]"
                 for i in (0, 1))),
    Mutant("list-refusals-not-read-as-arrays", POL,
           "except (TypeError, ValueError, OverflowError):", "except OverflowError:",
           (f"{T_HARNESS}::TestRunEpisode::test_action_draw_refuses_bad_distributions[q6]",
            f"{T_POL}::TestMixWithUniform::test_rejects_points_off_the_simplex",
            "tests/test_waterfill.py::TestWaterfillExamples::test_refuses_a_list_as_its_array")),
    # -- the episode CSV (runner.episode_csv_lines) --
    Mutant("csv-memo-keyed-by-value", RUNNER,
           "np.unique(floats.view(np.int64).ravel(), return_inverse=True)",
           "np.unique(floats.ravel(), return_inverse=True)",
           (f"{T_HARNESS}::TestEpisodeCsv::test_signed_zeros_keep_their_signs",)),
    Mutant("csv-cells-of-the-next-row", RUNNER,
           "range(0, n * w, w))", "range(w, (n + 1) * w, w))",
           tuple(f"{T_HARNESS}::TestEpisodeCsv::{name}" for name in (
               "test_golden_cases_write_the_per_row_lines[fixed_adversarial_bistro]",
               "test_magnitudes_and_the_empty_episode"))),
    # -- the policy table (policies.PolicyClass) --
    Mutant("caller-table-not-copied", POL,
           "self._adopt(np.array(table, dtype=np.int64), d)",
           "self._adopt(np.asarray(table, dtype=np.int64), d)",
           tuple(f"{T_POL}::TestPolicyClass::test_a_callers_table_is_copied_and_left_as_it_was"
                 f"[{writeable}]" for writeable in (True, False))),
    Mutant("all-labelings-table-copied-again", POL,
           "pc._adopt(table, d)", "pc._adopt(table.copy(), d)",
           (f"{T_POL}::TestPolicyClass::test_all_labelings_builds_its_table_once",)),
    # -- the IPS estimate --
    Mutant("ips-wrong-propensity", POL,
           "p = float(q[chosen])", "p = float(q[0])",
           ("tests/test_policies.py::TestIpsEstimate::test_second_action",
            "tests/test_policies.py::TestIpsEstimate::test_unbiasedness",
            f"{T_STRAT}::TestBistroRound::test_estimate_magnitude_guard[bistro]",
            f"{T_STRAT}::TestBistroRound::test_estimate_magnitude_guard[reduction]",
            f"{T_GOLDEN}[fixed_adversarial_bistro]")),
    # -- the admissibility checker: futures, the stacked queries, the walk --
    Mutant("futures-without-sign-weight", ADM,
           "np.repeat(ctx_w / patterns, patterns)", "np.repeat(ctx_w, patterns)",
           (f"{T_ADM}::test_first_rhs_is_the_exact_bound[bistro-bistro d=2 n=3]", *MIXED_Q)),
    Mutant("futures-without-context-weight", ADM,
           "ctx_w = probs[combos].prod(axis=1)", "ctx_w = np.ones(len(combos))",
           (f"{T_ADM}::test_first_rhs_is_the_exact_bound[bistro-bistro d=2 n=3]", *MIXED_Q)),
    Mutant("playout-values-h-major", ADM,
           "return oracle(contexts, Y).reshape(S, H)",
           "return oracle(contexts, Y).reshape(H, S).T", MIXED_Q_WALKS),
    Mutant("relaxation-one-round-short", ADM,
           "fut_ctx, fut_signs, weights = _futures(probs, d, m)",
           "fut_ctx, fut_signs, weights = _futures(probs, d, max(m - 1, 0))",
           (f"{T_ADM}::TestBoundIsRelaxationAtEmptyHistory::test_bound_matches_first_rhs[bistro]",
            f"{T_ADM}::test_history_priced_in_relaxation_units[table0]",
            f"{T_ADM}::test_first_rhs_is_the_exact_bound[bistro-bistro d=2 n=3]")),
    Mutant("relaxation-mean-by-dot-product", ADM,
           "math.fsum(weights * (m * d * gamma + budget - playout_values(",
           "(weights @ (m * d * gamma + budget - playout_values(", CAPS),
    Mutant("mixed-q-e_j-on-wrong-history", ADM,
           "np.eye(d)[:, None]", "np.eye(d)[::-1, None]", MIXED_Q_WALKS),
    Mutant("mixed-q-e_j-half", ADM, "np.eye(d)[:, None]", "0.5 * np.eye(d)[:, None]", MIXED_Q),
    Mutant("mixed-q-without-history", ADM,
           "np.broadcast_to(scaled_past, (d, k, d))", "np.zeros((d, k, d))", MIXED_Q[:1]),
    Mutant("mixed-q-current-context-zero", ADM,
           "np.append(realized_ctx, x)", "np.append(realized_ctx, 0)", MIXED_Q),
    Mutant("mixed-q-uniform-weights", ADM,
           "q_star += w * np.asarray(waterfill(row))",
           "q_star += np.asarray(waterfill(row)) / len(weights)",
           (*MIXED_Q, f"{RECORDED}[bistro d=3 n=3]")),
    Mutant("walk-lhs-priced-a-round-long", ADM,
           "price = relaxation(n - t)", "price = relaxation(n - t + 1)",
           (f"{T_ADM}::TestBistroChecker::test_report_margins_have_slack",
            f"{RECORDED}[reduction d=3 n=3]", *CAPS)),
    Mutant("walk-adversary-minimizes", ADM,
           "lhs += probs[x] * max(", "lhs += probs[x] * min(",
           (f"{RECORDED}[bistro d=2 n=3]", f"{RECORDED}[reduction d=3 n=3]", *CAPS)),
    Mutant("walk-zero-cost-column", ADM,
           "np.vstack([cols, np.zeros(d)])", "np.vstack([cols, -np.ones(d)])",
           tuple(f"{RECORDED}[{name}]"
                 for name in ("bistro d=2 n=3", "bistro d=3 n=2", "bistro p(x)=0",
                              "reduction d=3 n=3", "reduction p(x)=0")) + CAPS[:1]),
    Mutant("walk-column-without-propensity", ADM,
           "gamma / q[j] * np.eye(d)[j]", "gamma * np.eye(d)[j]",
           (f"{RECORDED}[reduction d=3 n=3]", *CAPS)),
    Mutant("walk-price-index-flipped", ADM,
           "after[j][int(c[j])]", "after[j][1 - int(c[j])]",
           (f"{RECORDED}[reduction d=3 n=3]", *CAPS)),
    Mutant("step-slack-one", ADM,
           "return self.margin <= TOL", "return self.margin <= 1.0",
           (f"{T_ADM}::TestBistroChecker::test_step_passes_only_within_tolerance",)),
    # -- the admissibility checker: the horizon condition --
    Mutant("horizon-empty-future-dropped", ADM,
           "oracle, ctx, gamma * cols, empty_ctx, empty_signs)[0] / gamma",
           "oracle, ctx, gamma * cols, empty_ctx[:0], empty_signs[:0]).sum(axis=0) / gamma",
           (f"{T_ADM}::test_horizon_benchmark_is_the_filtered_class", *CAPS)),
    Mutant("horizon-estimate-times-propensity", ADM,
           "costs[:, rounds, actions] / picked_q", "costs[:, rounds, actions] * picked_q",
           (f"{RECORDED}[reduction d=3 n=3]", f"{RECORDED}[reduction p(x)=0]")),
    Mutant("horizon-mean-without-action-probabilities", ADM,
           "expectation += seq_probs[:, a] * values[:, a]",
           "expectation += values[:, a] / d**n", (f"{RECORDED}[reduction d=3 n=3]", *CAPS)),
    Mutant("horizon-contexts-tiled", ADM,
           "np.repeat(xs, d**n, axis=0)", "np.tile(xs, (d**n, 1))",
           (f"{RECORDED}[bistro d=2 n=3]", f"{RECORDED}[reduction d=3 n=3]", *CAPS)),
    # -- the admissibility checker: its inputs --
    Mutant("walk-empty-horizon", ADM,
           "if n < 1:", "if n < 0:",
           (f"{T_ADM}::TestBistroChecker::test_refuses_an_empty_horizon"
            "[check_bistro_admissibility]",
            f"{T_ADM}::TestBistroChecker::test_refuses_an_empty_horizon"
            "[check_reduction_admissibility]")),
    Mutant("checker-accepts-any-rate", ADM,
           "if not 0.0 < gamma <= 1.0 / policy_class.d:", "if False:",
           tuple(f"{T_ADM}::TestBistroChecker::test_refuses_a_rate_outside_the_floor_range"
                 f"[{gamma}-{check}]"
                 for gamma in ("0.0", "0.500000001", "inf")
                 for check in ("check_bistro_admissibility", "check_reduction_admissibility"))),
    Mutant("checker-probabilities-unchecked", ADM,
           "probs = context_probs(probs)", "probs = np.asarray(probs, dtype=float)",
           tuple(f"{T_ADM}::TestBistroChecker::test_refuses_bad_probabilities_before_pricing"
                 f"[probs{i}]" for i in range(4))),
    Mutant("probabilities-nan-blind", ENV,
           "if not (probs >= 0).all()", "if (probs < 0).any()",
           (f"{T_ADM}::TestBistroChecker::test_refuses_bad_probabilities_before_pricing[probs3]",
            *(f"{T_CLI}::test_nan_context_probability_exits_2[args{i}]" for i in range(4)),
            f"{T_RAD}::TestCategoricalSampler::test_rejects_what_choice_rejects")),
    Mutant("sampler-probabilities-unchecked", ENV,
           "cdf = context_probs(probs).cumsum()", "cdf = np.asarray(probs, dtype=float).cumsum()",
           (f"{T_RAD}::TestCategoricalSampler::test_rejects_what_choice_rejects",)),
    # -- the config table (config.DOCUMENTS, config.check) and the CLI --
    Mutant("config-K-unbounded", CONF,
           '"K": Key("number", None, "[0, inf)")', '"K": Key("number", None, "(-inf, inf)")',
           on_commands("K")),
    Mutant("config-delta-unbounded", CONF,
           '"delta": Key("number", None, "[0, inf)")', '"delta": Key("number", None, "(-inf, inf)")',
           on_commands("delta")),
    Mutant("config-pool-factor-unbounded", CONF,
           '"pool_factor": Key("count", 10, "[1, inf)")',
           '"pool_factor": Key("count", 10, "[0, inf)")',
           on_commands("pool_factor")),
    Mutant("config-minima-nan-blind", CONF,
           "above = value >= low if closed_low", "above = not value < low if closed_low",
           on_commands("lambda-nan")),
    Mutant("config-horizon-mode-bogus", CONF,
           'Key("choice", "iid_pool", MODES)', 'Key("choice", "iid_pool", (*MODES, "bogus"))',
           on_commands("horizon_mode") + (f"{RANGE}[horizon_mode-uniform]",)),
    Mutant("config-algorithm-bogus", CONF,
           'Key("choice", "bistro", ALGORITHMS)', 'Key("choice", "bistro", (*ALGORITHMS, "bogus"))',
           (f"{RANGE}[algorithm]", f"{RANGE}[algorithm-rademacher]")),
    Mutant("config-gamma-above-floor", CONF,
           'value <= 1.0 / doc["d"]', 'value <= 2.0 / doc["d"]', on_commands("gamma-above")),
    Mutant("config-gamma-zero", CONF,
           "0.0 < value <=", "0.0 <= value <=", on_commands("gamma-zero")),
    Mutant("config-rate-top-open", CONF,
           'value <= 1.0 / doc["d"]', 'value < 1.0 / doc["d"]',
           (f"{T_CLI}::test_config_and_learners_agree_on_the_rate",)),
    Mutant("config-d-zero-accepted", CONF,
           '"d": Key("count", REQUIRED, "[1, inf)"),\n        "n"',
           '"d": Key("count", REQUIRED, "[0, inf)"),\n        "n"', on_commands("d-zero")),
    Mutant("config-n-zero-accepted", CONF,
           '"n": Key("count", REQUIRED, "[1, inf)")', '"n": Key("count", REQUIRED, "[0, inf)")',
           on_commands("n-zero") + (f"{T_CLI}::test_admissibility_refuses_an_empty_horizon",)),
    Mutant("config-class-d-zero-accepted", CONF,
           '"family": Key(None), "d": Key("count", REQUIRED, "[1, inf)")',
           '"family": Key(None), "d": Key("count", REQUIRED, "[0, inf)")',
           on_commands("policy_class-d-zero")),
    Mutant("config-infinite-numbers", CONF,
           "finite = -math.inf < value < math.inf", "finite = -math.inf <= value <= math.inf",
           on_commands("lambda-inf") + on_commands("K-inf") + on_commands("delta-inf")
           + on_commands("epsilon-inf") + on_commands("eta-inf")),
    Mutant("config-eta-unchecked", CONF,
           '"eta": Key("number", None, "(0, inf)")', '"eta": Key(None, None, "(0, inf)")',
           on_commands("eta-inf") + on_commands("eta-nan")),
    Mutant("config-eta-zero", CONF,
           '"eta": Key("number", None, "(0, inf)")', '"eta": Key("number", None, "[0, inf)")',
           on_commands("eta-zero")),
    Mutant("config-rule-unchecked", CONF,
           'Key("choice", "argmax_punish", ADAPTIVE_RULES)',
           'Key(None, "argmax_punish", ADAPTIVE_RULES)',
           on_commands("rule-list") + on_commands("rule-number") + on_commands("rule-null")
           + on_commands("rule-bogus")),
    Mutant("config-epsilon-above-one", CONF,
           '"epsilon": Key("number", 0.1, "(0, 1]")', '"epsilon": Key("number", 0.1, "(0, 2]")',
           on_commands("epsilon-above")),
    # the table itself: a default, a nested document's key, an open range end
    Mutant("config-default-changed", CONF,
           '"pool_factor": Key("count", 10,', '"pool_factor": Key("count", 9,',
           (f"{T_HARNESS}::TestSuite::test_readme_table_lists_every_config_key",)),
    Mutant("config-nested-key-dropped", CONF,
           '        "features": Key("array", None, float),\n', "",
           (f"{T_HARNESS}::TestSuite::test_argmax_linear_class_from_context_features",)
           + malformed("features-string", "features-ragged")),
    Mutant("config-open-end-closed", CONF,
           '"epsilon": Key("number", 0.1, "(0, 1]")', '"epsilon": Key("number", 0.1, "[0, 1]")',
           on_commands("epsilon-zero")),
    Mutant("admissibility-gamma-unresolved", CLI,
           'resolve_strategy_params(config, pc, env)["gamma"], config["n"]',
           'get(config, "gamma"), config["n"]',
           tuple(f"{T_CLI}::test_admissibility_checks_the_rate_run_plays[{gamma}-{algorithm}]"
                 for gamma in ("auto", "None")
                 for algorithm in ("bistro", "bistro_relaxed", "adversarial_reduction"))),
    Mutant("admissibility-checks-transductive", CLI,
           'get(config, "horizon_mode") == "transductive"', "False",
           (f"{T_CLI}::test_admissibility_refuses_transductive_configs",)),
    Mutant("config-tune-samples-unbounded", CONF,
           '"tune_samples": Key("count", 200, "[1, inf)")',
           '"tune_samples": Key("count", 200, "[0, inf)")',
           on_commands("tune_samples")),
    Mutant("rademacher-samples-printed", CLI,
           '"samples": get(config, "tune_samples")', '"samples": 200',
           tuple(f"{T_CLI}::test_rademacher_prices_what_run_plays[{seed}]" for seed in (7, 3))
           + (f"{T_CLI}::test_rademacher_subcommand",)),
    # -- the bound and the rate (runner.resolve_strategy_params, runner.relaxation) --
    Mutant("bound-complexity-not-over-gamma", RUNNER,
           "complexity / gamma + n * d * gamma + budget", "complexity + n * d * gamma + budget",
           (f"{T_ADM}::TestBoundIsRelaxationAtEmptyHistory::test_bound_matches_first_rhs[bistro]",
            f"{T_RAD}::TestBound::test_plug_in")),
    Mutant("bound-stderr-not-over-gamma", RUNNER,
           'out["bound_stderr"] = est.std_error / gamma', 'out["bound_stderr"] = est.std_error',
           (f"{T_ADM}::TestBoundIsRelaxationAtEmptyHistory::"
            "test_bound_matches_first_rhs[bistro_regularized]",
            "tests/test_verify.py::TestExactRegularizedBound::"
            "test_estimate_within_three_standard_errors")),
    Mutant("penalty-lambda-over-gamma", RUNNER,
           "lam * gamma), lam * K", "lam / max(gamma, 1e-12)), lam * K",
           (f"{T_ADM}::test_first_rhs_is_the_exact_bound[bistro_regularized-bistro d=2 n=3]",
            f"{T_GOLDEN}[regularized_pairwise]")),
    Mutant("class-complexity-at-sign-scale", RUNNER,
           'out["class_rad_stderr"] = rad\n',
           'out["class_rad_stderr"] = est.mean, est.std_error\n',
           tuple(f"{T_RAD}::TestBound::test_box_run_reports_the_class_complexity[{name}]"
                 for name in ("fixed_adversarial", "adaptive_adversary", "bernoulli_demo"))),
    Mutant("box-keeps-the-class-complexity", RUNNER,
           "rad = n * (1.0 - 2.0**-d), 0.0", "pass",
           (f"{T_RAD}::TestBound::test_clamped",)),
    Mutant("penalized-complexity-not-re-estimated", RUNNER,
           'if algo == "bistro_regularized":  # the penalized', "if False:  # the penalized",
           (f"{T_HARNESS}::TestSuite::test_regularized_bound_at_bench_scale",
            f"{T_HARNESS}::TestSuite::"
            "test_set_up_prices_the_unpenalized_class_once[regularized_pairwise.json-6-None]",
            "tests/test_verify.py::TestExactRegularizedBound::"
            "test_estimate_within_three_standard_errors")),
    # -- the seed list, the numeric policy and the summary (runner.run_suite) --
    Mutant("rate-tuned-without-the-horizon", "src/bistro/rademacher.py",
           "np.sqrt(complexity / (n * d))", "np.sqrt(complexity / d)", (GROWTH,)),
    Mutant("bistro-plays-uniform", RUNNER,
           "return BistroStrategy(policy_class, oracle, gamma,",
           "return UniformStrategy(policy_class.d) or BistroStrategy(policy_class, oracle, gamma,",
           (GROWTH, f"{T_REGRET}[fixed_adversarial_bistro]")),
    Mutant("run-suite-without-errstate", RUNNER,
           'with np.errstate(all="raise", under="ignore"):', "with np.errstate():",
           (f"{T_HARNESS}::TestSuite::test_numeric_error_policy",)),
    Mutant("seeds-repeated", RUNNER,
           "or min(seeds) < 0 or len(set(seeds)) < len(seeds):", "or min(seeds) < 0:",
           (f"{T_HARNESS}::TestSuite::test_seed_lists_that_check_nothing_are_refused",
            f"{T_CLI}::test_run_refuses_seed_lists_that_check_nothing[2,2]")),
    Mutant("seeds-negative", RUNNER,
           "or min(seeds) < 0 or len(set(seeds)) < len(seeds):",
           "or len(set(seeds)) < len(seeds):",
           (f"{T_HARNESS}::TestSuite::test_seed_lists_that_check_nothing_are_refused",
            f"{T_CLI}::test_run_refuses_seed_lists_that_check_nothing[1,-1]")),
    Mutant("seeds-empty", RUNNER,
           "if not seeds or not ints or", "if seeds and not ints or",
           (f"{T_HARNESS}::TestSuite::test_seed_lists_that_check_nothing_are_refused",
            f"{T_CLI}::test_run_refuses_seed_lists_that_check_nothing[0]",
            f"{T_CLI}::test_run_refuses_seed_lists_that_check_nothing[-2]")),
    Mutant("seeds-of-any-type", RUNNER, "if not seeds or not ints or", "if not seeds or",
           (f"{T_HARNESS}::TestSuite::test_seed_lists_that_check_nothing_are_refused",)),
    Mutant("regret-stderr-without-root", RUNNER,
           "float(std / np.sqrt(len(seeds)))", "float(std / len(seeds))",
           (f"{T_HARNESS}::TestSuite::test_regret_stderr_is_the_mean_regrets_standard_error",)),
    # -- the ERM oracles' stacks and the regularized oracle's penalty --
    Mutant("approximate-noise-dropped", ERM,
           "self.delta * self._rng.uniform(", "0.0 * self._rng.uniform(",
           (f"{T_ERM}::TestApproximateOracle::test_interval_containment", DELTA_PLAYOUTS_GOLDEN)),
    Mutant("approximate-one-draw-per-stack", ERM,
           "self._rng.uniform(-1.0, 1.0, Y.shape[:-2])", "self._rng.uniform(-1.0, 1.0)",
           (f"{T_ERM}::TestStackedQueries::test_approximate_draws_noise_in_order",)),
    Mutant("regularized-stack-one-minimum", ERM,
           "np.minimum.reduce(vals, axis=-1)", "np.minimum.reduce(vals, axis=None)",
           (f"{T_ERM}::TestStackedQueries::test_regularized",
            f"{T_HARNESS}::TestSuite::test_unpenalized_regularized_bound_is_bistro_bound")),
    # -- every caller's penalties (erm.policy_constraint_values) --
    Mutant("stack-penalty-wrong-row", ERM,
           "np.array([priced[key] for key in keys])",
           "np.array([priced[key] for key in reversed(keys)])",
           (f"{T_ERM}::TestStackedQueries::test_regularized",
            f"{T_ERM}::TestBenchmark::test_matches_sequence_form_reference", *CAPS)),
    Mutant("stack-penalty-keyed-by-identity", ERM,
           "keys = [row.tobytes() for row in ids]", "keys = [id(row) for row in ids]",
           (f"{T_ERM}::TestStackedQueries::test_regularized",
            f"{T_ERM}::TestStackedQueries::test_penalty_once_per_distinct_context_row",
            f"{T_ADM}::test_horizon_benchmark_is_the_filtered_class", *CAPS)),
    Mutant("stack-penalty-every-row-priced", ERM,
           "for key, row in dict(zip(keys, ids)).items()}", "for key, row in zip(keys, ids)}",
           (f"{T_ERM}::TestStackedQueries::test_penalty_once_per_distinct_context_row",)),
    Mutant("negative-constraint-values-accepted", ERM,
           "if values.min(initial=0) < 0:", "if False:",
           (f"{T_ERM}::TestBenchmark::test_refuses_negative_constraint_values",
            f"{T_ERM}::TestStackedQueries::test_refuses_negative_constraint_values")),
    # -- the regularized oracle's memo (RegularizedErmOracle._penalties) --
    Mutant("penalty-key-without-shape", ERM,
           "key = (ids.shape, ids.tobytes())", "key = ids.tobytes()",
           (f"{T_ERM}::TestStackedQueries::test_repeated_bytes_need_a_repeated_shape",)),
    Mutant("penalty-key-by-identity", ERM,
           "key = (ids.shape, ids.tobytes())", "key = id(contexts)",
           (f"{T_ERM}::TestStackedQueries::test_single_queries_on_one_row_price_it_once",
            f"{T_ERM}::TestStackedQueries::test_row_rewritten_in_place_prices_again",
            f"{T_GOLDEN}[regularized_pairwise]",
            f"{T_STRAT}::TestRegularizedVariant::test_queries_reprice_in_round_pair_form")),
    Mutant("penalty-memo-never-hit", ERM,
           "if self._memo[0] != key:", "if True:",
           (f"{T_ERM}::TestStackedQueries::test_single_queries_on_one_row_price_it_once",
            f"{T_HARNESS}::TestSuite::test_play_prices_the_penalty_once_per_playout")),
    Mutant("penalty-memo-never-refreshed", ERM,
           "if self._memo[0] != key:", "if self._memo[0] is None:",
           (f"{T_ERM}::TestStackedQueries::test_row_rewritten_in_place_prices_again",
            f"{T_ERM}::TestStackedQueries::test_repeated_bytes_need_a_repeated_shape",
            f"{T_GOLDEN}[regularized_pairwise]")),
    Mutant("pairwise-contexts-unsorted", ERM,
           "u = counts.nonzero()[0]", "u = counts.nonzero()[0][::-1]",
           (f"{T_ERM}::TestFoldedPairwise::test_matches_sequence_form", PAIRWISE_BITS)),
    Mutant("pairwise-ids-counted-unchecked", ERM,
           "ids = policy_class._checked_ids(contexts)", "ids = context_ids(contexts)",
           (f"{T_ERM}::TestFoldedPairwise::test_out_of_universe_ids_rejected",)),
    Mutant("pairwise-one-sided-counts", ERM,
           "W = c[:, None] * c", "W = c[:, None] * np.ones_like(c)",
           (f"{T_ADM}::test_first_rhs_is_the_exact_bound[bistro_regularized-bistro d=2 n=3]",
            TRANSDUCTIVE_GOLDENS[0], ADAPTIVE_REGULARIZED_GOLDEN, PAIRWISE_BITS)),
    Mutant("pairwise-weights-without-counts", ERM,
           "W = self.weights[np.ix_(u, u)] * W", "W = self.weights[np.ix_(u, u)]",
           (f"{T_ERM}::TestFoldedPairwise::test_matches_sequence_form",)),
    # -- the disagreement tensor kept by the pairwise penalty (PairwiseDisagreement.per_policy) --
    Mutant("pairwise-tensor-key-without-class", ERM,
           "key = (policy_class, u.tobytes())", "key = (None, u.tobytes())",
           (KEPT_TENSOR, f"{T_ERM}::TestFoldedPairwise::test_matches_sequence_form",
            "tests/test_acceptance.py::test_criterion_2_erm_oracle_equivalence")),
    Mutant("pairwise-tensor-key-without-contexts", ERM,
           "key = (policy_class, u.tobytes())", "key = (policy_class, None)",
           (KEPT_TENSOR, f"{T_ERM}::TestStackedQueries::test_regularized",
            f"{T_ERM}::TestBenchmark::test_matches_sequence_form_reference",
            f"{REUSE}[regularized_pairwise]")),
    Mutant("pairwise-tensor-never-kept", ERM,
           "if self._differ[0] != key:", "if True:", (KEPT_TENSOR,)),
    # -- lambda_scaled, applied once in the regularized oracle's memo --
    Mutant("penalty-lambda-applied-twice", ERM,
           "vals = vals + self._penalties(contexts)",
           "vals = vals + self.lambda_scaled * self._penalties(contexts)",
           (f"{T_GOLDEN}[regularized_pairwise]", ADAPTIVE_REGULARIZED_GOLDEN,
            f"{T_ERM}::TestFoldedPairwise::test_regularized_value_matches_metric_labeling",
            f"{T_STRAT}::TestRegularizedVariant::test_queries_reprice_in_round_pair_form")),
    Mutant("penalty-lambda-not-applied", ERM,
           "self._memo = (key, self.lambda_scaled * policy_constraint_values(",
           "self._memo = (key, policy_constraint_values(",
           (f"{T_GOLDEN}[regularized_pairwise]",
            f"{T_ERM}::TestFoldedPairwise::test_regularized_value_matches_metric_labeling",
            f"{T_STRAT}::TestRegularizedVariant::test_queries_reprice_in_round_pair_form",
            "tests/test_verify.py::TestExactRegularizedBound::"
            "test_estimate_within_three_standard_errors")),
    # -- the context-id check, one reduction over an unsigned view (PolicyClass._checked_ids) --
    Mutant("id-check-on-the-signed-max-only", POL,
           "ids.view(np.uint64).max() >= self.universe_size", "ids.max() >= self.universe_size",
           id_checks("refused", ("int8", "int32", "int64", "uint64"))
           + (f"{T_ERM}::TestFoldedPairwise::test_out_of_universe_ids_rejected",
              f"{T_POL}::TestValuesMany::test_rejects_out_of_universe_ids_in_any_query")),
    Mutant("context-ids-keep-narrow-types", POL,
           "contexts.dtype == np.int64", 'contexts.dtype.kind in "iu"',
           id_checks("accepted", ("int8", "int32", "uint8"))
           + id_checks("refused", ("int8", "int32", "uint8"))),
    # -- ids that are not integers, refused by dtype kind (policies.context_ids) --
    Mutant("context-ids-accept-bools", POL,
           'ids.dtype.kind not in "iu"', 'ids.dtype.kind not in "iub"',
           non_integer_ids("bool", "bool_list")),
    Mutant("context-ids-of-any-kind", POL,
           'if ids.size and ids.dtype.kind not in "iu":', "if False:",
           non_integer_ids("bool", "bool_list", "float32", "float64", "float_in_a_list")
           + (f"{T_STRAT}::TestBistroRound::test_pool_of_floats_is_refused",)),
    # -- a list of Python ints beyond int64, refused as out of range (policies.context_ids) --
    Mutant("int-lists-beyond-int64-named-by-dtype", POL,
           "if entries and all(type(x) is int for x in entries):", "if False:",
           id_checks("refused", ("uint64",))
           + tuple(f"{T_POL}::TestIdRangeCheck::{test}[{entry}]"
                   for test in ("test_int_lists_beyond_int64_are_refused",
                                "test_nested_int_lists_beyond_int64_are_refused")
                   for entry in ("actions_on", "per_policy", "values"))),
    Mutant("int-lists-take-bools", POL,
           "all(type(x) is int for x in entries)", "all(isinstance(x, int) for x in entries)",
           non_integer_ids("bool_list")),
    Mutant("int-lists-read-bools-among-ints-as-ints", POL,
           "if any(isinstance(x, (bool, np.bool_)) for x in entries):", "if False:",
           tuple(f"{T_POL}::TestIdRangeCheck::test_bools_among_int_ids_are_refused[{entry}]"
                 for entry in ("actions_on", "per_policy", "values"))),
    # -- coverage partitions, checked once (erm.CoveragePenalty) --
    Mutant("coverage-cover-unchecked", ERM,
           "if not np.array_equal(seen, np.arange(seen.size)):", "if False:",
           (f"{T_ERM}::TestConstraints::test_coverage_partition_validation",
            *on_commands("partition-overlap"))),
    Mutant("coverage-horizon-unchecked", ERM,
           "if actions.shape[1] != self.n:", "if False:",
           (f"{T_ERM}::TestConstraints::test_coverage_partition_validation",)),
    # -- config shapes refused before an episode (runner) --
    Mutant("config-partition-entries-unchecked", CONF,
           "isinstance(block, list) and all(type(t) is int and 0 <= t < 2**63 for t in block)",
           "True",
           on_commands("partition-fraction") + on_commands("partition-flat")),
    Mutant("config-partition-horizon-unchecked", RUNNER,
           "isinstance(constraint, CoveragePenalty) and constraint.n != n",
           "isinstance(constraint, CoveragePenalty) and False",
           on_commands("partition-short")),
    Mutant("config-weights-shape-unchecked", RUNNER,
           "weights is not None and weights.shape != (universe, universe)",
           "weights is not None and False",
           on_commands("weights-shape")),
    Mutant("config-table-width-unchecked", RUNNER,
           "if costs.d != d or len(costs.values) < n:", "if len(costs.values) < n:",
           on_commands("table-wide")),
    Mutant("config-table-length-unchecked", RUNNER,
           "if costs.d != d or len(costs.values) < n:", "if costs.d != d:",
           on_commands("table-short") + (f"{T_HARNESS}::TestSuite::test_failure_identifies_seed",)),
    Mutant("config-means-shape-unchecked", RUNNER,
           "costs.means.shape != (probs.size, d)", "False",
           on_commands("means-short") + on_commands("means-wide")),
    # -- admissibility checks that check nothing --
    Mutant("initial-checks-unchecked", ADM,
           "if initial_checks < 1:", "if False:",
           tuple(f"{T_ADM}::TestBistroChecker::test_refuses_horizon_checks_that_check_nothing"
                 f"[{count}-{check}]" for count in (0, -1)
                 for check in ("check_bistro_admissibility", "check_reduction_admissibility"))
           + tuple(f"{T_CLI}::test_admissibility_refuses_initial_checks_that_check_nothing"
                   f"[{count}-{algorithm}]" for count in (0, -1)
                   for algorithm in ("bistro", "adversarial_reduction"))),
    Mutant("admissibility-seed-unchecked", ADM,
           "if seed < 0:", "if False:",
           tuple(f"{T_ADM}::TestBistroChecker::test_refuses_a_negative_seed[{check}]"
                 for check in ("check_bistro_admissibility", "check_reduction_admissibility"))
           + tuple(f"{T_CLI}::test_admissibility_names_a_negative_seed[{algorithm}]"
                   for algorithm in ("bistro", "adversarial_reduction"))),
    Mutant("out-dir-not-made-first", RUNNER,
           "        try:\n            os.makedirs(out_dir, exist_ok=True)\n",
           "        try:\n            pass\n",
           (f"{T_CLI}::test_run_refuses_an_out_that_cannot_be_a_directory",
            f"{T_CLI}::test_run_subcommand")),
    Mutant("seeds-unreadable-unnamed", CLI,
           "    except ValueError:\n        raise ValueError(f\"--seeds needs",
           "    except KeyError:\n        raise ValueError(f\"--seeds needs",
           (f"{T_CLI}::test_run_names_seeds_it_cannot_read",)),
    # -- files a config cannot open, and numeric arrays that hold no numbers --
    Mutant("unopenable-file-unnamed", CONF,
           "except (OSError, ValueError) as exc:", "except ValueError as exc:",
           unreadable("config-missing", "policy_class-missing", "cost_process-missing",
                      "cost_process-a-directory")),
    Mutant("unparsable-file-unnamed", CONF,
           "except (OSError, ValueError) as exc:", "except OSError as exc:",
           unreadable("config-not-json", "policy_class-not-json", "cost_process-not-numbers")),
    Mutant("file-path-type-unchecked", CONF,
           'isinstance(doc.get("path"), str)', '"path" in doc',
           unreadable("policy_class-not-a-name")),
    Mutant("array-strings-accepted", CONF,
           "if type(entry) not in kinds:", "if type(entry) not in (*kinds, str):",
           malformed("argmax-weights-string", "features-string", "probs-string",
                     "values-string", "means-string", "weights-string")),
    Mutant("array-booleans-accepted", CONF,
           "if type(entry) not in kinds:", "if not isinstance(entry, kinds):",
           malformed("policies-bool", "probs-bool", "weights-bool")),
    Mutant("policies-fractions-accepted", CONF,
           '((int,), "integer") if held is np.int64',
           '((int, float), "integer") if held is np.int64',
           malformed("policies-fraction")),
    Mutant("array-entries-unwalked", CONF,
           "level = [entry for lists in level for entry in lists]", "level = []",
           malformed("policies-fraction", "probs-string", "means-null", "weights-bool")),
    Mutant("array-ragged-rows-accepted", CONF,
           "if len({len(entry) if isinstance(entry, list) else -1 for entry in level}) > 1:",
           "if False:",
           malformed("policies-ragged", "means-ragged", "values-depth", "probs-depth",
                     "features-ragged", "weights-ragged", "argmax-weights-ragged")),
    Mutant("array-int64-range-unchecked", CONF,
           "held(entry)  # as NumPy will hold it", "pass",
           on_commands("policies-int64") + malformed("means-overflow")),
    Mutant("partition-int64-range-unchecked", CONF,
           "type(t) is int and 0 <= t < 2**63", "type(t) is int",
           on_commands("partition-int64")),
    Mutant("context-dist-arrays-unchecked", CONF,
           '"probs": Key("array", REQUIRED, float),\n        "features": Key("array", None, float),',
           '"probs": Key(None),\n        "features": Key(None, None),',
           malformed("features-string", "probs-string", "probs-bool")),
    Mutant("cost-arrays-unchecked", CONF,
           '"means": Key("array", REQUIRED, float)', '"means": Key(None)',
           malformed("means-string", "means-null")),
    Mutant("constraint-weights-unchecked", CONF,
           'Key("array", "uniform", float)', 'Key(None, "uniform", float)',
           malformed("weights-string", "weights-bool")),
    # -- refusals that only their own test reaches --
    Mutant("cost-table-vector-accepted", ENV, "if values.ndim != 2:", "if False:",
           malformed("values-vector")),
    Mutant("cost-table-short-accepted", ENV, "if n > self.values.shape[0]:", "if False:",
           (f"{T_HARNESS}::TestCostValidation::test_fixed_table_shorter_than_the_episode",)),
    Mutant("bernoulli-means-vector-accepted", ENV, "if means.ndim != 2:", "if False:",
           malformed("means-vector")),
    Mutant("coverage-negative-k-accepted", ERM, "if k < 0:", "if False:",
           (f"{T_ERM}::TestConstraints::test_coverage_negative_k_rejected",)),
    Mutant("cost-vector-of-any-rank", POL, "if c.ndim != 1:", "if False:",
           (f"{T_HARNESS}::TestCostValidation::test_cost_vector_must_be_one_dimensional",)),
    Mutant("tuning-without-samples", "src/bistro/rademacher.py", "if samples < 1:", "if False:",
           (f"{T_RAD}::TestEstimator::test_refuses_no_samples",)),
    Mutant("cost-vector-width-unchecked", RUNNER, "if c.size != d:", "if False:",
           (f"{T_HARNESS}::TestCostValidation::test_cost_vector_of_another_dimension",)),
    Mutant("unknown-algorithm-builds-nothing", RUNNER,
           '    raise ValueError(f"unknown algorithm {algo!r}")\n', "",
           (f"{T_HARNESS}::TestSuite::test_make_strategy_refuses_an_unknown_algorithm",)),
    Mutant("pool-mode-without-a-pool", STRAT, "if pool is None or len(pool) == 0:", "if False:",
           tuple(f"{T_STRAT}::TestBistroRound::test_iid_pool_requires_a_pool[{pool}]"
                 for pool in ("none", "empty"))),
    Mutant("egreedy-epsilon-unchecked", STRAT, "if not 0.0 < epsilon <= 1.0:", "if False:",
           tuple(f"{T_STRAT}::TestEpsilonGreedy::test_refuses_epsilon_outside_the_unit_interval"
                 f"[{epsilon}]" for epsilon in (0.0, -0.1, 1.5))),
    Mutant("variant-tag-of-any-type", CONF,
           "if not isinstance(variant, (str, type(None))):", "if False:",
           malformed("family-list", "type-list", "constraint-type-list")),
    Mutant("config-of-any-type", CONF, "if not isinstance(config, dict):", "if False:",
           (f"{T_CLI}::test_a_config_that_is_not_an_object_exits_2",)),
    # -- the document readers (runner.build_policy_class, runner.build_constraint) --
    Mutant("policy-document-actions-kept-one-based", RUNNER,
           'np.asarray(doc["policies"], np.int64) - 1', 'np.asarray(doc["policies"], np.int64)',
           (f"{T_POL}::TestPolicyClass::test_from_json_tables_one_based",
            f"{T_POL}::TestPolicyClass::test_json_round_trip",
            f"{T_GOLDEN}[adaptive_adversary_bistro]")),
    Mutant("declared-universe-unchecked", RUNNER,
           'if "universe" in doc and doc["universe"] != pc.universe_size:', "if False:",
           (f"{T_POL}::TestPolicyClass::test_from_json_universe_mismatch",)),
    Mutant("unknown-constraint-type-builds-none", RUNNER,
           'raise ValueError(f"unknown constraint type {kind!r}")', "return None",
           (f"{T_ERM}::TestConstraints::test_load_constraint",)
           + malformed("constraint-type-number", "constraint-type-list")),
    Mutant("argmax-linear-given-no-features", RUNNER,
           'None if dist == "uniform" else dist.get("features"))', "None)",
           (f"{T_HARNESS}::TestSuite::test_argmax_linear_class_from_context_features",)),
]

EQUIVALENT = [
    Mutant("pairwise-float-counts", ERM, "c = counts[u]", "c = counts[u].astype(float)",
           ("counts below 2^53 give the same products as floats",)),
    Mutant("sampler-left-side", ENV,
           'cdf.searchsorted(rng.random(n), side="right")',
           'cdf.searchsorted(rng.random(n), side="left")',
           ("a uniform draw lands exactly on a CDF value with probability ~0",)),
    Mutant("waterfill-tiny-margin", "src/bistro/waterfill.py",
           "if u + v > 0:", "if u + v > 1e-300:",
           ("at u + v in (0, 1e-300] both levels give the same q",)),
    Mutant("futures-keep-zero-probability", ADM,
           "combos[ctx_w > 0], ctx_w[ctx_w > 0]", "combos[ctx_w >= 0], ctx_w[ctx_w >= 0]",
           ("a future of weight 0 adds exact zeros to every mean",)),
    Mutant("futures-reversed-sign-columns", ADM,
           "eps = (bits * 2.0 - 1.0).reshape(patterns, d, m)",
           "eps = (bits * 2.0 - 1.0).reshape(patterns, d, m)[:, :, ::-1]",
           ("reversing the columns permutes the sign patterns, which have equal weights",)),
    Mutant("mixed-q-e_j-two", ADM, "np.eye(d)[:, None]", "2.0 * np.eye(d)[:, None]",
           ("water-filling saturates once a price gap reaches 1, so any e_j >= 1 gives one q",)),
    Mutant("walk-zero-probability-contexts", ADM,
           "for x in np.nonzero(probs)[0].tolist():", "for x in range(probs.size):",
           ("a context of probability 0 adds 0 times a finite value to the lhs",)),
]

SUMMARY = re.compile(r"^(PASSED|FAILED|ERROR) (.+?)(?: - .*)?$")


def snippet_problems(mutants=MUTANTS + EQUIVALENT, root: str = ROOT) -> list[str]:
    """Every mutant whose snippet does not occur exactly once in its file."""
    problems = []
    for m in mutants:
        with open(os.path.join(root, m.path)) as f:
            count = f.read().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: {m.old!r} occurs {count} times in {m.path}")
    return problems


def outcomes(checkout: str, ids) -> dict[str, str]:
    """pytest's outcome (PASSED, FAILED or ERROR) of each id it ran."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--tb=no", "-rA", *ids], cwd=checkout, env=env,
                          capture_output=True, text=True)
    found = {}
    for line in done.stdout.splitlines():
        match = SUMMARY.match(line)
        if match:
            found[match.group(2)] = match.group(1)
    return found


def run_mutant(mutant: Mutant, checkout: str) -> list[str]:
    """Apply ``mutant`` in ``checkout``, run its ids, restore the file, and
    return the ids that did not fail."""
    path = os.path.join(checkout, mutant.path)
    with open(path) as f:
        source = f.read()
    if source.count(mutant.old) != 1:
        return ["snippet not found once"]
    with open(path, "w") as f:
        f.write(source.replace(mutant.old, mutant.new))
    try:
        found = outcomes(checkout, mutant.ids)
    finally:
        with open(path, "w") as f:
            f.write(source)
    return [f"{found.get(i, 'not run')}: {i}" for i in mutant.ids
            if found.get(i) not in ("FAILED", "ERROR")]


def main() -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    problems = snippet_problems()
    for problem in problems:
        print("SNIPPET", problem)
    start, survivors = time.perf_counter(), 0
    with tempfile.TemporaryDirectory(prefix="bistro-mutants-") as tmp:
        checkouts: queue.Queue[str] = queue.Queue()
        for worker in range(WORKERS):  # each worker mutates its own copy
            checkout = os.path.join(tmp, f"checkout{worker}")
            shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".perfbench_out", ".bench_build"))
            checkouts.put(checkout)

        def job(mutant: Mutant) -> list[str]:
            checkout = checkouts.get()
            try:
                return run_mutant(mutant, checkout)
            finally:
                checkouts.put(checkout)

        with ThreadPoolExecutor(WORKERS) as pool:
            for m, missed in zip(MUTANTS, pool.map(job, MUTANTS)):
                status = "caught" if not missed else "SURVIVED"
                print(f"{status:8} {m.name} ({len(m.ids) - len(missed)}/{len(m.ids)} ids fail)",
                      flush=True)
                for line in missed:
                    print(f"         {line}")
                survivors += bool(missed)
    print("equivalent, not run:")
    for m in EQUIVALENT:
        print(f"         {m.name}: {m.ids[0]}")
    print(f"{len(MUTANTS)} mutants, {survivors} survived, {len(problems)} snippet problems, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survivors or problems else 0


if __name__ == "__main__":
    sys.exit(main())
