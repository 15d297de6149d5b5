"""Oracle-efficient contextual bandits via online relaxations.

The learner observes i.i.d. side information, plays one of d actions, and
sees only the cost of the action played; costs themselves may be arbitrary,
even adaptive. Strategies here price actions through value-of-ERM oracle
calls on random playouts of the unknown future, water-fill the values into
a distribution, and mix toward uniform for estimation. The harness runs
episodes against fixed, stochastic, and adaptive cost processes, accounts
regret against a policy class, and empirically checks the per-round
inequalities that justify the regret bounds.
"""

from .adversarial import (
    ExpWeightsRelaxation,
    ReductionStrategy,
    reduction_bound,
    reduction_gamma,
)
from .environments import AdaptiveCosts, Environment, FixedTableCosts, IidBernoulliCosts
from .erm import (
    ApproximateErmOracle,
    BoxRelaxedOracle,
    CoveragePenalty,
    ErmOracle,
    ExactErmOracle,
    PairwiseDisagreement,
    RegularizedErmOracle,
    RegularizedErmQuery,
    box_relaxed_erm_value,
    exact_erm_value,
    filter_class,
    load_constraint,
    mlc_bruteforce,
    regularized_erm_value,
)
from .policies import (
    CapacityError,
    PolicyClass,
    ips_estimate,
    mix_with_uniform,
    uniform_distribution,
)
from .rademacher import (
    RademacherEstimate,
    categorical_sampler,
    fixed_sampler,
    rademacher_estimate,
    regret_bound,
    tune_gamma,
)
from .admissibility import (
    AdmissibilityReport,
    check_bistro_admissibility,
    check_reduction_admissibility,
)
from .runner import (
    Transcript,
    expected_regret,
    load_config,
    realized_regret,
    run_episode,
    run_suite,
)
from .strategies import (
    BistroConfig,
    BistroStrategy,
    EpsilonGreedyStrategy,
    FollowTheLeaderStrategy,
    UniformStrategy,
)
from .waterfill import minimax_value, waterfill, waterfill_oracle

__version__ = "0.1.0"
