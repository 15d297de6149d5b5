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

__version__ = "0.1.0"
