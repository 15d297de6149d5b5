"""Regenerate the committed instance files under configs/.

The policy tables are random draws (generation seed fixed so the class
contains one clearly-best policy under the fixed cost file), and the fixed
cost sequence favors action 1 with two mid-stream reversal blocks.
"""

import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "..", "configs")

N = 512
POLICY_GEN_SEED = 12
FLIP_BLOCKS = [(200, 240), (400, 440)]


def main():
    os.makedirs(CONFIGS, exist_ok=True)

    rng = np.random.default_rng(POLICY_GEN_SEED)
    table = rng.integers(0, 2, size=(8, 8))
    with open(os.path.join(CONFIGS, "policies8.json"), "w") as f:
        json.dump({"d": 2, "universe": 8, "policies": (table + 1).tolist()}, f, indent=2)
        f.write("\n")

    costs = np.tile([0.1, 0.9], (N, 1))
    for lo, hi in FLIP_BLOCKS:
        costs[lo:hi] = [0.9, 0.1]
    np.savetxt(os.path.join(CONFIGS, "fixed_costs.csv"), costs, fmt="%.1f", delimiter=",")

    base = {
        "d": 2,
        "n": N,
        "horizon_mode": "iid_pool",
        "context_dist": "uniform",
        "policy_class": {"path": "policies8.json"},
        "algorithm": "bistro",
        "gamma": "auto",
        "playouts": 1,
        "pool_factor": 10,
    }

    fixed = dict(base)
    fixed["cost_process"] = {"type": "fixed_table", "path": "fixed_costs.csv"}
    with open(os.path.join(CONFIGS, "fixed_adversarial.json"), "w") as f:
        json.dump(fixed, f, indent=2)
        f.write("\n")

    adaptive = dict(base)
    adaptive["cost_process"] = {"type": "adaptive", "rule": "argmax_punish"}
    with open(os.path.join(CONFIGS, "adaptive_adversary.json"), "w") as f:
        json.dump(adaptive, f, indent=2)
        f.write("\n")

    regularized = {
        "d": 2,
        "n": 6,
        "horizon_mode": "iid_pool",
        "context_dist": "uniform",
        "policy_class": {"d": 2, "universe": 2, "family": "all_labelings"},
        "cost_process": {
            "type": "fixed_table",
            "values": [[0.1, 0.8], [0.7, 0.2], [0.1, 0.9], [0.8, 0.1], [0.2, 0.9], [0.9, 0.3]],
        },
        "algorithm": "bistro_regularized",
        "gamma": 0.25,
        "constraint": {"type": "pairwise", "weights": "uniform"},
        "lambda": 0.1,
        "K": 4,
    }
    with open(os.path.join(CONFIGS, "regularized_pairwise.json"), "w") as f:
        json.dump(regularized, f, indent=2)
        f.write("\n")

    admissibility = {
        "d": 2,
        "n": 3,
        "horizon_mode": "iid_pool",
        "context_dist": {"probs": [0.6, 0.4]},
        "policy_class": {"d": 2, "universe": 2, "family": "all_labelings"},
        "cost_process": {"type": "adaptive", "rule": "argmax_punish"},
        "algorithm": "bistro",
        "gamma": 0.25,
    }
    with open(os.path.join(CONFIGS, "admissibility_small.json"), "w") as f:
        json.dump(admissibility, f, indent=2)
        f.write("\n")

    bernoulli = {
        "d": 2,
        "n": 128,
        "horizon_mode": "iid_pool",
        "context_dist": "uniform",
        "policy_class": {"d": 2, "universe": 4, "family": "all_labelings"},
        "cost_process": {
            "type": "iid_bernoulli",
            "means": [[0.2, 0.8], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]],
        },
        "algorithm": "bistro",
        "gamma": "auto",
    }
    with open(os.path.join(CONFIGS, "bernoulli_demo.json"), "w") as f:
        json.dump(bernoulli, f, indent=2)
        f.write("\n")

    print(f"wrote instance files to {os.path.normpath(CONFIGS)}")


if __name__ == "__main__":
    main()
