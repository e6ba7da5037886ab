"""The benchmark's workloads: plexsim configs generated from a seed.

All three share the desk world of ``configs/*-desk.yaml``: trace seed 7 over
8 cities, the 20 000 x 256 ten-class Gaussian mixture (dataset seed 1) and
the linear model. The benchmark's ``--seed`` becomes ``protocol_seed``, which
drives partitioning, initial models, local SGD noise and gossip peer choice
and staggers. The Plexus sample schedule hashes only ``id|k``, so the seed
leaves it unchanged.

Each target sits mid-way between two evaluation points on the steep part of
its workload's accuracy curve, so that seed noise rarely moves the first
crossing: a move changes ``sim_tta_s`` by a whole round or checkpoint.
"""

from __future__ import annotations

import copy

DESK = {
    "n": 100,
    "sample_size": 13,
    "success_fraction": 0.8,
    "repetitions": 1,
    "model_family": "linear",
    "trainer": {"eta": 0.05, "batch_size": 32, "local_steps": 3},
    "dataset": {"seed": 1, "n_samples": 20000, "d_in": 256, "classes": 10, "class_sep": 0.185},
    "traces": {
        "cities": 8,
        "seed": 7,
        "median_rtt_ms": 80.0,
        "uplink_median_bps": 30000.0,
        "downlink_median_bps": 60000.0,
        "sec_per_step_median": 0.4,
        "profile_sigma": 0.6,
    },
}

WORKLOADS = {
    # Round 4 reaches at most 0.608 and round 5 at least 0.633 on 18 seeds.
    "plexus-n1000": {
        "algorithm": "plexus",
        "n": 1000,
        "targets": [0.62],
        "stop": {"max_rounds": 20, "max_virtual_s": 172800.0},
        "eval": {"every_rounds": 1, "every_seconds": 1800.0},
    },
    # Checkpoints at 250 s and 500 s only, so that evaluating 500 models
    # stays below the engine's share. Mean accuracy is at most 0.60 at 300 s
    # and 0.738-0.749 at 500 s on seeds 1-10.
    "gl-n500": {
        "algorithm": "gl",
        "n": 500,
        "gl_timeout_s": 60.0,
        "targets": [0.7],
        "stop": {"max_rounds": 1, "max_virtual_s": 600.0},
        "eval": {"every_rounds": 1, "every_seconds": 250.0},
    },
    # configs/dpsgd-desk.yaml as committed, apart from protocol_seed.
    "dpsgd-desk": {
        "algorithm": "dpsgd",
        "targets": [0.85],
        "topology": {"kind": "regular", "degree": 10, "seed": 3},
        "stop": {"max_rounds": 60, "max_virtual_s": 172800.0},
        "eval": {"every_rounds": 1, "every_seconds": 60.0},
    },
}


def make_config(workload: str, seed: int) -> dict:
    """The plexsim config (as a plain dict) for one workload and seed."""
    cfg = copy.deepcopy(DESK)
    cfg.update(copy.deepcopy(WORKLOADS[workload]))
    cfg["protocol_seed"] = seed
    return cfg
