"""A run holds one float64 copy of its dataset, and no run loads networkx,
not even D-PSGD on a regular topology."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import plexsim
from plexsim import learning
from plexsim.learning import EvalSplit, synth_dataset

# Beyond the data and one block of float64 rows: labels, index arrays and
# norms take a few 8-byte values per row, and numpy a fixed amount.
PER_ROW = 64
FIXED = 256 * 1024


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def block_bytes(d_in):
    return learning._BLOCK_ROWS * d_in * 8


def test_synth_dataset_holds_one_copy_of_x():
    synth_dataset(0, 100, 2, 2)  # numpy's first-use set-up stays out of the trace
    n, d = 20_000, 64
    ds, peak = traced_peak(synth_dataset, 3, n, d, 7, 0.2)
    slack = block_bytes(d) + PER_ROW * n + FIXED
    # A second float64 copy of X would not fit in the slack.
    assert slack < ds.X.nbytes
    assert peak <= ds.X.nbytes + slack


def test_eval_split_holds_its_float32_copy_only():
    ds = synth_dataset(1, 5000, 256, 10)
    warm = synth_dataset(0, 100, 2, 2)
    EvalSplit(warm.X, warm.y, warm.test)
    split, peak = traced_peak(EvalSplit, ds.X, ds.y, ds.test)
    slack = block_bytes(256) + PER_ROW * ds.test.size + FIXED
    # A float64 copy of the test rows would not fit in the slack.
    assert slack < ds.X[ds.test].nbytes
    assert peak <= split.X32.nbytes + slack


# Runs the config given as JSON and prints whether networkx was loaded.
RUN = """
import json, sys
from plexsim.config import config_from_dict
from plexsim.runner import build_world, run_single
cfg = config_from_dict(json.loads(sys.argv[1]))
run_single(cfg, build_world(cfg), 0)
print(json.dumps("networkx" in sys.modules))
"""


@pytest.mark.parametrize(
    "algorithm, topology, loads",
    [
        ("plexus", "regular", False),
        ("gl", "regular", False),
        ("fl", "regular", False),
        ("dpsgd", "one_peer_exp", False),
        ("dpsgd", "regular", False),
    ],
)
def test_no_run_loads_networkx(algorithm, topology, loads):
    raw = {
        "algorithm": algorithm,
        "n": 8,
        "sample_size": 3,
        "topology": {"kind": topology, "degree": 2},
        "dataset": {"n_samples": 300, "d_in": 4, "classes": 3},
        "stop": {"max_rounds": 2, "max_virtual_s": 300.0},
        "eval": {"every_rounds": 1, "every_seconds": 100.0},
    }
    env = {**os.environ, "PYTHONPATH": str(Path(plexsim.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", RUN, json.dumps(raw)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) is loads
