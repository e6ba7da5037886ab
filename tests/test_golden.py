"""The four desk configs write the bytes recorded in ``golden_desk.json``
(on the machine it names) and, on any machine and BLAS kernel, those of
``golden_portable.json``, whose op-log digests pin the model operations
as well; no output depends on the string hash seed, although node ids are
strings kept in sets and dicts."""

import json
import os
import subprocess
import sys

import pytest

from golden_desk import GOLDEN, ROOT, digests, fingerprint
from golden_portable import PORTABLE, portable_digests, run_desk_op_logs

HASH_SEED_CONFIGS = ("plexus-desk", "gl-desk")
_PATH = os.pathsep.join([str(ROOT / "src"), str(GOLDEN.parent)])

# Runs the configs named on the command line into the directory named first.
RERUN = (
    "import sys; from pathlib import Path; from golden_desk import run_desk; "
    "run_desk(Path(sys.argv[1]), [Path(c) for c in sys.argv[2:]])"
)


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """The directory, the digests and the op-log digests of the four desk
    runs made in this process, and the digests of plexus-desk and gl-desk
    rerun in a subprocess under another PYTHONHASHSEED. The two overlap."""
    here, there = tmp_path_factory.mktemp("in_process"), tmp_path_factory.mktemp("subprocess")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    # One BLAS thread, so that the two processes do not fight for the cores.
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": _PATH, "OPENBLAS_NUM_THREADS": "1"}
    configs = [str(ROOT / "configs" / f"{name}.yaml") for name in HASH_SEED_CONFIGS]
    proc = subprocess.Popen(
        [sys.executable, "-c", RERUN, str(there), *configs],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        op_logs = run_desk_op_logs(here)
    finally:
        _, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err.decode()
    return here, digests(here), digests(there), op_logs


def test_desk_outputs_match_the_golden_digests(desk_runs):
    golden = json.loads(GOLDEN.read_text())
    machine = fingerprint()
    if machine != golden["fingerprint"]:
        pytest.skip(f"digests taken on {golden['fingerprint']}; this machine is {machine}")
    ours = desk_runs[1]
    changed = sorted(f for f in golden["files"].keys() | ours.keys() if golden["files"].get(f) != ours.get(f))
    assert not changed, f"outputs differ from tests/golden_desk.json: {changed}"


def test_desk_outputs_match_the_portable_digests(desk_runs):
    golden = json.loads(PORTABLE.read_text())["files"]
    ours = portable_digests(desk_runs[0])
    changed = sorted(f for f in golden.keys() | ours.keys() if golden.get(f) != ours.get(f))
    assert not changed, f"outputs differ from tests/golden_portable.json: {changed}"


def test_desk_op_logs_match_the_portable_digests(desk_runs):
    golden = json.loads(PORTABLE.read_text())["op_logs"]
    ours = desk_runs[3]
    changed = sorted(c for c in golden.keys() | ours.keys() if golden.get(c) != ours.get(c))
    assert not changed, f"op logs differ from tests/golden_portable.json: {changed}"


def test_outputs_do_not_depend_on_the_hash_seed(desk_runs):
    _, ours, rerun, _ = desk_runs
    assert rerun and rerun == {f: h for f, h in ours.items() if f.split("/")[0] in HASH_SEED_CONFIGS}


def test_dpsgd_desk_matches_the_portable_digests_on_an_sse_kernel(tmp_path):
    # OpenBLAS's Nehalem kernels sum the products in another order than the
    # AVX ones, so the model bits differ; events, bytes and rounds must not.
    env = {
        **os.environ, "PYTHONPATH": _PATH, "OPENBLAS_NUM_THREADS": "1",
        "OPENBLAS_CORETYPE": "Nehalem", "OPENBLAS_VERBOSE": "2",
    }
    config = ROOT / "configs" / "dpsgd-desk.yaml"
    proc = subprocess.run(
        [sys.executable, "-c", RERUN, str(tmp_path), str(config)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    if b"Core: Nehalem" not in proc.stderr:
        pytest.skip("OpenBLAS was built without DYNAMIC_ARCH, so OPENBLAS_CORETYPE picks no kernel")
    golden = json.loads(PORTABLE.read_text())["files"]
    assert portable_digests(tmp_path) == {f: h for f, h in golden.items() if f.startswith(f"{config.stem}/")}
