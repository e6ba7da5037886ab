"""plexsim benchmark: host cost and to-target costs of three desk-world runs.

    python3 perfbench/run.py --workload plexus-n1000 [--seed 1] [--seconds 35] [--trace 0]

Run from the root of a plexsim checkout. Each operation is one experiment in
a fresh process (``perfbench/op.py``), one at a time, with one BLAS thread
and a fixed ``PYTHONHASHSEED``. Rounds of operations repeat until
``--seconds`` have passed (at least ``MIN_ROUNDS`` rounds); every output is
checked (``perfbench/checks.py``). Host timings are medians over the
operations.

With ``--trace 0`` a round is one experiment plus ``SETUP_PROBES`` processes
that only build the world, so that ``setup_s`` is a median over many cold
set-ups; the last line reports the end-to-end metrics of ``BENCHMARK.json``.
With ``--trace 1`` a round is one untraced and one traced experiment, and
the last line reports the per-layer metrics, with ``trace.overhead_s`` =
median traced ``run_s`` - median untraced ``run_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_run, output_digest
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = {False: 3, True: 1}
SETUP_PROBES = 1
HARD_LIMIT_S = 170.0  # a run must end within 180 s
OUT_ROOT = ".perfbench_out"


def child_env(root: Path) -> dict[str, str]:
    """Environment of every operation: the checkout's own sources, a fixed
    hash seed and one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _operation(root: Path, run_dir: Path, index: int, mode: str, cfg: dict, deadline: float) -> dict:
    """Run one experiment (mode ``run`` or ``trace``) and check its outputs,
    or time one cold set-up (mode ``setup``). Failures are reported in the
    returned record, never raised."""
    out = run_dir / f"op{index}"
    result_path = run_dir / f"op{index}.json"
    cmd = [sys.executable, str(HERE / "op.py"), str(run_dir / "config.json"), str(out), str(result_path)]
    if mode != "run":
        cmd.append(f"--{mode}" if mode == "trace" else "--setup-only")
    rec = {"mode": mode, "ok": False}
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        rec["error"] = "timed out"
        return rec
    if proc.returncode != 0:
        rec["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return rec
    rec.update(json.loads(result_path.read_text()))
    if mode == "setup":
        rec["ok"] = True
        return rec
    try:
        rec["sim"], problems = check_run(cfg, out)
        rec["digest"] = output_digest(out)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if problems:
        rec["error"] = "; ".join(problems)
        return rec
    rec["ok"] = True
    return rec


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="plexsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running operation.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "plexsim" / "__init__.py").is_file():
        print(f"error: no plexsim sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    traced_mode = bool(args.trace)
    wanted = spec["per_layer"] if traced_mode else spec["end_to_end"]

    cfg = make_config(args.workload, args.seed)
    run_dir = root / OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))

    kinds = ["run", "trace"] if traced_mode else ["run"] + ["setup"] * SETUP_PROBES
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    ops: list[dict] = []
    rounds = 0
    while True:
        round_start = time.monotonic()
        for mode in kinds:
            ops.append(_operation(root, run_dir, len(ops), mode, cfg, deadline))
        rounds += 1
        now = time.monotonic()
        if now - start >= seconds and rounds >= MIN_ROUNDS[traced_mode]:
            break
        if now + 1.5 * (now - round_start) > deadline:
            break

    for i, op in enumerate(ops):
        if not op["ok"]:
            print(f"op{i} {op['mode']}: FAILED {op['error']}", file=sys.stderr)
        elif op["mode"] != "setup":
            print(f"op{i} {op['mode']}: setup_s={op['setup_s']:.4f} run_s={op['run_s']:.4f} "
                  f"peak_rss_mb={op['peak_rss_mb']:.1f} outputs={op['digest'][:16]}")
    good = [op for op in ops if op["ok"]]
    plain = [op for op in good if op["mode"] == "run"]
    traced = [op for op in good if op["mode"] == "trace"]
    correct = bool(plain) and len({op["digest"] for op in plain + traced}) == 1
    if plain and not correct:
        print("error: operations of one config wrote different output files", file=sys.stderr)

    metrics: dict[str, float] = {}
    if traced_mode and plain and traced:
        for op in traced:
            if op["missing"]:
                print(f"warning: not traced, missing in plexsim: {op['missing']}", file=sys.stderr)
        layers = [op["layers"] for op in traced]
        for name in layers[0]:
            metrics[name] = statistics.median([lay[name] for lay in layers])
        counts = [{k: v for k, v in lay.items() if not k.endswith("_s") and k != "simnet.rerate_useful_share"}
                  for lay in layers]
        if any(c != counts[0] for c in counts):
            print("error: traced operations counted different work", file=sys.stderr)
            correct = False
        metrics["trace.overhead_s"] = (statistics.median([op["run_s"] for op in traced])
                                       - statistics.median([op["run_s"] for op in plain]))
        print(f"outputs of traced and untraced operations identical: {correct}")
    elif plain:
        metrics["setup_s"] = statistics.median([op["setup_s"] for op in good])
        for name in ("run_s", "peak_rss_mb"):
            metrics[name] = statistics.median([op[name] for op in plain])
        metrics.update(plain[0]["sim"])
        print(f"setup_s over {len(good)} set-ups; outputs sha256 {plain[0]['digest']} "
              f"over {len(plain)} experiments")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if good and missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        correct = False
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
