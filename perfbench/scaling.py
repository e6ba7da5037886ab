"""Reference scaling rows: Plexus host cost per round and gossip learning
host cost per virtual second, as the node count grows.

    python3 perfbench/scaling.py

Run from the root of a plexsim checkout. Each row is one experiment in the
desk world, measured once in a fresh process by ``perfbench/op.py``, so the
figures are single samples. The Plexus rows include bootstrap, which every
run pays once. The n=4000 Plexus row takes minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import HERE, OUT_ROOT, child_env
from workloads import make_config

PLEXUS_ROUNDS = 5
GL_HORIZON_S = 120.0
ROWS = [("plexus", 100), ("plexus", 1000), ("plexus", 4000), ("gl", 100), ("gl", 500)]


def _config(algorithm: str, n: int) -> dict:
    cfg = make_config("plexus-n1000" if algorithm == "plexus" else "gl-n500", seed=1)
    cfg["n"] = n
    if algorithm == "plexus":
        cfg["stop"]["max_rounds"] = PLEXUS_ROUNDS
    else:
        cfg["stop"]["max_virtual_s"] = GL_HORIZON_S
        cfg["eval"]["every_seconds"] = GL_HORIZON_S
    return cfg


def main() -> int:
    root = Path.cwd()
    work = root / OUT_ROOT / "scaling"
    work.mkdir(parents=True, exist_ok=True)
    print("| workload | n | run_s | cost |")
    print("| --- | --- | --- | --- |")
    for algorithm, n in ROWS:
        tag = f"{algorithm}-n{n}"
        (work / f"{tag}.json").write_text(json.dumps(_config(algorithm, n)))
        subprocess.run(
            [sys.executable, str(HERE / "op.py"), str(work / f"{tag}.json"),
             str(work / tag), str(work / f"{tag}.result.json")],
            cwd=root, env=child_env(root), check=True,
        )
        run_s = json.loads((work / f"{tag}.result.json").read_text())["run_s"]
        if algorithm == "plexus":
            cost = f"{run_s / PLEXUS_ROUNDS:.4f} s per round over {PLEXUS_ROUNDS} rounds"
        else:
            cost = f"{run_s / GL_HORIZON_S * 1000:.2f} ms per virtual s over {GL_HORIZON_S:.0f} s"
        print(f"| {algorithm} | {n} | {run_s:.3f} | {cost} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
