"""The sha256 of every file the four ``configs/*-desk.yaml`` runs write, and
the machine they were taken on.

    PYTHONPATH=src python tests/golden_desk.py

reruns the four desk configs and rewrites ``tests/golden_desk.json``. Run it
only when an output changes on purpose, and name each changed file, and why,
in CHANGES.md. ``tests/test_golden.py`` compares a fresh run against the file.

Local SGD's products round as the BLAS kernel sums them, so the digests hold
only for the numpy, BLAS and CPU that the fingerprint names.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from plexsim.cli import main as plexsim_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_desk.json"
DESK_CONFIGS = sorted((ROOT / "configs").glob("*-desk.yaml"))


def fingerprint() -> dict:
    """numpy version, BLAS name and version, CPU architecture and the SIMD
    features numpy found: what decides which kernel sums a product."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, found in __cpu_features__.items() if found),
    }


def digests(root: Path) -> dict:
    """{path relative to ``root``: sha256} of every file under ``root``."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_desk(out: Path, configs=DESK_CONFIGS) -> dict:
    """Run each config into ``out/<stem>`` and return the digests of ``out``."""
    for cfg in configs:
        code = plexsim_main(["run", str(cfg), "--out", str(out / cfg.stem)])
        if code != 0:
            raise RuntimeError(f"plexsim run {cfg.name} exited {code}")
    return digests(out)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = run_desk(Path(tmp))
    GOLDEN.write_text(json.dumps({"fingerprint": fingerprint(), "files": files}, indent=2) + "\n")
    print(f"wrote {len(files)} digests to {GOLDEN}")
