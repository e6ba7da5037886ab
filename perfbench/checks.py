"""Correctness checks on one run's output files, computed apart from plexsim.

Nothing here imports the program. The device profiles and the gossip
staggers are derived again from their documented recipe (SHA-256 of the key
path seeding a numpy generator), and the Plexus sample schedule from the
benchmark's own ``hashlib`` ranking of ``id|k``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

OUTPUT_FILES = ("summary.json", "rep0/accuracy.csv", "rep0/ledger.csv", "rep0/rounds.csv")
REL_TOL = 1e-9


def _rng(root_seed: int, *keys: object) -> np.random.Generator:
    material = "|".join([str(root_seed), *(str(k) for k in keys)]).encode()
    return np.random.default_rng(int.from_bytes(hashlib.sha256(material).digest()[:16], "little"))


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _model_bytes(cfg: dict) -> int:
    d, c = cfg["dataset"]["d_in"], cfg["dataset"]["classes"]
    return 8 * (c * d + c) + 16  # linear model: weights and biases, 16-byte header


def _profiles(cfg: dict) -> tuple[list[str], list[float], list[float]]:
    """Node ids, uplinks and per-invocation compute seconds of the
    synthetic device population."""
    tr, n = cfg["traces"], cfg["n"]
    rng = _rng(tr["seed"], "profiles")
    sigma = tr["profile_sigma"]
    ups = rng.lognormal(np.log(tr["uplink_median_bps"]), sigma, size=n)
    rng.lognormal(np.log(tr["downlink_median_bps"]), sigma, size=n)
    steps = rng.lognormal(np.log(tr["sec_per_step_median"]), sigma, size=n)
    local_steps = cfg["trainer"]["local_steps"]
    ids = [f"n{i:04d}" for i in range(n)]
    return ids, [float(u) for u in ups], [float(s) * local_steps for s in steps]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def _check_plexus(cfg: dict, bytes_total: int, train_s: float, rounds: list[dict]) -> list[str]:
    ids, ups, compute = _profiles(cfg)
    up, comp = dict(zip(ids, ups)), dict(zip(ids, compute))
    s, K = cfg["sample_size"], cfg["stop"]["max_rounds"]
    threshold = math.floor(cfg["sample_size"] * cfg["success_fraction"])

    def sample(k: int) -> list[str]:
        ranked = sorted(ids, key=lambda nid: (hashlib.sha256(f"{nid}|{k}".encode()).digest(), nid))
        return ranked[:s]

    samples = {k: sample(k) for k in range(1, K + 2)}
    want_bytes = 0
    want_train = 0.0
    for k in range(1, K + 1):
        agg = min(samples[k], key=lambda nid: (-up[nid], nid))
        sends = (len(samples[k]) - 1) + len(set(samples[k + 1]) - {agg})
        want_bytes += sends * _model_bytes(cfg)
        want_train += sum(comp[nid] for nid in samples[k])
    problems = []
    if bytes_total != want_bytes:
        problems.append(f"bytes_total {bytes_total} != {want_bytes} from the hash schedule")
    if not _close(train_s, want_train):
        problems.append(f"train_seconds_total {train_s!r} != {want_train!r}")
    if [int(r["round"]) for r in rounds] != list(range(1, K + 1)):
        problems.append(f"rounds.csv does not list rounds 1..{K}")
    for r in rounds:
        agg, late = int(r["models_aggregated"]), int(r["late_models"])
        if agg != threshold or agg + late != s:
            problems.append(f"round {r['round']}: {agg} aggregated + {late} late, want {threshold} + {s - threshold}")
            break
    return problems


def _check_dpsgd(cfg: dict, bytes_total: int, train_s: float, rounds: list[dict]) -> list[str]:
    _, _, compute = _profiles(cfg)
    R, n = len(rounds), cfg["n"]
    want_bytes = R * n * cfg["topology"]["degree"] * _model_bytes(cfg)
    want_train = R * sum(compute)
    problems = []
    if R == 0:
        problems.append("no D-PSGD round completed")
    if bytes_total != want_bytes:
        problems.append(f"bytes_total {bytes_total} != rounds*n*degree*model = {want_bytes}")
    if not _close(train_s, want_train):
        problems.append(f"train_seconds_total {train_s!r} != rounds*sum(compute) = {want_train!r}")
    return problems


def _check_gl(cfg: dict, bytes_total: int, train_s: float, rounds: list[dict]) -> list[str]:
    size = _model_bytes(cfg)
    if bytes_total % size:
        return [f"bytes_total {bytes_total} is not a multiple of the model size {size}"]
    period, horizon, n = cfg["gl_timeout_s"], cfg["stop"]["max_virtual_s"], cfg["n"]
    fired = 0
    for i in range(n):
        t = float(_rng(cfg["protocol_seed"], "gl-stagger", 0, f"n{i:04d}").uniform(0.0, period))
        while t <= horizon:
            fired += 1
            t += period
    done = bytes_total // size
    if not fired - n <= done <= fired:
        return [f"{done} completed pushes outside [{fired - n}, {fired}] for {fired} fired"]
    return []


CHECKS = {"plexus": _check_plexus, "dpsgd": _check_dpsgd, "gl": _check_gl}


def check_run(cfg: dict, out: Path) -> tuple[dict[str, float], list[str]]:
    """The run's to-target metrics and the list of failed checks."""
    summary = json.loads((out / "summary.json").read_text())
    rep = summary["reps"][0]
    problems = []
    reached = rep["targets"][repr(float(cfg["targets"][0]))]
    if any(reached[key] is None for key in ("tta_s", "cta_bytes", "rta_s")):
        problems.append(f"target {cfg['targets'][0]} not reached")
    accs = [float(r["accuracy"]) for r in _rows(out / "rep0" / "accuracy.csv")]
    if not accs or not all(0.0 <= a <= 1.0 for a in accs):
        problems.append("accuracies missing or outside [0, 1]")
    final = _rows(out / "rep0" / "ledger.csv")[-1]
    bytes_total, train_s = int(final["bytes_total"]), float(final["train_seconds_total"])
    rounds = _rows(out / "rep0" / "rounds.csv")
    problems += CHECKS[cfg["algorithm"]](cfg, bytes_total, train_s, rounds)
    if problems:
        return {}, problems
    sim = {
        "sim_tta_s": reached["tta_s"],
        "sim_cta_mb": reached["cta_bytes"] / 1e6,
        "sim_rta_s": reached["rta_s"],
        "sim_final_acc": rep["final_accuracy"],
    }
    return sim, []


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        h.update(name.encode() + b"\0" + (out / name).read_bytes())
    return h.hexdigest()
