"""Experiment orchestration: build the world (membership, traces, dataset),
run one algorithm per repetition, and write metrics plus a cross-seed
summary.

Seeding discipline: every random stream is derived from a named key tuple
(root seed, purpose, repetition, node, round as applicable), so any two runs
of the same config are bit-identical and streams never alias across
algorithms or repetitions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .baselines import (
    GossipNode,
    OnePeerExponential,
    dpsgd_round,
    fl_round,
    make_regular_topology,
    uniform_selector,
)
from .config import ExperimentConfig, resolve_trace_path
from .core import Membership, ModelParameters, derive_rng
from .learning import (
    Dataset,
    DataPartition,
    ModelSpec,
    TrainerConfig,
    evaluate,
    local_train,
    partition,
    synth_dataset,
)
from .metrics import MetricsLedger, cta, mean_excluding_none, round_duration_stats, rta, tta
from .protocol import PlexusNode, ProtocolConfig, success_threshold
from .sampler import SampleSchedule
from .simnet import Engine, LatencyMatrix, compute_time
from .traces import (
    build_membership,
    load_device_profiles,
    load_latency_matrix,
    synth_device_profiles,
    synth_latency_matrix,
)


@dataclass
class World:
    membership: Membership
    latency: LatencyMatrix
    dataset: Dataset
    spec: ModelSpec


def build_membership_from_config(
    cfg: ExperimentConfig, base_dir: str | Path = "."
) -> tuple[Membership, LatencyMatrix]:
    tr = cfg.traces
    if tr.latency_path is not None:
        latency = load_latency_matrix(resolve_trace_path(Path(base_dir) / "x", tr.latency_path))
    else:
        latency = synth_latency_matrix(tr.cities, tr.seed, tr.median_rtt_ms, tr.rtt_sigma)
    if tr.profiles_path is not None:
        profiles = load_device_profiles(resolve_trace_path(Path(base_dir) / "x", tr.profiles_path))
        if len(profiles) != cfg.n:
            raise ValueError(
                f"config asks for n={cfg.n} nodes but the profile trace has {len(profiles)}"
            )
    else:
        profiles = synth_device_profiles(
            cfg.n,
            tr.seed,
            tr.uplink_median_bps,
            tr.downlink_median_bps,
            tr.sec_per_step_median,
            tr.profile_sigma,
        )
    return build_membership(profiles, latency), latency


def build_world(cfg: ExperimentConfig, base_dir: str | Path = ".") -> World:
    membership, latency = build_membership_from_config(cfg, base_dir)
    ds = cfg.dataset
    dataset = synth_dataset(ds.seed, ds.n_samples, ds.d_in, ds.classes, ds.noise, ds.class_sep)
    return World(membership, latency, dataset, cfg.model_spec())


# ------------------------------------------------------------ shared bits --


def _init_model(cfg: ExperimentConfig, spec: ModelSpec, rep: int, nid: Optional[str]) -> ModelParameters:
    if cfg.shared_init or nid is None:
        return spec.init_model(derive_rng(cfg.init_seed, "init", rep))
    return spec.init_model(derive_rng(cfg.init_seed, "init", rep, nid))


def _partitions(cfg: ExperimentConfig, world: World, rep: int) -> list[DataPartition]:
    seed = cfg.protocol_seed * 1_000_003 + rep
    return _partition_cache(cfg, world, seed)


def _partition_cache(cfg: ExperimentConfig, world: World, seed: int) -> list[DataPartition]:
    return partition(world.dataset, cfg.n, cfg.partition, seed)


def _make_train_fn(
    cfg: ExperimentConfig,
    world: World,
    parts: list[DataPartition],
    rep: int,
) -> Callable[[str, int, ModelParameters], ModelParameters]:
    index_of = {nid: i for i, nid in enumerate(world.membership.nodes)}

    def train(nid: str, k: int, model: ModelParameters) -> ModelParameters:
        rng = derive_rng(cfg.protocol_seed, "train", rep, nid, k)
        return local_train(model, world.spec, parts[index_of[nid]], cfg.trainer, rng)

    return train


def _eval_cadence(cfg: ExperimentConfig) -> Callable[[int], bool]:
    every = cfg.eval.every_rounds

    def should_eval(k: int) -> bool:
        return k % every == 0 or k == cfg.stop.max_rounds

    return should_eval


# ----------------------------------------------------------------- plexus --


def _run_plexus(cfg: ExperimentConfig, world: World, rep: int) -> MetricsLedger:
    ledger = MetricsLedger()
    parts = _partitions(cfg, world, rep)
    train = _make_train_fn(cfg, world, parts, rep)
    pcfg = ProtocolConfig(
        s=cfg.sample_size,
        sf=cfg.success_fraction,
        max_rounds=cfg.stop.max_rounds,
    )
    schedule = SampleSchedule(pcfg.s, world.membership)
    engine = Engine(world.membership, world.latency)
    should_eval = _eval_cadence(cfg)
    test_X, test_y = world.dataset.X_test, world.dataset.y_test
    state = {"last_fire": 0.0}
    round_rows: list[tuple[int, float]] = []

    def round_hook(k: int, model: ModelParameters, now: float) -> None:
        round_rows.append((k, now - state["last_fire"]))
        state["last_fire"] = now
        if should_eval(k):
            acc = evaluate(model, world.spec, test_X, test_y)
            ledger.record_eval(now, k, acc, 0.0, engine.bytes_total, engine.train_seconds_total)

    nodes: dict[str, PlexusNode] = {}
    for nid in world.membership.nodes:
        profile = world.membership.profile(nid)
        node = PlexusNode(
            nid,
            world.membership,
            pcfg,
            init_model=lambda nid=nid: _init_model(cfg, world.spec, rep, nid),
            train_fn=lambda k, m, nid=nid: train(nid, k, m),
            compute_seconds=compute_time(profile, cfg.trainer.local_steps),
            round_hook=round_hook,
            schedule=schedule,
        )
        nodes[nid] = node
        engine.register(nid, node)
    for nid, node in nodes.items():
        engine.inject(0.0, nid, node.bootstrap())
    engine.run(until=cfg.stop.max_virtual_s)

    late_by_round: dict[int, int] = {}
    models_trained = 0
    for node in nodes.values():
        models_trained += len(node.trained_rounds)
        for k, c in node.late_by_round.items():
            late_by_round[k] = late_by_round.get(k, 0) + c
    for k, dur in round_rows:
        ledger.record_round(k, dur, min(cfg.sample_size, cfg.n), pcfg.threshold, late_by_round.get(k, 0))
    ledger.bytes_total = engine.bytes_total
    ledger.train_seconds_total = engine.train_seconds_total
    ledger.final_time_s = engine.now
    ledger.counters = dict(engine.counters)
    ledger.counters["models_trained"] = float(models_trained)
    return ledger


# --------------------------------------------------------------------- fl --


def _run_fl(cfg: ExperimentConfig, world: World, rep: int) -> MetricsLedger:
    ledger = MetricsLedger()
    parts = _partitions(cfg, world, rep)
    train = _make_train_fn(cfg, world, parts, rep)
    should_eval = _eval_cadence(cfg)
    select = uniform_selector(world.membership, derive_rng(cfg.protocol_seed, "fl-select", rep))
    steps = cfg.trainer.local_steps
    model = _init_model(cfg, world.spec, rep, None)
    t = 0.0
    bytes_total = 0
    train_seconds = 0.0
    models_trained = 0
    for k in range(1, cfg.stop.max_rounds + 1):
        res = fl_round(
            model,
            world.membership,
            k,
            cfg.sample_size,
            cfg.success_fraction,
            select_fn=select,
            train_fn=train,
            compute_seconds=lambda nid: compute_time(world.membership.profile(nid), steps),
        )
        if t + res.duration_s > cfg.stop.max_virtual_s:
            break
        t += res.duration_s
        bytes_total += res.bytes
        train_seconds += res.train_seconds
        models_trained += len(res.participants)
        model = res.model
        ledger.record_round(k, res.duration_s, len(res.participants), res.aggregated, res.late)
        if should_eval(k):
            acc = evaluate(model, world.spec, world.dataset.X_test, world.dataset.y_test)
            ledger.record_eval(t, k, acc, 0.0, bytes_total, train_seconds)
    ledger.bytes_total = bytes_total
    ledger.train_seconds_total = train_seconds
    ledger.final_time_s = t
    ledger.counters = {
        "models_trained": float(models_trained),
        "late_models": float(sum(r.late_models for r in ledger.rounds)),
    }
    return ledger


# ------------------------------------------------------------------ dpsgd --


def _run_dpsgd(cfg: ExperimentConfig, world: World, rep: int) -> MetricsLedger:
    ledger = MetricsLedger()
    parts = _partitions(cfg, world, rep)
    train = _make_train_fn(cfg, world, parts, rep)
    n = cfg.n
    if cfg.topology.kind == "regular":
        topology = make_regular_topology(n, cfg.topology.degree, cfg.topology.seed)
    else:
        topology = OnePeerExponential(n)
    steps = cfg.trainer.local_steps
    compute_secs = [
        compute_time(world.membership.profile(nid), steps) for nid in world.membership.nodes
    ]
    models = [
        _init_model(cfg, world.spec, rep, nid if not cfg.shared_init else None)
        for nid in world.membership.nodes
    ]
    node_ids = world.membership.nodes
    t = 0.0
    bytes_total = 0
    train_seconds = 0.0
    next_cp = cfg.eval.every_seconds

    def eval_all(at: float, current: list[ModelParameters], round_no: int) -> None:
        accs = [
            evaluate(m, world.spec, world.dataset.X_test, world.dataset.y_test) for m in current
        ]
        ledger.record_eval(
            at, round_no, float(np.mean(accs)), float(np.std(accs)), bytes_total, train_seconds
        )

    for k in range(1, cfg.stop.max_rounds + 1):
        res = dpsgd_round(
            models,
            world.membership,
            topology,
            k,
            world.latency,
            train_fn=lambda i, k, m: train(node_ids[i], k, m),
            compute_seconds=compute_secs,
        )
        t_end = t + res.duration_s
        # Checkpoints inside this round observe the models committed before it.
        while next_cp <= min(t_end, cfg.stop.max_virtual_s):
            eval_all(next_cp, models, k - 1)
            next_cp += cfg.eval.every_seconds
        if t_end > cfg.stop.max_virtual_s:
            break
        t = t_end
        models = res.models
        bytes_total += res.bytes
        train_seconds += res.train_seconds
        ledger.record_round(k, res.duration_s, n, n, 0)
    ledger.bytes_total = bytes_total
    ledger.train_seconds_total = train_seconds
    ledger.final_time_s = t
    ledger.counters = {"models_trained": float(n * len(ledger.rounds))}
    return ledger


# --------------------------------------------------------------------- gl --


def _run_gl(cfg: ExperimentConfig, world: World, rep: int) -> MetricsLedger:
    ledger = MetricsLedger()
    parts = _partitions(cfg, world, rep)
    index_of = {nid: i for i, nid in enumerate(world.membership.nodes)}
    engine = Engine(world.membership, world.latency)
    steps = cfg.trainer.local_steps
    train_calls: dict[str, int] = {}

    def make_train(nid: str) -> Callable[[ModelParameters], ModelParameters]:
        def train(model: ModelParameters) -> ModelParameters:
            train_calls[nid] = train_calls.get(nid, 0) + 1
            rng = derive_rng(cfg.protocol_seed, "gl-train", rep, nid, train_calls[nid])
            return local_train(model, world.spec, parts[index_of[nid]], cfg.trainer, rng)

        return train

    nodes: dict[str, GossipNode] = {}
    for nid in world.membership.nodes:
        profile = world.membership.profile(nid)
        node = GossipNode(
            nid,
            world.membership,
            model=_init_model(cfg, world.spec, rep, nid if not cfg.shared_init else None),
            timeout_s=cfg.gl_timeout_s,
            train_fn=make_train(nid),
            compute_seconds=compute_time(profile, steps),
            peer_rng=derive_rng(cfg.protocol_seed, "gl-peer", rep, nid),
        )
        nodes[nid] = node
        engine.register(nid, node)
        stagger = float(
            derive_rng(cfg.protocol_seed, "gl-stagger", rep, nid).uniform(0.0, cfg.gl_timeout_s)
        )
        engine.inject(0.0, nid, node.initial_effects(stagger))

    def checkpoint(at: float) -> None:
        accs = [
            evaluate(node.model, world.spec, world.dataset.X_test, world.dataset.y_test)
            for node in nodes.values()
        ]
        ledger.record_eval(
            at, 0, float(np.mean(accs)), float(np.std(accs)),
            engine.bytes_total, engine.train_seconds_total,
        )

    horizon = cfg.stop.max_virtual_s
    cps = [t for t in _multiples(cfg.eval.every_seconds, horizon)]
    engine.add_checkpoints(cps, checkpoint)
    engine.run(until=horizon)
    ledger.bytes_total = engine.bytes_total
    ledger.train_seconds_total = engine.train_seconds_total
    ledger.final_time_s = engine.now
    ledger.counters = dict(engine.counters)
    ledger.counters["models_trained"] = float(sum(train_calls.values()))
    return ledger


def _multiples(step: float, horizon: float) -> list[float]:
    out = []
    k = 1
    while k * step <= horizon + 1e-9:
        out.append(k * step)
        k += 1
    return out


# ------------------------------------------------------------- experiment --


_RUNNERS = {
    "plexus": _run_plexus,
    "fl": _run_fl,
    "dpsgd": _run_dpsgd,
    "gl": _run_gl,
}


def run_single(cfg: ExperimentConfig, world: World, rep: int) -> MetricsLedger:
    return _RUNNERS[cfg.algorithm](cfg, world, rep)


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | Path, base_dir: str | Path = "."
) -> dict:
    """Run all repetitions, write per-repetition CSVs plus summary.json, and
    return the summary dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world = build_world(cfg, base_dir)
    reps = []
    ledgers = []
    for rep in range(cfg.repetitions):
        ledger = run_single(cfg, world, rep)
        ledger.write_csvs(out / f"rep{rep}")
        ledgers.append(ledger)
        per_target = {}
        for target in cfg.targets:
            per_target[repr(target)] = {
                "tta_s": tta(ledger, target),
                "cta_bytes": cta(ledger, target),
                "rta_s": rta(ledger, target),
            }
        durations = [r.duration_s for r in ledger.rounds]
        reps.append(
            {
                "rep": rep,
                "final_accuracy": ledger.final_accuracy,
                "final_time_s": ledger.final_time_s,
                "bytes_total": ledger.bytes_total,
                "train_seconds_total": ledger.train_seconds_total,
                "rounds_completed": len(ledger.rounds),
                "round_stats": (
                    None
                    if not durations
                    else {
                        k: v
                        for k, v in round_duration_stats(durations).__dict__.items()
                        if not k.startswith("hist")
                    }
                ),
                "targets": per_target,
            }
        )
    cross = {}
    for target in cfg.targets:
        key = repr(target)
        entry = {}
        for metric_key in ("tta_s", "cta_bytes", "rta_s"):
            vals = [r["targets"][key][metric_key] for r in reps]
            mean, misses = mean_excluding_none(vals)
            entry[f"{metric_key}_mean"] = mean
            entry["not_reached"] = misses
        cross[key] = entry
    summary = {
        "algorithm": cfg.algorithm,
        "config_hash": cfg.config_hash(),
        "config": cfg.canonical_dict(),
        "reps": reps,
        "cross_seed": cross,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
