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
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
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
    _TRAIN_CHUNK,
    DataPartition,
    Dataset,
    EvalSplit,
    ModelSpec,
    evaluate_many,
    local_train_many,
    partition,
    synth_dataset,
)
from .metrics import (
    AccuracyPoint, MetricsLedger, RoundRecord, cta, mean_excluding_none, round_duration_stats, rta, tta,
)
from .protocol import PlexusNode, ProtocolConfig
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
        latency = load_latency_matrix(resolve_trace_path(base_dir, tr.latency_path))
    else:
        latency = synth_latency_matrix(tr.cities, tr.seed, tr.median_rtt_ms, tr.rtt_sigma)
    if tr.profiles_path is not None:
        profiles = load_device_profiles(resolve_trace_path(base_dir, tr.profiles_path))
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


# ------------------------------------------------------------ repetition --


def deal_shards(cfg: ExperimentConfig, world: World, rep: int) -> list[DataPartition]:
    """Repetition ``rep``'s shards, one per node in membership order."""
    return partition(world.dataset, cfg.n, cfg.partition, cfg.protocol_seed * 1_000_003 + rep)


def _init_model(cfg: ExperimentConfig, spec: ModelSpec, rep: int, nid: Optional[str]) -> ModelParameters:
    if cfg.shared_init or nid is None:
        return spec.init_model(derive_rng(cfg.init_seed, "init", rep))
    return spec.init_model(derive_rng(cfg.init_seed, "init", rep, nid))


def _should_eval(cfg: ExperimentConfig, k: int) -> bool:
    return k % cfg.eval.every_rounds == 0 or k == cfg.stop.max_rounds


class _QueuedModel:
    """A model that ``_Repetition.train`` has queued. Its ``age`` and ``dim``
    are known at once; its ``values`` are trained on first read, together
    with every other model in the queue."""

    __slots__ = ("age", "dim", "_repetition", "_trained")

    def __init__(self, age: int, dim: int, repetition: _Repetition):
        self.age, self.dim = age, dim
        self._repetition = repetition
        self._trained: Optional[ModelParameters] = None

    @property
    def values(self) -> np.ndarray:
        if self._trained is None:
            self._repetition.flush()
        return self._trained.values


class _Repetition:
    """What every algorithm shares within one repetition: the shards and
    compute seconds of each node, the training and init streams, the
    training queue, the test split and its evaluation recorder, and the
    ledger. Each algorithm's run function only moves models.

    ``train`` queues a model and returns it untrained: wire sizes read only
    its ``dim``, and no event time depends on its values. The queue trains
    with one ``local_train_many`` call when it holds ``_TRAIN_CHUNK`` models,
    when any queued model's values are read (a merge, an average or a
    checkpoint) and at the end of an engine run. Each model trains on its
    own stream, so it comes out bit for bit as if it trained alone."""

    def __init__(self, cfg: ExperimentConfig, world: World, rep: int):
        self.cfg, self.world, self.rep = cfg, world, rep
        nodes = world.membership.nodes
        self.shards = dict(zip(nodes, deal_shards(cfg, world, rep)))
        self.test = EvalSplit(world.dataset.X, world.dataset.y, world.dataset.test)
        steps = cfg.trainer.local_steps
        self.compute_s = {nid: compute_time(world.membership.profile(nid), steps) for nid in nodes}
        self.ledger = MetricsLedger()
        self._queue: list[tuple[ModelParameters, str, np.random.Generator, _QueuedModel]] = []

    def rng(self, stream: str, nid: str, key: int) -> np.random.Generator:
        return derive_rng(self.cfg.protocol_seed, stream, self.rep, nid, key)

    def train(self, stream: str, nid: str, key: int, model: ModelParameters) -> _QueuedModel:
        model.values  # a queued input trains now, before its successor joins the queue
        out = _QueuedModel(model.age + self.cfg.trainer.local_steps, model.dim, self)
        self._queue.append((model, nid, self.rng(stream, nid, key), out))
        if len(self._queue) == _TRAIN_CHUNK:
            self.flush()
        return out

    def flush(self) -> None:
        """Train every queued model with one ``local_train_many`` call."""
        if not self._queue:
            return
        models, nids, rngs, outs = zip(*self._queue)
        self._queue = []
        parts = [self.shards[nid] for nid in nids]
        trained = local_train_many(list(models), self.world.spec, parts, self.cfg.trainer, list(rngs))
        for out, model in zip(outs, trained):
            out._trained = model

    def init(self, nid: Optional[str]) -> ModelParameters:
        return _init_model(self.cfg, self.world.spec, self.rep, nid)

    def score(
        self, at: float, round_no: int, models: list[ModelParameters], bytes_total: int, train_seconds_total: float
    ) -> AccuracyPoint:
        """The mean and std accuracy of ``models``, with the byte and
        training-second totals given."""
        accs = evaluate_many(models, self.world.spec, self.test)
        return AccuracyPoint(
            at, round_no, float(np.mean(accs)), float(np.std(accs)), bytes_total, train_seconds_total,
        )

    def record_eval(
        self, at: float, round_no: int, models: list[ModelParameters], totals: MetricsLedger | Engine
    ) -> None:
        """Record the score of ``models`` with the byte and training-second
        totals ``totals`` (the ledger or the engine) hold now."""
        self.ledger.accuracy.append(
            self.score(at, round_no, models, totals.bytes_total, totals.train_seconds_total)
        )


def _run_on_engine(r: _Repetition, engine: Engine, nodes: list, start: Callable, checkpoint=None) -> None:
    """Register ``nodes``, inject each one's ``start(node)`` effects at t=0
    in membership order, run to the time budget and copy the engine's totals
    into the ledger. A ``checkpoint(t)`` runs at each multiple t
    of ``eval.every_seconds``, with the engine paused after every event <= t.
    Trainings still queued at the end run then, so a divergence raises."""
    for node in nodes:
        engine.register(node.me, node)
        engine.inject(0.0, node.me, start(node))
    horizon = r.cfg.stop.max_virtual_s
    if checkpoint is not None:
        for at in _multiples(r.cfg.eval.every_seconds, horizon):
            engine.run(until=at)
            checkpoint(at)
    engine.run(until=horizon)
    r.flush()
    r.ledger.bytes_total = engine.bytes_total
    r.ledger.train_seconds_total = engine.train_seconds_total
    r.ledger.final_time_s = engine.now


# ----------------------------------------------------------------- plexus --


def _run_plexus(r: _Repetition) -> None:
    cfg, world = r.cfg, r.world
    pcfg = ProtocolConfig(
        s=cfg.sample_size,
        sf=cfg.success_fraction,
        max_rounds=cfg.stop.max_rounds,
    )
    schedule = SampleSchedule(pcfg.s, world.membership)
    engine = Engine(world.membership, world.latency)
    fired: list[tuple[int, float]] = []  # (round, virtual time it fired)

    def round_hook(k: int, model: ModelParameters, now: float) -> None:
        fired.append((k, now))
        if _should_eval(cfg, k):
            r.record_eval(now, k, [model], engine)

    nodes = [
        PlexusNode(
            nid,
            world.membership,
            pcfg,
            init_model=partial(r.init, nid),
            train_fn=partial(r.train, "train", nid),
            compute_seconds=r.compute_s[nid],
            round_hook=round_hook,
            schedule=schedule,
        )
        for nid in world.membership.nodes
    ]
    _run_on_engine(r, engine, nodes, lambda node: node.bootstrap())

    late_by_round: Counter[int] = Counter()
    for node in nodes:
        late_by_round.update(node.late_by_round)
    last = 0.0
    for k, now in fired:
        r.ledger.rounds.append(RoundRecord(k, now - last, cfg.sample_size, pcfg.threshold, late_by_round[k]))
        last = now
    r.ledger.counters = {
        "models_trained": float(sum(len(node.trained_rounds) for node in nodes)),
        "late_models": float(sum(late_by_round.values())),
    }


# --------------------------------------------------------------------- fl --


def _run_fl(r: _Repetition) -> None:
    cfg, world, ledger = r.cfg, r.world, r.ledger
    select = uniform_selector(world.membership, derive_rng(cfg.protocol_seed, "fl-select", r.rep))
    model = r.init(None)
    for k in range(1, cfg.stop.max_rounds + 1):
        res = fl_round(
            model,
            world.membership,
            k,
            cfg.sample_size,
            cfg.success_fraction,
            select_fn=select,
            train_fn=partial(r.train, "train"),
            compute_seconds=r.compute_s.__getitem__,
        )
        if ledger.final_time_s + res.duration_s > cfg.stop.max_virtual_s:
            break
        ledger.final_time_s += res.duration_s
        ledger.bytes_total += res.bytes
        ledger.train_seconds_total += res.train_seconds
        model = res.model
        ledger.rounds.append(RoundRecord(k, res.duration_s, len(res.participants), res.aggregated, res.late))
        if _should_eval(cfg, k):
            r.record_eval(ledger.final_time_s, k, [model], ledger)
    ledger.counters = {
        "models_trained": float(sum(rec.participants for rec in ledger.rounds)),
        "late_models": float(sum(rec.late_models for rec in ledger.rounds)),
    }


# ------------------------------------------------------------------ dpsgd --


def _run_dpsgd(r: _Repetition) -> None:
    cfg, world, ledger = r.cfg, r.world, r.ledger
    n = cfg.n
    if cfg.topology.kind == "regular":
        topology = make_regular_topology(n, cfg.topology.degree, cfg.topology.seed)
    else:
        topology = OnePeerExponential(n)
    node_ids = world.membership.nodes
    shards = [r.shards[nid] for nid in node_ids]
    compute_secs = [r.compute_s[nid] for nid in node_ids]
    models = [r.init(nid) for nid in node_ids]
    checkpoints = deque(_multiples(cfg.eval.every_seconds, cfg.stop.max_virtual_s))

    def train_round(k: int, models: list[ModelParameters]) -> list[ModelParameters]:
        rngs = [r.rng("train", nid, k) for nid in node_ids]
        return local_train_many(models, world.spec, shards, cfg.trainer, rngs)

    # One worker scores each checkpoint while the next rounds train: both
    # spend their time in NumPy calls that release the interpreter lock. At
    # most one checkpoint is in flight, so at most one set of past models is
    # held; the points are recorded in checkpoint order.
    scoring = None
    with ThreadPoolExecutor(max_workers=1) as scorer:
        for k in range(1, cfg.stop.max_rounds + 1):
            res = dpsgd_round(
                models,
                world.membership,
                topology,
                k,
                world.latency,
                train_fn=train_round,
                compute_seconds=compute_secs,
            )
            t_end = ledger.final_time_s + res.duration_s
            # Checkpoints inside this round observe the models committed before it.
            while checkpoints and checkpoints[0] <= t_end:
                if scoring is not None:
                    ledger.accuracy.append(scoring.result())
                scoring = scorer.submit(
                    r.score, checkpoints.popleft(), k - 1, models, ledger.bytes_total, ledger.train_seconds_total
                )
            if t_end > cfg.stop.max_virtual_s:
                break
            ledger.final_time_s = t_end
            models = res.models
            ledger.bytes_total += res.bytes
            ledger.train_seconds_total += res.train_seconds
            ledger.rounds.append(RoundRecord(k, res.duration_s, n, n, 0))
        if scoring is not None:
            ledger.accuracy.append(scoring.result())
    ledger.counters = {"models_trained": float(n * len(ledger.rounds))}


# --------------------------------------------------------------------- gl --


def _run_gl(r: _Repetition) -> None:
    cfg, world = r.cfg, r.world
    engine = Engine(world.membership, world.latency)
    nodes = [
        GossipNode(
            nid,
            world.membership,
            model=r.init(nid),
            timeout_s=cfg.gl_timeout_s,
            train_fn=partial(r.train, "gl-train", nid),
            compute_seconds=r.compute_s[nid],
            peer_rng=derive_rng(cfg.protocol_seed, "gl-peer", r.rep, nid),
        )
        for nid in world.membership.nodes
    ]

    def start(node: GossipNode) -> list:
        stagger = float(
            derive_rng(cfg.protocol_seed, "gl-stagger", r.rep, node.me).uniform(0.0, cfg.gl_timeout_s)
        )
        return node.initial_effects(stagger)

    _run_on_engine(
        r, engine, nodes, start,
        checkpoint=lambda at: r.record_eval(at, 0, [node.model for node in nodes], engine),
    )
    # A node drops models while it trains: trainings are merges, less any still running.
    r.ledger.counters = {
        "models_trained": float(sum(node.merges - node.busy for node in nodes)),
        "gl_busy_drop": float(sum(node.drops for node in nodes)),
    }


def _multiples(step: float, horizon: float) -> list[float]:
    """Multiples of ``step`` up to ``horizon``, clamped to it (3 * 0.1 > 0.3)."""
    out = []
    k = 1
    while k * step <= horizon + 1e-9:
        out.append(min(k * step, horizon))
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
    r = _Repetition(cfg, world, rep)
    _RUNNERS[cfg.algorithm](r)
    return r.ledger


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | Path, base_dir: str | Path = "."
) -> dict:
    """Run all repetitions, write per-repetition CSVs plus summary.json, and
    return the summary dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world = build_world(cfg, base_dir)
    reps = []
    for rep in range(cfg.repetitions):
        ledger = run_single(cfg, world, rep)
        ledger.write_csvs(out / f"rep{rep}")
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
                    None if not durations else asdict(round_duration_stats(durations))
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
            entry[f"{metric_key}_mean"], misses = mean_excluding_none(vals)
        # The three metrics share one first crossing, so they miss together.
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
