import json
import sys
import threading
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from plexsim.config import (
    DatasetConfig,
    EvalConfig,
    ExperimentConfig,
    StopConfig,
    TopologyConfig,
    TracesConfig,
    load_config,
)
from plexsim.core import ModelParameters, derive_rng
from plexsim import learning, runner, simnet
from plexsim.learning import (
    EvalSplit,
    PartitionScheme,
    TrainerConfig,
    evaluate_many,
    local_train,
    local_train_many,
    partition,
)
from plexsim.runner import (
    _init_model,
    build_membership_from_config,
    build_world,
    run_experiment,
    run_single,
)
from plexsim.sampler import sample
from plexsim.simnet import maxmin_rates

from oracles import fedavg_reference


def tiny_cfg(algorithm="plexus", **kw):
    defaults = dict(
        algorithm=algorithm,
        n=8,
        sample_size=3,
        success_fraction=1.0,
        protocol_seed=11,
        targets=(0.5,),
        trainer=TrainerConfig(eta=0.1, batch_size=16, local_steps=2),
        dataset=DatasetConfig(seed=5, n_samples=300, d_in=4, classes=3, class_sep=3.0),
        partition=PartitionScheme("iid"),
        traces=TracesConfig(cities=3, seed=2),
        stop=StopConfig(max_rounds=4, max_virtual_s=1e7),
        eval=EvalConfig(every_rounds=2, every_seconds=50.0),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ------------------------------------------------------------ world building --


def test_build_world_synth():
    cfg = tiny_cfg()
    world = build_world(cfg)
    assert len(world.membership) == 8
    assert len(world.latency.cities) == 3
    assert world.dataset.X.shape[1] == 4
    assert world.spec.dim == 3 * 4 + 3
    cities = {world.membership.profile(nid).city_index for nid in world.membership.nodes}
    assert cities == {0, 1, 2}


def test_build_membership_from_traces(tmp_path):
    from plexsim.traces import synth_device_profiles, synth_latency_matrix, write_latency_csv, write_profiles_csv

    write_latency_csv(tmp_path / "lat.csv", synth_latency_matrix(2, seed=0))
    write_profiles_csv(tmp_path / "prof.csv", synth_device_profiles(8, seed=0))
    cfg = tiny_cfg(traces=TracesConfig(latency_path="lat.csv", profiles_path="prof.csv"))
    membership, latency = build_membership_from_config(cfg, tmp_path)
    assert len(membership) == 8
    assert len(latency.cities) == 2


def test_profile_count_must_match_n(tmp_path):
    from plexsim.traces import synth_device_profiles, write_profiles_csv

    write_profiles_csv(tmp_path / "prof.csv", synth_device_profiles(5, seed=0))
    cfg = tiny_cfg(traces=TracesConfig(profiles_path="prof.csv"))
    with pytest.raises(ValueError, match="n=8"):
        build_membership_from_config(cfg, tmp_path)


def test_init_model_shared_vs_per_node():
    cfg = tiny_cfg(shared_init=True)
    world = build_world(cfg)
    a = _init_model(cfg, world.spec, 0, "n0000")
    b = _init_model(cfg, world.spec, 0, "n0001")
    assert np.array_equal(a.values, b.values)
    cfg2 = tiny_cfg(shared_init=False)
    c = _init_model(cfg2, world.spec, 0, "n0000")
    d = _init_model(cfg2, world.spec, 0, "n0001")
    assert not np.array_equal(c.values, d.values)
    # Different repetitions draw different shared inits.
    e = _init_model(cfg, world.spec, 1, "n0000")
    assert not np.array_equal(a.values, e.values)


# -------------------------------------------------------------- per-algorithm --


def test_run_plexus_ledger_shape():
    cfg = tiny_cfg()
    world = build_world(cfg)
    led = run_single(cfg, world, 0)
    assert [r.round for r in led.rounds] == [1, 2, 3, 4]
    assert all(r.participants == 3 and r.models_aggregated == 3 for r in led.rounds)
    assert all(r.duration_s > 0 for r in led.rounds)
    # eval cadence: rounds 2 and 4.
    assert [p.round for p in led.accuracy] == [2, 4]
    assert led.counters["models_trained"] == 12.0  # 4 rounds x 3 participants
    assert led.bytes_total > 0
    assert led.train_seconds_total > 0
    assert led.final_time_s >= led.accuracy[-1].time_s
    # Ledger snapshots within eval rows never decrease.
    assert led.accuracy[0].bytes_total <= led.accuracy[1].bytes_total


def test_run_plexus_samples_each_round_once(monkeypatch):
    # All nodes of a run share one schedule: sample() runs once for each of
    # rounds 1..R+1 (the last aggregator pushes Train{R+1}), however many
    # nodes ask for the round.
    calls = []

    def counting(k, s, candidates):
        calls.append(k)
        return sample(k, s, candidates)

    for name, mod in list(sys.modules.items()):
        if name.startswith("plexsim") and getattr(mod, "sample", None) is sample:
            monkeypatch.setattr(mod, "sample", counting)
    rounds = 4
    cfg = tiny_cfg(stop=StopConfig(max_rounds=rounds, max_virtual_s=1e7))
    led = run_single(cfg, build_world(cfg), 0)
    assert len(led.rounds) == rounds
    assert sorted(calls) == list(range(1, rounds + 2))


@pytest.mark.parametrize("algorithm", ["dpsgd", "gl"])
def test_runners_score_all_models_of_a_checkpoint_in_one_call(monkeypatch, algorithm):
    # Every checkpoint scores all n models with one evaluate_many call,
    # against the one test split the repetition prepared.
    batches, splits = [], []

    def counting(models, spec, split):
        batches.append(len(models))
        splits.append(split)
        return evaluate_many(models, spec, split)

    for name, mod in list(sys.modules.items()):
        if name.startswith("plexsim") and getattr(mod, "evaluate_many", None) is evaluate_many:
            monkeypatch.setattr(mod, "evaluate_many", counting)
    if algorithm == "dpsgd":
        cfg = tiny_cfg(
            algorithm="dpsgd",
            topology=TopologyConfig(kind="regular", degree=2, seed=1),
            eval=EvalConfig(every_rounds=2, every_seconds=1.0),
        )
    else:
        cfg = tiny_cfg(
            algorithm="gl",
            gl_timeout_s=30.0,
            stop=StopConfig(max_rounds=4, max_virtual_s=300.0),
            eval=EvalConfig(every_rounds=2, every_seconds=100.0),
        )
    led = run_single(cfg, build_world(cfg), 0)
    assert len(led.accuracy) >= 3
    assert batches == [cfg.n] * len(led.accuracy)
    assert all(split is splits[0] for split in splits)


def dpsgd_cfg():
    return tiny_cfg(
        algorithm="dpsgd",
        n=20,
        topology=TopologyConfig(kind="regular", degree=4, seed=1),
        stop=StopConfig(max_rounds=6, max_virtual_s=1e7),
        eval=EvalConfig(every_rounds=1, every_seconds=1.0),
    )


class _InlineExecutor:
    """An executor that runs each task when it is submitted."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


def test_dpsgd_scores_on_one_worker_as_it_would_inline(monkeypatch):
    cfg = dpsgd_cfg()
    world = build_world(cfg)
    before = threading.active_count()
    # Switch threads often, so that scoring interleaves with training.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        led = run_single(cfg, world, 0)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    monkeypatch.setattr(runner, "ThreadPoolExecutor", _InlineExecutor)
    inline = run_single(cfg, world, 0)
    assert len(led.accuracy) >= 3
    assert led.accuracy == inline.accuracy


def test_dpsgd_scoring_errors_reach_the_caller_and_join_the_worker(monkeypatch):
    calls = []

    def failing(models, spec, split):
        calls.append(len(models))
        if len(calls) == 2:
            raise RuntimeError("scoring failed")
        return evaluate_many(models, spec, split)

    monkeypatch.setattr(runner, "evaluate_many", failing)
    cfg = dpsgd_cfg()
    world = build_world(cfg)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="scoring failed"):
        run_single(cfg, world, 0)
    assert threading.active_count() == before
    assert len(calls) >= 2


def test_dpsgd_trains_each_round_in_one_call(monkeypatch):
    batches = []

    def counting(models, spec, parts, cfg, rngs):
        batches.append(len(models))
        return local_train_many(models, spec, parts, cfg, rngs)

    monkeypatch.setattr(runner, "local_train_many", counting)
    cfg = dpsgd_cfg()
    led = run_single(cfg, build_world(cfg), 0)
    assert len(led.rounds) == cfg.stop.max_rounds
    assert batches == [cfg.n] * cfg.stop.max_rounds


# ------------------------------------------------------------ training queue --


def _train_at_once(r, stream, nid, key, model):
    """``_Repetition.train`` without the queue: one ``local_train`` call."""
    return local_train(model, r.world.spec, r.shards[nid], r.cfg.trainer, r.rng(stream, nid, key))


def _count_training(monkeypatch) -> list[int]:
    """Record the number of models of every ``local_train_many`` call."""
    batches = []

    def counting(models, spec, parts, cfg, rngs):
        batches.append(len(models))
        return local_train_many(models, spec, parts, cfg, rngs)

    monkeypatch.setattr(runner, "local_train_many", counting)
    return batches


QUEUE_CFGS = {
    # Rounds of 12 trainers, more than one chunk.
    "plexus": lambda **kw: tiny_cfg(n=16, sample_size=12, success_fraction=0.75, **kw),
    "fl": lambda **kw: tiny_cfg(algorithm="fl", n=16, sample_size=12, success_fraction=0.75, **kw),
    "gl": lambda **kw: tiny_cfg(
        algorithm="gl", n=24, gl_timeout_s=5.0,
        stop=StopConfig(max_rounds=1, max_virtual_s=130.0),
        eval=EvalConfig(every_rounds=1, every_seconds=50.0), **kw,
    ),
}


_RECORD_EVAL = runner._Repetition.record_eval


def _run_scoring(monkeypatch, cfg, world):
    """``run_single``, the (age, values) of the models of every checkpoint,
    and the size of every ``local_train_many`` call."""
    scored = []

    def scoring(self, at, round_no, models, totals):
        scored.append([(m.age, m.values) for m in models])
        return _RECORD_EVAL(self, at, round_no, models, totals)

    monkeypatch.setattr(runner._Repetition, "record_eval", scoring)
    batches = _count_training(monkeypatch)
    return run_single(cfg, world, 0), scored, batches


@pytest.mark.parametrize("algorithm", sorted(QUEUE_CFGS))
def test_queued_training_matches_training_each_model_at_once(monkeypatch, algorithm):
    cfg = QUEUE_CFGS[algorithm]()
    world = build_world(cfg)
    queued, queued_models, batches = _run_scoring(monkeypatch, cfg, world)
    monkeypatch.setattr(runner._Repetition, "train", _train_at_once)
    alone, alone_models, _ = _run_scoring(monkeypatch, cfg, world)
    assert max(batches) > 1  # the queue did batch
    assert queued == alone
    assert len(queued_models) == len(alone_models) >= 2
    for got, want in zip(queued_models, alone_models):
        assert [age for age, _ in got] == [age for age, _ in want]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))


def test_a_queued_model_knows_its_age_and_dim_before_it_trains(monkeypatch):
    batches = _count_training(monkeypatch)
    cfg = tiny_cfg()
    world = build_world(cfg)
    r = runner._Repetition(cfg, world, 0)
    model = ModelParameters(_init_model(cfg, world.spec, 0, None).values, age=5)
    nodes = world.membership.nodes
    keys = [(nodes[i % len(nodes)], i) for i in range(learning._TRAIN_CHUNK + 1)]
    queued = [r.train("train", nid, key, model) for nid, key in keys[: learning._TRAIN_CHUNK - 1]]
    assert batches == []
    assert all(q.age == 5 + cfg.trainer.local_steps and q.dim == model.dim for q in queued)
    # The chunk's last model trains the queue; the next one trains when read.
    queued += [r.train("train", nid, key, model) for nid, key in keys[learning._TRAIN_CHUNK - 1 :]]
    assert batches == [learning._TRAIN_CHUNK]
    assert queued[-1].age == 5 + cfg.trainer.local_steps and queued[-1].dim == model.dim
    for q, (nid, key) in zip(queued[::-1], keys[::-1]):
        want = _train_at_once(r, "train", nid, key, model)
        assert np.array_equal(q.values, want.values)
    assert batches == [learning._TRAIN_CHUNK, 1]


@pytest.mark.parametrize("algorithm", ["plexus", "gl"])
def test_a_diverging_queued_run_raises(algorithm):
    cfg = QUEUE_CFGS[algorithm](trainer=TrainerConfig(eta=1e308, batch_size=16, local_steps=2))
    with pytest.raises(ValueError, match="divergence"), np.errstate(all="ignore"):
        run_single(cfg, build_world(cfg), 0)


# Work budgets: the rate solves, the flows they solve and the training calls
# of two small engine runs. A change that lowers one updates it here; a change
# that raises one must say why.
WORK_BUDGETS = {
    "plexus-small": (
        lambda: load_config(CONFIGS / "plexus-small.yaml"),
        {"maxmin_calls": 178, "flows_solved": 364, "train_calls": 21, "models_trained": 100},
    ),
    "gl-n100": (
        lambda: replace(
            load_config(CONFIGS / "plexus-small.yaml"),
            algorithm="gl", n=100, gl_timeout_s=60.0,
            stop=StopConfig(max_rounds=1, max_virtual_s=600.0),
            eval=EvalConfig(every_rounds=1, every_seconds=250.0),
        ),
        {"maxmin_calls": 1001, "flows_solved": 1002, "train_calls": 132, "models_trained": 991},
    ),
}


@pytest.mark.parametrize("name", sorted(WORK_BUDGETS))
def test_work_budget(monkeypatch, name):
    make_cfg, want = WORK_BUDGETS[name]
    solved = []

    def solving(flows, up, down):
        solved.append(len(flows))
        return maxmin_rates(flows, up, down)

    monkeypatch.setattr(simnet, "maxmin_rates", solving)
    batches = _count_training(monkeypatch)
    cfg = make_cfg()
    led = run_single(cfg, build_world(cfg, CONFIGS), 0)
    # Every training a node started and finished ran, the ones after the
    # last checkpoint too.
    assert sum(batches) == led.counters["models_trained"]
    work = {
        "maxmin_calls": len(solved),
        "flows_solved": sum(solved),
        "train_calls": len(batches),
        "models_trained": sum(batches),
    }
    assert work == want


def test_run_plexus_partial_rounds_count_late_models():
    cfg = tiny_cfg(sample_size=4, success_fraction=0.5, stop=StopConfig(max_rounds=3, max_virtual_s=1e7))
    world = build_world(cfg)
    led = run_single(cfg, world, 0)
    assert all(r.models_aggregated == 2 for r in led.rounds)
    assert sum(r.late_models for r in led.rounds) == 3 * 2  # 2 stragglers per round
    assert led.counters["late_models"] == 6.0


def test_run_plexus_matches_fedavg_oracle_exactly():
    # sf=1 plexus must reproduce centralized FedAvg over the same sampler
    # schedule, shards, and rng streams; the recorded accuracies are then
    # identical because the models are identical to the last bit.
    cfg = tiny_cfg()
    world = build_world(cfg)
    led = run_single(cfg, world, 0)

    parts = partition(world.dataset, cfg.n, cfg.partition, cfg.protocol_seed * 1_000_003 + 0)
    index_of = {nid: i for i, nid in enumerate(world.membership.nodes)}

    def train(nid, k, theta):
        rng = derive_rng(cfg.protocol_seed, "train", 0, nid, k)
        return local_train(theta, world.spec, parts[index_of[nid]], cfg.trainer, rng)

    theta0 = _init_model(cfg, world.spec, 0, None)
    history = fedavg_reference(
        theta0,
        cfg.stop.max_rounds,
        participants_fn=lambda k: sample(k, cfg.sample_size, world.membership.nodes),
        train_fn=train,
    )
    for point in led.accuracy:
        ds = world.dataset
        want = evaluate_many([history[point.round - 1].values], world.spec, EvalSplit(ds.X, ds.y, ds.test))[0]
        assert point.accuracy == want


def test_run_fl_ledger_shape():
    cfg = tiny_cfg(algorithm="fl")
    world = build_world(cfg)
    led = run_single(cfg, world, 0)
    assert len(led.rounds) == 4
    nbytes = 8 * world.spec.dim + 16
    assert led.bytes_total == 4 * 2 * 3 * nbytes
    assert [p.round for p in led.accuracy] == [2, 4]
    assert led.counters["models_trained"] == 12.0
    assert led.final_time_s == pytest.approx(sum(r.duration_s for r in led.rounds))


def test_run_fl_respects_time_budget():
    cfg = tiny_cfg(algorithm="fl", stop=StopConfig(max_rounds=50, max_virtual_s=30.0))
    world = build_world(cfg)
    led = run_single(cfg, world, 0)
    assert led.final_time_s <= 30.0
    assert len(led.rounds) < 50


def test_run_dpsgd_regular_ledger_shape():
    cfg = tiny_cfg(
        algorithm="dpsgd",
        topology=TopologyConfig(kind="regular", degree=2, seed=1),
        eval=EvalConfig(every_rounds=2, every_seconds=20.0),
    )
    world = build_world(cfg)
    led = run_single(cfg, world, 0)
    assert len(led.rounds) == 4
    nbytes = 8 * world.spec.dim + 16
    assert led.bytes_total == 4 * 8 * 2 * nbytes  # rounds x nodes x degree
    assert led.counters["models_trained"] == 32.0
    # Eval rows appear on the virtual clock, not at round boundaries.
    assert all(p.time_s % 20.0 == 0 for p in led.accuracy)
    assert all(p.accuracy_std >= 0 for p in led.accuracy)


def test_run_dpsgd_one_peer_bytes():
    cfg = tiny_cfg(
        algorithm="dpsgd",
        topology=TopologyConfig(kind="one_peer_exp"),
        eval=EvalConfig(every_rounds=2, every_seconds=20.0),
    )
    world = build_world(cfg)
    led = run_single(cfg, world, 0)
    nbytes = 8 * world.spec.dim + 16
    assert led.bytes_total == 4 * 8 * 1 * nbytes


def test_run_gl_ledger_shape():
    cfg = tiny_cfg(
        algorithm="gl",
        gl_timeout_s=30.0,
        stop=StopConfig(max_rounds=4, max_virtual_s=300.0),
        eval=EvalConfig(every_rounds=2, every_seconds=100.0),
    )
    world = build_world(cfg)
    led = run_single(cfg, world, 0)
    assert led.rounds == []  # gossip has no rounds
    assert [p.time_s for p in led.accuracy] == [100.0, 200.0, 300.0]
    assert led.final_time_s == 300.0
    assert led.bytes_total > 0
    assert led.counters["models_trained"] > 0


@pytest.mark.parametrize("algorithm", ["plexus", "fl", "dpsgd", "gl"])
def test_every_runner_is_deterministic(algorithm):
    kw = {}
    if algorithm == "dpsgd":
        kw["topology"] = TopologyConfig(kind="one_peer_exp")
    if algorithm == "gl":
        kw["gl_timeout_s"] = 30.0
        kw["stop"] = StopConfig(max_rounds=4, max_virtual_s=200.0)
    cfg = tiny_cfg(algorithm=algorithm, **kw)
    world = build_world(cfg)

    def fingerprint():
        led = run_single(cfg, world, 0)
        return (
            [(p.time_s, p.round, p.accuracy, p.bytes_total, p.train_seconds_total) for p in led.accuracy],
            [(r.round, r.duration_s) for r in led.rounds],
            led.bytes_total,
            led.train_seconds_total,
            led.final_time_s,
        )

    assert fingerprint() == fingerprint()


@pytest.mark.parametrize("algorithm", ["plexus", "fl", "dpsgd", "gl"])
def test_every_runner_keeps_totals_consistent(algorithm):
    # The shared repetition skeleton owns evaluation and totals: each
    # accuracy row snapshots totals that only grow, the final totals cover
    # the last snapshot, and a single global model has no spread.
    kw = dict(
        stop=StopConfig(max_rounds=6, max_virtual_s=1e7),
        eval=EvalConfig(every_rounds=1, every_seconds=2.0),
    )
    if algorithm == "dpsgd":
        kw["topology"] = TopologyConfig(kind="regular", degree=2, seed=1)
    if algorithm == "gl":
        kw["gl_timeout_s"] = 30.0
        kw["stop"] = StopConfig(max_rounds=6, max_virtual_s=200.0)
        kw["eval"] = EvalConfig(every_rounds=1, every_seconds=50.0)
    cfg = tiny_cfg(algorithm=algorithm, **kw)
    led = run_single(cfg, build_world(cfg), 0)
    assert len(led.accuracy) >= 2
    last = led.accuracy[-1]
    assert led.final_time_s >= last.time_s
    assert led.bytes_total >= last.bytes_total
    assert led.train_seconds_total >= last.train_seconds_total
    for a, b in zip(led.accuracy, led.accuracy[1:]):
        assert a.time_s <= b.time_s
        assert a.bytes_total <= b.bytes_total
        assert a.train_seconds_total <= b.train_seconds_total
    assert led.counters["models_trained"] > 0
    if algorithm in ("plexus", "fl"):
        assert all(p.accuracy_std == 0.0 for p in led.accuracy)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Each runner builds its counters from its own node or round state; these
# are the counts the engine's effect tally gave before it was deleted.
PINNED_COUNTERS = {
    "plexus": (
        lambda: load_config(CONFIGS / "plexus-small.yaml"),
        {"late_models": 20.0, "models_trained": 100.0},
    ),
    "fl": (
        lambda: tiny_cfg(
            algorithm="fl", sample_size=4, success_fraction=0.5,
            stop=StopConfig(max_rounds=5, max_virtual_s=1e7),
        ),
        {"late_models": 10.0, "models_trained": 20.0},
    ),
    "dpsgd": (
        lambda: tiny_cfg(
            algorithm="dpsgd", topology=TopologyConfig(kind="regular", degree=2, seed=1),
            stop=StopConfig(max_rounds=5, max_virtual_s=1e7),
        ),
        {"models_trained": 40.0},
    ),
    "gl": (
        lambda: tiny_cfg(
            algorithm="gl", gl_timeout_s=1.0,
            stop=StopConfig(max_rounds=1, max_virtual_s=60.0),
            eval=EvalConfig(every_rounds=1, every_seconds=30.0),
        ),
        {"gl_busy_drop": 172.0, "models_trained": 302.0},
    ),
}


@pytest.mark.parametrize("algorithm", sorted(PINNED_COUNTERS))
def test_every_runner_pins_its_counters(algorithm):
    make_cfg, want = PINNED_COUNTERS[algorithm]
    cfg = make_cfg()
    assert cfg.algorithm == algorithm
    assert run_single(cfg, build_world(cfg, CONFIGS), 0).counters == want


@pytest.mark.parametrize("horizon, count", [(3.0, 30), (0.3, 3)], ids=["3.0", "0.3"])
def test_dpsgd_and_gl_checkpoint_on_the_same_grid(tmp_path, horizon, count):
    # Both evaluate at k * every_seconds; summing every_seconds instead
    # drifts (0.1 added 30 times overshoots 3.0) and loses the last row.
    # A multiple that rounding puts past the budget (3 * 0.1 > 0.3) is
    # clamped to it, so no row lies beyond final_time_s.
    columns = {}
    for algorithm in ("dpsgd", "gl"):
        cfg = tiny_cfg(
            algorithm=algorithm,
            topology=TopologyConfig(kind="regular", degree=2, seed=1),
            gl_timeout_s=1.0,
            stop=StopConfig(max_rounds=1000, max_virtual_s=horizon),
            eval=EvalConfig(every_rounds=1, every_seconds=0.1),
        )
        run_experiment(cfg, tmp_path / algorithm)
        rows = (tmp_path / algorithm / "rep0" / "accuracy.csv").read_text().splitlines()[1:]
        columns[algorithm] = [row.split(",")[0] for row in rows]
    assert columns["dpsgd"] == columns["gl"]
    assert columns["gl"] == [repr(k * 0.1) for k in range(1, count)] + [repr(horizon)]


def test_repetitions_differ_but_seeds_pin_them():
    cfg = tiny_cfg()
    world = build_world(cfg)
    led0 = run_single(cfg, world, 0)
    led1 = run_single(cfg, world, 1)
    # Different reps draw different init and training streams.
    assert [p.accuracy for p in led0.accuracy] != [p.accuracy for p in led1.accuracy]


# --------------------------------------------------------------- experiment --


def test_run_experiment_writes_outputs(tmp_path):
    cfg = tiny_cfg(repetitions=2)
    summary = run_experiment(cfg, tmp_path / "out")
    for rep in (0, 1):
        for name in ("accuracy.csv", "ledger.csv", "rounds.csv"):
            assert (tmp_path / "out" / f"rep{rep}" / name).exists()
    with open(tmp_path / "out" / "summary.json") as fh:
        loaded = json.load(fh)
    assert loaded["algorithm"] == "plexus"
    assert loaded["config_hash"] == cfg.config_hash()
    assert len(loaded["reps"]) == 2
    assert summary["reps"][0]["rounds_completed"] == 4
    entry = loaded["cross_seed"]["0.5"]
    assert set(entry) == {"tta_s_mean", "cta_bytes_mean", "rta_s_mean", "not_reached"}
    stats = loaded["reps"][0]["round_stats"]
    assert set(stats) == {"count", "mean", "p50", "p95", "max"}
    assert stats["count"] == 4


def test_run_experiment_reports_unreached_targets(tmp_path):
    cfg = tiny_cfg(targets=(0.999,), stop=StopConfig(max_rounds=2, max_virtual_s=1e7))
    summary = run_experiment(cfg, tmp_path / "out")
    entry = summary["cross_seed"]["0.999"]
    assert entry["tta_s_mean"] is None
    assert entry["not_reached"] == 1


def test_run_experiment_is_reproducible(tmp_path):
    cfg = tiny_cfg()
    a = run_experiment(cfg, tmp_path / "a")
    b = run_experiment(cfg, tmp_path / "b")
    assert a == b
    assert (tmp_path / "a" / "rep0" / "accuracy.csv").read_text() == (
        tmp_path / "b" / "rep0" / "accuracy.csv"
    ).read_text()
