import errno
import functools
import itertools
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plexsim.config import (
    DatasetConfig,
    EvalConfig,
    ExperimentConfig,
    StopConfig,
    TopologyConfig,
    TracesConfig,
    load_config,
)
from plexsim.baselines import dpsgd_round, make_regular_topology, one_peer_topology
from plexsim.core import ModelParameters, derive_rng
from plexsim import runner, simnet
from plexsim.learning import (
    EvalSplit,
    PartitionScheme,
    TrainerConfig,
    evaluate_many,
    local_train,
    models_per_block,
    partition,
)
from plexsim.runner import (
    build_membership_from_config,
    build_world,
    run_experiment,
    run_single,
)
from plexsim.sampler import sample
from plexsim.simnet import maxmin_rates

from conftest import child_pids
from oracles import (
    accuracy_rows_reference, dpsgd_round_reference, fedavg_reference, one_peer_reference, replay_reference,
)


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
    a = runner._Repetition(cfg, world, 0).init("n0000")
    b = runner._Repetition(cfg, world, 0).init("n0001")
    assert np.array_equal(a.values, b.values)
    cfg2 = tiny_cfg(shared_init=False)
    c = runner._Repetition(cfg2, world, 0).init("n0000")
    d = runner._Repetition(cfg2, world, 0).init("n0001")
    assert not np.array_equal(c.values, d.values)
    # Different repetitions draw different shared inits.
    e = runner._Repetition(cfg, world, 1).init("n0000")
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


# The tiny configs with 32 classes, so that 16 linear models fill an
# ``evaluate_many`` block: Plexus and FL score 40 one-model checkpoints in
# blocks of 16, D-PSGD two 12-model checkpoints a block, and each 16-model
# GL checkpoint fills a block of its own, so that the scoring thread
# scores it while the worker replays.
_BLOCK_DATA = DatasetConfig(seed=5, n_samples=320, d_in=4, classes=32, class_sep=3.0)
_BLOCK_ROUNDS = StopConfig(max_rounds=40, max_virtual_s=1e7)
BLOCK_CFGS = {
    "plexus": lambda: tiny_cfg(dataset=_BLOCK_DATA, stop=_BLOCK_ROUNDS, eval=EvalConfig(every_rounds=1)),
    "fl": lambda: tiny_cfg(algorithm="fl", dataset=_BLOCK_DATA, stop=_BLOCK_ROUNDS, eval=EvalConfig(every_rounds=1)),
    "dpsgd": lambda: tiny_cfg(
        algorithm="dpsgd", n=12, dataset=_BLOCK_DATA, topology=TopologyConfig(kind="regular", degree=2, seed=1),
        stop=StopConfig(max_rounds=8, max_virtual_s=1e7), eval=EvalConfig(every_seconds=1.0),
    ),
    "gl": lambda: tiny_cfg(
        algorithm="gl", n=16, dataset=_BLOCK_DATA, gl_timeout_s=5.0,
        stop=StopConfig(max_rounds=1, max_virtual_s=130.0), eval=EvalConfig(every_seconds=25.0),
    ),
}


@pytest.mark.parametrize("algorithm", sorted(BLOCK_CFGS))
def test_runners_score_all_models_of_a_checkpoint_in_one_call(monkeypatch, algorithm):
    # Every model of every checkpoint reaches evaluate_many once, against
    # the one test split, in calls that never split a checkpoint and, but
    # for the last, hold at least one block; the rows are those of scoring
    # each checkpoint alone.
    checkpoints, calls = [], []

    def recording(self, point, thetas):
        checkpoints.append((point, np.array(thetas)))
        return _RECORD(self, point, thetas)

    def counting(models, spec, split):
        calls.append(([np.array(m) for m in models], split))
        return evaluate_many(models, spec, split)

    monkeypatch.setattr(runner._Repetition, "record", recording)
    monkeypatch.setattr(runner, "evaluate_many", counting)
    cfg = BLOCK_CFGS[algorithm]()
    world = build_world(cfg)
    block = models_per_block(world.spec)
    led = run_single(cfg, world, 0)
    sizes = [len(models) for models, _ in calls]
    assert block == 16 and len(sizes) >= 2
    scored = [m for models, _ in calls for m in models]
    sent = [m for _, stack in checkpoints for m in stack]
    assert len(scored) == len(sent)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(scored, sent))
    assert all(split is calls[0][1] for _, split in calls)
    assert set(itertools.accumulate(sizes)) <= set(itertools.accumulate(len(stack) for _, stack in checkpoints))
    assert all(size >= block for size in sizes[:-1])
    # The queue never holds more than one block short of full plus one checkpoint.
    assert max(sizes) < block + max(len(stack) for _, stack in checkpoints)
    ds = world.dataset
    assert led.accuracy == accuracy_rows_reference(checkpoints, world.spec, ds.X[ds.test], ds.y[ds.test])


# ------------------------------------------------------------ training queue --


def _replay_inline(monkeypatch) -> None:
    """Make runs replay their op log in this process, as where ``os.fork``
    is missing, so that patches and counts here see it."""
    monkeypatch.delattr(os, "fork", raising=False)


def _draw_stream(r, stream, nid, key):
    """``_Repetition.draw`` that hands on the training's shard and stream
    themselves."""
    return r.shards[nid], derive_rng(r.cfg.protocol_seed, stream, r.rep, nid, key)


def _train_at_once(thetas, spec, X, y, cfg, draws):
    """``train_steps`` of ``_draw_stream``'s shards and streams, without
    stacking: one ``local_train`` call per model."""
    return [
        local_train(ModelParameters(theta), spec, part, cfg, rng).values
        for theta, (part, rng) in zip(thetas, draws)
    ]


def _count_training(monkeypatch) -> list[int]:
    """Record the number of models of every ``train_steps`` call made in
    this process. It wraps ``runner.train_steps`` as it is now, a patched
    one too."""
    batches = []
    train = runner.train_steps

    def counting(thetas, *args):
        batches.append(len(thetas))
        return train(thetas, *args)

    monkeypatch.setattr(runner, "train_steps", counting)
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
    # Rounds of 16 trainers: a chunk of 10, and 6 more trained when the
    # first average reads one of them.
    "dpsgd": lambda **kw: tiny_cfg(
        algorithm="dpsgd", n=16, topology=TopologyConfig(kind="regular", degree=4, seed=1),
        stop=StopConfig(max_rounds=6, max_virtual_s=1e7),
        eval=EvalConfig(every_rounds=1, every_seconds=1.0), **kw,
    ),
}


_RECORD = runner._Repetition.record


def _run_scoring(monkeypatch, cfg, world):
    """``run_single`` replayed inline, the values of the models of every
    checkpoint, and the size of every ``train_steps`` call."""
    values = []

    def scoring(self, point, thetas):
        values.append([np.array(theta) for theta in thetas])
        return _RECORD(self, point, thetas)

    _replay_inline(monkeypatch)
    monkeypatch.setattr(runner._Repetition, "record", scoring)
    batches = _count_training(monkeypatch)
    led = run_single(cfg, world, 0)
    return led, values, batches


@pytest.mark.parametrize("algorithm", sorted(QUEUE_CFGS))
def test_queued_training_matches_training_each_model_at_once(monkeypatch, algorithm):
    cfg = QUEUE_CFGS[algorithm]()
    world = build_world(cfg)
    queued, queued_models, batches = _run_scoring(monkeypatch, cfg, world)
    monkeypatch.setattr(runner._Repetition, "draw", _draw_stream)
    monkeypatch.setattr(runner, "train_steps", _train_at_once)
    alone, alone_models, _ = _run_scoring(monkeypatch, cfg, world)
    assert max(batches) > 1  # the queue did batch
    assert queued == alone
    assert len(queued_models) == len(alone_models) >= 2
    for got, want in zip(queued_models, alone_models):
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_the_replay_trains_its_queue_in_chunks_and_before_a_read(monkeypatch):
    batches = _count_training(monkeypatch)
    cfg = tiny_cfg()
    world = build_world(cfg)
    r = runner._Repetition(cfg, world, 0)
    scored = []
    replay = runner._Replay(r, lambda point, stack: scored.append((point, stack)))
    nodes = world.membership.nodes
    keys = {i: (nodes[i % len(nodes)], i) for i in range(1, runner._TRAIN_CHUNK + 3)}

    def train(out):
        nid, key = keys[out]
        return (runner._TRAIN, out, 0, r.draw("train", nid, key))

    replay.send([(runner._INIT, 0, None)] + [train(i) for i in range(1, runner._TRAIN_CHUNK)])
    assert batches == [] and list(replay.models) == [0]
    # The chunk's last model trains the queue.
    replay.send([train(runner._TRAIN_CHUNK)])
    assert batches == [runner._TRAIN_CHUNK]
    # A read trains what is left, a queued model dropped before it too,
    # which leaves no values behind.
    last, dropped = runner._TRAIN_CHUNK + 1, runner._TRAIN_CHUNK + 2
    replay.send([train(last), train(dropped), (runner._DROP, dropped), (runner._SCORE, "point", last)])
    assert batches == [runner._TRAIN_CHUNK, 2]
    assert sorted(replay.models) == list(range(dropped))
    model = r.init(None)
    for out in range(1, dropped):
        nid, key = keys[out]
        rng = derive_rng(cfg.protocol_seed, "train", 0, nid, key)
        want = local_train(model, world.spec, r.shards[nid], cfg.trainer, rng)
        assert replay.models[out].age == want.age == cfg.trainer.local_steps
        assert np.array_equal(replay.models[out].values, want.values)
    [(point, stack)] = scored
    assert point == "point" and np.array_equal(stack, [replay.models[last].values])


@functools.cache
def _per_node_repetition():
    cfg = tiny_cfg(shared_init=False)
    return runner._Repetition(cfg, build_world(cfg), 0)


# Model operations on the live models, which the draws name by index
# modulo their count: inits (shared or per node), trainings, runs of
# trainings longer than a chunk, merges, averages, checkpoints and drops.
_PICK = st.integers(0, 99)
LOG_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("init"), st.booleans(), _PICK),
        st.tuples(st.just("train"), _PICK),
        st.tuples(st.just("run"), st.integers(runner._TRAIN_CHUNK + 1, 2 * runner._TRAIN_CHUNK + 5)),
        st.tuples(st.just("merge"), _PICK, _PICK),
        st.tuples(st.just("average"), st.lists(_PICK, min_size=1, max_size=12)),
        st.tuples(st.just("checkpoint"), st.lists(_PICK, min_size=1, max_size=4)),
        st.tuples(st.just("drop"), _PICK),
    ),
    max_size=40,
)


def _log_ops(ops, log, r) -> list:
    """Apply the drawn ``ops`` through ``log``, for repetition ``r``, and
    return the references to the models left live."""
    nodes = r.world.membership.nodes
    live, keys = [], itertools.count()

    def at(i):
        return live[i % len(live)]

    def trained(model):
        key = next(keys)
        return log.train("train", nodes[key % len(nodes)], key, model)

    for step, (op, *args) in enumerate(ops):
        if op == "init" or not live:
            shared, pick = args if op == "init" else (True, 0)
            live.append(log.init(None if shared else nodes[pick % len(nodes)]))
        elif op == "train":
            live.append(trained(at(args[0])))
        elif op == "run":  # no record of the run reads a model it trains
            live.extend([trained(at(i)) for i in range(args[0])])
        elif op == "merge":
            live.append(log.merge(at(args[0]), at(args[1])))
        elif op == "average":
            live.append(log.average([at(i) for i in args[0]]))
        elif op == "checkpoint":
            log.checkpoint(float(step), step, [at(i) for i in args[0]], r.ledger)
        else:  # the last reference goes, so the log records the drop
            del live[args[0] % len(live)]
    log.send()
    return live


class _Recording:
    """An op log's host that keeps every record and hands it on to ``host``."""

    def __init__(self, host):
        self.host, self.records = host, []

    def send(self, batch):
        self.records.extend(batch)
        self.host.send(batch)


def _replayed(r, records):
    """``replay_reference`` of ``records`` for repetition ``r``."""
    return replay_reference(records, r.init, r.world.spec, r.world.dataset.X, r.world.dataset.y, r.cfg.trainer)


@given(ops=LOG_OPS)
@settings(max_examples=200, deadline=None)
def test_the_replay_matches_applying_each_record_at_once(ops):
    r = _per_node_repetition()
    emitted, batches = [], []
    train_steps = runner.train_steps

    def counting(thetas, *args):
        batches.append(len(thetas))
        return train_steps(thetas, *args)

    replay = runner._Replay(r, lambda point, stack: emitted.append((point, stack)))
    host = _Recording(replay)
    with mock.patch.object(runner, "train_steps", counting):
        live = _log_ops(ops, runner._OpLog(r, host), r)
        replay.close(failed=False)
    want, models = _replayed(r, host.records)
    assert [point for point, _ in emitted] == [point for point, _ in want]
    assert all(got.tobytes() == stack.tobytes() for (_, got), (_, stack) in zip(emitted, want))
    # Every training ran once, dropped ones too, in chunks of at most _TRAIN_CHUNK.
    assert sum(batches) == sum(record[0] == runner._TRAIN for record in host.records)
    assert max(batches, default=0) <= runner._TRAIN_CHUNK
    assert set(replay.models) == set(models) == {model.id for model in live}
    for i, want_model in models.items():
        assert replay.models[i].values.tobytes() == want_model.values.tobytes()
        assert replay.models[i].age == want_model.age


@pytest.mark.skipif(not hasattr(os, "fork"), reason="runs replay inline where os.fork is missing")
@given(ops=LOG_OPS)
@settings(max_examples=10, deadline=None)
def test_a_forked_worker_sends_the_stacks_of_applying_each_record_at_once(ops):
    # The same op sequences through a forked worker: its scoring thread
    # receives each checkpoint's stack bit for bit.
    r = _per_node_repetition()
    received = []

    def receiving(point, stack):
        received.append((threading.current_thread().name, point, stack))

    with mock.patch.object(r, "record", receiving):
        worker = runner._Worker(r)
        try:
            host = _Recording(worker)
            _log_ops(ops, runner._OpLog(r, host), r)
            worker.close(failed=False)
        except BaseException:
            worker.close(failed=True)
            raise
    want, _ = _replayed(r, host.records)
    assert [(name, point) for name, point, _ in received] == [("plexsim-scorer", point) for point, _ in want]
    assert all(got.tobytes() == stack.tobytes() for (_, _, got), (_, stack) in zip(received, want))


@pytest.mark.parametrize("algorithm", sorted(QUEUE_CFGS))
def test_a_diverging_queued_run_raises(algorithm):
    cfg = QUEUE_CFGS[algorithm](trainer=TrainerConfig(eta=1e308, batch_size=16, local_steps=2))
    with pytest.raises(ValueError, match="divergence"), np.errstate(all="ignore"):
        run_single(cfg, build_world(cfg), 0)


# ------------------------------------------------------------ replay worker --


# The queue configs, and GL with checkpoints that each fill a block, so that
# scoring interleaves with the simulation.
FORK_CFGS = {**QUEUE_CFGS, "gl-blocks": BLOCK_CFGS["gl"]}


@pytest.mark.parametrize(
    "algorithm, widen",
    [pytest.param(a, True, id=a) for a in sorted(FORK_CFGS)]
    + [pytest.param(a, False, id=f"{a}-default-pipes") for a in sorted(FORK_CFGS)],
)
def test_a_forked_replay_matches_an_inline_one(monkeypatch, algorithm, widen):
    if not widen:  # 64 KB pipes on Linux, so that a side may wait on a full one
        monkeypatch.setattr(runner, "_widen_pipe", lambda fd: None)
    cfg = FORK_CFGS[algorithm]()
    world = build_world(cfg)
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    # Switch threads often, so that scoring interleaves with the simulation.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        forked = run_single(cfg, world, 0)
    finally:
        sys.setswitchinterval(interval)
    assert forks == [os.getpid()]
    _replay_inline(monkeypatch)
    inline = run_single(cfg, world, 0)
    assert len(forked.accuracy) >= 2
    assert forked == inline


@pytest.mark.parametrize("algorithm", sorted(QUEUE_CFGS))
def test_the_worker_runs_one_thread(monkeypatch, algorithm):
    # Counted while the worker waits for records after a checkpoint: it
    # replays them on the thread that reads them.
    if not hasattr(os, "fork") or not Path("/proc/self/task").is_dir():
        pytest.skip("needs os.fork, and /proc to count a process's threads")
    send = runner._Worker.send
    threads = []

    def counting(self, records):
        send(self, records)
        if any(record[0] == runner._SCORE for record in records):
            threads.append(len(list(Path(f"/proc/{self.pid}/task").iterdir())))

    monkeypatch.setattr(runner._Worker, "send", counting)
    cfg = QUEUE_CFGS[algorithm]()
    led = run_single(cfg, build_world(cfg), 0)
    assert threads == [1] * len(led.accuracy)


def _run_leaving_nothing_behind(cfg, world):
    """``run_single`` (its ledger or its exception), checking that it leaves
    no child process and no extra thread behind."""
    threads, children = threading.active_count(), child_pids()
    try:
        return run_single(cfg, world, 0)
    except Exception as exc:
        return exc
    finally:
        assert threading.active_count() == threads
        assert child_pids() == children


@pytest.mark.parametrize("algorithm", sorted(QUEUE_CFGS))
def test_a_run_ends_its_worker(algorithm):
    cfg = QUEUE_CFGS[algorithm]()
    led = _run_leaving_nothing_behind(cfg, build_world(cfg))
    assert led.accuracy


@pytest.mark.parametrize("algorithm", sorted(QUEUE_CFGS))
def test_a_worker_error_is_raised_as_it_would_be_inline(monkeypatch, algorithm):
    cfg = QUEUE_CFGS[algorithm](trainer=TrainerConfig(eta=1e308, batch_size=16, local_steps=2))
    world = build_world(cfg)
    with np.errstate(all="ignore"):
        forked = _run_leaving_nothing_behind(cfg, world)
        _replay_inline(monkeypatch)
        inline = _run_leaving_nothing_behind(cfg, world)
    assert type(forked) is type(inline) is ValueError
    assert str(forked) == str(inline)


@pytest.mark.parametrize("algorithm", sorted(QUEUE_CFGS))
def test_a_scoring_error_reaches_the_caller_and_ends_the_worker(monkeypatch, algorithm):
    # Scoring fails at its first call: D-PSGD's on the thread that reads
    # the worker's stacks, once its checkpoints fill a block; the others'
    # after the worker has ended, since their checkpoints fill none. Either
    # way the error ends the run as the worker's own would.
    calls = []

    def failing(models, spec, split):
        calls.append(len(models))
        raise RuntimeError("scoring failed")

    monkeypatch.setattr(runner, "evaluate_many", failing)
    cfg = QUEUE_CFGS[algorithm]()
    err = _run_leaving_nothing_behind(cfg, build_world(cfg))
    assert isinstance(err, RuntimeError) and str(err) == "scoring failed"
    assert len(calls) == 1


def test_a_scoring_error_in_mid_run_reaches_the_caller_and_ends_the_worker(monkeypatch):
    # Each checkpoint of this GL run fills a block, so the scoring thread
    # scores the first one, and fails, while the worker still waits for
    # records. The run waits at that checkpoint until it has.
    if not hasattr(os, "fork"):
        pytest.skip("runs replay inline where os.fork is missing")
    workers, failures = [], []
    scored = threading.Event()
    init, send = runner._Worker.__init__, runner._Worker.send

    def keeping(self, r):
        init(self, r)
        workers.append(self)

    def waiting(self, records):
        send(self, records)
        if any(record[0] == runner._SCORE for record in records):
            scored.wait(timeout=60)

    def failing(models, spec, split):
        (worker,) = workers
        failures.append((threading.current_thread().name, worker._ops.closed, len(models)))
        scored.set()
        raise RuntimeError("scoring failed")

    monkeypatch.setattr(runner._Worker, "__init__", keeping)
    monkeypatch.setattr(runner._Worker, "send", waiting)
    monkeypatch.setattr(runner, "evaluate_many", failing)
    cfg = BLOCK_CFGS["gl"]()
    err = _run_leaving_nothing_behind(cfg, build_world(cfg))
    assert isinstance(err, RuntimeError) and str(err) == "scoring failed"
    assert failures == [("plexsim-scorer", False, cfg.n)]


@pytest.mark.parametrize("algorithm", ["plexus", "gl"])
def test_a_simulation_error_stops_the_worker(monkeypatch, algorithm):
    solves = []

    def failing(flows, up, down):
        solves.append(len(flows))
        if len(solves) == 30:
            raise simnet.SimulationError("rates failed")
        return maxmin_rates(flows, up, down)

    monkeypatch.setattr(simnet, "maxmin_rates", failing)
    cfg = QUEUE_CFGS[algorithm]()
    err = _run_leaving_nothing_behind(cfg, build_world(cfg))
    assert isinstance(err, simnet.SimulationError) and str(err) == "rates failed"


def test_a_killed_worker_makes_the_run_raise(monkeypatch):
    # The worker is killed while it waits for the batch that holds the
    # first checkpoint, so it dies between two reads and never mid-stack.
    if not hasattr(os, "fork"):
        pytest.skip("runs replay inline where os.fork is missing")
    send = runner._Worker.send
    killed = []

    def killing(self, records):
        if not killed and any(record[0] == runner._SCORE for record in records):
            os.kill(self.pid, signal.SIGKILL)
            killed.append(self.pid)
        return send(self, records)

    monkeypatch.setattr(runner._Worker, "send", killing)
    cfg = QUEUE_CFGS["gl"]()
    err = _run_leaving_nothing_behind(cfg, build_world(cfg))
    assert killed
    assert isinstance(err, RuntimeError) and str(err) == "the replay worker was killed by SIGKILL"


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


needs_fork_and_proc = pytest.mark.skipif(
    not hasattr(os, "fork") or not Path("/proc/self/fd").is_dir() or child_pids() is None,
    reason="needs os.fork, and /proc to count child processes and open files",
)


@needs_fork_and_proc
def test_a_worker_killed_mid_stack_makes_the_run_raise(monkeypatch):
    # The worker dies halfway through writing a stack, as it would if the
    # OOM killer picked it, so the scoring thread reads a truncated pickle.
    def dying(r, ops_fd, results_fd):
        msg = pickle.dumps(("stack", (0.0, 0, 0, 0.0), np.zeros((4, r.world.spec.dim))))
        os.write(results_fd, msg[: len(msg) // 2])
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(runner, "_serve", dying)
    cfg = QUEUE_CFGS["gl"]()
    world = build_world(cfg)
    fds = _open_fds()
    err = _run_leaving_nothing_behind(cfg, world)
    assert isinstance(err, RuntimeError) and str(err) == "the replay worker was killed by SIGKILL"
    assert _open_fds() == fds


@functools.cache
def _fault_points(algorithm):
    """The config and world of ``QUEUE_CFGS[algorithm]``, and how many
    times its forked run calls each function that the fault test below
    makes fail."""
    cfg = QUEUE_CFGS[algorithm]()
    world = build_world(cfg)
    calls = dict.fromkeys(["rates", "scoring", "kill"], 0)

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)

        return counted

    with mock.patch.object(simnet, "maxmin_rates", counting("rates", simnet.maxmin_rates)), \
            mock.patch.object(runner, "evaluate_many", counting("scoring", runner.evaluate_many)), \
            mock.patch.object(runner._Worker, "send", counting("kill", runner._Worker.send)):
        run_single(cfg, world, 0)
    return cfg, world, calls


# How a forked run is made to end early, and what it then raises.
FAULTS = {
    "rates": (simnet.SimulationError, "rates failed"),
    "scoring": (RuntimeError, "scoring failed"),
    "kill": (RuntimeError, "the replay worker was killed by SIGKILL"),
    "interrupt": (KeyboardInterrupt, "interrupted"),
}


@st.composite
def _faults(draw):
    """An algorithm, a fault, and the call at which it strikes."""
    fault = draw(st.sampled_from(sorted(FAULTS)))
    algorithm = draw(st.sampled_from(["gl", "plexus"] if fault == "rates" else sorted(QUEUE_CFGS)))
    calls = _fault_points(algorithm)[2]
    return algorithm, fault, draw(st.integers(1, calls.get(fault, 1)))


@needs_fork_and_proc
@given(case=_faults())
@settings(max_examples=25, deadline=None)
def test_a_forked_run_ended_at_any_point_raises_and_leaves_nothing_behind(case):
    # A rate solve or a scoring fails at its j-th call, the worker is killed
    # before the j-th batch of records, or the simulating thread is
    # interrupted while it waits for the scoring thread at the end.
    algorithm, fault, j = case
    cfg, world, _ = _fault_points(algorithm)
    kind, message = FAULTS[fault]
    send, join = runner._Worker.send, threading.Thread.join
    calls = []

    def failing(f):
        def fails(*args):
            calls.append(args)
            if len(calls) == j:
                raise kind(message)
            return f(*args)

        return fails

    def killing(self, records):
        calls.append(records)
        if len(calls) == j:
            os.kill(self.pid, signal.SIGKILL)
        return send(self, records)

    def interrupting(self, *args, **kw):
        if self.name == "plexsim-scorer" and not calls:
            calls.append(self)
            raise kind(message)
        return join(self, *args, **kw)

    target, name, patched = {
        "rates": (simnet, "maxmin_rates", failing(simnet.maxmin_rates)),
        "scoring": (runner, "evaluate_many", failing(runner.evaluate_many)),
        "kill": (runner._Worker, "send", killing),
        "interrupt": (threading.Thread, "join", interrupting),
    }[fault]
    children, fds = child_pids(), _open_fds()
    with mock.patch.object(target, name, patched):
        try:
            run_single(cfg, world, 0)
            err = None
        except BaseException as exc:
            err = exc
    assert type(err) is kind and str(err) == message
    assert child_pids() == children
    assert not [t.name for t in threading.enumerate() if t.name.startswith("plexsim-")]
    assert _open_fds() == fds


# dpsgd-desk for 8 rounds through default pipes, scored every 10 virtual s,
# with scoring failing at its 2nd call: each of its 100-model stacks (2 MB)
# and each round's records (80 KB) overfills a 64 KB pipe. It prints the
# error the run raised, then whether a child process is left.
STALLED_SCORER = """
import os, sys
from dataclasses import replace
from plexsim import runner
from plexsim.config import load_config

cfg = load_config(sys.argv[1])
cfg = replace(cfg, stop=replace(cfg.stop, max_rounds=8), eval=replace(cfg.eval, every_seconds=10.0))
evaluate_many, calls = runner.evaluate_many, []

def failing(*args):
    calls.append(args)
    if len(calls) == 2:
        raise RuntimeError("scoring failed")
    return evaluate_many(*args)

runner.evaluate_many = failing
runner._widen_pipe = lambda fd: None
try:
    runner.run_single(cfg, runner.build_world(cfg), 0)
except RuntimeError as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left")
except ChildProcessError:
    print("no child is left")
"""


def test_a_scoring_error_ends_a_run_that_waits_on_full_pipes():
    # Once scoring fails, nothing drains the worker's stacks, so the worker
    # waits to write one, and the simulation to write records. Killing the
    # worker ends both waits. Run apart, so that a hang fails the test
    # instead of the suite.
    if not hasattr(os, "fork"):
        pytest.skip("runs replay inline where os.fork is missing")
    src = Path(runner.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", STALLED_SCORER, str(CONFIGS / "dpsgd-desk.yaml")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["scoring failed", "no child is left"]


def test_a_failed_fork_closes_every_pipe_end(monkeypatch):
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd to count open files in")
    cfg = QUEUE_CFGS["gl"]()
    world = build_world(cfg)
    opened = []
    pipe = os.pipe

    def recording_pipe():
        ends = pipe()
        opened.extend(ends)
        return ends

    def failing_fork():
        raise OSError("fork failed")

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    before = len(list(fds.iterdir()))
    with pytest.raises(OSError, match="fork failed"):
        run_single(cfg, world, 0)
    assert len(opened) == 4
    assert len(list(fds.iterdir())) == before
    assert not any((fds / str(fd)).exists() for fd in opened)


def test_a_failed_second_pipe_closes_the_first(monkeypatch):
    fds = Path("/proc/self/fd")
    if not hasattr(os, "fork") or not fds.is_dir():
        pytest.skip("needs os.fork, and /proc/self/fd to count open files in")
    cfg = QUEUE_CFGS["gl"]()
    world = build_world(cfg)
    opened = []
    pipe = os.pipe

    def failing_pipe():
        if opened:
            raise OSError(errno.EMFILE, "Too many open files")
        ends = pipe()
        opened.extend(ends)
        return ends

    monkeypatch.setattr(os, "pipe", failing_pipe)
    before = len(list(fds.iterdir()))
    with pytest.raises(OSError, match="Too many open files"):
        run_single(cfg, world, 0)
    assert len(opened) == 2
    assert len(list(fds.iterdir())) == before
    assert not any((fds / str(fd)).exists() for fd in opened)


def test_a_scorer_that_fails_to_start_ends_its_worker(monkeypatch):
    # The worker is forked before its scoring thread starts; if the thread
    # cannot start, the run raises and leaves no worker and no pipe end.
    fds = Path("/proc/self/fd")
    if not hasattr(os, "fork") or not fds.is_dir():
        pytest.skip("needs os.fork, and /proc/self/fd to count open files in")
    start = threading.Thread.start

    def failing_start(self):
        if self.name == "plexsim-scorer":
            raise RuntimeError("can't start new thread")
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", failing_start)
    cfg = QUEUE_CFGS["plexus"]()
    world = build_world(cfg)
    before = len(list(fds.iterdir()))
    err = _run_leaving_nothing_behind(cfg, world)
    assert isinstance(err, RuntimeError) and str(err) == "can't start new thread"
    assert len(list(fds.iterdir())) == before


def test_the_stack_pipe_holds_a_megabyte_where_linux_allows():
    fcntl = pytest.importorskip("fcntl")
    limit = Path("/proc/sys/fs/pipe-max-size")
    if not hasattr(fcntl, "F_GETPIPE_SZ") or not limit.exists() or int(limit.read_text()) < 1 << 20:
        pytest.skip("pipes cannot hold 1 MB here")
    read, write = os.pipe()
    try:
        runner._widen_pipe(write)
        assert fcntl.fcntl(write, fcntl.F_GETPIPE_SZ) == 1 << 20
    finally:
        os.close(read)
        os.close(write)


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or not Path("/proc/thread-self").exists(),
    reason="needs os.fork, CPU affinity and /proc/thread-self",
)


def _worker_mask(monkeypatch, tmp_path, cpu):
    """The CPU mask of a small GL run's worker as it starts to serve, with
    the probe reporting that the simulating thread runs on ``cpu``."""
    monkeypatch.setattr(runner, "_current_cpu", lambda: cpu)
    serve, out = runner._serve, tmp_path / "mask"

    def reporting(r, ops_fd, results_fd):
        out.write_text(" ".join(str(c) for c in sorted(os.sched_getaffinity(0))))
        serve(r, ops_fd, results_fd)

    monkeypatch.setattr(runner, "_serve", reporting)
    cfg = QUEUE_CFGS["gl"]()
    assert run_single(cfg, build_world(cfg), 0).accuracy
    return {int(c) for c in out.read_text().split()}


@needs_affinity
def test_the_worker_leaves_the_simulating_threads_cpu(monkeypatch, tmp_path):
    mask = os.sched_getaffinity(0)
    assert runner._current_cpu() in mask
    if len(mask) < 2:
        pytest.skip("needs two CPUs")
    cpu = max(mask)
    assert _worker_mask(monkeypatch, tmp_path, cpu) == mask - {cpu}
    assert os.sched_getaffinity(0) == mask  # the calling thread keeps its own


@needs_affinity
def test_a_worker_with_one_cpu_keeps_it(monkeypatch, tmp_path):
    mask = os.sched_getaffinity(0)
    cpu = min(mask)
    os.sched_setaffinity(0, {cpu})
    try:
        assert _worker_mask(monkeypatch, tmp_path, cpu) == {cpu}
    finally:
        os.sched_setaffinity(0, mask)


# Work budgets: the rate solves, the flows they solve and the ``train_steps``
# calls of small runs, replayed inline so that the calls are counted
# here. A change that lowers one updates it here; a change that
# raises one must say why.
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
    # Rounds of 12 trainers: a chunk of 10, and 2 more trained when the
    # server averages them. FL trains no late model, so all 12 count.
    "fl-small": (
        lambda: replace(
            load_config(CONFIGS / "plexus-small.yaml"), algorithm="fl", sample_size=12, success_fraction=1.0
        ),
        {"maxmin_calls": 0, "flows_solved": 0, "train_calls": 40, "models_trained": 240},
    ),
    # 20 rounds of 20 trainers, two full chunks each; D-PSGD runs no engine.
    "dpsgd-small": (
        lambda: replace(
            load_config(CONFIGS / "plexus-small.yaml"),
            algorithm="dpsgd", topology=TopologyConfig(kind="regular", degree=4, seed=1),
        ),
        {"maxmin_calls": 0, "flows_solved": 0, "train_calls": 40, "models_trained": 400},
    ),
    # fl-small and dpsgd-small with room for 1000 rounds, cut by a 600 s
    # budget: the round that would cross it is planned but never trained.
    "fl-cut": (
        lambda: replace(
            load_config(CONFIGS / "plexus-small.yaml"), algorithm="fl", sample_size=12, success_fraction=1.0,
            stop=StopConfig(max_rounds=1000, max_virtual_s=600.0),
        ),
        {"maxmin_calls": 0, "flows_solved": 0, "train_calls": 614, "models_trained": 3684},
    ),
    "dpsgd-cut": (
        lambda: replace(
            load_config(CONFIGS / "plexus-small.yaml"),
            algorithm="dpsgd", topology=TopologyConfig(kind="regular", degree=4, seed=1),
            stop=StopConfig(max_rounds=1000, max_virtual_s=600.0),
        ),
        {"maxmin_calls": 0, "flows_solved": 0, "train_calls": 476, "models_trained": 4760},
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
    _replay_inline(monkeypatch)
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

    theta0 = runner._Repetition(cfg, world, 0).init(None)
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


def test_run_fl_draws_distinct_participants_that_cover_every_node(monkeypatch):
    # The server draws each round's participants uniformly without
    # replacement, so a round names no node twice, and over the rounds
    # every node takes part.
    drawn = []
    plan = runner.fl_round

    def recording(participants, *args, **kw):
        drawn.append(participants)
        return plan(participants, *args, **kw)

    monkeypatch.setattr(runner, "fl_round", recording)
    cfg = tiny_cfg(algorithm="fl", n=20, sample_size=5, stop=StopConfig(max_rounds=40, max_virtual_s=1e7))
    world = build_world(cfg)
    led = run_single(cfg, world, 0)
    assert len(drawn) == len(led.rounds) == 40
    assert all(len(set(participants)) == len(participants) == 5 for participants in drawn)
    assert set().union(*drawn) == set(world.membership.nodes)


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


PLAN_CFGS = {
    # A regular graph is one table: one plan for all 20 rounds.
    "dpsgd-small": (lambda: WORK_BUDGETS["dpsgd-small"][0](), 1),
    # One-peer on 12 nodes cycles through ceil(log2 12) = 4 tables in 10 rounds.
    "one-peer": (
        lambda: tiny_cfg(
            algorithm="dpsgd", n=12, topology=TopologyConfig(kind="one_peer_exp"),
            stop=StopConfig(max_rounds=10, max_virtual_s=1e7),
        ),
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(PLAN_CFGS))
def test_dpsgd_plans_each_neighbour_table_once(monkeypatch, name):
    make_cfg, want_plans = PLAN_CFGS[name]
    planned, trained = [], []

    def planning(ins, *args, **kwargs):
        planned.append((len(trained), ins.tobytes()))
        return dpsgd_round(ins, *args, **kwargs)

    train = runner._OpLog.train

    def training(log, *args):
        trained.append(args)
        return train(log, *args)

    monkeypatch.setattr(runner, "dpsgd_round", planning)
    monkeypatch.setattr(runner._OpLog, "train", training)
    cfg = make_cfg()
    world = build_world(cfg, CONFIGS)
    led = run_single(cfg, world, 0)
    if cfg.topology.kind == "regular":
        tables = make_regular_topology(cfg.n, cfg.topology.degree, cfg.topology.seed)
    else:
        tables = one_peer_topology(cfg.n)
    # Every table is planned once, in order, before round 1 trains a model.
    assert planned == [(0, table.tobytes()) for table in tables]
    assert len(tables) == len(set(planned)) == want_plans < len(led.rounds) == cfg.stop.max_rounds
    assert len(trained) == cfg.n * len(led.rounds)
    # Each round costs what the per-node reference gives for its table.
    profiles = [world.membership.profile(nid) for nid in world.membership.nodes]
    compute_s = runner._Repetition(cfg, world, 0).compute_s
    nodes = dict(
        uplink_bps=[p.uplink_bps for p in profiles],
        downlink_bps=[p.downlink_bps for p in profiles],
        city_index=[p.city_index for p in profiles],
        compute_seconds=[compute_s[nid] for nid in world.membership.nodes],
    )
    models = [ModelParameters(np.zeros(world.spec.dim))] * cfg.n
    bytes_total, train_seconds_total = 0, 0.0
    for rec in led.rounds:
        if cfg.topology.kind == "regular":
            table = tables[0]
        else:
            table = one_peer_reference(cfg.n, rec.round)
        _, duration, nbytes, train_seconds = dpsgd_round_reference(
            models, table, world.latency, train_fn=lambda i, model: model, **nodes
        )
        assert rec.duration_s == duration
        bytes_total += nbytes
        train_seconds_total += train_seconds
    assert (led.bytes_total, led.train_seconds_total) == (bytes_total, train_seconds_total)


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
