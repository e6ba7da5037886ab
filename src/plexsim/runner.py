"""Experiment orchestration: build the world (membership, traces, dataset),
run one algorithm per repetition, and write metrics plus a cross-seed
summary.

Seeding discipline: every random stream is derived from a named key tuple
(root seed, purpose, repetition, node, round as applicable), so any two runs
of the same config are bit-identical and streams never alias across
algorithms or repetitions.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import signal
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .baselines import GossipNode, dpsgd_round, fl_round, gl_merge, make_regular_topology, one_peer_topology
from .config import ExperimentConfig, resolve_trace_path
from .core import Membership, ModelParameters, SetTimer, average_models, derive_rng
from .learning import (
    DataPartition,
    Dataset,
    EvalSplit,
    ModelSpec,
    draw_batches,
    evaluate_many,
    models_per_block,
    partition,
    synth_dataset,
    train_steps,
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


def _should_eval(cfg: ExperimentConfig, k: int) -> bool:
    return k % cfg.eval.every_rounds == 0 or k == cfg.stop.max_rounds


class _Repetition:
    """What every algorithm shares within one repetition: the shards and
    compute seconds of each node, the training and init streams, the test
    split and its scoring, and the ledger. Each algorithm's run function
    only moves models."""

    def __init__(self, cfg: ExperimentConfig, world: World, rep: int):
        self.cfg, self.world, self.rep = cfg, world, rep
        nodes = world.membership.nodes
        self.shards = dict(zip(nodes, deal_shards(cfg, world, rep)))
        self.test = EvalSplit(world.dataset.X, world.dataset.y, world.dataset.test)
        steps = cfg.trainer.local_steps
        self.compute_s = {nid: compute_time(world.membership.profile(nid), steps) for nid in nodes}
        self.ledger = MetricsLedger()
        self._unscored: list[tuple[tuple, Sequence[np.ndarray]]] = []
        self._block = models_per_block(world.spec)

    def draw(self, stream: str, nid: str, key: int) -> np.ndarray:
        """The batch rows of node ``nid``'s training ``key`` on ``stream``."""
        rng = derive_rng(self.cfg.protocol_seed, stream, self.rep, nid, key)
        return draw_batches(self.shards[nid], self.cfg.trainer, rng)

    def init(self, nid: Optional[str]) -> ModelParameters:
        """Node ``nid``'s initial model: the repetition's shared one when
        ``shared_init`` is set or ``nid`` is None."""
        if self.cfg.shared_init or nid is None:
            return self.world.spec.init_model(derive_rng(self.cfg.init_seed, "init", self.rep))
        return self.world.spec.init_model(derive_rng(self.cfg.init_seed, "init", self.rep, nid))

    def record(self, point: tuple, thetas: Sequence[np.ndarray]) -> None:
        """Queue the parameter vectors ``thetas`` of the checkpoint at
        ``point``: (time, round, byte total, training-second total). Once the
        queue holds a full ``evaluate_many`` block of models, score it."""
        self._unscored.append((point, thetas))
        if sum(len(thetas) for _, thetas in self._unscored) >= self._block:
            self.score()

    def score(self) -> None:
        """Score every queued checkpoint with one ``evaluate_many`` call and
        append the mean and std accuracy of each, in order. Scoring is exact
        per model, so each row is the one its checkpoint gets scored alone,
        and one-model checkpoints (Plexus, FL) wait for a block instead of
        taking the interpreter lock from the simulation one by one. Measured
        alone on plexus-n1000 (10 alternating 4 s harness pairs, 2 cores):
        ``run_s`` 0.109 s, against 0.145 s when each checkpoint is scored on
        arrival, for 1.2 MB more peak RSS."""
        queued, self._unscored = self._unscored, []
        if not queued:
            return
        accs = evaluate_many([theta for _, thetas in queued for theta in thetas], self.world.spec, self.test)
        first = 0
        for (at, round_no, bytes_total, train_seconds_total), thetas in queued:
            mine = accs[first : first + len(thetas)]
            first += len(thetas)
            mean, std = float(np.mean(mine)), float(np.std(mine))
            self.ledger.accuracy.append(AccuracyPoint(at, round_no, mean, std, bytes_total, train_seconds_total))


# ----------------------------------------------------------------- op log --
#
# Every run splits in two. The simulating process runs the engine and the
# nodes (or FL's and D-PSGD's rounds), and draws each training's batch
# rows; its models are ``_ModelRef``s, which carry no values. Each model
# operation appends one record to an ``_OpLog``, and a ``_Replay`` applies
# the records in order with the model values: the training queue,
# ``gl_merge``, ``average_models`` and every ``ModelParameters`` check.
# Where ``os.fork`` exists the replay runs in a forked worker process
# (``_Worker``), so the simulation never waits on a model; elsewhere the
# log sends its records to a ``_Replay`` in this process. Either way a
# checkpoint's (models, dim) stack is scored in this process.

_INIT, _TRAIN, _MERGE, _AVERAGE, _SCORE, _DROP = range(6)

# Records per message to the worker. A larger batch costs fewer writes and
# a longer wait before the worker starts on it. Neither cost shows at these
# sizes: with 64, 256 and 1024 records, run_single took 1.299, 1.208 and
# 1.375 s on gl-n500 and 1.813, 1.859 and 1.750 s on dpsgd-desk (medians of
# 16 alternating fresh processes per value, one BLAS thread, 2-core
# machine), while the quartiles of each value's runs lay 0.30-0.52 s apart.
_BATCH_RECORDS = 256

# Models that one stacked SGD step trains together: the replay trains its
# queue when it holds this many. On the dpsgd-desk shapes (batch 32, 256
# inputs, 10 classes, 3 steps) a model took the least CPU time in chunks of
# 10: 143 us, against 150 in chunks of 5, 165 in 20, 175 in 50 and 204 in
# 100. A chunk's buffers, and peak memory with them, grow with its size; 10
# models gather 655 KB of rows a step.
_TRAIN_CHUNK = 10


class _ModelRef:
    """A model of a logged run as the simulating process holds it: its
    ``dim``, which sizes it on the wire, and the ``id`` under which the
    replay holds its values. A node, a message in flight or a pending
    compute may hold it; when the last reference goes, the log tells the
    replay to drop the values."""

    __slots__ = ("id", "dim", "_log")

    def __init__(self, log: _OpLog, dim: int):
        self.id, self.dim, self._log = next(log.ids), dim, log

    def __del__(self) -> None:
        self._log.records.append((_DROP, self.id))


class _OpLog:
    """The model operations of one run, logged for a host that replays
    them. Each returns a ``_ModelRef`` of the model that the operation
    gives; the nodes take them as their ``init_model``,
    ``train_fn``, ``merge_fn`` and ``average_fn``, and FL's and D-PSGD's
    round loops call them once a round's plan fits the budget."""

    def __init__(self, r: _Repetition, host: _Worker | _Replay):
        self.r, self.host = r, host
        self.ids = itertools.count()
        self.records: list[tuple] = []

    def _new(self, dim: int, kind: int, *args) -> _ModelRef:
        ref = _ModelRef(self, dim)
        self.records.append((kind, ref.id, *args))
        if len(self.records) >= _BATCH_RECORDS:
            self.send()
        return ref

    def init(self, nid: Optional[str]) -> _ModelRef:
        return self._new(self.r.world.spec.dim, _INIT, nid)

    def train(self, stream: str, nid: str, key: int, model: _ModelRef) -> _ModelRef:
        return self._new(model.dim, _TRAIN, model.id, self.r.draw(stream, nid, key))

    def merge(self, left: _ModelRef, right: _ModelRef) -> _ModelRef:
        return self._new(left.dim, _MERGE, left.id, right.id)

    def average(self, models: list[_ModelRef]) -> _ModelRef:
        return self._new(models[0].dim, _AVERAGE, *[m.id for m in models])

    def checkpoint(
        self, at: float, round_no: int, models: list[_ModelRef], totals: MetricsLedger | Engine
    ) -> None:
        """Score ``models`` as they are now, with the byte and
        training-second totals ``totals`` (the ledger or the engine) hold."""
        point = (at, round_no, totals.bytes_total, totals.train_seconds_total)
        self.records.append((_SCORE, point, *[m.id for m in models]))
        self.send()

    def send(self) -> None:
        records, self.records = self.records, []
        self.host.send(records)


class _Replay:
    """The model values of a run: it applies an ``_OpLog``'s records in
    order and hands each checkpoint's stack to ``emit(point, stack)``. It is
    the log's host where ``os.fork`` is missing, and the tests' reference.

    A training joins a queue, which ``flush`` trains with one
    ``train_steps`` call: when it holds ``_TRAIN_CHUNK`` models, before a
    record reads a queued model (a training of it, a merge, an average or a
    checkpoint) and at the end of the log. Each model trains on its own
    rows, so it comes out bit for bit as if it trained alone. A queued model
    that is dropped still trains, so that a diverging run raises, but its
    values are not kept."""

    def __init__(self, r: _Repetition, emit: Callable[[tuple, np.ndarray], None]):
        self.r, self.emit = r, emit
        self.models: dict[int, ModelParameters] = {}
        self._queue: list[tuple[int, ModelParameters, np.ndarray]] = []
        self._queued: set[int] = set()  # the ids in the queue, less the dropped ones

    def send(self, records: list[tuple]) -> None:
        models, queued = self.models, self._queued
        for kind, out, *args in records:
            if kind == _DROP:
                if out in queued:
                    queued.remove(out)
                else:
                    del models[out]
                continue
            if kind == _INIT:
                models[out] = self.r.init(*args)
                continue
            if not queued.isdisjoint(args[:1] if kind == _TRAIN else args):
                self.flush()
            if kind == _TRAIN:
                model, rows = args
                self._queue.append((out, models[model], rows))
                queued.add(out)
                if len(self._queue) == _TRAIN_CHUNK:
                    self.flush()
            elif kind == _MERGE:
                models[out] = gl_merge(models[args[0]], models[args[1]])
            elif kind == _AVERAGE:
                models[out] = average_models([models[i] for i in args])
            else:  # _SCORE: ``out`` is the checkpoint's point
                self.emit(out, np.stack([models[i].values for i in args]))

    def flush(self) -> None:
        """Train every queued model with one ``train_steps`` call."""
        if not self._queue:
            return
        cfg, world = self.r.cfg, self.r.world
        outs, inputs, rows = zip(*self._queue)
        self._queue = []
        values = [model.values for model in inputs]
        trained = train_steps(values, world.spec, world.dataset.X, world.dataset.y, cfg.trainer, rows)
        for out, model, row in zip(outs, inputs, trained):
            if out in self._queued:
                self.models[out] = ModelParameters(row, model.age + cfg.trainer.local_steps)
        self._queued.clear()

    def close(self, failed: bool) -> None:
        """End the log: train what is still queued, unless the run failed."""
        if not failed:
            self.flush()


class _Worker:
    """A ``_Replay`` in a forked worker process. The simulating process
    writes batches of records to one pipe; the worker replays each batch as
    it reads it, on its one thread, and writes each checkpoint's stack and
    then its outcome, ``("done",)`` or ``("error", exc)``, to the other. A
    thread of the simulating process reads that pipe and scores each stack,
    so the worker's writes always drain, and the simulating process waits
    on a full op pipe only while the worker replays. When scoring fails, or
    a read does, that thread kills the worker, so a write to the op pipe
    fails instead of waiting for ever. Only the simulating thread reaps the
    worker, in ``close`` and after it has joined that thread, so no signal
    can reach a reaped pid.

    The worker leaves the CPU that the simulating thread runs on when it is
    forked, where it can (see ``_leave_cpu``).

    Build it before the run starts any thread: ``fork`` copies only the
    calling thread. The worker always leaves through ``os._exit``."""

    def __init__(self, r: _Repetition):
        self.r = r
        cpu = _current_cpu()
        fds: list[int] = []  # what to close if the worker cannot start
        try:
            fds += os.pipe()
            fds += os.pipe()
            ops_read, ops_write, results_read, results_write = fds
            _widen_pipe(ops_write)
            _widen_pipe(results_write)
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(ops_write)
                os.close(results_read)
                _leave_cpu(cpu)
                _serve(r, ops_read, results_write)
                status = 0
            finally:
                os._exit(status)
        os.close(ops_read)
        os.close(results_write)
        self._ops = open(ops_write, "wb")
        self._results = open(results_read, "rb")
        self._outcome: Optional[tuple] = None  # the worker's, or ("error", exc) of scoring
        self._status: Optional[int] = None  # the wait status, once reaped
        self._reader = threading.Thread(target=self._read_results, name="plexsim-scorer")
        try:
            self._reader.start()
        except BaseException:
            os.kill(self.pid, signal.SIGKILL)
            self._ops.close()
            self._results.close()
            os.waitpid(self.pid, 0)
            raise

    def _read_results(self) -> None:
        """Score each stack the worker sends, in order, until its outcome."""
        try:
            while (msg := pickle.load(self._results))[0] == "stack":
                self.r.record(*msg[1:])
                del msg  # before the next stack loads
            self._outcome = msg
        except (EOFError, pickle.UnpicklingError):  # the worker ended without an outcome
            os.kill(self.pid, signal.SIGKILL)  # if it lives on; an ended one keeps its status
        except Exception as exc:  # scoring failed: the run raises it
            self._outcome = ("error", exc)
            os.kill(self.pid, signal.SIGKILL)  # no one reads its stacks now

    def send(self, records: list[tuple]) -> None:
        try:
            pickle.dump(records, self._ops, protocol=pickle.HIGHEST_PROTOCOL)
            self._ops.flush()
        except BrokenPipeError:  # the worker ended: it failed, or scoring did
            self.close(failed=False)
            raise

    def close(self, failed: bool) -> None:
        """Kill the worker if the run ``failed``, close the op pipe, join the
        scoring thread, close the stack pipe and reap the worker. Unless the
        run failed, raise the worker's error, or a scoring error, or say how
        a worker that sent no outcome ended. Once the worker is reaped, a
        call does nothing; one that an exception cut short leaves the rest."""
        if self._status is not None:
            return
        if failed:
            os.kill(self.pid, signal.SIGKILL)
        try:
            self._ops.close()
        except BrokenPipeError:  # records the worker will never read
            pass
        self._reader.join()
        self._results.close()
        _, self._status = os.waitpid(self.pid, 0)
        if failed or self._outcome == ("done",):
            return
        if self._outcome is None:
            raise RuntimeError(f"the replay worker {_ended(self._status)}")
        raise self._outcome[1]


def _ended(status: int) -> str:
    """How a process that ended with wait status ``status`` ended."""
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        return f"exited with code {code} without a word"
    try:
        return f"was killed by {signal.Signals(-code).name}"
    except ValueError:  # a signal with no name here
        return f"was killed by signal {-code}"


def _widen_pipe(fd: int) -> None:
    """Let the pipe that ``fd`` writes hold 1 MB where Linux allows it (the
    most an unprivileged process may ask by default). The parent's reading
    thread waits for the interpreter lock once per read, so on gl-n500 the
    worker spent a median of 0.18 s a run writing its two 10 MB stacks
    through 64 KB pipes, and 0.04 s through 1 MB ones. The op pipe has no
    reading thread: through 64 KB, gl-n500's 4.1 MB of records left the
    parent waiting on the worker, and ``run_single`` took a median of
    1.07 s against 0.95 s through 1 MB (5 runs each, 2-core machine).
    Elsewhere the pipe keeps its size."""
    import fcntl  # POSIX, as os.fork is

    set_size = getattr(fcntl, "F_SETPIPE_SZ", None)
    if set_size is None:
        return
    try:
        fcntl.fcntl(fd, set_size, 1 << 20)
    except OSError:  # a lower limit set for this machine
        pass


def _current_cpu() -> Optional[int]:
    """The CPU that the calling thread runs on: field 39 of
    ``/proc/thread-self/stat``, counted after the command name's closing
    parenthesis. None where that file is missing."""
    try:
        with open("/proc/thread-self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _leave_cpu(cpu: Optional[int]) -> None:
    """Take the calling process (the forked worker, one thread) off ``cpu``,
    if another CPU of its mask is left. A pipe write wakes the idle worker,
    and Linux places a woken reader on the writer's CPU, where it preempted
    the simulating thread for as long as it replayed: on plexus-n1000 a
    run's 21 op writes took 20-48 ms of wall time in all, against 3-4 ms in
    most runs with the worker off that CPU, and the median ``run_single``
    fell from 0.165 to 0.097 s (2-core machine, 10 runs each). Elsewhere,
    or if a call fails, the worker keeps its mask."""
    if cpu is None or not hasattr(os, "sched_getaffinity") or not hasattr(os, "sched_setaffinity"):
        return
    try:
        rest = os.sched_getaffinity(0) - {cpu}
        if rest:
            os.sched_setaffinity(0, rest)
    except OSError:
        pass


def _serve(r: _Repetition, ops_fd: int, results_fd: int) -> None:
    """The worker's main: replay each batch of records from ``ops_fd`` as it
    arrives, until the simulating process closes the pipe, then train what
    is still queued; send each checkpoint's stack, then the outcome, to
    ``results_fd``."""
    with open(ops_fd, "rb") as ops, open(results_fd, "wb") as out:

        def write(*msg) -> None:
            pickle.dump(msg, out, protocol=pickle.HIGHEST_PROTOCOL)
            out.flush()

        try:
            replay = _Replay(r, partial(write, "stack"))
            while True:
                try:
                    records = pickle.load(ops)
                except EOFError:  # the simulation is done
                    break
                replay.send(records)
            replay.close(failed=False)
            outcome: tuple = ("done",)
        except Exception as exc:
            outcome = ("error", exc)
        write(*outcome)


@contextmanager
def _op_log(r: _Repetition) -> Iterator[_OpLog]:
    """An ``_OpLog`` for one run, replayed by a forked worker where
    ``os.fork`` exists and inline elsewhere. On a normal exit it waits for
    the replay, so every checkpoint is in the ledger; on any exception,
    one that ending the replay raises too, it ends the host as failed."""
    host = _Worker(r) if hasattr(os, "fork") else _Replay(r, r.record)
    try:
        log = _OpLog(r, host)
        yield log
        log.send()
        host.close(failed=False)
    except BaseException:
        host.close(failed=True)
        raise
    r.score()  # the checkpoints short of a full block


def _run_on_engine(r: _Repetition, engine: Engine, nodes: list, start: Callable, checkpoint=None) -> None:
    """Register ``nodes``, inject each one's ``start(node)`` effects at t=0
    in membership order, run to the time budget and copy the engine's totals
    into the ledger. A ``checkpoint(t)`` runs at each multiple t
    of ``eval.every_seconds``, with the engine paused after every event <= t."""
    for node in nodes:
        engine.register(node.me, node)
        engine.inject(0.0, node.me, start(node))
    horizon = r.cfg.stop.max_virtual_s
    if checkpoint is not None:
        for at in _multiples(r.cfg.eval.every_seconds, horizon):
            engine.run(until=at)
            checkpoint(at)
    engine.run(until=horizon)
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
    with _op_log(r) as log:

        def round_hook(k: int, model: _ModelRef, now: float) -> None:
            fired.append((k, now))
            if _should_eval(cfg, k):
                log.checkpoint(now, k, [model], engine)

        nodes = [
            PlexusNode(
                nid,
                world.membership,
                pcfg,
                init_model=partial(log.init, nid),
                train_fn=partial(log.train, "train", nid),
                average_fn=log.average,
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
    nodes = world.membership.nodes
    # The server samples uniformly without replacement, apart from the hash sampler.
    select = derive_rng(cfg.protocol_seed, "fl-select", r.rep)
    with _op_log(r) as log:
        model = log.init(None)
        for k in range(1, cfg.stop.max_rounds + 1):
            picks = select.choice(len(nodes), size=cfg.sample_size, replace=False)
            plan = fl_round(
                tuple(nodes[i] for i in picks),
                world.membership,
                world.spec.dim,
                cfg.success_fraction,
                compute_seconds=r.compute_s.__getitem__,
            )
            if ledger.final_time_s + plan.duration_s > cfg.stop.max_virtual_s:
                break
            model = log.average([log.train("train", nid, k, model) for nid in plan.trainers])
            ledger.final_time_s += plan.duration_s
            ledger.bytes_total += plan.bytes
            ledger.train_seconds_total += plan.train_seconds
            drawn, counted = len(picks), len(plan.trainers)
            ledger.rounds.append(RoundRecord(k, plan.duration_s, drawn, counted, drawn - counted))
            if _should_eval(cfg, k):
                log.checkpoint(ledger.final_time_s, k, [model], ledger)
    ledger.counters = {
        "models_trained": float(sum(rec.participants for rec in ledger.rounds)),
        "late_models": float(sum(rec.late_models for rec in ledger.rounds)),
    }


# ------------------------------------------------------------------ dpsgd --


def _run_dpsgd(r: _Repetition) -> None:
    cfg, world, ledger = r.cfg, r.world, r.ledger
    n = cfg.n
    if cfg.topology.kind == "regular":
        tables = make_regular_topology(n, cfg.topology.degree, cfg.topology.seed)
    else:
        tables = one_peer_topology(n)
    node_ids = world.membership.nodes
    compute_secs = [r.compute_s[nid] for nid in node_ids]
    profiles = [world.membership.profile(nid) for nid in node_ids]
    keys = ("uplink_bps", "downlink_bps", "city_index")
    links = {key: np.array([getattr(p, key) for p in profiles]) for key in keys}
    # A plan reads no model, so each table is planned once, before round 1.
    plans = [
        dpsgd_round(ins, world.latency, dim=world.spec.dim, compute_seconds=compute_secs, **links) for ins in tables
    ]
    checkpoints = _multiples(cfg.eval.every_seconds, cfg.stop.max_virtual_s)
    at = next(checkpoints, None)
    with _op_log(r) as log:
        models = [log.init(nid) for nid in node_ids]
        for k in range(1, cfg.stop.max_rounds + 1):
            plan = plans[(k - 1) % len(plans)]
            t_end = ledger.final_time_s + plan.duration_s
            # Checkpoints inside this round observe the models committed before it.
            while at is not None and at <= t_end:
                log.checkpoint(at, k - 1, models, ledger)
                at = next(checkpoints, None)
            if t_end > cfg.stop.max_virtual_s:
                break
            models = plan.mix([log.train("train", nid, k, m) for nid, m in zip(node_ids, models)], log.average)
            ledger.final_time_s = t_end
            ledger.bytes_total += plan.bytes
            ledger.train_seconds_total += plan.train_seconds
            ledger.rounds.append(RoundRecord(k, plan.duration_s, n, n, 0))
    ledger.counters = {"models_trained": float(n * len(ledger.rounds))}


# --------------------------------------------------------------------- gl --


def _run_gl(r: _Repetition) -> None:
    cfg, world = r.cfg, r.world
    engine = Engine(world.membership, world.latency)

    def start(node: GossipNode) -> list:
        stagger = float(
            derive_rng(cfg.protocol_seed, "gl-stagger", r.rep, node.me).uniform(0.0, cfg.gl_timeout_s)
        )
        return [SetTimer(stagger)]

    with _op_log(r) as log:
        nodes = [
            GossipNode(
                nid,
                world.membership,
                model=log.init(nid),
                timeout_s=cfg.gl_timeout_s,
                merge_fn=log.merge,
                train_fn=partial(log.train, "gl-train", nid),
                compute_seconds=r.compute_s[nid],
                peer_rng=derive_rng(cfg.protocol_seed, "gl-peer", r.rep, nid),
            )
            for nid in world.membership.nodes
        ]
        _run_on_engine(
            r, engine, nodes, start,
            checkpoint=lambda at: log.checkpoint(at, 0, [node.model for node in nodes], engine),
        )
    # A node drops models while it trains: trainings are merges, less any still running.
    r.ledger.counters = {
        "models_trained": float(sum(node.merges - node.busy for node in nodes)),
        "gl_busy_drop": float(sum(node.drops for node in nodes)),
    }


def _multiples(step: float, horizon: float) -> Iterator[float]:
    """Multiples of ``step`` up to ``horizon``, clamped to it (3 * 0.1 > 0.3),
    one at a time: a run that ends early never builds the later ones."""
    k = 1
    while k * step <= horizon + 1e-9:
        yield min(k * step, horizon)
        k += 1


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
