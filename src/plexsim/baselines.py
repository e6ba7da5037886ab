"""Baseline training algorithms: centralized FL (FedAvg with a server),
synchronous decentralized SGD over static or one-peer exponential
topologies, and asynchronous gossip learning.

FL and D-PSGD are round-synchronous, so each round is planned over
closed-form transfer times rather than through the event loop, and its
plan moves no model; gossip learning is event-driven and runs on the
simulator engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Effect,
    GossipModel,
    Membership,
    Message,
    ModelParameters,
    NodeId,
    ScheduleCompute,
    Send,
    SetTimer,
    message_size_bytes,
    model_size_bytes,
)
from .protocol import success_threshold
from .simnet import LatencyMatrix

# ------------------------------------------------------------ topologies --


@dataclass(frozen=True)
class RegularTopology:
    """A connected random d-regular graph; the same neighbors every round."""

    adjacency: tuple[tuple[int, ...], ...]

    def in_neighbors(self, k: int) -> np.ndarray:
        """Row i of the (n, d) table lists i's neighbors, in ascending order."""
        return np.array(self.adjacency, dtype=np.intp)


@dataclass(frozen=True)
class OnePeerExponential:
    """Each node talks to exactly one peer per round, at distance
    2^((k-1) mod ceil(log2 n)) around a ring."""

    n: int

    def in_neighbors(self, k: int) -> np.ndarray:
        """Row i of the (n, 1) table holds the node i receives from in round
        k. The offset is the same for every node, so a round is a permutation."""
        if self.n < 2:
            raise ValueError("one-peer topology needs n >= 2")
        if k < 1:
            raise ValueError("round number must be >= 1")
        offset = 1 << ((k - 1) % math.ceil(math.log2(self.n)))
        return ((np.arange(self.n, dtype=np.intp) - offset) % self.n)[:, None]


def make_regular_topology(n: int, degree: int, seed: int) -> RegularTopology:
    """Seeded random regular graph, re-drawn with an incremented seed until
    connected. Each draw is Steger-Wormald stub pairing (Combin. Probab.
    Comput. 1999) as NetworkX 3.x implements it, so for a seed it reproduces
    NetworkX's ``random_regular_graph(degree, n, seed)`` under the same Python
    ``random``."""
    if degree < 1 or degree >= n:
        raise ValueError(f"degree must be in [1, n), got {degree} for n={n}")
    if (n * degree) % 2 != 0:
        raise ValueError(f"n*degree must be even, got n={n} degree={degree}")
    for attempt in range(100):
        rng = random.Random(seed + attempt)
        edges = _pair_stubs(n, degree, rng)
        while edges is None:
            edges = _pair_stubs(n, degree, rng)
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        if _is_connected(adjacency):
            return RegularTopology(tuple(tuple(sorted(neigh)) for neigh in adjacency))
    raise ValueError(f"no connected {degree}-regular graph found from seed {seed}")


def _pair_stubs(n: int, degree: int, rng: random.Random) -> set[tuple[int, int]] | None:
    """One stub-pairing attempt: shuffle the stubs, pair neighbours, keep each
    new edge and re-pair the rejected stubs. None when they admit no new edge."""
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * degree
    while stubs:
        rejected: dict[int, int] = {}  # insertion order fixes the next shuffle's input
        rng.shuffle(stubs)
        pairs = iter(stubs)
        for s1, s2 in zip(pairs, pairs):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                rejected[s1] = rejected.get(s1, 0) + 1
                rejected[s2] = rejected.get(s2, 0) + 1
        if not _suitable(edges, rejected):
            return None
        stubs = [node for node, count in rejected.items() for _ in range(count)]
    return edges


def _suitable(edges: set[tuple[int, int]], rejected: dict[int, int]) -> bool:
    """NetworkX's check, kept exactly: the swap rebinds the outer ``s1``
    for the rest of the inner loop, which decides some draws' outcome."""
    if not rejected:
        return True
    for s1 in rejected:
        for s2 in rejected:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _is_connected(adjacency: list[list[int]]) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        for j in adjacency[frontier.pop()]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(adjacency)


# ----------------------------------------------------------- fl baseline --


@dataclass(frozen=True)
class FlRoundPlan:
    """A FedAvg round before any model moves: who takes part, whose models
    the server averages (in id order), and what the round costs."""

    participants: tuple[NodeId, ...]
    trainers: tuple[NodeId, ...]
    duration_s: float
    bytes: int
    train_seconds: float


def fl_round(
    participants: tuple[NodeId, ...],
    membership: Membership,
    dim: int,
    sf: float,
    *,
    compute_seconds: Callable[[NodeId], float],
) -> FlRoundPlan:
    """The plan of one synchronous FedAvg round of a ``dim``-parameter model
    against an unconstrained server.

    The server pushes the model to the s sampled ``participants`` (download
    limited by each client's downlink only), every client trains, and the
    round fires at the floor(s*sf)-th completed upload (upload limited by
    the client's uplink only). Slow clients still consume bandwidth and
    compute; their models are simply not aggregated, so only the counted
    ones, the plan's ``trainers``, need training.
    """
    if not participants:
        raise ValueError("no candidates")
    threshold = success_threshold(len(participants), sf)
    nbytes = model_size_bytes(dim)
    arrivals = []
    train_seconds = 0.0
    for nid in participants:
        p = membership.profile(nid)
        c = compute_seconds(nid)
        arrivals.append((nbytes / p.downlink_bps + c + nbytes / p.uplink_bps, nid))
        train_seconds += c
    arrivals.sort()
    return FlRoundPlan(
        participants=participants,
        trainers=tuple(sorted(nid for _, nid in arrivals[:threshold])),
        duration_s=arrivals[threshold - 1][0],
        bytes=2 * len(participants) * nbytes,
        train_seconds=train_seconds,
    )


# -------------------------------------------------------- dpsgd baseline --


@dataclass(frozen=True)
class DpsgdRoundPlan:
    """A D-PSGD round before any model moves: its in-neighbour table (row i
    lists the nodes i receives from) and what the round costs."""

    ins: np.ndarray
    duration_s: float
    bytes: int
    train_seconds: float

    def mix(self, models: list, average_fn: Callable[[list], object]) -> list:
        """Each node's ``average_fn`` of its own trained model and then its
        neighbours', in table order, as ``average_models`` does."""
        return [average_fn([own, *(models[j] for j in row)]) for own, row in zip(models, self.ins.tolist())]


def dpsgd_round(
    ins: np.ndarray,
    latency: LatencyMatrix,
    *,
    dim: int,
    uplink_bps: np.ndarray,
    downlink_bps: np.ndarray,
    city_index: np.ndarray,
    compute_seconds: list[float],
) -> DpsgdRoundPlan:
    """The plan of one synchronous D-PSGD round of ``dim``-parameter models
    over the in-neighbour table ``ins`` (row i: the nodes i receives from):
    everyone trains, everyone exchanges models with its neighbors, everyone
    averages what it holds with what it received. No node starts the next
    round before the slowest node is done, so the round's duration is the
    max over nodes of compute plus transfer completion. The links, cities
    and compute seconds are per node, in membership order. It reads no
    model, so rounds with the same table share one plan.

    Port contention is modeled per endpoint: a sender's uploads share its
    uplink, a receiver's downloads cannot beat its downlink, and a transfer
    cannot arrive before its sender finished training plus one-way latency.
    """
    n, d = ins.shape
    nbytes = model_size_bytes(dim)
    compute = np.asarray(compute_seconds)

    # When the last byte of each node's uploads left it: a node sends to
    # every node whose row names it.
    sends = np.bincount(ins.ravel(), minlength=n)
    out_done = compute + sends * nbytes / uplink_bps
    lat = latency.one_way_s(city_index[ins], city_index[:, None])
    downlink_bound = (compute[ins] + lat).min(axis=1) + d * nbytes / downlink_bps
    in_done = np.maximum((out_done[ins] + lat).max(axis=1), downlink_bound)
    return DpsgdRoundPlan(
        ins=ins,
        duration_s=float(max(out_done.max(), in_done.max())),
        bytes=ins.size * nbytes,
        train_seconds=float(sum(compute_seconds)),
    )


# ----------------------------------------------------------- gossip node --


def gl_merge(left: ModelParameters, right: ModelParameters) -> ModelParameters:
    """Age-weighted average: (age_l*theta_l + age_r*theta_r)/(age_l+age_r),
    plain mean when both ages are zero. The merged age is the max."""
    if left.dim != right.dim:
        raise ValueError("heterogeneous model dimensions")
    total = left.age + right.age
    if total == 0:
        values = (left.values + right.values) / 2.0
    else:
        values = (left.age * left.values + right.age * right.values) / total
    values.flags.writeable = False
    return ModelParameters(values, age=max(left.age, right.age))


class GossipNode:
    """Gossip learning participant.

    Every ``timeout_s`` the node pushes its current model to one uniformly
    random other node. On receipt it merges (age-weighted), then trains for
    one invocation; while training it drops incoming models, counted in
    ``drops``, so merges and training commits never interleave.

    ``merge_fn(mine, received)`` merges, as ``gl_merge`` does.
    ``train_fn(count, model)`` trains; ``count`` is ``merges`` after the merge
    it follows, so a dropped model does not advance it and training j gets j.
    The node reads nothing of a model but its ``dim``, which sizes messages:
    a run passes ``runner._ModelRef``s, the tests ``ModelParameters``."""

    def __init__(
        self,
        me: NodeId,
        membership: Membership,
        *,
        model: ModelParameters,
        timeout_s: float,
        merge_fn: Callable[[ModelParameters, ModelParameters], ModelParameters],
        train_fn: Callable[[int, ModelParameters], ModelParameters],
        compute_seconds: float,
        peer_rng: np.random.Generator,
    ):
        self.me = me
        self.membership = membership
        self.model = model
        self.timeout_s = timeout_s
        self.merge_fn = merge_fn
        self.train_fn = train_fn
        self.compute_seconds = compute_seconds
        self.peer_rng = peer_rng
        self.busy = False
        self.merges = 0
        self.drops = 0
        self._my_index = membership.index_of(me)

    def _pick_peer(self) -> NodeId:
        n = len(self.membership)
        r = int(self.peer_rng.integers(0, n - 1))
        if r >= self._my_index:
            r += 1
        return self.membership.nodes[r]

    def on_timer(self) -> list[Effect]:
        peer = self._pick_peer()
        msg = GossipModel(self.model)
        return [Send(peer, msg, message_size_bytes(msg)), SetTimer(self.timeout_s)]

    def on_message(self, now: float, src: NodeId, msg: Message) -> list[Effect]:
        if not isinstance(msg, GossipModel):
            raise ValueError(f"gossip node got {type(msg).__name__}")
        if self.busy:
            self.drops += 1
            return []
        merged = self.merge_fn(self.model, msg.model)
        self.model = merged
        self.merges += 1
        self.busy = True

        def finish(count: int = self.merges, merged: ModelParameters = merged) -> list[Effect]:
            self.model = self.train_fn(count, merged)
            self.busy = False
            return []

        return [ScheduleCompute(self.compute_seconds, finish)]
