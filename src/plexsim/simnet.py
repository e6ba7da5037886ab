"""Single-threaded discrete-event network simulator.

Virtual time is a float64 number of seconds. Every state change is an event:
a heap entry ``(time, seq, call)`` whose ``call`` is bound when the event is
scheduled. Events run in strict (time, insertion-sequence) order; ``seq`` is
unique, so calls are never compared and a run is a deterministic function of
its inputs.

Transfers share bandwidth under max-min fairness with progressive filling:
a transfer is constrained by its sender's uplink and its receiver's downlink,
all concurrent transfers at a port get equal shares, and capacity freed by a
bottlenecked transfer is redistributed to the others. Rates are recomputed
only when a transfer starts or finishes, so between recomputations every rate
is constant and completion times are exact. A recomputation re-solves only
the transfers connected, through shared ports, to a port that a start or
finish touched: a transfer's rate depends only on its connected component,
so every other rate keeps its bits. Each recomputation schedules one
completion event, for the transfer that finishes first (ties go to the
earliest sent); the next recomputation makes it stale.

``run(until=t)`` pauses after every event at or before ``t`` and can be
resumed; an observer reads the state between runs.

One-way propagation delay between two nodes is half the RTT between their
cities; it is charged after the last byte leaves the sender. Zero-byte
messages incur latency only. Sends to self bypass the network entirely.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Protocol

import numpy as np

from .core import (
    Effect,
    Membership,
    Message,
    NodeId,
    ScheduleCompute,
    Send,
    SetTimer,
    Terminal,
)


class SimulationError(RuntimeError):
    """A broken engine invariant. Never expected in a correct run."""


class Handler(Protocol):
    def on_message(self, now: float, src: NodeId, msg: Message) -> list[Effect]: ...

    def on_timer(self) -> list[Effect]: ...


# ---------------------------------------------------------------- events --


@dataclass(frozen=True)
class TransferRateRecompute:
    """Scheduled at the estimated completion of the transfer that finishes
    first under rate solve ``solve_no``. Once a later solve has run, the
    event is stale and ignored."""

    tid: int
    solve_no: int


@dataclass
class TransferRecord:
    src: NodeId
    dst: NodeId
    msg: Message
    total_bytes: float
    bytes_done: float = 0.0
    rate: float = 0.0


# -------------------------------------------------------------- latency --


@dataclass(frozen=True)
class LatencyMatrix:
    cities: tuple[str, ...]
    rtt_ms: np.ndarray  # square, non-negative, symmetric

    def one_way_s(self, city_a: int, city_b: int) -> float:
        return float(self.rtt_ms[city_a, city_b]) / 2.0 / 1000.0

    @staticmethod
    def zero() -> "LatencyMatrix":
        return LatencyMatrix(("city000",), np.zeros((1, 1)))


def assign_cities(n_nodes: int, n_cities: int) -> list[int]:
    """Round-robin city assignment by membership index."""
    if n_cities < 1:
        raise ValueError("need at least one city")
    return [i % n_cities for i in range(n_nodes)]


def compute_time(profile, local_steps: int) -> float:
    """Virtual seconds one training invocation occupies the device."""
    return profile.sec_per_local_step * local_steps


# ------------------------------------------------------ max-min fairness --


def maxmin_rates(
    flows: list[tuple[int, NodeId, NodeId]],
    uplink: dict[NodeId, float],
    downlink: dict[NodeId, float],
) -> dict[int, float]:
    """Max-min fair rates for ``flows`` (tid, src, dst) via progressive
    filling: repeatedly find the port with the smallest equal share, freeze
    its flows at that share, remove the spent capacity, and continue.

    Shares are compared exactly and ties go to the smallest port, so a
    flow's rate depends only on the flows connected to it through shared
    ports: each connected component solved alone gives the same bits.
    """
    members: dict[tuple[str, NodeId], set[int]] = defaultdict(set)
    flow_ports: dict[int, tuple[tuple[str, NodeId], tuple[str, NodeId]]] = {}
    cap: dict[tuple[str, NodeId], float] = {}
    for tid, src, dst in flows:
        up, down = ("u", src), ("d", dst)
        members[up].add(tid)
        members[down].add(tid)
        flow_ports[tid] = (up, down)
        cap[up] = uplink[src]
        cap[down] = downlink[dst]

    rates: dict[int, float] = {}
    ports = sorted(members)
    while len(rates) < len(flow_ports):
        bottleneck = None
        share = float("inf")
        for port in ports:
            live = len(members[port])
            if live == 0:
                continue
            port_share = cap[port] / live
            if port_share < share:
                bottleneck, share = port, port_share
        if bottleneck is None:
            raise SimulationError("no live port while flows remain unfrozen")
        for tid in sorted(members[bottleneck]):
            rates[tid] = share
            for port in flow_ports[tid]:
                members[port].discard(tid)
                cap[port] = max(0.0, cap[port] - share)
    return rates


# ---------------------------------------------------------------- engine --


class Engine:
    """Owns the clock, the event heap, all transfers, and the byte and
    training-second totals. Node handlers are registered per id, act only
    through the effects they return, and keep their own counts.
    """

    def __init__(
        self,
        membership: Membership,
        latency: LatencyMatrix,
        record_deliveries: bool = False,
    ):
        self.membership = membership
        self.latency = latency
        self.now = 0.0
        self.bytes_total = 0
        self.train_seconds_total = 0.0
        self.completed: Optional[str] = None
        self.delivery_log: list[tuple[float, NodeId, NodeId, int]] = []
        self._record_deliveries = record_deliveries
        self._handlers: dict[NodeId, Handler] = {}
        self._heap: list = []
        self._seq = 0
        self._transfers: dict[int, TransferRecord] = {}
        # The live transfers at each port, and the ports whose set changed
        # since the last rate solve.
        self._port_tids: dict[tuple[str, NodeId], set[int]] = defaultdict(set)
        self._touched: set[tuple[str, NodeId]] = set()
        self._next_tid = 0
        self._last_advance = 0.0
        self._solves = 0
        self._uplink = {nid: membership.profile(nid).uplink_bps for nid in membership.nodes}
        self._downlink = {nid: membership.profile(nid).downlink_bps for nid in membership.nodes}
        for nid in membership.nodes:
            if membership.profile(nid).city_index >= len(latency.cities):
                raise ValueError(f"node {nid} assigned to a city outside the matrix")

    # -- registration and external scheduling --

    def register(self, node_id: NodeId, handler: Handler) -> None:
        if node_id not in self.membership:
            raise ValueError(f"cannot register unknown node {node_id!r}")
        self._handlers[node_id] = handler

    def inject(self, at: float, src: NodeId, effects: list[Effect]) -> None:
        """Apply ``effects`` on behalf of ``src`` at virtual time ``at``."""
        self._schedule(at, partial(self._apply, src, list(effects)))

    def send_at(self, at: float, src: NodeId, dst: NodeId, msg: Message, nbytes: int) -> None:
        if src == dst:
            raise ValueError("send requires src != dst")
        self.inject(at, src, [Send(dst, msg, nbytes)])

    # -- main loop --

    def run(self, until: Optional[float] = None) -> float:
        """Process events in (time, seq) order until the queue drains or the
        next event lies beyond ``until``. Returns the final virtual time:
        ``until`` if events remain, else the time of the last event."""
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run until {until}: the clock is at {self.now}")
        while self._heap and (until is None or self._heap[0][0] <= until):
            t, _, call = heapq.heappop(self._heap)
            self.now = t
            call()
        if self._heap:
            self.now = until
        return self.now

    def quiescent(self) -> bool:
        return not self._heap

    # -- internals --

    def _schedule(self, at: float, call: Callable[[], None]) -> None:
        if at < self.now:
            raise SimulationError(
                f"event scheduled in the past: {at} < {self.now} ({call})"
            )
        heapq.heappush(self._heap, (at, self._seq, call))
        self._seq += 1

    def _deliver(self, dst: NodeId, src: NodeId, msg: Message, nbytes: int) -> None:
        if self._record_deliveries:
            self.delivery_log.append((self.now, src, dst, nbytes))
        handler = self._handlers.get(dst)
        if handler is not None:
            self._apply(dst, handler.on_message(self.now, src, msg))

    def _finish_compute(self, node: NodeId, eff: ScheduleCompute) -> None:
        self.train_seconds_total += eff.duration
        self._apply(node, eff.continuation())

    def _fire_timer(self, node: NodeId) -> None:
        handler = self._handlers.get(node)
        if handler is not None:
            self._apply(node, handler.on_timer())

    def _apply(self, src: NodeId, effects: list[Effect]) -> None:
        opened = False
        for eff in effects:
            if isinstance(eff, Send):
                opened |= self._apply_send(src, eff)
            elif isinstance(eff, ScheduleCompute):
                if eff.duration < 0:
                    raise SimulationError("negative compute duration")
                self._schedule(self.now + eff.duration, partial(self._finish_compute, src, eff))
            elif isinstance(eff, SetTimer):
                if eff.delay < 0:
                    raise SimulationError("negative timer delay")
                self._schedule(self.now + eff.delay, partial(self._fire_timer, src))
            elif isinstance(eff, Terminal):
                if self.completed is None:
                    self.completed = eff.reason
            else:
                raise SimulationError(f"unknown effect {eff!r}")
        if opened:
            self._recompute_rates()

    def _apply_send(self, src: NodeId, eff: Send) -> bool:
        """Returns True if a bandwidth-occupying transfer was opened."""
        if eff.dst not in self.membership:
            raise SimulationError(f"send to unknown node {eff.dst!r}")
        if eff.dst == src:
            # Local hand-off: free and instant, never touches the network.
            self._schedule(self.now, partial(self._deliver, eff.dst, src, eff.msg, 0))
            return False
        if eff.nbytes == 0:
            self._schedule(
                self.now + self._one_way(src, eff.dst),
                partial(self._deliver, eff.dst, src, eff.msg, 0),
            )
            return False
        self._advance()
        tid = self._next_tid
        self._transfers[tid] = TransferRecord(src, eff.dst, eff.msg, float(eff.nbytes))
        self._next_tid += 1
        for port in (("u", src), ("d", eff.dst)):
            self._port_tids[port].add(tid)
            self._touched.add(port)
        return True

    def _one_way(self, a: NodeId, b: NodeId) -> float:
        ca = self.membership.profile(a).city_index
        cb = self.membership.profile(b).city_index
        return self.latency.one_way_s(ca, cb)

    def _advance(self) -> None:
        dt = self.now - self._last_advance
        if dt > 0:
            for rec in self._transfers.values():
                rec.bytes_done += rec.rate * dt
        self._last_advance = self.now

    def _recompute_rates(self) -> None:
        touched, self._touched = self._touched, set()
        if not self._transfers:
            return
        flows = self._component(touched)
        if flows:
            for tid, rate in maxmin_rates(flows, self._uplink, self._downlink).items():
                self._transfers[tid].rate = rate
        self._solves += 1
        estimates = []
        for tid, rec in self._transfers.items():
            if rec.rate <= 0:
                raise SimulationError(f"transfer {tid} got zero rate")
            remaining = max(0.0, rec.total_bytes - rec.bytes_done)
            estimates.append((self.now + remaining / rec.rate, tid))
        # Ties go to the lowest tid: the transfer sent first.
        at, tid = min(estimates)
        self._schedule(at, partial(self._on_transfer_event, TransferRateRecompute(tid, self._solves)))

    def _component(self, ports: set[tuple[str, NodeId]]) -> list[tuple[int, NodeId, NodeId]]:
        """The live flows (tid, src, dst) linked to ``ports`` through shared
        ports, in tid order."""
        seen, frontier, flows = set(ports), list(ports), {}
        while frontier:
            for tid in self._port_tids.get(frontier.pop(), ()):
                if tid in flows:
                    continue
                rec = self._transfers[tid]
                flows[tid] = (tid, rec.src, rec.dst)
                for port in (("u", rec.src), ("d", rec.dst)):
                    if port not in seen:
                        seen.add(port)
                        frontier.append(port)
        return sorted(flows.values())

    def _on_transfer_event(self, ev: TransferRateRecompute) -> None:
        if ev.solve_no != self._solves:
            return  # superseded by a later rate solve
        self._advance()
        rec = self._transfers.pop(ev.tid)
        for port in (("u", rec.src), ("d", rec.dst)):
            self._port_tids[port].discard(ev.tid)
            self._touched.add(port)
        # The last solve, at t, set this event at fl(t + fl(fl(total - done) /
        # rate)); since then only this event's _advance (any other is followed
        # by a solve) added fl(rate * fl(now - t)). Six roundings within u =
        # 2^-53 each leave <= u (5 total + rate * now) bytes; 32u is allowed.
        drift = abs(rec.total_bytes - rec.bytes_done)
        if drift > 2.0**-48 * (rec.total_bytes + rec.rate * self.now):
            raise SimulationError(
                f"transfer {ev.tid} byte conservation off by {drift}"
            )
        self.bytes_total += int(rec.total_bytes)
        self._schedule(
            self.now + self._one_way(rec.src, rec.dst),
            partial(self._deliver, rec.dst, rec.src, rec.msg, int(rec.total_bytes)),
        )
        self._recompute_rates()
