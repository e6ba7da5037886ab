"""The Plexus round state machine.

A round k has a sampler-defined participant set S^k and aggregator a^k, both
computable by every node locally. The aggregator of round k-1 pushes
Train{k, theta} to all of S^k; participants train and send Aggregate{k,
theta_bar} to a^k; once floor(s*sf) models arrived, a^k averages exactly the
models present, marks the round done, and pushes Train{k+1} to S^{k+1}.
Models that arrive after the threshold fired are dropped and counted in
the aggregator's ``late_by_round``.

Handlers are pure with respect to the outside world: they mutate only their
own node's state and describe everything else as effects for the event loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    Aggregate,
    Effect,
    Membership,
    Message,
    ModelParameters,
    NodeId,
    ScheduleCompute,
    Send,
    Terminal,
    Train,
    message_size_bytes,
)
from .sampler import SampleSchedule


def success_threshold(s: int, sf: float) -> int:
    """floor(s * sf), with a tiny epsilon so exact products survive float
    rounding (13 * 0.8 must give 10, 5 * 0.8 must give 4)."""
    return int(math.floor(s * sf + 1e-9))


@dataclass(frozen=True)
class ProtocolConfig:
    s: int
    sf: float
    max_rounds: int

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("sample size must be >= 1")
        if not (0.0 < self.sf <= 1.0):
            raise ValueError("success fraction must be in (0, 1]")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if success_threshold(self.s, self.sf) < 1:
            raise ValueError(
                f"floor(s*sf) must be >= 1, got s={self.s} sf={self.sf}"
            )

    @property
    def threshold(self) -> int:
        return success_threshold(self.s, self.sf)


class ProtocolViolation(RuntimeError):
    """A message reached a node that must never see it in a failure-free run."""


class PlexusNode:
    """One node's view of the protocol.

    The node is wired to its surroundings by these arguments so the state
    machine stays independent of the learning stack and the clock:

    * ``init_model()`` gives this node's round-1 model.
    * ``train_fn(k, theta)`` gives ``theta`` after local training.
    * ``average_fn(models)`` aggregates, as ``average_models`` does.
    * ``compute_seconds`` is the virtual duration of one training invocation.

    The node reads nothing of a model but its ``dim``, which sizes messages:
    a run passes ``runner._ModelRef``s, the tests ``ModelParameters``.

    ``round_hook(k, theta_agg, now)`` is an observation-only callback fired
    on the aggregator when round k completes; it must not schedule work.

    ``schedule`` supplies S^k and a^k. A run passes one schedule to all its
    nodes; a node built without one makes its own from ``config.s`` and
    ``membership``, which gives the same rounds.
    """

    def __init__(
        self,
        me: NodeId,
        membership: Membership,
        config: ProtocolConfig,
        *,
        init_model: Callable[[], ModelParameters],
        train_fn: Callable[[int, ModelParameters], ModelParameters],
        average_fn: Callable[[list[ModelParameters]], ModelParameters],
        compute_seconds: float,
        round_hook: Optional[Callable[[int, ModelParameters, float], None]] = None,
        schedule: Optional[SampleSchedule] = None,
    ):
        if schedule is None:
            schedule = SampleSchedule(config.s, membership)
        elif schedule.s != config.s or schedule.membership is not membership:
            raise ValueError("schedule was built for another sample size or membership")
        self.me = me
        self.config = config
        self.init_model = init_model
        self.train_fn = train_fn
        self.average_fn = average_fn
        self.compute_seconds = compute_seconds
        self.round_hook = round_hook
        self.pending: dict[int, dict[NodeId, ModelParameters]] = {}
        self.rounds_aggregated: set[int] = set()
        self.trained_rounds: set[int] = set()
        self.late_by_round: dict[int, int] = {}
        self.schedule = schedule

    # -- entry points --

    def bootstrap(self) -> list[Effect]:
        """Round 1 has no previous aggregator; every round-1 participant
        self-delivers Train{1, theta_0} at time zero."""
        if self.me not in self.schedule.participant_set(1):
            return []
        msg = Train(1, self.init_model())
        return [Send(self.me, msg, message_size_bytes(msg))]

    def on_message(self, now: float, src: NodeId, msg: Message) -> list[Effect]:
        if isinstance(msg, Train):
            return self._on_train(msg)
        if isinstance(msg, Aggregate):
            return self._on_aggregate(now, src, msg)
        raise ProtocolViolation(f"unexpected message {type(msg).__name__}")

    def on_timer(self) -> list[Effect]:
        raise ProtocolViolation("plexus nodes set no timers")

    # -- handlers --

    def _on_train(self, msg: Train) -> list[Effect]:
        k = msg.k
        if k > self.config.max_rounds:
            return [Terminal("experiment complete")]
        if k in self.trained_rounds:
            raise ProtocolViolation(f"{self.me} received a second Train for round {k}")
        if self.me not in self.schedule.participant_set(k):
            raise ProtocolViolation(
                f"{self.me} received Train for round {k} but is not a participant"
            )
        self.trained_rounds.add(k)
        model = msg.model

        def finish_training(k: int = k, model: ModelParameters = model) -> list[Effect]:
            out = Aggregate(k, self.train_fn(k, model))
            return [Send(self.schedule.aggregator(k), out, message_size_bytes(out))]

        return [ScheduleCompute(self.compute_seconds, finish_training)]

    def _on_aggregate(self, now: float, src: NodeId, msg: Aggregate) -> list[Effect]:
        k = msg.k
        if self.schedule.aggregator(k) != self.me:
            raise ProtocolViolation(
                f"misrouted aggregate: {self.me} is not the round-{k} aggregator"
            )
        if k in self.rounds_aggregated:
            # The round already fired; the sender was too slow.
            self.late_by_round[k] = self.late_by_round.get(k, 0) + 1
            return []
        bucket = self.pending.setdefault(k, {})
        if src in bucket:
            raise ProtocolViolation(f"{self.me} received a second round-{k} model from {src}")
        bucket[src] = msg.model
        if len(bucket) < self.config.threshold:
            return []
        # Threshold reached: average exactly the models present, in a
        # canonical (sender id) order so the result is arrival-order free.
        theta_agg = self.average_fn([bucket[sender] for sender in sorted(bucket)])
        self.rounds_aggregated.add(k)
        del self.pending[k]
        if self.round_hook is not None:
            self.round_hook(k, theta_agg, now)
        out = Train(k + 1, theta_agg)
        nbytes = message_size_bytes(out)
        return [Send(nid, out, nbytes) for nid in self.schedule.participants(k + 1)]
