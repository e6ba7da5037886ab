"""Domain types shared by every module: node identities, device profiles,
model parameter vectors, protocol messages, and the effects that protocol
state machines hand back to the event loop: ``Send``, ``ScheduleCompute``,
``SetTimer`` and ``Terminal``.

Everything here is a plain value object.  Handlers never touch the network or
the clock directly; they return effects and the simulator interprets them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

# A node identity is a short printable string. The sampler feeds ids into a
# hash with "|" as the field separator, so ids must never contain one.
NodeId = str


def validate_node_id(node_id: NodeId) -> None:
    if not isinstance(node_id, str) or not node_id:
        raise ValueError("node id must be a non-empty string")
    if "|" in node_id:
        raise ValueError(f"node id must not contain '|': {node_id!r}")


def derive_rng(root_seed: int, *keys: object) -> np.random.Generator:
    """Deterministic RNG stream named by (root_seed, *keys).

    Streams with distinct key tuples are independent; the same tuple always
    yields the same stream, on any platform. The seed is the first 16 bytes
    of the key's SHA-256 digest as four little-endian words. ``SeedSequence``
    pads an int's words with zeros to four, so this is the stream of
    ``default_rng`` of their 128-bit int, without converting to one.
    """
    material = "|".join([str(root_seed), *(str(k) for k in keys)]).encode()
    digest = hashlib.sha256(material).digest()
    seed = np.random.SeedSequence(np.frombuffer(digest, "<u4", count=4))
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------- models --


@dataclass(frozen=True)
class ModelParameters:
    """A flat float64 parameter vector plus a staleness counter.

    ``age`` counts the cumulative number of local training steps that went
    into the model (used by gossip merging).

    The stored vector is read-only. A float64 vector that owns its memory and
    that its builder has already made read-only is kept as is: nothing can
    write to it any more. Any other input is copied.
    """

    values: np.ndarray
    age: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("model values must be a 1-D vector")
        if arr.size == 0:
            raise ValueError("model must have at least one parameter")
        if not np.all(np.isfinite(arr)):
            raise ValueError("model values must be finite")
        if self.age < 0:
            raise ValueError("model age must be non-negative")
        if arr is self.values and arr.flags.owndata and not arr.flags.writeable:
            return
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def with_values(self, values: np.ndarray, age: Optional[int] = None) -> "ModelParameters":
        return ModelParameters(values, self.age if age is None else age)


def average_models(models: Sequence[ModelParameters]) -> ModelParameters:
    """Unweighted elementwise mean of the given models; result age is 0.
    It adds the models to a copy of the first, in order, and divides by the
    count: the floats of ``np.stack(...).mean(axis=0)`` for two or more
    parameters, where NumPy also sums the stack row by row."""
    if not models:
        raise ValueError("nothing to aggregate")
    dim = models[0].dim
    if any(m.dim != dim for m in models):
        raise ValueError("heterogeneous model dimensions")
    mean = models[0].values.copy()
    for m in models[1:]:
        mean += m.values
    mean /= len(models)
    mean.flags.writeable = False
    return ModelParameters(mean, age=0)


def model_size_bytes(dim: int) -> int:
    """Wire size of the transfer of a model of ``dim`` parameters: 8 bytes
    per parameter plus a 16-byte header (dimension and age)."""
    return 8 * dim + 16


# -------------------------------------------------------------- topology --


@dataclass(frozen=True)
class DeviceProfile:
    """Static capabilities of one device."""

    uplink_bps: float     # bytes/second leaving the device
    downlink_bps: float   # bytes/second entering the device
    sec_per_local_step: float
    city_index: int = 0

    def __post_init__(self) -> None:
        for name in ("uplink_bps", "downlink_bps", "sec_per_local_step"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.city_index < 0:
            raise ValueError("city_index must be non-negative")


@dataclass
class Membership:
    """The fixed, globally known node set of one experiment.

    Order matters: city assignment and data partitioning key off the index of
    a node in ``nodes``.
    """

    nodes: tuple[NodeId, ...]
    profiles: dict[NodeId, DeviceProfile]

    def __init__(self, nodes: Iterable[NodeId], profiles: dict[NodeId, DeviceProfile]):
        nodes = tuple(nodes)
        self._index: dict[NodeId, int] = {}
        for i, nid in enumerate(nodes):
            validate_node_id(nid)
            if self._index.setdefault(nid, i) != i:
                raise ValueError(f"duplicate node id {nid!r}")
        if not nodes:
            raise ValueError("membership must not be empty")
        missing = [nid for nid in nodes if nid not in profiles]
        if missing:
            raise ValueError(f"nodes without a device profile: {missing}")
        self.nodes = nodes
        self.profiles = dict(profiles)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self.profiles

    def index_of(self, node_id: NodeId) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise ValueError(f"{node_id!r} is not a member") from None

    def profile(self, node_id: NodeId) -> DeviceProfile:
        try:
            return self.profiles[node_id]
        except KeyError:
            raise ValueError(f"unknown bandwidth: no profile for {node_id!r}") from None


# -------------------------------------------------------------- messages --


@dataclass(frozen=True)
class Train:
    """Start-of-round push from the previous aggregator: train on ``model``
    for round ``k`` and send the result to round k's aggregator."""

    k: int
    model: ModelParameters


@dataclass(frozen=True)
class Aggregate:
    """A locally trained model headed for round k's aggregator."""

    k: int
    model: ModelParameters


@dataclass(frozen=True)
class GossipModel:
    """Asynchronous model push used by gossip learning."""

    model: ModelParameters


Message = object  # Train | Aggregate | GossipModel


def message_size_bytes(msg: Message) -> int:
    model = getattr(msg, "model", None)
    if model is None:
        return 0
    return model_size_bytes(model.dim)


# --------------------------------------------------------------- effects --
# Handlers return lists of these. The event loop interprets them; nothing
# else may mutate simulator state. Counts of what a handler saw (late
# models, dropped gossip) stay on the node that saw them.


@dataclass(frozen=True)
class Send:
    """Transmit ``msg`` to ``dst``. ``nbytes`` is the wire size; zero-byte
    messages incur latency only, and sends to self are free and instant."""

    dst: NodeId
    msg: Message
    nbytes: int


@dataclass(frozen=True)
class ScheduleCompute:
    """Occupy the node for ``duration`` seconds of virtual compute, then run
    ``continuation`` and apply the effects it returns. The duration counts
    toward the engine's training seconds."""

    duration: float
    continuation: Callable[[], list]


@dataclass(frozen=True)
class SetTimer:
    """Fire the node's ``on_timer()`` after ``delay`` seconds."""

    delay: float


@dataclass(frozen=True)
class Terminal:
    """Mark the protocol as complete. The engine keeps draining queued work
    but no new rounds will be generated."""

    reason: str = "experiment complete"


Effect = object  # Send | ScheduleCompute | SetTimer | Terminal
