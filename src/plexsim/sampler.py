"""Deterministic peer sampling.

Every node can compute the participant set of any round locally, with no
coordination messages: rank all node ids by SHA-256 over ``id|round`` and take
the s smallest digests. Because the full node set and all device profiles are
global knowledge, the round's aggregator (the participant with the highest
uplink) is equally computable by everyone. A simulation hosts every node in
one process, so the nodes of a run share one ``SampleSchedule`` and each
round is computed once, not once per node.
"""

from __future__ import annotations

import hashlib
import heapq
from collections.abc import Iterable
from dataclasses import dataclass

from .core import Membership, NodeId, validate_node_id

__all__ = ["RankKey", "SampleSchedule", "node_rank_key", "sample", "aggregator"]


@dataclass(frozen=True, order=True)
class RankKey:
    """Sort key for one (node, round) pair: digest first, id as tie-break."""

    digest: bytes
    node: NodeId


def node_rank_key(node_id: NodeId, k: int) -> RankKey:
    """SHA-256 of the id, a ``|`` separator, and the round number in decimal
    ASCII. Collisions are broken by node id, so the order is always total."""
    validate_node_id(node_id)  # ids with "|" would make the hash input ambiguous
    if k < 1:
        raise ValueError(f"round number must be >= 1, got {k}")
    digest = hashlib.sha256(node_id.encode() + b"|" + str(k).encode()).digest()
    return RankKey(digest, node_id)


def sample(k: int, s: int, candidates: Iterable[NodeId]) -> tuple[NodeId, ...]:
    """The round-k participant set: the min(s, n) candidates with the smallest
    rank keys, in rank order. Independent of the order candidates arrive in."""
    if s < 1:
        raise ValueError(f"sample size must be >= 1, got {s}")
    if k < 1:
        raise ValueError(f"round number must be >= 1, got {k}")
    # The same (digest, id) order as sorting node_rank_key, without building
    # a RankKey per candidate or sorting all n of them.
    suffix = b"|" + str(k).encode()
    keyed = []
    for nid in candidates:
        validate_node_id(nid)
        keyed.append((hashlib.sha256(nid.encode() + suffix).digest(), nid))
    if not keyed:
        raise ValueError("no candidates")
    return tuple(nid for _, nid in heapq.nsmallest(s, keyed))


def aggregator(participants: Iterable[NodeId], membership: Membership) -> NodeId:
    """The participant with the highest uplink bandwidth; ties go to the
    lexicographically smallest id."""
    best: NodeId | None = None
    best_up = -1.0
    for nid in participants:
        up = membership.profile(nid).uplink_bps
        if up > best_up or (up == best_up and (best is None or nid < best)):
            best, best_up = nid, up
    if best is None:
        raise ValueError("no candidates")
    return best


class SampleSchedule:
    """S^k and a^k of every round of one run, each computed once on first use.

    The sample is a pure function of (k, s, membership), so one schedule can
    serve every node of a run.
    """

    def __init__(self, s: int, membership: Membership):
        self.s = s
        self.membership = membership
        self._rounds: dict[int, tuple[tuple[NodeId, ...], frozenset[NodeId], NodeId]] = {}

    def _round(self, k: int) -> tuple[tuple[NodeId, ...], frozenset[NodeId], NodeId]:
        entry = self._rounds.get(k)
        if entry is None:
            # Through the module-level names, so a wrapper of either sees
            # every round a schedule draws.
            drawn = sample(k, self.s, self.membership.nodes)
            entry = self._rounds[k] = (drawn, frozenset(drawn), aggregator(drawn, self.membership))
        return entry

    def participants(self, k: int) -> tuple[NodeId, ...]:
        """S^k in rank order."""
        return self._round(k)[0]

    def participant_set(self, k: int) -> frozenset[NodeId]:
        """S^k as a set, for membership tests."""
        return self._round(k)[1]

    def aggregator(self, k: int) -> NodeId:
        """a^k."""
        return self._round(k)[2]
