import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plexsim.core import DeviceProfile, Membership
from plexsim.sampler import SampleSchedule, aggregator, node_rank_key, sample

from oracles import sample_reference


def members(ids, uplinks=None):
    ups = uplinks or {i: 1000.0 for i in ids}
    return Membership(ids, {i: DeviceProfile(ups[i], 1000.0, 1.0) for i in ids})


# -------------------------------------------------------- frozen digests --

# sha256 of the exact wire string "n1|7", computed with an external tool
# and pinned here so the hash recipe cannot drift silently.
N1_K7_HEX = "47e054f3eed1c67b1246358ae6b2fe188bc89993e0d8293bc60760636485dae8"


def test_rank_key_frozen_digest():
    key = node_rank_key("n1", 7)
    assert key.digest.hex() == N1_K7_HEX
    assert key.node == "n1"


def test_rank_key_matches_hashlib_recipe():
    # Independent recomputation: the key must be sha256 over the id, a
    # single pipe, and the decimal round number, nothing else.
    for nid, k in [("n1", 1), ("alice", 42), ("n0099", 10_000)]:
        want = hashlib.sha256(f"{nid}|{k}".encode()).digest()
        assert node_rank_key(nid, k).digest == want


def test_rank_key_rejects_bad_inputs():
    with pytest.raises(ValueError):
        node_rank_key("n1", 0)
    with pytest.raises(ValueError):
        node_rank_key("a|b", 1)


def test_sample_frozen_four_node_example():
    # Digest order at k=7 for {n1..n4} is n1, n4, n2, n3 (verified
    # externally): picking two must give n1 and n4.
    got = sample(7, 2, ["n1", "n2", "n3", "n4"])
    assert got == ("n1", "n4")


def test_sample_caps_at_population():
    ids = ["n1", "n2", "n3"]
    assert set(sample(5, 10, ids)) == set(ids)
    with pytest.raises(ValueError, match="no candidates"):
        sample(1, 3, [])
    with pytest.raises(ValueError):
        sample(1, 0, ids)


@pytest.mark.parametrize(
    "k, s, candidates",
    [
        (0, 2, ["n1", "n2"]),  # round numbers start at 1
        (1, 0, ["n1", "n2"]),  # empty sample
        (1, 2, []),  # no candidates
        (1, 2, ["n1", ""]),  # empty id
        (1, 2, ["a|b", "c"]),  # "|" would make the hash input ambiguous
    ],
)
def test_sample_rejects_bad_inputs(k, s, candidates):
    with pytest.raises(ValueError):
        sample(k, s, candidates)


# ------------------------------------------------------------ properties --


node_ids = st.text(min_size=1, max_size=8).filter(lambda nid: "|" not in nid)


@given(
    st.lists(node_ids, min_size=1, max_size=60, unique=True),
    st.integers(1, 10**6),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_sample_matches_reference(ids, k, data):
    s = data.draw(st.integers(1, len(ids) + 5), label="s")
    assert sample(k, s, ids) == sample_reference(k, s, ids)



@given(st.integers(1, 10**6), st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_sample_prefix_monotone(k, s_small, extra):
    # Growing s only appends candidates, never reshuffles the prefix.
    ids = [f"m{i:03d}" for i in range(40)]
    small = sample(k, s_small, ids)
    big = sample(k, min(40, s_small + extra), ids)
    assert big[: len(small)] == small


@given(st.integers(1, 10**6), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_sample_deterministic_and_duplicate_free(k, s):
    ids = [f"m{i:03d}" for i in range(25)]
    a = sample(k, s, ids)
    b = sample(k, s, list(reversed(ids)))
    assert a == b  # candidate ordering must not matter
    assert len(set(a)) == len(a) == min(s, 25)


def test_sample_round_sensitivity():
    # Different rounds should give different sets essentially always.
    ids = [f"m{i:03d}" for i in range(50)]
    draws = {sample(k, 10, ids) for k in range(1, 30)}
    assert len(draws) >= 28


def test_sample_frequency_uniformity():
    # Every node should appear in roughly s/n of rounds. With n=100,
    # s=10, over 10000 rounds a fair sampler keeps each frequency
    # well inside [0.08, 0.12] (binomial sd ~ 0.003).
    n, s, rounds = 100, 10, 10_000
    ids = [f"m{i:03d}" for i in range(n)]
    counts = Counter()
    for k in range(1, rounds + 1):
        counts.update(sample(k, s, ids))
    freqs = [counts[i] / rounds for i in ids]
    assert min(freqs) >= 0.08
    assert max(freqs) <= 0.12


def test_sample_overlap_consistent_with_uniform_draws():
    # Consecutive-round overlap should look hypergeometric. Compare the
    # mean overlap against the closed-form expectation s^2/n with a
    # tolerance derived from the hypergeometric variance.
    n, s, rounds = 100, 10, 4000
    ids = [f"m{i:03d}" for i in range(n)]
    prev = set(sample(1, s, ids))
    overlaps = []
    for k in range(2, rounds + 2):
        cur = set(sample(k, s, ids))
        overlaps.append(len(prev & cur))
        prev = cur
    mean = np.mean(overlaps)
    expect = s * s / n  # = 1.0
    var = s * (s / n) * (1 - s / n) * ((n - s) / (n - 1))
    sd_of_mean = np.sqrt(var / rounds)
    assert abs(mean - expect) <= 5 * sd_of_mean


# ------------------------------------------------------------ aggregator --


def test_aggregator_max_uplink_tie_by_id():
    m = members(["n1", "n2", "n3"], {"n1": 5.0, "n2": 9.0, "n3": 9.0})
    assert aggregator(["n1", "n2", "n3"], m) == "n2"
    assert aggregator(["n1", "n3"], m) == "n3"
    with pytest.raises(ValueError):
        aggregator([], m)


def test_aggregator_requires_known_profiles():
    m = members(["n1"])
    with pytest.raises(ValueError, match="unknown bandwidth"):
        aggregator(["ghost"], m)


@given(st.lists(st.sampled_from([1.0, 2.0, 3.0, 5.0]), min_size=12, max_size=12), st.integers(1, 14))
@settings(max_examples=30, deadline=None)
def test_schedule_matches_sample_and_aggregator(uplinks, s):
    # Few distinct uplinks, so aggregator ties are common.
    ids = [f"m{i:02d}" for i in range(12)]
    m = members(ids, dict(zip(ids, uplinks)))
    schedule = SampleSchedule(s, m)
    for k in list(range(1, 51)) + [3, 1]:  # revisits read the memo
        want = sample(k, s, m.nodes)
        assert schedule.participants(k) == want
        assert schedule.participant_set(k) == frozenset(want)
        assert schedule.aggregator(k) == aggregator(want, m)


def test_schedule_bundles_round():
    m = members(["n1", "n2", "n3", "n4"], {"n1": 1.0, "n2": 2.0, "n3": 3.0, "n4": 4.0})
    schedule = SampleSchedule(2, m)
    assert schedule.participants(7) == ("n1", "n4")
    assert schedule.participant_set(7) == frozenset({"n1", "n4"})
    assert schedule.aggregator(7) == "n4"  # n4 has the larger uplink of the two
