import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plexsim.baselines import (
    GossipNode,
    dpsgd_round,
    fl_round,
    gl_merge,
    make_regular_topology,
    one_peer_topology,
)
from plexsim.core import GossipModel, ModelParameters, Send, SetTimer, average_models
from plexsim.simnet import Engine, LatencyMatrix

from conftest import make_membership, observe
from oracles import average_reference, dpsgd_round_reference, one_peer_reference


def flat(*vals):
    return ModelParameters(np.array(vals, dtype=np.float64))


# -------------------------------------------------------------- topologies --


def is_connected(adjacency):
    seen, frontier = {0}, [0]
    while frontier:
        for j in adjacency[frontier.pop()]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(adjacency)


def adjacency(tables):
    """The rows of a regular topology's one table, as tuples."""
    (table,) = tables
    return tuple(tuple(row) for row in table.tolist())


def assert_connected_regular(tables, n, degree):
    (table,) = tables
    assert table.shape == (n, degree) and table.dtype == np.intp
    assert not table.flags.writeable
    rows = adjacency(tables)
    for i, neigh in enumerate(rows):
        assert len(set(neigh)) == degree
        assert i not in neigh
        assert all(i in rows[j] for j in neigh)
        assert list(neigh) == sorted(neigh)
    assert is_connected(rows)


def test_regular_topology_is_regular_connected_and_symmetric():
    topo = make_regular_topology(20, 10, seed=4)
    assert_connected_regular(topo, 20, 10)
    # Same seed, same graph; different seed, different graph (usually).
    assert adjacency(make_regular_topology(20, 10, seed=4)) == adjacency(topo)
    assert adjacency(make_regular_topology(20, 10, seed=5)) != adjacency(topo)


@st.composite
def regular_shapes(draw):
    n = draw(st.integers(3, 24))
    degree = draw(st.integers(2, n - 1).filter(lambda d: n * d % 2 == 0))
    return n, degree, draw(st.integers(0, 10_000))


@settings(max_examples=200, deadline=None)
@given(regular_shapes())
def test_regular_topology_property(shape):
    n, degree, seed = shape
    topo = make_regular_topology(n, degree, seed)
    assert_connected_regular(topo, n, degree)
    assert adjacency(make_regular_topology(n, degree, seed)) == adjacency(topo)


def networkx_topology(nx, n, degree, seed):
    """The construction the port replaces, or None where it finds no
    connected graph in 100 draws."""
    for attempt in range(100):
        g = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(g):
            return tuple(tuple(sorted(g.neighbors(i))) for i in range(n))
    return None


def test_regular_topology_equals_networkx():
    nx = pytest.importorskip("networkx")
    # A suitability check that tests every unordered pair of rejected stubs,
    # instead of networkx's loop, draws another graph for (100, 5, 7) and a
    # few more of these cases.
    cases = [
        (n, d, seed)
        for n in (3, 4, 6, 10, 20, 50, 100, 200)
        for d in (1, 2, 3, 4, 5, 7, 10, 20)
        if d < n and n * d % 2 == 0
        for seed in range(12)
    ]
    assert len(cases) == 552
    for n, d, seed in cases:
        expected = networkx_topology(nx, n, d, seed)
        if expected is None:
            with pytest.raises(ValueError, match="no connected"):
                make_regular_topology(n, d, seed)
        else:
            assert adjacency(make_regular_topology(n, d, seed)) == expected, (n, d, seed)


def test_regular_topology_neighbors_constant_over_rounds():
    # One table, so every round of a regular graph uses the same neighbours.
    topo = make_regular_topology(12, 4, seed=0)
    assert len(topo) == 1
    assert_connected_regular(topo, 12, 4)


def test_regular_topology_validation():
    with pytest.raises(ValueError, match="degree"):
        make_regular_topology(10, 10, seed=0)
    with pytest.raises(ValueError, match="even"):
        make_regular_topology(5, 3, seed=0)


def one_peer_table(n, k):
    """Round k's table of the one-peer graph on n nodes."""
    tables = one_peer_topology(n)
    return tables[(k - 1) % len(tables)]


def receivers(table, sender):
    """The nodes whose row of the neighbour table names ``sender``."""
    return tuple(np.flatnonzero((table == sender).any(axis=1)).tolist())


def test_one_peer_offsets_cycle_through_powers_of_two():
    # n=8: cycle length ceil(log2 8) = 3, offsets 1, 2, 4, repeating.
    assert len(one_peer_topology(8)) == 3
    assert [receivers(one_peer_table(8, k), 0) for k in (1, 2, 3, 4)] == [(1,), (2,), (4,), (1,)]
    assert receivers(one_peer_table(8, 1), 7) == (0,)  # wraps around the ring
    assert one_peer_table(8, 1)[0].tolist() == [7]
    # n=5: offsets still 1, 2, 4 (cycle ceil(log2 5) = 3).
    assert [receivers(one_peer_table(5, k), 0) for k in (1, 2, 3)] == [(1,), (2,), (4,)]


def test_one_peer_is_a_permutation_each_round():
    tables = one_peer_topology(10)
    assert len(tables) == 4
    for table in tables:
        assert table.shape == (10, 1) and table.dtype == np.intp
        assert not table.flags.writeable
        assert sorted(table[:, 0].tolist()) == list(range(10))
        for i in range(10):
            assert receivers(table, int(table[i, 0])) == (i,)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 300), st.integers(1, 64))
@example(2, 1)
@example(64, 7)
@example(65, 8)
def test_one_peer_tables_equal_the_per_round_formula(n, k):
    got = one_peer_table(n, k)
    want = one_peer_reference(n, k)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert not got.flags.writeable


def test_one_peer_validation():
    for n in (0, 1):
        with pytest.raises(ValueError, match="n >= 2"):
            one_peer_topology(n)


# ---------------------------------------------------------------- fedavg fl --


def fl_membership():
    # Arrival times by hand for a dim-10 model (96 bytes):
    #   n000: 96/96 + 1 + 96/96   = 3 s
    #   n001: 96/48 + 1 + 96/48   = 5 s
    #   n002: 96/24 + 1 + 96/24   = 9 s
    return make_membership(
        3, uplink=[96.0, 48.0, 24.0], downlink=[96.0, 48.0, 24.0], step=1.0
    )


def plan_fl(participants, sf=1.0):
    return fl_round(participants, fl_membership(), 10, sf, compute_seconds=lambda nid: 1.0)


def test_fl_round_full_participation_timing_and_bytes():
    participants = ("n000", "n001", "n002")
    res = plan_fl(participants)
    assert res.duration_s == pytest.approx(9.0)
    assert res.bytes == 2 * 3 * 96
    assert res.train_seconds == pytest.approx(3.0)
    assert res.trainers == participants
    model = ModelParameters(np.zeros(10))
    averaged = average_models([model.with_values(model.values + 1.0) for _ in res.trainers])
    assert np.array_equal(averaged.values, np.ones(10))


def test_fl_round_threshold_drops_stragglers_but_charges_them():
    participants = ("n000", "n001", "n002")
    res = plan_fl(participants, sf=2 / 3)
    # Fires at the 2nd fastest upload; the slowest still used bandwidth
    # and compute but its model is neither trained nor averaged.
    assert res.duration_s == pytest.approx(5.0)
    assert res.trainers == participants[:2]
    assert res.bytes == 2 * 3 * 96
    assert res.train_seconds == pytest.approx(3.0)
    contributions = {"n000": 3.0, "n001": 6.0, "n002": 100.0}
    averaged = average_models([flat(*[contributions[nid]] * 10) for nid in res.trainers])
    want = average_reference([np.full(10, 3.0), np.full(10, 6.0)])
    assert np.array_equal(averaged.values, want)


def test_fl_round_threshold_follows_actual_selection_size():
    participants = ("n000", "n001", "n002")
    res = plan_fl(participants, sf=0.5)
    assert len(res.trainers) == 1  # floor(3 * 0.5)
    assert len(participants) - len(res.trainers) == 2


def test_fl_round_requires_candidates():
    with pytest.raises(ValueError, match="no candidates"):
        plan_fl(())


# ------------------------------------------------------------------ dpsgd --


def k3_topology():
    # Complete graph on 3 nodes is the 2-regular graph.
    return make_regular_topology(3, 2, seed=0)


def models_of(*rows):
    return [ModelParameters(np.array(row, dtype=np.float64)) for row in rows]


def node_arrays(m, compute_seconds):
    """The per-node keyword arguments of ``dpsgd_round`` for membership m."""
    profiles = [m.profile(nid) for nid in m.nodes]
    return {
        "uplink_bps": np.array([p.uplink_bps for p in profiles]),
        "downlink_bps": np.array([p.downlink_bps for p in profiles]),
        "city_index": np.array([p.city_index for p in profiles]),
        "compute_seconds": compute_seconds,
    }


def plan_dpsgd(tables, m, compute_seconds, k=1, latency=None, dim=10):
    """``dpsgd_round`` of round k's table of the topology ``tables``."""
    return dpsgd_round(
        tables[(k - 1) % len(tables)], latency or LatencyMatrix.zero(), dim=dim, **node_arrays(m, compute_seconds)
    )


def test_dpsgd_mixing_on_complete_graph_reaches_consensus():
    m = make_membership(3, uplink=96.0, downlink=96.0, step=1.0)
    plan = plan_dpsgd(k3_topology(), m, [1.0, 1.0, 1.0], dim=1)
    mixed_models = plan.mix(models_of([0.0], [3.0], [6.0]), average_models)
    for mixed in mixed_models:
        assert np.array_equal(mixed.values, [3.0])  # mean of 0, 3, 6
    # Everyone ships 2 models of 24 bytes (dim 1).
    assert plan.bytes == 3 * 2 * 24
    assert plan.train_seconds == pytest.approx(3.0)
    assert not any(mixed.values.flags.writeable for mixed in mixed_models)


def test_dpsgd_duration_uniform_hand_case():
    # K3, dim-10 model (96 B), uplink 96 B/s: each node uploads 2 copies
    # in 2 s after 1 s of compute -> out_done 3. Downlink 192 B/s takes
    # 1 s for both arrivals after the earliest sender finished at 1 s:
    # the receive bound max(3, 1 + 1) = 3. Duration 3.
    m = make_membership(3, uplink=96.0, downlink=192.0, step=1.0)
    assert plan_dpsgd(k3_topology(), m, [1.0, 1.0, 1.0]).duration_s == pytest.approx(3.0)


def test_dpsgd_duration_heterogeneous_two_nodes():
    # One-peer on n=2 always pairs 0 and 1. Node 0: compute 2 s then a
    # 96 B model at 48 B/s -> send done at 4 s. Node 1: compute 1 s, 96 B
    # at 96 B/s -> send done at 2 s. No latency; wide downlinks. The round
    # must wait for the slowest leg: 4 s.
    m = make_membership(2, uplink=[48.0, 96.0], downlink=[9600.0, 9600.0])
    plan = plan_dpsgd(one_peer_topology(2), m, [2.0, 1.0])
    assert plan.duration_s == pytest.approx(4.0)
    assert plan.bytes == 2 * 96


def test_dpsgd_latency_delays_arrivals():
    m = make_membership(2, uplink=96.0, downlink=9600.0, cities=2)
    lat = LatencyMatrix(("a", "b"), np.array([[0.0, 100.0], [100.0, 0.0]]))
    # send done at 2 s, plus 50 ms one-way.
    assert plan_dpsgd(one_peer_topology(2), m, [1.0, 1.0], latency=lat).duration_s == pytest.approx(2.05)


def test_dpsgd_one_peer_mixes_pairwise():
    m = make_membership(4, uplink=9600.0, downlink=9600.0)
    models = models_of([0.0], [1.0], [2.0], [3.0])
    # Round 1, offset 1: i receives from i-1.
    mixed = plan_dpsgd(one_peer_topology(4), m, [0.0] * 4, dim=1).mix(models, average_models)
    for i in range(4):
        want = (models[i].values + models[(i - 1) % 4].values) / 2.0
        assert np.array_equal(mixed[i].values, want)


def test_dpsgd_round_varies_with_one_peer_round_number():
    m = make_membership(4, uplink=9600.0, downlink=9600.0)
    models = models_of([0.0], [1.0], [2.0], [3.0])
    r1, r2 = (
        plan_dpsgd(one_peer_topology(4), m, [0.0] * 4, k=k, dim=1).mix(models, average_models) for k in (1, 2)
    )
    assert [a.values.tolist() for a in r1] != [b.values.tolist() for b in r2]


def test_dpsgd_round_rejects_a_mix_that_overflows():
    m = make_membership(3, uplink=96.0, downlink=96.0)
    plan = plan_dpsgd(k3_topology(), m, [1.0] * 3, dim=1)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        plan.mix(models_of([1e308], [1e308], [1e308]), average_models)


@st.composite
def dpsgd_rounds(draw):
    """A round's inputs: a round number, its table of a connected regular
    graph or a one-peer graph on 2 to 24 nodes, each node's links, city and
    compute seconds, a symmetric latency matrix and each node's model."""
    n = draw(st.integers(2, 24))
    if draw(st.booleans()):
        tables = one_peer_topology(n)
    else:
        degree = draw(st.integers(1, n - 1).filter(lambda d: n * d % 2 == 0 and (d > 1 or n == 2)))
        try:
            tables = make_regular_topology(n, degree, draw(st.integers(0, 1000)))
        except ValueError:
            assume(False)
    k = draw(st.integers(1, 8))
    cities = draw(st.integers(1, 4))
    rtt = np.array(draw(st.lists(st.floats(0.0, 500.0), min_size=cities * cities, max_size=cities * cities)))
    rtt = rtt.reshape(cities, cities)
    rates = st.floats(1.0, 1e9)
    seconds = st.floats(0.0, 1e4)
    dim = draw(st.integers(1, 6))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    return dict(
        models=[ModelParameters(np.array(draw(st.lists(values, min_size=dim, max_size=dim)))) for _ in range(n)],
        table=tables[(k - 1) % len(tables)],
        k=k,
        latency=LatencyMatrix(tuple(f"c{c}" for c in range(cities)), rtt + rtt.T),
        uplink_bps=np.array(draw(st.lists(rates, min_size=n, max_size=n))),
        downlink_bps=np.array(draw(st.lists(rates, min_size=n, max_size=n))),
        city_index=np.array(draw(st.lists(st.integers(0, cities - 1), min_size=n, max_size=n))),
        compute_seconds=draw(st.lists(seconds, min_size=n, max_size=n)),
    )


LINKS = ("uplink_bps", "downlink_bps", "city_index", "compute_seconds")


@settings(max_examples=200, deadline=None)
@given(dpsgd_rounds())
def test_dpsgd_round_matches_the_per_node_reference(case):
    # The plan times the round and its mix averages each node's own trained
    # model and then its neighbours', in table order, bit for bit as the
    # reference does.
    k, models, table, latency = case["k"], case["models"], case["table"], case["latency"]
    links = {key: case[key] for key in LINKS}

    def train(i, model):
        return ModelParameters(model.values * 0.5 + k)

    plan = dpsgd_round(table, latency, dim=models[0].dim, **links)
    mixed = plan.mix([train(i, model) for i, model in enumerate(models)], average_models)
    want, duration, nbytes, train_seconds = dpsgd_round_reference(models, table, latency, train_fn=train, **links)
    assert plan.duration_s == duration
    assert plan.bytes == nbytes
    assert plan.train_seconds == train_seconds
    assert len(mixed) == len(want)
    for got, expected in zip(mixed, want):
        assert got.values.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- gossip --


def test_gl_merge_age_weighted():
    merged = gl_merge(flat(0.0).with_values(np.array([0.0]), age=1),
                      flat(4.0).with_values(np.array([4.0]), age=3))
    assert np.array_equal(merged.values, [3.0])
    assert merged.age == 3


def test_gl_merge_zero_ages_plain_mean():
    merged = gl_merge(flat(1.0), flat(3.0))
    assert np.array_equal(merged.values, [2.0])
    assert merged.age == 0


def test_gl_merge_one_sided_age():
    left = ModelParameters(np.array([5.0]), age=2)
    right = ModelParameters(np.array([9.0]), age=0)
    merged = gl_merge(left, right)
    assert np.array_equal(merged.values, [5.0])  # weight 0 silences right
    assert merged.age == 2


def test_gl_merge_dim_mismatch():
    with pytest.raises(ValueError, match="heterogeneous"):
        gl_merge(flat(1.0), flat(1.0, 2.0))


def gossip_node(me, m, timeout=60.0, compute=1.0, seed=0, model=None):
    return GossipNode(
        me,
        m,
        model=model or flat(0.0),
        timeout_s=timeout,
        merge_fn=gl_merge,
        train_fn=lambda count, theta: theta.with_values(theta.values + 1.0, age=theta.age + 5),
        compute_seconds=compute,
        peer_rng=np.random.default_rng(seed),
    )


def test_gossip_timer_sends_to_a_random_other_node():
    m = make_membership(6)
    node = gossip_node("n002", m)
    peers = set()
    for _ in range(300):
        effects = node.on_timer()
        send, timer = effects
        assert isinstance(send, Send) and isinstance(timer, SetTimer)
        assert timer.delay == 60.0
        assert isinstance(send.msg, GossipModel)
        peers.add(send.dst)
    assert "n002" not in peers
    assert peers == set(m.nodes) - {"n002"}  # uniform support over others


def test_gossip_receive_merges_then_trains():
    m = make_membership(4)
    node = gossip_node("n000", m, compute=2.0, model=ModelParameters(np.array([1.0]), age=1))
    incoming = GossipModel(ModelParameters(np.array([5.0]), age=3))
    effects = node.on_message(0.0, "n001", incoming)
    assert node.merges == 1
    assert node.busy
    # Merge is committed before training: (1*1 + 3*5)/4 = 4.
    assert np.array_equal(node.model.values, [4.0])
    (comp,) = effects
    assert comp.duration == 2.0
    comp.continuation()
    assert not node.busy
    assert np.array_equal(node.model.values, [5.0])  # trained: +1
    assert node.model.age == 3 + 5


def test_gossip_busy_drop():
    m = make_membership(4)
    node = gossip_node("n000", m)
    node.on_message(0.0, "n001", GossipModel(flat(1.0)))
    effects = node.on_message(0.1, "n002", GossipModel(flat(9.0)))
    assert effects == []
    assert node.merges == 1 and node.drops == 1


def test_gossip_train_fn_gets_the_training_count():
    m = make_membership(4)
    node = gossip_node("n000", m)
    counts = []

    def train(count, theta):
        counts.append(count)
        return theta

    node.train_fn = train
    for i in range(3):
        (comp,) = node.on_message(float(i), "n001", GossipModel(flat(1.0)))
        # A model that arrives mid-training is dropped and not counted.
        dropped = node.on_message(i + 0.5, "n002", GossipModel(flat(9.0)))
        assert dropped == []
        comp.continuation()
    assert counts == [1, 2, 3]
    assert node.drops == 3


def test_gossip_rejects_foreign_messages():
    m = make_membership(4)
    node = gossip_node("n000", m)
    with pytest.raises(ValueError):
        node.on_message(0.0, "n001", "not a gossip message")


def run_gossip(n=4, timeout=10.0, compute=1.0, horizon=200.0, seed=1):
    m = make_membership(n, uplink=1e4, downlink=1e4)
    eng = Engine(m, LatencyMatrix.zero())
    nodes = {
        nid: gossip_node(nid, m, timeout=timeout, compute=compute, seed=seed + i)
        for i, nid in enumerate(m.nodes)
    }
    deliveries = observe(eng, nodes)
    stag = np.random.default_rng(seed)
    for nid in m.nodes:
        eng.inject(0.0, nid, [SetTimer(float(stag.uniform(0, timeout)))])
    eng.run(until=horizon)
    return eng, nodes, deliveries


def test_gossip_engine_run_spreads_models():
    eng, nodes, _ = run_gossip()
    assert sum(node.merges for node in nodes.values()) > 10
    assert all(node.model.age > 0 for node in nodes.values())
    assert eng.bytes_total > 0
    assert eng.bytes_total % 24 == 0  # dim-1 models only


def test_gossip_engine_busy_drops_under_pressure():
    # Training takes almost the whole gossip period, so concurrent
    # arrivals are common and must be dropped, not queued.
    _, nodes, deliveries = run_gossip(n=8, timeout=10.0, compute=9.5, horizon=500.0)
    drops = sum(n.drops for n in nodes.values())
    assert drops > 0
    # Every delivered model is either merged or dropped.
    merges = sum(n.merges for n in nodes.values())
    assert len(deliveries) == merges + drops


def test_gossip_engine_is_deterministic():
    def fingerprint():
        _, nodes, _ = run_gossip(seed=7)
        return {nid: (n.model.values.tobytes(), n.model.age, n.merges) for nid, n in nodes.items()}

    assert fingerprint() == fingerprint()
