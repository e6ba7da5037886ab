import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plexsim.baselines import (
    FlRoundResult,
    GossipNode,
    OnePeerExponential,
    dpsgd_round,
    fl_round,
    gl_merge,
    make_regular_topology,
    uniform_selector,
)
from plexsim.core import GossipModel, ModelParameters, Send, SetTimer
from plexsim.simnet import Engine, LatencyMatrix

from conftest import make_membership
from oracles import dpsgd_round_reference, mean_by_loop


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


def assert_connected_regular(topo, n, degree):
    assert len(topo.adjacency) == n
    for i, neigh in enumerate(topo.adjacency):
        assert len(neigh) == degree
        assert len(set(neigh)) == degree
        assert i not in neigh
        assert all(i in topo.adjacency[j] for j in neigh)
        assert list(neigh) == sorted(neigh)
    assert is_connected(topo.adjacency)


def test_regular_topology_is_regular_connected_and_symmetric():
    topo = make_regular_topology(20, 10, seed=4)
    assert_connected_regular(topo, 20, 10)
    # Same seed, same graph; different seed, different graph (usually).
    assert make_regular_topology(20, 10, seed=4).adjacency == topo.adjacency
    assert make_regular_topology(20, 10, seed=5).adjacency != topo.adjacency


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
    assert make_regular_topology(n, degree, seed) == topo


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
            assert make_regular_topology(n, d, seed).adjacency == expected, (n, d, seed)


def test_regular_topology_neighbors_constant_over_rounds():
    topo = make_regular_topology(12, 4, seed=0)
    table = topo.in_neighbors(1)
    assert table.shape == (12, 4) and table.dtype == np.intp
    assert np.array_equal(table, topo.in_neighbors(99))
    assert np.array_equal(table, topo.in_neighbors(7))
    assert [tuple(row) for row in table.tolist()] == list(topo.adjacency)


def test_regular_topology_validation():
    with pytest.raises(ValueError, match="degree"):
        make_regular_topology(10, 10, seed=0)
    with pytest.raises(ValueError, match="even"):
        make_regular_topology(5, 3, seed=0)


def receivers(topo, k, sender):
    """The nodes whose round-k row of the neighbour table names ``sender``."""
    return tuple(np.flatnonzero((topo.in_neighbors(k) == sender).any(axis=1)).tolist())


def test_one_peer_offsets_cycle_through_powers_of_two():
    # n=8: cycle length ceil(log2 8) = 3, offsets 1, 2, 4, repeating.
    assert [receivers(OnePeerExponential(8), k, 0) for k in (1, 2, 3, 4)] == [(1,), (2,), (4,), (1,)]
    assert receivers(OnePeerExponential(8), 1, 7) == (0,)  # wraps around the ring
    assert OnePeerExponential(8).in_neighbors(1)[0].tolist() == [7]
    # n=5: offsets still 1, 2, 4 (cycle ceil(log2 5) = 3).
    assert [receivers(OnePeerExponential(5), k, 0) for k in (1, 2, 3)] == [(1,), (2,), (4,)]


def test_one_peer_is_a_permutation_each_round():
    topo = OnePeerExponential(10)
    for k in (1, 2, 3, 4, 5):
        table = topo.in_neighbors(k)
        assert table.shape == (10, 1) and table.dtype == np.intp
        assert sorted(table[:, 0].tolist()) == list(range(10))
        for i in range(10):
            j = int(table[i, 0])
            assert receivers(topo, k, j) == (i,)


def test_one_peer_validation():
    with pytest.raises(ValueError):
        OnePeerExponential(1).in_neighbors(1)
    with pytest.raises(ValueError):
        OnePeerExponential(8).in_neighbors(0)


# ---------------------------------------------------------------- fedavg fl --


def fl_membership():
    # Arrival times by hand for a dim-10 model (96 bytes):
    #   n000: 96/96 + 1 + 96/96   = 3 s
    #   n001: 96/48 + 1 + 96/48   = 5 s
    #   n002: 96/24 + 1 + 96/24   = 9 s
    return make_membership(
        3, uplink=[96.0, 48.0, 24.0], downlink=[96.0, 48.0, 24.0], step=1.0
    )


def fixed_select(*ids):
    return lambda s: tuple(ids)


def test_fl_round_full_participation_timing_and_bytes():
    m = fl_membership()
    model = ModelParameters(np.zeros(10))
    res = fl_round(
        model,
        m,
        k=1,
        s=3,
        sf=1.0,
        select_fn=fixed_select("n000", "n001", "n002"),
        train_fn=lambda nid, k, theta: theta.with_values(theta.values + 1.0),
        compute_seconds=lambda nid: 1.0,
    )
    assert res.duration_s == pytest.approx(9.0)
    assert res.bytes == 2 * 3 * 96
    assert res.train_seconds == pytest.approx(3.0)
    assert res.aggregated == 3 and res.late == 0
    assert np.array_equal(res.model.values, np.ones(10))


def test_fl_round_threshold_drops_stragglers_but_charges_them():
    m = fl_membership()
    model = ModelParameters(np.zeros(10))
    contributions = {"n000": 3.0, "n001": 6.0, "n002": 100.0}
    res = fl_round(
        model,
        m,
        k=1,
        s=3,
        sf=2 / 3,
        select_fn=fixed_select("n000", "n001", "n002"),
        train_fn=lambda nid, k, theta: theta.with_values(theta.values + contributions[nid]),
        compute_seconds=lambda nid: 1.0,
    )
    # Fires at the 2nd fastest upload; the slowest still used bandwidth
    # and compute but its model is excluded from the average.
    assert res.duration_s == pytest.approx(5.0)
    assert res.aggregated == 2 and res.late == 1
    assert res.bytes == 2 * 3 * 96
    assert res.train_seconds == pytest.approx(3.0)
    want = mean_by_loop([np.full(10, 3.0), np.full(10, 6.0)])
    assert np.array_equal(res.model.values, want)


def test_fl_round_threshold_follows_actual_selection_size():
    m = fl_membership()
    res = fl_round(
        ModelParameters(np.zeros(10)),
        m,
        k=1,
        s=5,
        sf=0.5,
        select_fn=fixed_select("n000", "n001", "n002"),  # only 3 showed up
        train_fn=lambda nid, k, theta: theta,
        compute_seconds=lambda nid: 1.0,
    )
    assert res.aggregated == 1  # floor(3 * 0.5)
    assert res.late == 2


def test_fl_round_requires_candidates():
    m = fl_membership()
    with pytest.raises(ValueError, match="no candidates"):
        fl_round(
            ModelParameters(np.zeros(10)),
            m,
            k=1,
            s=3,
            sf=1.0,
            select_fn=lambda s: (),
            train_fn=lambda nid, k, theta: theta,
            compute_seconds=lambda nid: 1.0,
        )


def test_uniform_selector_draws_without_replacement():
    m = make_membership(20)
    select = uniform_selector(m, np.random.default_rng(0))
    seen = set()
    for _ in range(200):
        draw = select(5)
        assert len(draw) == 5
        assert len(set(draw)) == 5
        seen.update(draw)
    assert seen == set(m.nodes)  # every node eventually sampled


# ------------------------------------------------------------------ dpsgd --


def k3_topology():
    # Complete graph on 3 nodes is the 2-regular graph.
    return make_regular_topology(3, 2, seed=0)


def stack(*rows):
    models = np.array(rows, dtype=np.float64)
    models.flags.writeable = False
    return models


def keep(k, models):
    return models


def node_arrays(m, compute_seconds):
    """The per-node keyword arguments of ``dpsgd_round`` for membership m."""
    profiles = [m.profile(nid) for nid in m.nodes]
    return {
        "uplink_bps": np.array([p.uplink_bps for p in profiles]),
        "downlink_bps": np.array([p.downlink_bps for p in profiles]),
        "city_index": np.array([p.city_index for p in profiles]),
        "compute_seconds": compute_seconds,
    }


def test_dpsgd_mixing_on_complete_graph_reaches_consensus():
    m = make_membership(3, uplink=96.0, downlink=96.0, step=1.0)
    models = stack([0.0], [3.0], [6.0])
    res = dpsgd_round(
        models, k3_topology(), k=1, latency=LatencyMatrix.zero(),
        train_fn=keep, **node_arrays(m, [1.0, 1.0, 1.0]),
    )
    for mixed in res.models:
        assert np.array_equal(mixed, [3.0])  # mean of 0, 3, 6
    # Everyone ships 2 models of 24 bytes (dim 1).
    assert res.bytes == 3 * 2 * 24
    assert res.train_seconds == pytest.approx(3.0)
    assert not res.models.flags.writeable


def test_dpsgd_duration_uniform_hand_case():
    # K3, dim-10 model (96 B), uplink 96 B/s: each node uploads 2 copies
    # in 2 s after 1 s of compute -> out_done 3. Downlink 192 B/s takes
    # 1 s for both arrivals after the earliest sender finished at 1 s:
    # the receive bound max(3, 1 + 1) = 3. Duration 3.
    m = make_membership(3, uplink=96.0, downlink=192.0, step=1.0)
    res = dpsgd_round(
        np.zeros((3, 10)), k3_topology(), k=1, latency=LatencyMatrix.zero(),
        train_fn=keep, **node_arrays(m, [1.0, 1.0, 1.0]),
    )
    assert res.duration_s == pytest.approx(3.0)


def test_dpsgd_duration_heterogeneous_two_nodes():
    # One-peer on n=2 always pairs 0 and 1. Node 0: compute 2 s then a
    # 96 B model at 48 B/s -> send done at 4 s. Node 1: compute 1 s, 96 B
    # at 96 B/s -> send done at 2 s. No latency; wide downlinks. The round
    # must wait for the slowest leg: 4 s.
    m = make_membership(2, uplink=[48.0, 96.0], downlink=[9600.0, 9600.0])
    res = dpsgd_round(
        np.zeros((2, 10)), OnePeerExponential(2), k=1, latency=LatencyMatrix.zero(),
        train_fn=keep, **node_arrays(m, [2.0, 1.0]),
    )
    assert res.duration_s == pytest.approx(4.0)
    assert res.bytes == 2 * 96


def test_dpsgd_latency_delays_arrivals():
    m = make_membership(2, uplink=96.0, downlink=9600.0, cities=2)
    lat = LatencyMatrix(("a", "b"), np.array([[0.0, 100.0], [100.0, 0.0]]))
    res = dpsgd_round(
        np.zeros((2, 10)), OnePeerExponential(2), k=1, latency=lat,
        train_fn=keep, **node_arrays(m, [1.0, 1.0]),
    )
    # send done at 2 s, plus 50 ms one-way.
    assert res.duration_s == pytest.approx(2.05)


def test_dpsgd_one_peer_mixes_pairwise():
    m = make_membership(4, uplink=9600.0, downlink=9600.0)
    models = stack([0.0], [1.0], [2.0], [3.0])
    res = dpsgd_round(
        models, OnePeerExponential(4), k=1,  # offset 1: i receives from i-1
        latency=LatencyMatrix.zero(), train_fn=keep, **node_arrays(m, [0.0] * 4),
    )
    for i in range(4):
        want = (models[i] + models[(i - 1) % 4]) / 2.0
        assert np.array_equal(res.models[i], want)


def test_dpsgd_round_varies_with_one_peer_round_number():
    m = make_membership(4, uplink=9600.0, downlink=9600.0)
    models = stack([0.0], [1.0], [2.0], [3.0])
    r1, r2 = (
        dpsgd_round(
            models, OnePeerExponential(4), k=k, latency=LatencyMatrix.zero(),
            train_fn=keep, **node_arrays(m, [0.0] * 4),
        )
        for k in (1, 2)
    )
    assert not np.array_equal(r1.models, r2.models)


def test_dpsgd_round_rejects_a_mix_that_overflows():
    m = make_membership(3, uplink=96.0, downlink=96.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        dpsgd_round(
            stack([1e308], [1e308], [1e308]), k3_topology(), k=1, latency=LatencyMatrix.zero(),
            train_fn=keep, **node_arrays(m, [1.0] * 3),
        )


@st.composite
def dpsgd_rounds(draw):
    """A round's inputs: a connected regular graph or a one-peer graph on
    2 to 24 nodes, a round number, each node's links, city and compute
    seconds, a symmetric latency matrix and a stack of models."""
    n = draw(st.integers(2, 24))
    if draw(st.booleans()):
        topology = OnePeerExponential(n)
    else:
        degree = draw(st.integers(1, n - 1).filter(lambda d: n * d % 2 == 0 and (d > 1 or n == 2)))
        try:
            topology = make_regular_topology(n, degree, draw(st.integers(0, 1000)))
        except ValueError:
            assume(False)
    cities = draw(st.integers(1, 4))
    rtt = np.array(draw(st.lists(st.floats(0.0, 500.0), min_size=cities * cities, max_size=cities * cities)))
    rtt = rtt.reshape(cities, cities)
    rates = st.floats(1.0, 1e9)
    seconds = st.floats(0.0, 1e4)
    dim = draw(st.integers(1, 6))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    return dict(
        models=np.array(draw(st.lists(values, min_size=n * dim, max_size=n * dim))).reshape(n, dim),
        topology=topology,
        k=draw(st.integers(1, 8)),
        latency=LatencyMatrix(tuple(f"c{c}" for c in range(cities)), rtt + rtt.T),
        uplink_bps=np.array(draw(st.lists(rates, min_size=n, max_size=n))),
        downlink_bps=np.array(draw(st.lists(rates, min_size=n, max_size=n))),
        city_index=np.array(draw(st.lists(st.integers(0, cities - 1), min_size=n, max_size=n))),
        compute_seconds=draw(st.lists(seconds, min_size=n, max_size=n)),
    )


@settings(max_examples=200, deadline=None)
@given(dpsgd_rounds())
def test_dpsgd_round_matches_the_per_node_reference(case):
    def train(k, models):
        return models * 0.5 + k

    res = dpsgd_round(train_fn=train, **case)
    models, duration, nbytes, train_seconds = dpsgd_round_reference(train_fn=train, **case)
    assert res.duration_s == duration
    assert res.bytes == nbytes
    assert res.train_seconds == train_seconds
    assert res.models.shape == models.shape
    for got, want in zip(res.models, models):
        assert got.tobytes() == want.tobytes()


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


def run_gossip(n=4, timeout=10.0, compute=1.0, horizon=200.0, seed=1, record_deliveries=False):
    m = make_membership(n, uplink=1e4, downlink=1e4)
    eng = Engine(m, LatencyMatrix.zero(), record_deliveries=record_deliveries)
    nodes = {}
    stag = np.random.default_rng(seed)
    for i, nid in enumerate(m.nodes):
        nodes[nid] = gossip_node(nid, m, timeout=timeout, compute=compute, seed=seed + i)
        eng.register(nid, nodes[nid])
        eng.inject(0.0, nid, nodes[nid].initial_effects(float(stag.uniform(0, timeout))))
    eng.run(until=horizon)
    return eng, nodes


def test_gossip_engine_run_spreads_models():
    eng, nodes = run_gossip()
    assert sum(node.merges for node in nodes.values()) > 10
    assert all(node.model.age > 0 for node in nodes.values())
    assert eng.bytes_total > 0
    assert eng.bytes_total % 24 == 0  # dim-1 models only


def test_gossip_engine_busy_drops_under_pressure():
    # Training takes almost the whole gossip period, so concurrent
    # arrivals are common and must be dropped, not queued.
    eng, nodes = run_gossip(n=8, timeout=10.0, compute=9.5, horizon=500.0, record_deliveries=True)
    drops = sum(n.drops for n in nodes.values())
    assert drops > 0
    # Every delivered model is either merged or dropped.
    merges = sum(n.merges for n in nodes.values())
    assert len(eng.delivery_log) == merges + drops


def test_gossip_engine_is_deterministic():
    def fingerprint():
        _, nodes = run_gossip(seed=7)
        return {nid: (n.model.values.tobytes(), n.model.age, n.merges) for nid, n in nodes.items()}

    assert fingerprint() == fingerprint()
