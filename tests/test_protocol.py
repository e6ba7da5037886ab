from collections import Counter

import numpy as np
import pytest

from plexsim.core import (
    Aggregate,
    GossipModel,
    ModelParameters,
    ScheduleCompute,
    Send,
    Terminal,
    Train,
    average_models,
    model_size_bytes,
)
from plexsim.protocol import (
    PlexusNode,
    ProtocolConfig,
    ProtocolViolation,
    success_threshold,
)
from plexsim.sampler import SampleSchedule, aggregator, sample
from plexsim.simnet import Engine, LatencyMatrix

from conftest import make_membership, observe
from oracles import average_reference, fedavg_reference


def flat(v):
    return ModelParameters(np.asarray(v, dtype=np.float64))


def bump_train(k, model):
    # Deterministic non-learning trainer: shift by the round number.
    return model.with_values(model.values + float(k), age=model.age + 1)


def make_node(me, membership, config, hook=None, train=bump_train, theta0=None):
    theta0 = theta0 if theta0 is not None else flat([0.0, 0.0])
    return PlexusNode(
        me,
        membership,
        config,
        init_model=lambda: theta0,
        train_fn=train,
        average_fn=average_models,
        compute_seconds=1.0,
        round_hook=hook,
    )


# ---------------------------------------------------------------- threshold --


def test_success_threshold_exact_products():
    assert success_threshold(13, 0.8) == 10
    assert success_threshold(5, 0.8) == 4
    assert success_threshold(10, 1.0) == 10
    assert success_threshold(10, 0.55) == 5
    assert success_threshold(3, 0.34) == 1


def test_config_validation():
    ProtocolConfig(s=10, sf=0.8, max_rounds=5)
    with pytest.raises(ValueError):
        ProtocolConfig(s=0, sf=0.8, max_rounds=5)
    with pytest.raises(ValueError):
        ProtocolConfig(s=10, sf=0.0, max_rounds=5)
    with pytest.raises(ValueError):
        ProtocolConfig(s=10, sf=1.2, max_rounds=5)
    with pytest.raises(ValueError):
        ProtocolConfig(s=10, sf=0.8, max_rounds=0)
    with pytest.raises(ValueError, match="floor"):
        ProtocolConfig(s=2, sf=0.4, max_rounds=5)  # floor(0.8) == 0


# ------------------------------------------------------------- handler logic --


def cfg(s=3, sf=1.0, rounds=4):
    return ProtocolConfig(s=s, sf=sf, max_rounds=rounds)


def test_schedule_must_match_node():
    m = make_membership(6)
    other = make_membership(6)
    kw = dict(init_model=lambda: flat([0.0]), train_fn=bump_train, average_fn=average_models, compute_seconds=1.0)
    PlexusNode("n000", m, cfg(s=3), schedule=SampleSchedule(3, m), **kw)
    with pytest.raises(ValueError, match="schedule"):
        PlexusNode("n000", m, cfg(s=3), schedule=SampleSchedule(4, m), **kw)
    with pytest.raises(ValueError, match="schedule"):
        PlexusNode("n000", m, cfg(s=3), schedule=SampleSchedule(3, other), **kw)


def setup_round(n=8, s=3, sf=1.0, rounds=4):
    m = make_membership(n)
    c = cfg(s, sf, rounds)
    parts = sample(1, s, m.nodes)
    agg = aggregator(parts, m)
    return m, c, parts, agg


def test_bootstrap_only_for_round_one_participants():
    m, c, parts, _ = setup_round()
    for nid in m.nodes:
        effects = make_node(nid, m, c).bootstrap()
        if nid in parts:
            assert len(effects) == 1
            (send,) = effects
            assert isinstance(send, Send)
            assert send.dst == nid  # self-delivery
            assert isinstance(send.msg, Train) and send.msg.k == 1
        else:
            assert effects == []


def test_train_schedules_compute_then_uploads_to_aggregator():
    m, c, parts, agg = setup_round()
    node = make_node(parts[0], m, c)
    effects = node.on_message(0.0, parts[0], Train(1, flat([1.0, 2.0])))
    assert len(effects) == 1
    (comp,) = effects
    assert isinstance(comp, ScheduleCompute)
    assert comp.duration == 1.0
    out = comp.continuation()
    (send,) = out
    assert send.dst == agg
    assert isinstance(send.msg, Aggregate)
    assert send.msg.k == 1
    assert np.array_equal(send.msg.model.values, [2.0, 3.0])  # +k with k=1
    assert send.nbytes == model_size_bytes(send.msg.model.dim)


def test_duplicate_train_is_a_violation_not_retrained():
    m, c, parts, _ = setup_round()
    node = make_node(parts[0], m, c)
    node.on_message(0.0, parts[0], Train(1, flat([0.0, 0.0])))
    with pytest.raises(ProtocolViolation, match="second Train for round 1"):
        node.on_message(1.0, parts[0], Train(1, flat([9.0, 9.0])))
    assert node.trained_rounds == {1}


def test_train_to_non_participant_is_a_violation():
    m, c, parts, _ = setup_round()
    outsider = next(nid for nid in m.nodes if nid not in parts)
    with pytest.raises(ProtocolViolation, match="not a participant"):
        make_node(outsider, m, c).on_message(0.0, outsider, Train(1, flat([0.0, 0.0])))


def test_train_past_max_rounds_is_terminal():
    m, c, parts, _ = setup_round(rounds=4)
    node = make_node(parts[0], m, c)
    effects = node.on_message(0.0, parts[0], Train(5, flat([0.0, 0.0])))
    assert effects == [Terminal("experiment complete")]


def test_misrouted_aggregate_is_a_violation():
    m, c, parts, agg = setup_round()
    nid = next(x for x in m.nodes if x != agg)
    with pytest.raises(ProtocolViolation, match="misrouted"):
        make_node(nid, m, c).on_message(0.0, parts[0], Aggregate(1, flat([0.0, 0.0])))


def test_round_fires_at_threshold_and_pushes_next_round():
    m, c, parts, agg = setup_round(s=3, sf=1.0)
    fired = []
    node = make_node(agg, m, c, hook=lambda k, theta, now: fired.append((k, theta, now)))
    contributions = {p: flat([float(i), 1.0]) for i, p in enumerate(parts)}
    for i, p in enumerate(parts[:-1]):
        assert node.on_message(float(i), p, Aggregate(1, contributions[p])) == []
    effects = node.on_message(9.0, parts[-1], Aggregate(1, contributions[parts[-1]]))
    assert len(fired) == 1
    k, theta, now = fired[0]
    assert k == 1 and now == 9.0
    want = average_reference([contributions[p].values for p in parts])
    assert np.max(np.abs(theta.values - want)) <= 1e-12
    # A Train(2) to every round-2 participant and nothing else.
    nxt = sample(2, 3, m.nodes)
    sends = [e for e in effects if isinstance(e, Send)]
    assert len(sends) == len(effects)
    assert sorted(e.dst for e in sends) == sorted(nxt)
    for e in sends:
        assert isinstance(e.msg, Train) and e.msg.k == 2
        assert np.array_equal(e.msg.model.values, theta.values)


def test_partial_round_averages_exactly_the_present_models():
    m, c, parts, agg = setup_round(s=3, sf=2 / 3)  # threshold 2
    fired = []
    node = make_node(agg, m, c, hook=lambda k, theta, now: fired.append(theta))
    node.on_message(0.0, parts[0], Aggregate(1, flat([1.0, 1.0])))
    node.on_message(1.0, parts[1], Aggregate(1, flat([3.0, 5.0])))
    assert len(fired) == 1
    assert np.array_equal(fired[0].values, [2.0, 3.0])
    # The straggler is dropped and counted, never averaged.
    late = node.on_message(2.0, parts[2], Aggregate(1, flat([100.0, 100.0])))
    assert late == []
    assert node.late_by_round == {1: 1}
    assert len(fired) == 1  # still exactly one completion


def test_duplicate_aggregate_from_same_sender_is_a_violation():
    m, c, parts, agg = setup_round(s=3, sf=1.0)
    node = make_node(agg, m, c)
    node.on_message(0.0, parts[0], Aggregate(1, flat([1.0, 1.0])))
    with pytest.raises(ProtocolViolation, match=f"second round-1 model from {parts[0]}"):
        node.on_message(1.0, parts[0], Aggregate(1, flat([2.0, 2.0])))
    assert list(node.pending[1]) == [parts[0]]
    assert 1 not in node.rounds_aggregated


def test_aggregation_is_arrival_order_free():
    m, c, parts, agg = setup_round(s=3, sf=1.0)
    contributions = {p: flat([float(i) * 0.1, -float(i)]) for i, p in enumerate(parts)}

    def run_order(order):
        fired = []
        node = make_node(agg, m, c, hook=lambda k, theta, now: fired.append(theta))
        for i, p in enumerate(order):
            node.on_message(float(i), p, Aggregate(1, contributions[p]))
        return fired[0].values

    a = run_order(list(parts))
    b = run_order(list(reversed(parts)))
    assert np.array_equal(a, b)  # bitwise, thanks to canonical ordering


def test_unexpected_message_and_timer_are_violations():
    m, c, parts, _ = setup_round()
    node = make_node(parts[0], m, c)
    with pytest.raises(ProtocolViolation):
        node.on_message(0.0, parts[0], GossipModel(flat([0.0, 0.0])))
    with pytest.raises(ProtocolViolation):
        node.on_timer()


# -------------------------------------------------------- engine integration --


def run_plexus(n=8, s=3, sf=1.0, rounds=5, latency=None, theta_dim=4, seed=0):
    m = make_membership(n)
    c = ProtocolConfig(s=s, sf=sf, max_rounds=rounds)
    theta0 = flat(np.zeros(theta_dim))
    lat = latency if latency is not None else LatencyMatrix.zero()
    eng = Engine(m, lat)
    completions = {}

    def train(nid):
        def fn(k, model, _nid=nid):
            # Node- and round-specific deterministic shift.
            delta = (hash((_nid, k)) % 7) / 10.0
            return model.with_values(model.values + delta, age=model.age + 1)

        return fn

    nodes = {}
    for nid in m.nodes:
        nodes[nid] = PlexusNode(
            nid,
            m,
            c,
            init_model=lambda: theta0,
            train_fn=train(nid),
            average_fn=average_models,
            compute_seconds=1.0,
            round_hook=(lambda k, theta, now, _nid=nid: completions.setdefault(k, (now, _nid, theta))),
        )
    deliveries = observe(eng, nodes)
    for nid in m.nodes:
        eng.inject(0.0, nid, nodes[nid].bootstrap())
    eng.run()
    return m, c, eng, nodes, completions, deliveries


def test_full_run_completes_every_round_exactly_once():
    m, c, eng, nodes, completions, _ = run_plexus(rounds=5)
    assert eng.quiescent()
    assert sorted(completions) == [1, 2, 3, 4, 5]
    assert sum(len(node.rounds_aggregated) for node in nodes.values()) == 5
    assert eng.completed == "experiment complete"
    # Each round was aggregated by the sampler-designated aggregator.
    for k, (_, nid, _) in completions.items():
        assert nid == aggregator(sample(k, c.s, m.nodes), m)
    # Monotone completion times.
    times = [completions[k][0] for k in sorted(completions)]
    assert times == sorted(times)


def test_full_run_byte_ledger_matches_combinatorics():
    m, c, eng, nodes, completions, _ = run_plexus(rounds=6, theta_dim=10)
    nbytes = 8 * 10 + 16
    want = 0
    for k in range(1, 7):
        parts = sample(k, c.s, m.nodes)
        agg = aggregator(parts, m)
        want += (len(parts) - 1) * nbytes  # uploads; the aggregator's own is local
        nxt = sample(k + 1, c.s, m.nodes)
        want += len([x for x in nxt if x != agg]) * nbytes  # Train pushes
    assert eng.bytes_total == want


def test_full_run_late_model_accounting():
    m, c, eng, nodes, completions, _ = run_plexus(s=4, sf=0.5, rounds=5)
    threshold = c.threshold
    assert threshold == 2
    late = Counter()
    for node in nodes.values():
        late.update(node.late_by_round)
    # Every round drops exactly the models past its threshold.
    assert late == {k: 4 - threshold for k in range(1, 6)}
    # Every round still fired exactly once.
    assert sum(len(node.rounds_aggregated) for node in nodes.values()) == 5


def test_full_run_is_deterministic():
    def fingerprint():
        _, _, _, _, completions, deliveries = run_plexus(rounds=4, latency=None)
        log = [(repr(t), s, d, type(msg), msg.k, msg.model.values.tobytes()) for t, s, d, msg in deliveries]
        thetas = {k: completions[k][2].values.tobytes() for k in completions}
        return log, thetas

    assert fingerprint() == fingerprint()


def test_full_run_with_latency_still_completes():
    lat = LatencyMatrix(("a", "b"), np.array([[2.0, 120.0], [120.0, 2.0]]))
    m = make_membership(8, cities=2)
    c = ProtocolConfig(s=3, sf=1.0, max_rounds=3)
    eng = Engine(m, lat)
    completions = {}
    nodes = {}
    for nid in m.nodes:
        nodes[nid] = PlexusNode(
            nid,
            m,
            c,
            init_model=lambda: flat([0.0]),
            train_fn=bump_train,
            average_fn=average_models,
            compute_seconds=2.0,
            round_hook=lambda k, theta, now: completions.setdefault(k, now),
        )
        eng.register(nid, nodes[nid])
    for nid in m.nodes:
        eng.inject(0.0, nid, nodes[nid].bootstrap())
    eng.run()
    assert sorted(completions) == [1, 2, 3]
    # Round 1: compute 2 s, then an upload plus latency per hop; every
    # completion strictly after the training time.
    assert completions[1] > 2.0


def test_sf1_run_equals_centralized_fedavg_to_1e_12():
    # With sf = 1 every round averages all s participants, so the final
    # model must equal plain FedAvg over the same sampler schedule and the
    # same per-(node, round) trainer, bit-for-bit up to 1e-12.
    n, s, rounds = 8, 3, 6
    m = make_membership(n)
    theta0 = flat(np.linspace(-1.0, 1.0, 5))

    def train_for(nid, k, model):
        rng = np.random.default_rng(abs(hash((nid, k))) % (2**32))
        return model.with_values(model.values - 0.05 * rng.normal(size=model.dim), age=0)

    c = ProtocolConfig(s=s, sf=1.0, max_rounds=rounds)
    eng = Engine(m, LatencyMatrix.zero())
    finals = {}
    nodes = {}
    for nid in m.nodes:
        nodes[nid] = PlexusNode(
            nid,
            m,
            c,
            init_model=lambda: theta0,
            train_fn=(lambda k, model, _nid=nid: train_for(_nid, k, model)),
            average_fn=average_models,
            compute_seconds=1.0,
            round_hook=lambda k, theta, now: finals.setdefault(k, theta),
        )
        eng.register(nid, nodes[nid])
    for nid in m.nodes:
        eng.inject(0.0, nid, nodes[nid].bootstrap())
    eng.run()

    history = fedavg_reference(
        theta0,
        rounds,
        participants_fn=lambda k: sample(k, s, m.nodes),
        train_fn=lambda nid, k, theta: train_for(nid, k, theta),
    )
    for k in range(1, rounds + 1):
        assert np.max(np.abs(finals[k].values - history[k - 1].values)) <= 1e-12
