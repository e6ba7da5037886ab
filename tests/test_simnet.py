from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plexsim.core import (
    ModelParameters,
    ScheduleCompute,
    Send,
    SetTimer,
    Terminal,
    Train,
)
from plexsim import simnet
from plexsim.simnet import (
    Engine,
    LatencyMatrix,
    SimulationError,
    assign_cities,
    compute_time,
    maxmin_rates,
)

from conftest import make_membership
from oracles import fluid_completions, fluid_rates, maxmin_reference, recompute_every_rate


class Recorder:
    """Handler that logs deliveries and replies with a scripted effect list
    per message."""

    def __init__(self, script=None):
        self.messages = []
        self.script = script or (lambda *a: [])

    def on_message(self, now, src, msg):
        self.messages.append((now, src, msg))
        return self.script(now, src, msg)

    def on_timer(self):
        return []


def ping(tag="x"):
    return Train(1, ModelParameters(np.array([float(hash(tag) % 97)])))


# ----------------------------------------------------------- small pieces --


def test_assign_cities_round_robin():
    assert assign_cities(7, 3) == [0, 1, 2, 0, 1, 2, 0]
    with pytest.raises(ValueError):
        assign_cities(3, 0)


def test_compute_time_scales_with_steps():
    m = make_membership(1, step=0.4)
    assert compute_time(m.profile("n000"), 100) == pytest.approx(40.0)
    assert compute_time(m.profile("n000"), 0) == 0.0


def test_one_way_latency_is_half_rtt_in_seconds():
    lm = LatencyMatrix(("a", "b"), np.array([[2.0, 100.0], [100.0, 2.0]]))
    assert lm.one_way_s(0, 1) == pytest.approx(0.05)
    assert lm.one_way_s(0, 0) == pytest.approx(0.001)


# -------------------------------------------------------- max-min sharing --


def test_maxmin_nine_uploads_split_the_uplink():
    n = 10
    up = {f"n{i}": 9e6 for i in range(n)}
    down = {f"n{i}": 5e6 for i in range(n)}
    flows = [(i, "n0", f"n{i + 1}") for i in range(9)]
    rates = maxmin_rates(flows, up, down)
    for tid in range(9):
        assert rates[tid] == pytest.approx(1e6)


def test_maxmin_fan_in_splits_the_downlink():
    up = {f"n{i}": 5e6 for i in range(10)}
    down = {f"n{i}": 9e6 for i in range(10)}
    flows = [(i, f"n{i + 1}", "n0") for i in range(9)]
    rates = maxmin_rates(flows, up, down)
    for tid in range(9):
        assert rates[tid] == pytest.approx(1e6)


def test_maxmin_freed_capacity_is_redistributed():
    # Flow 0 is pinned to 1 MB/s by its receiver; flow 1 then gets the
    # remainder of the shared 10 MB/s uplink, not half of it.
    up = {"s": 10e6, "a": 1.0, "b": 1.0}
    down = {"a": 1e6, "b": 50e6, "s": 1.0}
    rates = maxmin_rates([(0, "s", "a"), (1, "s", "b")], up, down)
    assert rates[0] == pytest.approx(1e6)
    assert rates[1] == pytest.approx(9e6)


def _random_flow_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    nodes = [f"n{i}" for i in range(n)]
    up = {nid: float(rng.uniform(1e5, 1e7)) for nid in nodes}
    down = {nid: float(rng.uniform(1e5, 1e7)) for nid in nodes}
    n_flows = int(rng.integers(1, 12))
    flows = []
    for tid in range(n_flows):
        src = nodes[int(rng.integers(0, n))]
        others = [x for x in nodes if x != src]
        dst = others[int(rng.integers(0, len(others)))]
        flows.append((tid, src, dst))
    return flows, up, down


@pytest.mark.parametrize("seed", range(40))
def test_maxmin_matches_fluid_oracle(seed):
    flows, up, down = _random_flow_instance(seed)
    got = maxmin_rates(flows, up, down)
    want = fluid_rates({tid: (s, d) for tid, s, d in flows}, up, down)
    for tid, _, _ in flows:
        assert got[tid] == pytest.approx(want[tid], rel=1e-9)


@pytest.mark.parametrize("seed", range(40))
def test_maxmin_is_feasible_and_saturating(seed):
    # Feasibility plus the max-min fixed point: every flow must cross at
    # least one port it fills to capacity together with its peers.
    flows, up, down = _random_flow_instance(seed)
    rates = maxmin_rates(flows, up, down)
    load_up = {n: 0.0 for n in up}
    load_down = {n: 0.0 for n in down}
    for tid, s, d in flows:
        assert rates[tid] > 0
        load_up[s] += rates[tid]
        load_down[d] += rates[tid]
    for n in up:
        assert load_up[n] <= up[n] * (1 + 1e-9)
        assert load_down[n] <= down[n] * (1 + 1e-9)
    for tid, s, d in flows:
        up_sat = load_up[s] >= up[s] * (1 - 1e-9)
        down_sat = load_down[d] >= down[d] * (1 - 1e-9)
        assert up_sat or down_sat


# Tie-prone capacities: a few repeated values, some 1e-10 apart, so equal
# shares and near-equal ones both occur.
_TIE_CAPS = st.sampled_from([1e6, 1e6 + 1e-10, 2e6, 3e6, 3e6 - 1e-10, 5e5])

# Moves of up to 2e-9 bytes/s: shares that tie, and shares that differ by
# a few ulps up to a few 1e-9 without being equal.
_OFFSETS = st.sampled_from([0.0, 5e-10, -5e-10, 6e-10, -6e-10, 1e-9, -1e-9, 2e-9, -2e-9])

# Capacities from 1e4 to 3e6 bytes/s, moved by an offset.
_NEAR_TIE_CAPS = st.builds(
    lambda base, offset: base + offset, st.sampled_from([1e4, 2e4, 3e4, 6e4, 1e6, 3e6]), _OFFSETS
)

# Capacities from 1 to 60 bytes/s, moved by an offset: there a move of 1e-9
# is a large relative change, so any absolute tolerance would show.
_SMALL_CAPS = st.builds(
    lambda base, offset: base + offset, st.sampled_from([1.0, 2.0, 3.0, 6.0, 10.0, 60.0]), _OFFSETS
)

_ALL_CAPS = st.sampled_from([_TIE_CAPS, _NEAR_TIE_CAPS, _SMALL_CAPS])


def draw_flows(data, caps, prefix="n"):
    """Flows over 2 to 5 nodes with capacities drawn from ``caps``."""
    n = data.draw(st.integers(2, 5))
    nodes = [f"{prefix}{i}" for i in range(n)]
    up = {nid: data.draw(caps) for nid in nodes}
    down = {nid: data.draw(caps) for nid in nodes}
    # Few nodes, so pairs repeat and several flows share both their ports.
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=12))
    flows = [(tid, nodes[a], nodes[(a + b) % n]) for tid, (a, b) in enumerate(pairs)]
    return flows, up, down


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_maxmin_matches_the_reference_bit_for_bit(data):
    flows, up, down = draw_flows(data, _TIE_CAPS)
    got = maxmin_rates(flows, up, down)
    want = maxmin_reference(flows, up, down)
    assert {t: r.hex() for t, r in got.items()} == {t: r.hex() for t, r in want.items()}


def assert_maxmin_certificate(flows, up, down, rates):
    """Max-min fairness from first principles: no port carries more than
    its capacity, beyond 1e-9 relative, and every flow crosses a port that
    is saturated, within 1e-12 relative, and where no flow's rate exceeds
    its own by more than 1e-9 relative: a bottleneck of the flow."""
    load, cap, top = defaultdict(float), {}, defaultdict(float)
    for tid, src, dst in flows:
        for port, c in ((("u", src), up[src]), (("d", dst), down[dst])):
            load[port] += rates[tid]
            cap[port] = c
            top[port] = max(top[port], rates[tid])
    over = [port for port in load if load[port] > cap[port] * (1 + 1e-9)]
    assert not over, f"ports over capacity: {over}"
    unbound = [
        tid
        for tid, src, dst in flows
        if not any(
            load[port] >= cap[port] * (1 - 1e-12) and rates[tid] >= top[port] * (1 - 1e-9)
            for port in (("u", src), ("d", dst))
        )
    ]
    assert not unbound, f"flows without a bottleneck: {unbound}"


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_maxmin_rates_pass_the_max_min_certificate(data):
    flows, up, down = draw_flows(data, data.draw(_ALL_CAPS))
    assert_maxmin_certificate(flows, up, down, maxmin_rates(flows, up, down))


def test_maxmin_rates_pass_the_certificate_at_one_byte_per_second():
    # up/2 and down/2 differ by 5.5e-10 bytes/s. Taking the larger share as
    # the bottleneck would put the uplink 1.1e-9 relative over capacity.
    up, down = {"n1": 0.9999999995}, {"n0": 1.0000000006}
    flows = [(0, "n1", "n0"), (1, "n1", "n0")]
    rates = maxmin_rates(flows, up, down)
    assert rates == {0: up["n1"] / 2, 1: up["n1"] / 2}
    assert_maxmin_certificate(flows, up, down, rates)


def split_into_components(flows):
    """``flows`` grouped by connected component: two flows are connected
    when a chain of flows sharing a port joins them."""
    parent = {}

    def root(port):
        while parent.setdefault(port, port) != port:
            port = parent[port]
        return port

    for _, src, dst in flows:
        parent[root(("u", src))] = root(("d", dst))
    groups = defaultdict(list)
    for flow in flows:
        groups[root(("u", flow[1]))].append(flow)
    return list(groups.values())


def assert_components_solve_alone(flows, up, down):
    together = maxmin_rates(flows, up, down)
    alone = {}
    for group in split_into_components(flows):
        alone.update(maxmin_rates(group, up, down))
    assert {t: r.hex() for t, r in alone.items()} == {t: r.hex() for t, r in together.items()}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_maxmin_components_solve_alone_bit_for_bit(data):
    # Two or three independent flow sets, their tids shuffled together, so
    # the global solve interleaves their bottlenecks.
    caps = data.draw(_ALL_CAPS)
    parts = [draw_flows(data, caps, prefix) for prefix in "abc"[: data.draw(st.integers(2, 3))]]
    pairs = [(src, dst) for flows, _, _ in parts for _, src, dst in flows]
    tids = data.draw(st.permutations(range(len(pairs))))
    flows = [(tid, src, dst) for tid, (src, dst) in zip(tids, pairs)]
    up = {nid: c for _, part_up, _ in parts for nid, c in part_up.items()}
    down = {nid: c for _, _, part_down in parts for nid, c in part_down.items()}
    assert_components_solve_alone(flows, up, down)


def test_maxmin_near_tie_does_not_depend_on_the_other_flows():
    # Flow 0's uplink x1 is 0.6e-9 below its downlink x2, a near tie. Flow
    # 1's port a9 sorts first and its share lies within 1e-9 of x2's, but it
    # shares no port with flow 0, so it cannot decide flow 0's rate: alone
    # or together, x1's share is the smaller and flow 0 freezes at it.
    up = {"x1": 10 - 0.6e-9, "a0": 100.0}
    down = {"x2": 10.0, "a9": 10 + 0.5e-9}
    flows = [(0, "x1", "x2"), (1, "a0", "a9")]
    together, alone = maxmin_rates(flows, up, down), maxmin_rates(flows[:1], up, down)
    assert together[0] == alone[0] == up["x1"]
    assert_maxmin_certificate(flows, up, down, together)
    assert_maxmin_certificate(flows[:1], up, down, alone)
    assert_components_solve_alone(flows, up, down)


def test_maxmin_infinite_capacity_raises():
    # inf / k is never below inf, so no port is a bottleneck; without the
    # error the filling loop would never end.
    up = {"a": float("inf"), "b": float("inf")}
    down = {"a": float("inf"), "b": float("inf")}
    with pytest.raises(SimulationError, match="no live port"):
        maxmin_rates([(0, "a", "b")], up, down)


# ------------------------------------------------------------- the engine --


def engine_pair(rtt_ms=100.0, **kw):
    m = make_membership(2, cities=2, **kw)
    lm = LatencyMatrix(("a", "b"), np.array([[0.0, rtt_ms], [rtt_ms, 0.0]]))
    eng = Engine(m, lm, record_deliveries=True)
    return eng, m


def test_single_transfer_delivery_time():
    # 8 MB at a 1 MB/s uplink (downlink is wider) plus 50 ms one-way
    # latency: the receiver sees the message at 8.05 s.
    eng, _ = engine_pair(uplink=1e6, downlink=2e6)
    rec = Recorder()
    eng.register("n001", rec)
    eng.send_at(0.0, "n000", "n001", ping(), 8_000_000)
    eng.run()
    assert len(rec.messages) == 1
    assert rec.messages[0][0] == pytest.approx(8.05)
    assert eng.bytes_total == 8_000_000


def test_zero_byte_message_is_latency_only():
    eng, _ = engine_pair()
    rec = Recorder()
    eng.register("n001", rec)
    eng.send_at(0.0, "n000", "n001", ping(), 0)
    eng.run()
    assert rec.messages[0][0] == pytest.approx(0.05)
    assert eng.bytes_total == 0


def test_self_send_is_free_and_instant():
    eng, _ = engine_pair()
    rec = Recorder()
    eng.register("n000", rec)
    eng.inject(3.0, "n000", [Send("n000", ping(), 12345)])
    eng.run()
    assert rec.messages == [(3.0, "n000", rec.messages[0][2])]
    assert eng.bytes_total == 0


def test_send_requires_distinct_endpoints():
    eng, _ = engine_pair()
    with pytest.raises(ValueError):
        eng.send_at(0.0, "n000", "n000", ping(), 1)


def test_send_to_unknown_node_is_an_error():
    eng, _ = engine_pair()
    eng.inject(0.0, "n000", [Send("ghost", ping(), 1)])
    with pytest.raises(SimulationError):
        eng.run()


def _staggered_scenario(seed, n=6, n_transfers=10):
    rng = np.random.default_rng(seed)
    m = make_membership(
        n,
        uplink=[float(rng.uniform(2e5, 2e6)) for _ in range(n)],
        downlink=[float(rng.uniform(2e5, 2e6)) for _ in range(n)],
        cities=1,
    )
    transfers = []
    for tid in range(n_transfers):
        i = int(rng.integers(0, n))
        j = (i + 1 + int(rng.integers(0, n - 1))) % n
        nbytes = int(rng.integers(10_000, 2_000_000))
        start = float(np.round(rng.uniform(0, 4), 3))
        transfers.append((tid, m.nodes[i], m.nodes[j], nbytes, start))
    return m, transfers


@pytest.mark.parametrize("seed", range(12))
def test_engine_matches_fluid_completion_oracle(seed):
    # Overlapping transfers with rate changes at every start/finish: the
    # engine's delivery instants must equal the independent fluid
    # integration to float accuracy (zero latency isolates bandwidth).
    m, transfers = _staggered_scenario(seed)
    eng = Engine(m, LatencyMatrix.zero(), record_deliveries=True)
    for nid in m.nodes:
        eng.register(nid, Recorder())
    for tid, src, dst, nbytes, start in transfers:
        eng.send_at(start, src, dst, ping(str(tid)), nbytes)
    eng.run()
    up = {nid: m.profile(nid).uplink_bps for nid in m.nodes}
    down = {nid: m.profile(nid).downlink_bps for nid in m.nodes}
    want = fluid_completions(transfers, up, down)
    got = {}
    for t, src, dst, nbytes in eng.delivery_log:
        key = [tid for tid, s, d, nb, _ in transfers if s == src and d == dst and nb == nbytes]
        assert key, "unexpected delivery"
        got[key[0]] = t
    assert len(got) == len(transfers)
    for tid in want:
        assert got[tid] == pytest.approx(want[tid], rel=1e-6, abs=1e-6)
    assert eng.bytes_total == sum(nb for _, _, _, nb, _ in transfers)


def test_a_fast_transfer_late_on_the_clock_conserves_its_bytes():
    # 1000 B at 1 GB/s from t = 2 days: the completion time rounds to the
    # clock's spacing there, 2.9e-11 s, which moves 0.0076 bytes at this
    # rate. That is rounding, not lost bytes, and must not raise.
    m = make_membership(2, uplink=1e9, downlink=1e9)
    eng = Engine(m, LatencyMatrix.zero(), record_deliveries=True)
    start = 172800.0
    eng.send_at(start, "n000", "n001", ping(), 1000)
    eng.run()
    [(at, _, _, nbytes)] = eng.delivery_log
    assert nbytes == eng.bytes_total == 1000
    assert abs(at - (start + 1e-6)) <= np.spacing(start)


@st.composite
def fast_and_slow_transfers(draw):
    """1 to 5 transfers among 3 nodes whose links run at 1 B/s to 1e12 B/s,
    of 1 to 1e8 bytes, sent at 0 to 1e6 s."""
    rates = st.floats(1.0, 1e12)
    up = draw(st.lists(rates, min_size=3, max_size=3))
    down = draw(st.lists(rates, min_size=3, max_size=3))
    transfers = []
    for tid in range(draw(st.integers(1, 5))):
        src = draw(st.integers(0, 2))
        dst = (src + draw(st.integers(1, 2))) % 3
        transfers.append((tid, f"n{src:03d}", f"n{dst:03d}", draw(st.integers(1, 10**8)), draw(st.floats(0.0, 1e6))))
    return make_membership(3, uplink=up, downlink=down), transfers


@settings(max_examples=300, deadline=None)
@given(fast_and_slow_transfers())
def test_bytes_are_conserved_at_any_link_speed(case):
    # No rounding of the clock or of the byte counts trips the conservation
    # check, and every delivery lies within 1e-9 of its transfer's lifetime,
    # plus 16 clock spacings, plus 1e-14 s of the fluid oracle's completion
    # time: the oracle starts a transfer up to 1e-15 s early.
    m, transfers = case
    eng = Engine(m, LatencyMatrix.zero())
    recorders = {nid: Recorder() for nid in m.nodes}
    for nid, rec in recorders.items():
        eng.register(nid, rec)
    for tid, src, dst, nbytes, start in transfers:
        eng.send_at(start, src, dst, Train(tid, ModelParameters(np.zeros(1))), nbytes)
    eng.run()
    got = {msg.k: at for rec in recorders.values() for at, _, msg in rec.messages}
    up = {nid: m.profile(nid).uplink_bps for nid in m.nodes}
    down = {nid: m.profile(nid).downlink_bps for nid in m.nodes}
    want = fluid_completions(transfers, up, down)
    assert sorted(got) == sorted(want) == list(range(len(transfers)))
    for tid, _, _, _, start in transfers:
        assert abs(got[tid] - want[tid]) <= 1e-9 * (want[tid] - start) + 16 * np.spacing(want[tid]) + 1e-14
    assert eng.bytes_total == sum(nbytes for _, _, _, nbytes, _ in transfers)


def test_engine_is_deterministic():
    def run_once():
        m, transfers = _staggered_scenario(3)
        eng = Engine(m, LatencyMatrix.zero(), record_deliveries=True)
        for nid in m.nodes:
            eng.register(nid, Recorder())
        for tid, src, dst, nbytes, start in transfers:
            eng.send_at(start, src, dst, ping(str(tid)), nbytes)
        eng.run()
        return [(repr(t), s, d, nb) for t, s, d, nb in eng.delivery_log]

    assert run_once() == run_once()


def test_mid_flight_arrival_slows_first_transfer():
    # Two 1 MB/s uplinks into one 1 MB/s downlink. The second transfer
    # starts at t=4: the first runs alone for 4 s (4 MB done), then both
    # share 0.5 MB/s, so its last 4 MB take 8 s: done at t=12.
    m = make_membership(3, uplink=1e6, downlink=1e6)
    eng = Engine(m, LatencyMatrix.zero(), record_deliveries=True)
    for nid in m.nodes:
        eng.register(nid, Recorder())
    eng.send_at(0.0, "n000", "n002", ping("a"), 8_000_000)
    eng.send_at(4.0, "n001", "n002", ping("b"), 8_000_000)
    eng.run()
    times = sorted(t for t, _, _, _ in eng.delivery_log)
    assert times[0] == pytest.approx(12.0)
    # The second moved 4 MB by t=12, then gets the downlink to itself.
    assert times[1] == pytest.approx(16.0)


def test_timer_and_compute_effects():
    eng, _ = engine_pair()
    fired = []
    trained = []

    class Node:
        def on_message(self, now, src, msg):
            return []

        def on_timer(self):
            fired.append(eng.now)
            return [
                ScheduleCompute(2.5, lambda: trained.append(eng.now) or []),
                ScheduleCompute(0.5, lambda: []),
            ]

    eng.register("n000", Node())
    eng.inject(0.0, "n000", [SetTimer(1.0)])
    eng.run()
    assert fired == [1.0]
    assert trained == [3.5]
    assert eng.train_seconds_total == pytest.approx(3.0)  # every compute accrues
    assert eng.now == pytest.approx(3.5)


def test_terminal_records_first_reason():
    eng, _ = engine_pair()
    eng.register("n000", Recorder())
    eng.inject(0.0, "n000", [Terminal("done"), Terminal("again")])
    eng.run()
    assert eng.completed == "done"


def test_run_until_pauses_without_losing_events():
    eng, _ = engine_pair()
    rec = Recorder()
    eng.register("n001", rec)
    eng.send_at(5.0, "n000", "n001", ping(), 0)
    assert eng.run(until=2.0) == 2.0
    assert rec.messages == []
    assert not eng.quiescent()
    eng.run()
    assert rec.messages[0][0] == pytest.approx(5.05)


def test_checkpoints_fire_in_order_and_do_not_perturb():
    # Observing between paused runs must not move the delivery, and a
    # drained queue leaves the clock at the last event, not at `until`.
    eng, _ = engine_pair(uplink=1e6, downlink=2e6)
    rec = Recorder()
    eng.register("n001", rec)
    eng.send_at(0.0, "n000", "n001", ping(), 8_000_000)
    seen = []
    for t in (2.0, 4.0, 100.0):
        eng.run(until=t)
        seen.append((t, eng.bytes_total))
    assert seen == [(2.0, 0), (4.0, 0), (100.0, 8_000_000)]
    assert rec.messages[0][0] == pytest.approx(8.05)  # unchanged by probes
    assert eng.now == pytest.approx(8.05)  # drained: the run ended here


def test_run_until_refuses_to_move_the_clock_back():
    eng, _ = engine_pair()
    eng.register("n001", Recorder())
    eng.send_at(5.0, "n000", "n001", ping(), 0)
    assert eng.run(until=2.0) == 2.0
    assert eng.run(until=2.0) == 2.0  # pausing again at the same time is fine
    with pytest.raises(SimulationError, match="clock"):
        eng.run(until=1.0)
    assert eng.now == 2.0


def test_simultaneous_completions_deliver_in_send_order():
    # Two equal transfers on disjoint ports, started at one instant, finish
    # together; the one sent first is delivered first.
    m = make_membership(4, uplink=1e6, downlink=1e6)
    eng = Engine(m, LatencyMatrix.zero(), record_deliveries=True)
    for nid in m.nodes:
        eng.register(nid, Recorder())
    eng.inject(0.0, "n002", [Send("n003", ping("b"), 3_000_000)])
    eng.inject(0.0, "n000", [Send("n001", ping("a"), 3_000_000)])
    eng.run()
    assert [(src, dst) for _, src, dst, _ in eng.delivery_log] == [("n002", "n003"), ("n000", "n001")]
    assert [t for t, _, _, _ in eng.delivery_log] == [pytest.approx(3.0)] * 2


def test_a_rate_solve_schedules_one_completion_event():
    # Three live transfers, one rate solve: one pending completion, for the
    # transfer that finishes first.
    m = make_membership(4, uplink=1e6, downlink=1e6)
    eng = Engine(m, LatencyMatrix.zero(), record_deliveries=True)
    for nid in m.nodes:
        eng.register(nid, Recorder())
    eng.inject(0.0, "n000", [
        Send("n001", ping("a"), 3_000_000),
        Send("n002", ping("b"), 1_000_000),
        Send("n003", ping("c"), 2_000_000),
    ])
    eng.run(until=0.0)
    assert len(eng._transfers) == 3
    assert [t for t, _, _ in eng._heap] == [pytest.approx(3.0)]  # 1 MB at a third of 1 MB/s
    eng.run()
    assert [dst for _, _, dst, _ in eng.delivery_log] == ["n002", "n003", "n001"]
    assert [t for t, _, _, _ in eng.delivery_log] == [
        pytest.approx(3.0), pytest.approx(5.0), pytest.approx(6.0)
    ]


def _replying_run(membership, latency, transfers):
    """Run ``transfers`` (src, dst, bytes, start, reply bytes) on a fresh
    engine: the ones with one start and sender are sent together, and a
    receiver answers a transfer with a nonzero reply by sending that many
    bytes back. Returns the delivery log, times in hex, and the byte total."""
    eng = Engine(membership, latency, record_deliveries=True)

    class Replier:
        def on_message(self, now, src, msg):
            reply = transfers[msg][4] if isinstance(msg, int) else 0
            return [Send(src, ("reply", msg), reply)] if reply else []

        def on_timer(self):
            return []

    for nid in membership.nodes:
        eng.register(nid, Replier())
    batches = defaultdict(list)
    for i, (a, b, nbytes, start, _) in enumerate(transfers):
        batches[start, a].append(Send(membership.nodes[b], i, nbytes))
    for (start, a), sends in batches.items():
        eng.inject(start, membership.nodes[a], sends)
    eng.run()
    return [(t.hex(), src, dst, nb) for t, src, dst, nb in eng.delivery_log], eng.bytes_total


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_component_resolve_matches_a_full_resolve_bit_for_bit(data):
    # Tied capacities, a few sizes and start times, and replies sent at a
    # completion instant: shares tie, transfers finish together, and a
    # start lands on a finish. With ``crowd`` every transfer leaves node 0.
    n = data.draw(st.integers(1, 8))
    caps = st.sampled_from([1e6, 1e6 + 1e-10, 2e6, 3e6])
    cities = data.draw(st.sampled_from([1, 2]))
    m = make_membership(
        n,
        uplink=[data.draw(caps) for _ in range(n)],
        downlink=[data.draw(caps) for _ in range(n)],
        cities=cities,
    )
    latency = LatencyMatrix.zero() if cities == 1 else LatencyMatrix(
        ("a", "b"), np.array([[0.0, 20.0], [20.0, 0.0]])
    )
    node = st.integers(0, n - 1)
    transfer = st.tuples(
        st.just(0) if data.draw(st.booleans()) else node,
        node,  # the sender itself makes a free hand-off
        st.sampled_from([1_000, 3_000_000, 6_000_000, 6_000_001]),
        st.sampled_from([0.0, 1.0, 1.5, 3.0]),
        st.sampled_from([0, 0, 2_000_000]),
    )
    transfers = data.draw(st.lists(transfer, min_size=1, max_size=12))
    got = _replying_run(m, latency, transfers)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_recompute_rates", recompute_every_rate)
        want = _replying_run(m, latency, transfers)
    assert got == want


def test_a_start_or_finish_re_solves_only_its_component(monkeypatch):
    # n000 -> n001 and n002 -> n003 share no port. The second start solves
    # only its own flow, and its finish leaves no flow at its ports to solve.
    solved = []

    def counting(flows, up, down):
        solved.append([tid for tid, _, _ in flows])
        return maxmin_rates(flows, up, down)

    monkeypatch.setattr(simnet, "maxmin_rates", counting)
    m = make_membership(4, uplink=1e6, downlink=1e6)
    eng = Engine(m, LatencyMatrix.zero(), record_deliveries=True)
    for nid in m.nodes:
        eng.register(nid, Recorder())
    eng.inject(0.0, "n000", [Send("n001", ping("a"), 3_000_000)])
    eng.inject(0.0, "n002", [Send("n003", ping("b"), 1_000_000)])
    eng.run()
    assert solved == [[0], [1]]
    assert eng._solves == 3  # the finish at t=1 still schedules the next completion
    assert [(t, dst) for t, _, dst, _ in eng.delivery_log] == [(1.0, "n003"), (3.0, "n001")]


def test_past_scheduling_is_rejected():
    eng, _ = engine_pair()
    eng.register("n001", Recorder())
    eng.send_at(10.0, "n000", "n001", ping(), 0)
    eng.run()
    with pytest.raises(SimulationError, match="past"):
        eng.inject(1.0, "n000", [])
        eng.run()


def test_scheduling_one_ulp_in_the_past_is_rejected():
    eng, _ = engine_pair()
    eng.inject(1.0, "n000", [])
    assert eng.run() == 1.0
    with pytest.raises(SimulationError, match="past"):
        eng.inject(np.nextafter(1.0, 0.0), "n000", [])


def test_register_requires_membership():
    eng, _ = engine_pair()
    with pytest.raises(ValueError):
        eng.register("ghost", Recorder())


def test_same_time_events_fire_in_insertion_order():
    eng, _ = engine_pair()
    order = []

    class Tagger:
        def __init__(self, tag):
            self.tag = tag

        def on_message(self, now, src, msg):
            order.append(self.tag)
            return []

        def on_timer(self):
            return []

    eng.register("n000", Tagger("first"))
    eng.register("n001", Tagger("second"))
    # Both zero-byte sends are injected at t=1.0 and land at t=1.05; the
    # (time, seq) heap key must break the tie in insertion order.
    eng.inject(1.0, "n001", [Send("n000", ping(), 0)])
    eng.inject(1.0, "n000", [Send("n001", ping(), 0)])
    eng.run()
    assert order == ["first", "second"]


def test_same_time_events_keep_effect_order_across_kinds():
    # At t=1 n000's handler returns a self-send, a zero-length compute and a
    # zero-delay timer; an inject issued afterwards at the same instant must
    # run after all three, whatever their kinds. The injected Terminal shows
    # in ``eng.completed`` once it has been applied.
    eng, _ = engine_pair()
    order = []

    def record(kind):
        order.append((kind, eng.now, eng.completed))

    class Worker:
        def __init__(self):
            self.fires = 0

        def on_message(self, now, src, msg):
            record("deliver")
            return []

        def on_timer(self):
            self.fires += 1
            if self.fires > 1:
                record("tick")
                return []
            return [
                Send("n000", ping(), 0),
                ScheduleCompute(0.0, lambda: record("compute") or []),
                SetTimer(0.0),
            ]

    class Injector:
        def on_message(self, now, src, msg):
            return []

        def on_timer(self):
            eng.inject(eng.now, "n001", [Terminal("injected")])
            return []

    eng.register("n000", Worker())
    eng.register("n001", Injector())
    eng.inject(1.0, "n000", [SetTimer(0.0)])
    eng.inject(1.0, "n001", [SetTimer(0.0)])
    eng.run()
    assert order == [("deliver", 1.0, None), ("compute", 1.0, None), ("tick", 1.0, None)]
    assert eng.completed == "injected"
    assert eng.now == 1.0
