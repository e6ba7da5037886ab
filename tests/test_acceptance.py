"""Whole-stack acceptance gate.

Eight checks, each ending with one printed PASS/FAIL line carrying the
measured values (run ``pytest tests/test_acceptance.py -s`` to see the lines
for passing tests; plain pytest shows them only on failure):

1. sampler agreement across independently permuted node views, plus
   per-node selection uniformity,
2. bit-level agreement of a full Plexus run with a centralized FedAvg
   reference,
3. event-engine transfer completions against an independent fluid max-min
   oracle on randomized instances,
4. convergence ordering against D-PSGD and gossip learning on a
   heterogeneous 100-node task,
5. accuracy and traffic parity with the centralized FL baseline,
6. cost scaling across sample sizes,
7. exact closed-form byte and training-second ledgers, and
8. byte-identical reruns.

Checks 4..6 share one frozen desk-scale task: 100 nodes with lognormal
device profiles over an 8-city latency matrix, a 10-class Gaussian mixture
with 20k samples in 256 dimensions, softmax regression (20,576-byte
models), and 3 local steps of minibatch SGD per activation. The class
separation is tuned so the 0.85 target sits on the rising part of every
algorithm's curve, not at its first evaluation.
"""

import filecmp
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_membership, observe
from oracles import fedavg_reference, fluid_completions

from plexsim.config import (
    DatasetConfig,
    EvalConfig,
    ExperimentConfig,
    StopConfig,
    TopologyConfig,
    TracesConfig,
)
from plexsim.core import Membership, ModelParameters, Send, average_models, derive_rng, message_size_bytes
from plexsim.learning import (
    ModelSpec,
    PartitionScheme,
    TrainerConfig,
    local_train,
    partition,
    synth_dataset,
)
from plexsim.metrics import cta, rta, tta
from plexsim.protocol import PlexusNode, ProtocolConfig, Train
from plexsim.runner import build_world, run_experiment, run_single
from plexsim.sampler import aggregator, sample
from plexsim.simnet import Engine, LatencyMatrix, compute_time, maxmin_rates


def _gate(name: str, ok: bool, detail: str, elapsed: float, budget_s: float) -> None:
    verdict = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(
        f"[acceptance] {name}: {verdict} ({detail}; {elapsed:.1f}s of {budget_s:.0f}s budget)",
        flush=True,
    )
    assert ok, f"{name}: {detail}"
    assert elapsed < budget_s, f"{name}: took {elapsed:.1f}s, budget {budget_s:.0f}s"


# ------------------------------------------------- shared desk-scale task --

TARGET = 0.85

_BASE = dict(
    n=100,
    sample_size=13,
    success_fraction=0.8,
    protocol_seed=42,
    targets=(TARGET,),
    trainer=TrainerConfig(eta=0.05, batch_size=32, local_steps=3),
    dataset=DatasetConfig(seed=1, n_samples=20_000, d_in=256, classes=10, class_sep=0.185),
    traces=TracesConfig(cities=8, seed=7),
    stop=StopConfig(max_rounds=150, max_virtual_s=48 * 3600.0),
    eval=EvalConfig(every_rounds=1, every_seconds=1800.0),
)


def _cfg(algorithm: str, **overrides) -> ExperimentConfig:
    kw = dict(_BASE)
    kw.update(overrides)
    return ExperimentConfig(algorithm=algorithm, **kw)


@pytest.fixture(scope="module")
def world100():
    return build_world(_cfg("plexus"))


@pytest.fixture(scope="module")
def plexus_run(world100):
    t0 = time.time()
    ledger = run_single(_cfg("plexus"), world100, 0)
    return ledger, time.time() - t0


# ---------------------------------------------------------------- check 1 --


def test_sampler_agreement_and_uniformity():
    n, s, rounds = 100, 13, 10_000
    ids = [f"n{i:03d}" for i in range(n)]
    membership = make_membership(n, uplink=[1e5 + 997.0 * i for i in range(n)])
    shuffled = Membership(list(reversed(ids)), {i: membership.profile(i) for i in ids})
    rng = np.random.default_rng(2024)
    counts: Counter = Counter()
    t0 = time.time()
    for k in range(1, rounds + 1):
        canonical = sample(k, s, ids)
        agg = aggregator(canonical, membership)
        # Each node derives the sample from its own membership copy; the
        # copies differ only in iteration order, so permuted views standing
        # in for per-node recomputation must agree exactly.
        for _ in range(2):
            view = list(ids)
            rng.shuffle(view)
            assert sample(k, s, view) == canonical
        assert aggregator(tuple(reversed(canonical)), shuffled) == agg
        assert len(canonical) == s
        counts.update(canonical)
    freqs = [counts[i] / rounds for i in ids]
    lo, hi = min(freqs), max(freqs)
    elapsed = time.time() - t0
    _gate(
        "sampler-agreement-uniformity",
        0.10 <= lo and hi <= 0.16,
        f"views agree over {rounds} rounds, per-node frequency in [{lo:.4f}, {hi:.4f}]",
        elapsed,
        30.0,
    )


# ---------------------------------------------------------------- check 2 --


def test_full_protocol_matches_fedavg_reference():
    n, s, n_rounds, seed = 32, 8, 20, 123
    t0 = time.time()
    m = make_membership(
        n,
        uplink=[2e5 + 1.5e4 * i for i in range(n)],
        downlink=[4e5 + 1.1e4 * i for i in range(n)],
        step=[0.2 + 0.01 * (i % 7) for i in range(n)],
    )
    ds = synth_dataset(seed=9, n_samples=3200, d_in=16, classes=4, class_sep=1.2)
    spec = ModelSpec("linear", 16, 4)
    parts = partition(ds, n, PartitionScheme("iid"), seed=555)
    tcfg = TrainerConfig(eta=0.1, batch_size=16, local_steps=2)
    theta0 = spec.init_model(derive_rng(seed, "init"))

    def train(nid, k, theta):
        return local_train(theta, spec, parts[m.index_of(nid)], tcfg, derive_rng(seed, "train", nid, k))

    agg_models: dict[int, ModelParameters] = {}

    def hook(k, model, now):
        assert k not in agg_models
        agg_models[k] = model

    pcfg = ProtocolConfig(s=s, sf=1.0, max_rounds=n_rounds)
    engine = Engine(m, LatencyMatrix.zero())
    for nid in m.nodes:
        node = PlexusNode(
            nid,
            m,
            pcfg,
            init_model=lambda: theta0,
            train_fn=lambda k, th, nid=nid: train(nid, k, th),
            average_fn=average_models,
            compute_seconds=compute_time(m.profile(nid), tcfg.local_steps),
            round_hook=hook,
        )
        engine.register(nid, node)
        engine.inject(0.0, nid, node.bootstrap())
    engine.run()

    history = fedavg_reference(theta0, n_rounds, lambda k: sample(k, s, m.nodes), train)
    assert sorted(agg_models) == list(range(1, n_rounds + 1))
    worst = max(
        float(np.max(np.abs(agg_models[k].values - history[k - 1].values)))
        for k in range(1, n_rounds + 1)
    )
    _gate(
        "fedavg-equivalence",
        worst <= 1e-12,
        f"max per-coordinate deviation over {n_rounds} rounds = {worst:.3e} (tol 1e-12)",
        time.time() - t0,
        60.0,
    )


# ---------------------------------------------------------------- check 3 --


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = make_membership(
        n,
        uplink=[float(rng.uniform(5e4, 3e6)) for _ in range(n)],
        downlink=[float(rng.uniform(5e4, 3e6)) for _ in range(n)],
    )
    transfers = []
    for tid in range(int(rng.integers(2, 13))):
        i = int(rng.integers(0, n))
        j = (i + 1 + int(rng.integers(0, n - 1))) % n
        # Unique byte counts key the delivery log back to transfer ids.
        nbytes = int(rng.integers(10_000, 3_000_000)) * 16 + tid
        start = float(np.round(rng.uniform(0, 5), 3))
        transfers.append((tid, m.nodes[i], m.nodes[j], nbytes, start))
    return m, transfers


def test_engine_matches_fluid_oracle_on_random_instances():
    t0 = time.time()
    worst_dt = 0.0
    worst_over_rel = 0.0
    for seed in range(200):
        m, transfers = _random_instance(seed)
        eng = Engine(m, LatencyMatrix.zero())
        deliveries = observe(eng)
        for tid, src, dst, nbytes, start in transfers:
            eng.inject(start, src, [Send(dst, Train(tid, ModelParameters(np.array([1.0]))), nbytes)])
        eng.run()
        up = {nid: m.profile(nid).uplink_bps for nid in m.nodes}
        down = {nid: m.profile(nid).downlink_bps for nid in m.nodes}
        want = fluid_completions(transfers, up, down)
        assert len(deliveries) == len(transfers)
        for t, _, _, msg in deliveries:
            worst_dt = max(worst_dt, abs(t - want[msg.k]))
        assert eng.bytes_total == sum(nb for _, _, _, nb, _ in transfers)
        # Capacity feasibility probed between completion instants. Byte
        # conservation inside each transfer is asserted by the engine itself
        # at every completion, so a finished run already certifies it.
        ends = sorted(want.values())
        probes = [ends[0] * 0.5] + [0.5 * (a + b) for a, b in zip(ends, ends[1:])]
        for pt in probes[:5]:
            active = [(tid, src, dst) for tid, src, dst, nb, st in transfers if st <= pt < want[tid]]
            if not active:
                continue
            ports = {tid: (src, dst) for tid, src, dst in active}
            rates = maxmin_rates(active, up, down)
            for port, cap in up.items():
                tot = sum(r for tid, r in rates.items() if ports[tid][0] == port)
                worst_over_rel = max(worst_over_rel, tot / cap - 1.0)
            for port, cap in down.items():
                tot = sum(r for tid, r in rates.items() if ports[tid][1] == port)
                worst_over_rel = max(worst_over_rel, tot / cap - 1.0)
    _gate(
        "bandwidth-oracle",
        worst_dt <= 1e-9 and worst_over_rel <= 1e-9,
        f"200 instances, max completion deviation {worst_dt:.3e}s (tol 1e-9), "
        f"max relative capacity overshoot {worst_over_rel:.3e}",
        time.time() - t0,
        60.0,
    )


# ---------------------------------------------------------------- check 4 --


def test_convergence_ordering_vs_decentralized_baselines(world100, plexus_run):
    led_p, t_fixture = plexus_run
    t0 = time.time()
    led_d = run_single(
        _cfg(
            "dpsgd",
            topology=TopologyConfig(kind="regular", degree=10, seed=3),
            stop=StopConfig(max_rounds=60, max_virtual_s=48 * 3600.0),
            eval=EvalConfig(every_rounds=1, every_seconds=60.0),
        ),
        world100,
        0,
    )
    led_g = run_single(
        _cfg(
            "gl",
            gl_timeout_s=60.0,
            stop=StopConfig(max_rounds=1, max_virtual_s=2 * 3600.0),
            eval=EvalConfig(every_rounds=1, every_seconds=300.0),
        ),
        world100,
        0,
    )
    vals = {}
    for name, led in (("plexus", led_p), ("dpsgd", led_d), ("gl", led_g)):
        vals[name] = (tta(led, TARGET), cta(led, TARGET), rta(led, TARGET))
        assert None not in vals[name], f"{name} never reached {TARGET}"
    (tp, cp, rp), (td, cd, rd), (tg, cg, rg) = vals["plexus"], vals["dpsgd"], vals["gl"]
    ok = (
        tp < td and tp < tg
        and cp < cd and cp < cg
        and rp < rd and rp < rg
        and cd / cp >= 5.0
        and rd / rp >= 5.0
    )
    _gate(
        "convergence-ordering",
        ok,
        f"tta {tp:.0f}/{td:.0f}/{tg:.0f}s, cta ratios dpsgd {cd / cp:.1f}x gl {cg / cp:.1f}x, "
        f"rta ratios dpsgd {rd / rp:.1f}x gl {rg / rp:.1f}x (need <, and >= 5x vs dpsgd)",
        t_fixture + (time.time() - t0),
        15 * 60.0,
    )


# ---------------------------------------------------------------- check 5 --


def test_parity_with_centralized_fl(world100, plexus_run):
    led_p, t_fixture = plexus_run
    t0 = time.time()
    led_f = run_single(_cfg("fl"), world100, 0)
    acc_gap = abs(led_p.final_accuracy - led_f.final_accuracy)
    byte_ratio = max(led_p.bytes_total / led_f.bytes_total, led_f.bytes_total / led_p.bytes_total)
    _gate(
        "fl-parity",
        acc_gap <= 0.02 and byte_ratio <= 1.2,
        f"final accuracy {led_p.final_accuracy:.4f} vs {led_f.final_accuracy:.4f} "
        f"(gap {acc_gap:.4f}, tol 0.02), bytes ratio {byte_ratio:.3f} (tol 1.2)",
        t_fixture + (time.time() - t0),
        10 * 60.0,
    )


# ---------------------------------------------------------------- check 6 --


def test_sample_size_cost_sweep(world100):
    t0 = time.time()
    out = {}
    for s in (10, 20, 40):
        led = run_single(
            _cfg(
                "plexus",
                sample_size=s,
                stop=StopConfig(max_rounds=80, max_virtual_s=48 * 3600.0),
            ),
            world100,
            0,
        )
        durs = [r.duration_s for r in led.rounds]
        out[s] = (float(np.mean(durs)), cta(led, TARGET), rta(led, TARGET))
        assert out[s][1] is not None and out[s][2] is not None, f"s={s} never reached {TARGET}"
    d10, c10, r10 = out[10]
    d20, c20, r20 = out[20]
    d40, c40, r40 = out[40]
    ok = (
        d10 < d20 < d40
        and c10 < c20 < c40
        and r10 < r20 < r40
        and c40 / c10 >= 2.0
        and r40 / r10 >= 2.0
    )
    _gate(
        "sample-size-sweep",
        ok,
        f"mean round duration {d10:.1f}<{d20:.1f}<{d40:.1f}s, "
        f"bytes-to-target x{c40 / c10:.2f}, train-seconds-to-target x{r40 / r10:.2f} "
        f"(need monotone, >= 2x at s=40 vs s=10)",
        time.time() - t0,
        20 * 60.0,
    )


# ---------------------------------------------------------------- check 7 --


def test_resource_ledgers_match_closed_form():
    n, s, sf, n_rounds, steps, dim = 40, 13, 0.8, 50, 5, 101
    t0 = time.time()
    rng = np.random.default_rng(77)
    # sec_per_local_step values are multiples of 2^-10 so every partial sum
    # is exactly representable: the engine's event-order accrual and the
    # closed-form sum below must then agree bit for bit, not just closely.
    m = make_membership(
        n,
        uplink=[float((i + 3) * 8192) for i in range(n)],
        downlink=[float((i + 2) * 16384) for i in range(n)],
        step=[int(rng.integers(64, 1025)) / 1024.0 for _ in range(n)],
    )
    theta0 = ModelParameters(np.zeros(dim))
    pcfg = ProtocolConfig(s=s, sf=sf, max_rounds=n_rounds)
    engine = Engine(m, LatencyMatrix.zero())
    nodes = {}
    for nid in m.nodes:
        node = PlexusNode(
            nid,
            m,
            pcfg,
            init_model=lambda: theta0,
            train_fn=lambda k, th: th,
            average_fn=average_models,
            compute_seconds=compute_time(m.profile(nid), steps),
        )
        nodes[nid] = node
        engine.register(nid, node)
        engine.inject(0.0, nid, node.bootstrap())
    engine.run()

    nbytes = message_size_bytes(Train(1, theta0))
    expect_bytes = 0
    expect_train_s = 0.0
    for k in range(1, n_rounds + 1):
        sk = sample(k, s, m.nodes)
        ak = aggregator(sk, m)
        nxt = sample(k + 1, s, m.nodes)
        expect_bytes += (len(sk) - 1) * nbytes
        expect_bytes += sum(1 for nid in nxt if nid != ak) * nbytes
        expect_train_s += sum(compute_time(m.profile(nid), steps) for nid in sk)

    trained = sum(len(node.trained_rounds) for node in nodes.values())
    late = sum(c for node in nodes.values() for c in node.late_by_round.values())
    waste = Fraction(late, trained)
    ok = (
        engine.bytes_total == expect_bytes
        and engine.train_seconds_total == expect_train_s
        and trained == s * n_rounds
        and waste == Fraction(s - pcfg.threshold, s) == Fraction(3, 13)
        and engine.completed == "experiment complete"
    )
    _gate(
        "ledger-exactness",
        ok,
        f"bytes {engine.bytes_total} == {expect_bytes}, "
        f"train_s {engine.train_seconds_total!r} == {expect_train_s!r}, waste {waste}",
        time.time() - t0,
        60.0,
    )


# ---------------------------------------------------------------- check 8 --


def _tiny_rerun_cfg(algorithm):
    kw = dict(
        n=20,
        sample_size=5,
        success_fraction=0.8,
        protocol_seed=6,
        targets=(0.5,),
        repetitions=2,
        trainer=TrainerConfig(eta=0.1, batch_size=16, local_steps=2),
        dataset=DatasetConfig(seed=3, n_samples=600, d_in=8, classes=3, class_sep=2.0),
        traces=TracesConfig(cities=3, seed=4),
        stop=StopConfig(max_rounds=8, max_virtual_s=600.0),
        eval=EvalConfig(every_rounds=2, every_seconds=150.0),
    )
    if algorithm == "dpsgd":
        kw["topology"] = TopologyConfig(kind="regular", degree=4, seed=2)
    if algorithm == "gl":
        kw["gl_timeout_s"] = 30.0
    return ExperimentConfig(algorithm=algorithm, **kw)


def test_reruns_are_byte_identical(tmp_path):
    t0 = time.time()
    checked = 0
    for algorithm in ("plexus", "fl", "dpsgd", "gl"):
        cfg = _tiny_rerun_cfg(algorithm)
        dir_a = tmp_path / f"{algorithm}-a"
        dir_b = tmp_path / f"{algorithm}-b"
        run_experiment(cfg, dir_a)
        run_experiment(cfg, dir_b)
        files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
        assert files_a == files_b and files_a, f"{algorithm}: output trees differ"
        for rel in files_a:
            assert filecmp.cmp(dir_a / rel, dir_b / rel, shallow=False), (
                f"{algorithm}: {rel} differs between reruns"
            )
            checked += 1
    _gate(
        "determinism",
        checked > 0,
        f"{checked} metrics files byte-identical across reruns of 4 algorithms",
        time.time() - t0,
        5 * 60.0,
    )
