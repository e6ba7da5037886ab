"""Independent reference implementations used to verify the package.

Nothing in here imports the simulator's bandwidth or aggregation code paths:
each oracle recomputes the expected answer from first principles so a test
never checks code against itself. The one exception is ``replay_reference``,
which checks the order in which the op-log replay applies its records, and
so reuses the per-model training and merge that other tests check.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from functools import partial

import numpy as np

from plexsim.baselines import gl_merge
from plexsim.core import ModelParameters, derive_rng, model_size_bytes
from plexsim.learning import train_steps
from plexsim.runner import _AVERAGE, _DROP, _INIT, _MERGE, _SCORE, _TRAIN
from plexsim.sampler import node_rank_key
from plexsim.simnet import SimulationError, TransferRateRecompute


# --------------------------------------------------------- rng reference --


def derive_rng_reference(root_seed: int, *keys: object) -> np.random.Generator:
    """``derive_rng`` as first written: ``default_rng`` of the first 16
    bytes of the key's SHA-256 digest, read as a little-endian int."""
    material = "|".join([str(root_seed), *(str(k) for k in keys)]).encode()
    digest = hashlib.sha256(material).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "little"))


# ------------------------------------------------------ sample reference --


def sample_reference(k: int, s: int, candidates) -> tuple:
    """The round-k sample by the definition: sort every candidate's rank key
    and keep the first s."""
    if s < 1:
        raise ValueError("sample size must be >= 1")
    ranked = sorted(node_rank_key(nid, k) for nid in candidates)
    if not ranked:
        raise ValueError("no candidates")
    return tuple(rk.node for rk in ranked[:s])


# ------------------------------------------------- max-min rate reference --


def maxmin_reference(flows, uplink: dict, downlink: dict) -> dict:
    """Progressive filling as first written: each step sorts every port
    again, keeps the unfrozen flows in their own set and clears the
    bottleneck's members after freezing them. ``maxmin_rates`` must match it
    bit for bit."""
    members: dict = defaultdict(set)
    flow_ports: dict = {}
    cap: dict = {}
    for tid, src, dst in flows:
        up, down = ("u", src), ("d", dst)
        members[up].add(tid)
        members[down].add(tid)
        flow_ports[tid] = (up, down)
        cap[up] = uplink[src]
        cap[down] = downlink[dst]
    rates: dict = {}
    unfrozen = {tid for tid, _, _ in flows}
    while unfrozen:
        bottleneck = None
        share = float("inf")
        for port in sorted(members):
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
            unfrozen.discard(tid)
            for port in flow_ports[tid]:
                members[port].discard(tid)
                cap[port] = max(0.0, cap[port] - share)
        members[bottleneck].clear()
    return rates


def recompute_every_rate(engine) -> None:
    """``Engine._recompute_rates`` as it was before it re-solved only the
    components that a start or finish touched: every live flow is solved
    again, here by ``maxmin_reference``. Install it on ``Engine`` with a
    monkeypatch; the component re-solve must give the same bits."""
    flows = [(tid, rec.src, rec.dst) for tid, rec in engine._transfers.items()]
    if not flows:
        return
    rates = maxmin_reference(flows, engine._uplink, engine._downlink)
    engine._solves += 1
    estimates = []
    for tid, rec in engine._transfers.items():
        rec.rate = rates[tid]
        if rec.rate <= 0:
            raise SimulationError(f"transfer {tid} got zero rate")
        remaining = max(0.0, rec.total_bytes - rec.bytes_done)
        estimates.append((engine.now + remaining / rec.rate, tid))
    at, tid = min(estimates)
    engine._schedule(at, partial(engine._on_transfer_event, TransferRateRecompute(tid, engine._solves)))


# ------------------------------------------------- fluid max-min transfer --


def fluid_rates(active: dict, up: dict, down: dict) -> dict:
    """Max-min rates by simultaneous growth: every unfrozen flow's rate rises
    in lockstep; the first port to saturate freezes its flows; repeat.

    ``active`` maps tid -> (src, dst).
    """
    frozen: dict = {}
    growing = set(active)
    committed_up = {k: 0.0 for k in up}
    committed_down = {k: 0.0 for k in down}
    level = 0.0
    while growing:
        best = None
        best_level = None
        for port_kind, caps, committed in (
            ("u", up, committed_up),
            ("d", down, committed_down),
        ):
            for node, cap in caps.items():
                if port_kind == "u":
                    here = [t for t in growing if active[t][0] == node]
                else:
                    here = [t for t in growing if active[t][1] == node]
                if not here:
                    continue
                sat = (cap - committed[node] - len(here) * level) / len(here) + level
                if best_level is None or sat < best_level - 1e-15:
                    best_level = sat
                    best = (port_kind, node, tuple(sorted(here)))
        assert best is not None
        level = best_level
        kind, node, flows = best
        for t in flows:
            frozen[t] = level
            growing.discard(t)
            committed_up[active[t][0]] += level
            committed_down[active[t][1]] += level
    return frozen


def fluid_completions(transfers: list, up: dict, down: dict) -> dict:
    """Piecewise-constant integration of the fluid model.

    ``transfers``: list of (tid, src, dst, nbytes, start_time).
    Returns tid -> completion time (when the last byte leaves the sender).
    """
    remaining = {tid: float(nb) for tid, _, _, nb, _ in transfers}
    meta = {tid: (src, dst) for tid, src, dst, _, _ in transfers}
    starts = sorted(((st, tid) for tid, _, _, _, st in transfers))
    done: dict = {}
    active: dict = {}
    t = 0.0
    i = 0
    guard = 0
    while len(done) < len(transfers):
        guard += 1
        assert guard < 10_000, "fluid oracle failed to make progress"
        while i < len(starts) and starts[i][0] <= t:
            tid = starts[i][1]
            active[tid] = meta[tid]
            i += 1
        if not active:
            t = starts[i][0]
            continue
        rates = fluid_rates(active, up, down)
        dt_done = min(remaining[tid] / rates[tid] for tid in active)
        dt_start = starts[i][0] - t if i < len(starts) else np.inf
        dt = min(dt_done, dt_start)
        for tid in list(active):
            remaining[tid] -= rates[tid] * dt
        # Land on a start time exactly, so that the start is taken next.
        t = starts[i][0] if dt == dt_start else t + dt
        for tid in sorted(active):
            if remaining[tid] <= 1e-9 * max(1.0, float(dict((x[0], x[3]) for x in transfers)[tid])):
                done[tid] = t
                del active[tid]
    return done


# --------------------------------------------------------- model averages --


def average_reference(vectors: list) -> np.ndarray:
    """The first vector plus each other one in turn, divided by the count:
    one running sum per coordinate, with no NumPy reduction."""
    acc = np.array(vectors[0], dtype=np.float64)
    for v in vectors[1:]:
        acc = acc + v
    return acc / len(vectors)


# ------------------------------------------------------ op-log replay --


def replay_reference(records, init, spec, X, y, cfg):
    """An op log's records applied one by one, each at once, as
    ``runner._Replay`` must apply them with its training queue: a training
    trains its model alone, through ``train_steps`` of one row; a merge is
    ``gl_merge``; an average is ``average_reference`` at age 0; a drop
    deletes the model; ``init(nid)`` gives an initial model. Returns the
    (point, stack) of every checkpoint and the models left, by id."""
    models, checkpoints = {}, []
    for kind, out, *args in records:
        if kind == _INIT:
            models[out] = init(*args)
        elif kind == _TRAIN:
            model, rows = models[args[0]], args[1]
            (values,) = train_steps([model.values], spec, X, y, cfg, [rows])
            models[out] = ModelParameters(values, model.age + cfg.local_steps)
        elif kind == _MERGE:
            models[out] = gl_merge(models[args[0]], models[args[1]])
        elif kind == _AVERAGE:
            models[out] = ModelParameters(average_reference([models[i].values for i in args]))
        elif kind == _SCORE:
            checkpoints.append((out, np.stack([models[i].values for i in args])))
        elif kind == _DROP:
            del models[out]
        else:
            raise ValueError(f"unknown record kind {kind}")
    return checkpoints, models


# -------------------------------------------------------- dpsgd reference --


def dpsgd_round_reference(models, topology, k, latency, *, train_fn, uplink_bps, downlink_bps, city_index, compute_seconds):
    """``dpsgd_round`` as first written: a loop over the nodes reads each
    row of the round's neighbour table, looks every pair's latency up with
    ``one_way_s`` and averages each node's own model and its neighbours' in
    turn. Returns (mixed vectors, duration, bytes, training seconds)."""
    n = len(models)
    nbytes = model_size_bytes(models[0].dim)
    trained = [train_fn(i, k, model).values for i, model in enumerate(models)]
    table = topology.in_neighbors(k)
    sends = [0] * n
    for row in table:
        for j in row:
            sends[j] += 1
    out_done = [compute_seconds[i] + sends[i] * nbytes / uplink_bps[i] for i in range(n)]
    duration = 0.0
    mixed = []
    for i in range(n):
        ins = [int(j) for j in table[i]]
        arrivals = []
        first_possible = []
        for j in ins:
            lat = latency.one_way_s(city_index[j], city_index[i])
            arrivals.append(out_done[j] + lat)
            first_possible.append(compute_seconds[j] + lat)
        downlink_bound = min(first_possible) + len(ins) * nbytes / downlink_bps[i]
        in_done = max(max(arrivals), downlink_bound)
        duration = max(duration, out_done[i], in_done)
        mixed.append(average_reference([trained[i], *(trained[j] for j in ins)]))
    return mixed, duration, sum(sends) * nbytes, float(sum(compute_seconds))


# ------------------------------------------------------- fedavg reference --


def fedavg_reference(theta0, rounds, participants_fn, train_fn):
    """Plain centralized FedAvg: for each round, train the current global
    model at every participant and average. ``participants_fn(k)`` yields
    node ids; ``train_fn(nid, k, theta)`` returns the trained vector."""
    theta = theta0
    history = []
    for k in range(1, rounds + 1):
        trained = [train_fn(nid, k, theta) for nid in sorted(participants_fn(k))]
        theta = theta.with_values(average_reference([m.values for m in trained]), age=0)
        history.append(theta)
    return history


# --------------------------------------------------------------- dataset --


def synth_dataset_reference(seed, n_samples, d_in, classes, noise=0.0, class_sep=2.0):
    """The synthetic dataset as first built: every row's class mean gathered
    into a full matrix and added to the noise in one expression, then the
    train and test rows copied out. Returns (X_train, y_train, X_test,
    y_test)."""
    rng = derive_rng(seed, "dataset")
    means = rng.normal(0.0, class_sep, size=(classes, d_in))
    y = rng.integers(0, classes, size=n_samples)
    X = means[y] + rng.standard_normal((n_samples, d_in))
    flip = rng.random(n_samples) < noise
    bump = rng.integers(1, classes, size=n_samples)
    y = np.where(flip, (y + bump) % classes, y)
    n_test = max(1, int(round(0.2 * n_samples)))
    perm = rng.permutation(n_samples)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return (
        X[train_idx],
        y[train_idx].astype(np.int64),
        X[test_idx],
        y[test_idx].astype(np.int64),
    )


# ------------------------------------------------------------ evaluation --


def evaluate_reference(thetas, spec, X, y) -> list:
    """Top-1 accuracy of each parameter vector in turn: unpack it, compute
    its logits over all of X with one matrix product per layer and take the
    first maximal class of every row."""
    if y.size == 0:
        raise ValueError("empty test set")
    c, d, h = spec.classes, spec.d_in, spec.hidden
    accs = []
    for theta in thetas:
        if spec.family == "linear":
            W, b = theta[: c * d].reshape(c, d), theta[c * d:]
            z = X @ W.T + b
        elif spec.family == "mlp":
            o = h * d
            W1, b1 = theta[:o].reshape(h, d), theta[o : o + h]
            W2, b2 = theta[o + h : o + h + c * h].reshape(c, h), theta[o + h + c * h:]
            z = np.tanh(X @ W1.T + b1) @ W2.T + b2
        else:
            raise ValueError("squared family has no class logits")
        accs.append(float(np.mean(z.argmax(axis=1) == y)))
    return accs


# --------------------------------------------------------------- training --


def loss_grad_reference(spec, theta, X, y):
    """Mean batch loss and its gradient, each layer unpacked and
    differentiated inline: cross-entropy of the softmax for classifiers,
    0.5*(Xw - y)^2 for squared."""
    m = X.shape[0]
    if spec.family == "squared":
        resid = X @ theta - y
        return 0.5 * float(np.mean(resid**2)), X.T @ resid / m
    c, d, h = spec.classes, spec.d_in, spec.hidden
    if spec.family == "linear":
        W, b = theta[: c * d].reshape(c, d), theta[c * d:]
        z = X @ W.T + b
    else:
        o = h * d
        W1, b1 = theta[:o].reshape(h, d), theta[o : o + h]
        W2, b2 = theta[o + h : o + h + c * h].reshape(c, h), theta[o + h + c * h:]
        hidden = np.tanh(X @ W1.T + b1)
        z = hidden @ W2.T + b2
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    loss = float(np.mean(-np.log(p[np.arange(m), y] + 1e-300)))
    delta = p
    delta[np.arange(m), y] -= 1.0
    delta /= m
    if spec.family == "linear":
        return loss, np.concatenate([(delta.T @ X).ravel(), delta.sum(axis=0)])
    dh = (delta @ W2) * (1.0 - hidden**2)
    return loss, np.concatenate(
        [(dh.T @ X).ravel(), dh.sum(axis=0), (delta.T @ hidden).ravel(), delta.sum(axis=0)]
    )


def local_train_reference(model, spec, part, cfg, rng):
    """Minibatch SGD with a momentum buffer on every step, taking the
    gradient from ``loss_grad_reference`` and dropping the loss."""
    if len(part) == 0:
        raise ValueError("cannot train on an empty shard")
    theta = model.values.copy()
    velocity = np.zeros_like(theta)
    m = len(part)
    for _ in range(cfg.local_steps):
        if m >= cfg.batch_size:
            idx = rng.choice(m, size=cfg.batch_size, replace=False)
        else:
            idx = rng.integers(0, m, size=cfg.batch_size)
        batch = part.rows[idx]
        _, grad = loss_grad_reference(spec, theta, part.X[batch], part.y[batch])
        velocity = cfg.momentum * velocity + grad
        theta = theta - cfg.eta * velocity
    if not np.all(np.isfinite(theta)):
        raise ValueError("divergence: reduce eta")
    return model.with_values(theta, age=model.age + cfg.local_steps)


# ------------------------------------------------------------- gradients --


def finite_difference_grad(loss_fn, theta: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar loss."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        step = h * max(1.0, abs(theta[i]))
        up = theta.copy()
        up[i] += step
        dn = theta.copy()
        dn[i] -= step
        grad[i] = (loss_fn(up) - loss_fn(dn)) / (2 * step)
    return grad
