"""Independent reference implementations used to verify the package.

Nothing in here imports the simulator's bandwidth or aggregation code paths:
each oracle recomputes the expected answer from first principles so a test
never checks code against itself.
"""

from __future__ import annotations

import numpy as np

from plexsim.sampler import node_rank_key


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
        while i < len(starts) and starts[i][0] <= t + 1e-15:
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
        t += dt
        for tid in sorted(active):
            if remaining[tid] <= 1e-9 * max(1.0, float(dict((x[0], x[3]) for x in transfers)[tid])):
                done[tid] = t
                del active[tid]
    return done


# --------------------------------------------------------- model averages --


def mean_by_loop(vectors: list) -> np.ndarray:
    """Per-coordinate running sum divided by the count; no numpy reductions."""
    acc = np.zeros_like(vectors[0])
    for v in vectors:
        acc = acc + v
    return acc / len(vectors)


# ------------------------------------------------------- fedavg reference --


def fedavg_reference(theta0, rounds, participants_fn, train_fn):
    """Plain centralized FedAvg: for each round, train the current global
    model at every participant and average. ``participants_fn(k)`` yields
    node ids; ``train_fn(nid, k, theta)`` returns the trained vector."""
    theta = theta0
    history = []
    for k in range(1, rounds + 1):
        trained = [train_fn(nid, k, theta) for nid in sorted(participants_fn(k))]
        theta = theta.with_values(mean_by_loop([m.values for m in trained]), age=0)
        history.append(theta)
    return history


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
