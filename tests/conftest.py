import threading
from pathlib import Path

import numpy as np
import pytest

from plexsim.core import DeviceProfile, Membership


def make_membership(n, uplink=None, downlink=None, step=None, cities=1):
    """Uniform-profile membership helper; per-node overrides via lists."""
    nodes = [f"n{i:03d}" for i in range(n)]
    profiles = {}
    for i, nid in enumerate(nodes):
        profiles[nid] = DeviceProfile(
            uplink_bps=uplink[i] if isinstance(uplink, (list, tuple)) else (uplink or 1e6),
            downlink_bps=downlink[i] if isinstance(downlink, (list, tuple)) else (downlink or 1e6),
            sec_per_local_step=step[i] if isinstance(step, (list, tuple)) else (step or 0.1),
            city_index=i % cities,
        )
    return Membership(nodes, profiles)


class _Observer:
    """Logs each delivery to ``node`` and passes every call on to
    ``handler``, if there is one."""

    def __init__(self, node, handler, log):
        self.node, self.handler, self.log = node, handler, log

    def on_message(self, now, src, msg):
        self.log.append((now, src, self.node, msg))
        return self.handler.on_message(now, src, msg) if self.handler else []

    def on_timer(self):
        return self.handler.on_timer() if self.handler else []


def observe(engine, handlers=None):
    """Register a handler for every member of ``engine`` that passes each
    call on to ``handlers[node]``, if given, and return the list every
    delivery is appended to, as (time, src, dst, msg), in the order the
    engine makes them."""
    handlers = handlers or {}
    log = []
    for node in engine.membership.nodes:
        engine.register(node, _Observer(node, handlers.get(node), log))
    return log


@pytest.fixture
def small_membership():
    return make_membership(8)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def child_pids():
    """The ids of this process's child processes, zombies too, read from
    /proc and never reaped here; None where /proc is missing."""
    tasks = Path("/proc/self/task")
    if not tasks.is_dir():
        return None
    return {pid for children in tasks.glob("*/children") for pid in children.read_text().split()}


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process of the test process alive or
    unreaped, such as an engine run's replay worker. Skipped where /proc is
    missing."""
    before = child_pids()
    yield
    if before is None:
        return
    left = child_pids() - before
    if left:
        pytest.fail(f"the test left child processes {sorted(left, key=int)}")


@pytest.fixture(autouse=True)
def no_plexsim_thread_left():
    """Fail a test that leaves one of plexsim's threads alive, such as the
    thread that reads a replay worker's stacks. Their names start with
    ``plexsim-``."""
    yield
    left = sorted(t.name for t in threading.enumerate() if t.name.startswith("plexsim-"))
    if left:
        pytest.fail(f"the test left threads {left}")
