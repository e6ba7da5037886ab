"""Per-layer tracing of one plexsim run, from outside the program.

``Tracer.install`` wraps public functions and methods of the layers. A
function is replaced wherever it is looked up: in its defining module and in
every ``plexsim`` module that imported it by name (``protocol`` imports
``sample``, ``runner`` imports ``local_train`` and so on). Each call records
a span (name, start, end, parent span, weight) in memory; the weight is a
work count read from the call's arguments, such as the number of candidates
ranked. Self time is a span's duration minus the durations of its direct
children. Nothing is written until ``layer_metrics`` is read at the end, and
the wrappers do not touch arguments or results, so a traced run writes the
same files as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict


def _arg_len(index: int, name: str):
    """Weight function: len() of one argument, 0 if it has none."""

    def weight(*args, **kwargs):
        value = args[index] if len(args) > index else kwargs.get(name)
        return len(value) if hasattr(value, "__len__") else 0

    return weight


# (span name, module, attribute, weight)
FUNCTIONS = [
    ("sampler.sample", "plexsim.sampler", "sample", _arg_len(2, "candidates")),
    ("sampler.aggregator", "plexsim.sampler", "aggregator", None),
    ("simnet.maxmin", "plexsim.simnet", "maxmin_rates", _arg_len(0, "flows")),
    ("learning.local_train", "plexsim.learning", "local_train", None),
    ("learning.evaluate", "plexsim.learning", "evaluate", None),
    ("learning.partition", "plexsim.learning", "partition", None),
    ("learning.synth_dataset", "plexsim.learning", "synth_dataset", None),
    ("traces.synth_latency", "plexsim.traces", "synth_latency_matrix", None),
    ("traces.synth_profiles", "plexsim.traces", "synth_device_profiles", None),
    ("baselines.dpsgd_round", "plexsim.baselines", "dpsgd_round", None),
    ("baselines.gl_merge", "plexsim.baselines", "gl_merge", None),
    ("core.derive_rng", "plexsim.core", "derive_rng", None),
    ("core.average_models", "plexsim.core", "average_models", None),
]

# (span name, module, class, method)
METHODS = [
    ("protocol.bootstrap", "plexsim.protocol", "PlexusNode", "bootstrap"),
    ("protocol.on_message", "plexsim.protocol", "PlexusNode", "on_message"),
    ("protocol.on_timer", "plexsim.protocol", "PlexusNode", "on_timer"),
    ("baselines.gossip.on_message", "plexsim.baselines", "GossipNode", "on_message"),
    ("baselines.gossip.on_timer", "plexsim.baselines", "GossipNode", "on_timer"),
    ("simnet.run", "plexsim.simnet", "Engine", "run"),
    ("metrics.write_csvs", "plexsim.metrics", "MetricsLedger", "write_csvs"),
]

HANDLERS = (
    "protocol.on_message",
    "protocol.on_timer",
    "baselines.gossip.on_message",
    "baselines.gossip.on_timer",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, weight]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, weight=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   weight(*args, **kwargs) if weight else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> list[str]:
        """Wrap every traced name; returns the names the program lacks."""
        missing = []
        for span, modname, attr, weight in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr, None)
            if original is None:
                missing.append(f"{modname}.{attr}")
                continue
            wrapper = self.wrap(span, original, weight)
            for mod in [m for n, m in sys.modules.items() if n == "plexsim" or n.startswith("plexsim.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for span, modname, clsname, meth in METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            if cls is None or not hasattr(cls, meth):
                missing.append(f"{modname}.{clsname}.{meth}")
                continue
            setattr(cls, meth, self.wrap(span, getattr(cls, meth)))
        missing += self._install_engine_hooks()
        runner = importlib.import_module("plexsim.runner")
        json_mod = getattr(runner, "json", None)
        if json_mod is None:
            missing.append("plexsim.runner.json")
        else:
            proxy = types.SimpleNamespace(**vars(json_mod))
            proxy.dump = self.wrap("metrics.summary_dump", json_mod.dump)
            runner.json = proxy
        return missing

    def _install_engine_hooks(self) -> list[str]:
        """Checkpoint callbacks become spans, so that ``Engine.run`` self
        time excludes evaluation; re-rate events are counted, and a transfer
        counts as completed when its event removes it from the engine."""
        engine_cls = importlib.import_module("plexsim.simnet").Engine
        missing = []
        add_checkpoints = getattr(engine_cls, "add_checkpoints", None)
        if add_checkpoints is None:
            missing.append("plexsim.simnet.Engine.add_checkpoints")
        else:
            wrap = self.wrap

            @functools.wraps(add_checkpoints)
            def traced_add_checkpoints(engine, times, callback):
                return add_checkpoints(engine, times, wrap("simnet.checkpoint", callback))

            engine_cls.add_checkpoints = traced_add_checkpoints
        on_event = getattr(engine_cls, "_on_transfer_event", None)
        if on_event is None:
            missing.append("plexsim.simnet.Engine._on_transfer_event")
        else:
            counts = self.counts

            @functools.wraps(on_event)
            def counted(engine, ev):
                live = getattr(engine, "_transfers", {})
                was_live = ev.tid in live
                counts["rerate_events"] += 1
                result = on_event(engine, ev)
                if was_live and ev.tid not in live:
                    counts["transfers"] += 1
                return result

            engine_cls._on_transfer_event = counted
        return missing

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        weight: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, w) in enumerate(spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[i]
            weight[name] += w
        rerates, transfers = self.counts["rerate_events"], self.counts["transfers"]
        return {
            "sampler.sample.calls": calls["sampler.sample"],
            "sampler.rank_keys": weight["sampler.sample"],
            "sampler.sample.self_s": self_s["sampler.sample"],
            "sampler.aggregator.calls": calls["sampler.aggregator"],
            "protocol.bootstrap_s": incl["protocol.bootstrap"],
            "protocol.on_message.calls": calls["protocol.on_message"],
            "protocol.on_message.self_s": self_s["protocol.on_message"],
            "simnet.run.self_s": self_s["simnet.run"],
            "simnet.maxmin.calls": calls["simnet.maxmin"],
            "simnet.maxmin.flows": weight["simnet.maxmin"],
            "simnet.maxmin.self_s": self_s["simnet.maxmin"],
            "simnet.handler_calls": sum(calls[h] for h in HANDLERS),
            "simnet.rerate_events": rerates,
            "simnet.transfers": transfers,
            "simnet.rerate_useful_share": transfers / rerates if rerates else 0.0,
            "learning.local_train.calls": calls["learning.local_train"],
            "learning.local_train.self_s": self_s["learning.local_train"],
            "learning.evaluate.calls": calls["learning.evaluate"],
            "learning.evaluate.self_s": self_s["learning.evaluate"],
            "learning.partition_s": incl["learning.partition"],
            "learning.synth_dataset_s": incl["learning.synth_dataset"],
            "traces.synth_s": incl["traces.synth_latency"] + incl["traces.synth_profiles"],
            "baselines.dpsgd_round.self_s": self_s["baselines.dpsgd_round"],
            "baselines.gl_merge.calls": calls["baselines.gl_merge"],
            "baselines.gl_merge.self_s": self_s["baselines.gl_merge"],
            "core.derive_rng.calls": calls["core.derive_rng"],
            "core.derive_rng.self_s": self_s["core.derive_rng"],
            "core.average_models.self_s": self_s["core.average_models"],
            "metrics.write_s": incl["metrics.write_csvs"] + incl["metrics.summary_dump"],
        }
