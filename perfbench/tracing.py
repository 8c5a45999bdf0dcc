"""Per-layer tracing installed from outside the simulator.

``Tracer.install`` replaces simulator functions with wrappers before any
``Simulator`` is built, so that bound methods captured at construction
(cache callbacks, router sinks) are wrapped too.  Each name is wrapped
where the simulator looks it up: ``noc`` and ``sni`` each hold their own
``encode``, ``sni`` its own ``extract_stage`` and ``pcm_check``.

A timed span keeps a stack of child time, so its ``self_s`` is its
duration minus the time spent in other timed spans it called.  Counted
names only count and add no span; their small cost lands in the caller's
self time.  A name the simulator no longer has is reported as absent.
"""

from __future__ import annotations

import importlib
import time

# span -> ((module, attribute path), ...), whether the return value
# means "made progress"
TIMED = {
    "harness.run": ((("harness", "Simulator.run"),), False),
    "harness.report": (
        (("harness", "collect_latency"), ("noc", "Fabric.ledger"),
         ("harness", "SimReport.to_json")),
        False,
    ),
    "coherence.core_step": ((("coherence", "Core.step"),), True),
    "coherence.directory_step": ((("coherence", "Directory.step"),), True),
    "coherence.core_handle": ((("coherence", "Core.handle"),), False),
    "coherence.agent_probe": (
        (("coherence", "ChipletAgent.handle_probe"),), False
    ),
    "coherence.checkers": (
        (("coherence", "SwmrChecker.update"),
         ("coherence", "MemoryOracle.commit")),
        False,
    ),
    "noc.router_step": ((("noc", "Router.step"),), True),
    "noc.hub_step": ((("noc", "ChipletHub.step"),), True),
    "noc.boundary_step": ((("noc", "ChipletBoundary.step"),), False),
    "noc.ingress_sink": ((("noc", "ChipletIngress.sink"),), False),
    "noc.mc_ni": ((("noc", "McNi.step_egress"), ("noc", "McNi.sink")), False),
    "noc.new_packet": ((("noc", "Fabric.new_packet"),), False),
    "sni.unit_step": ((("sni", "SniUnit.step"),), False),
    "sni.pcm_check": ((("sni", "pcm_check"),), False),
    "sni.sni2_filter": ((("sni", "sni2_filter"),), False),
    "messages.encode": ((("noc", "encode"), ("sni", "encode")), False),
    "messages.extract_stage": ((("sni", "extract_stage"),), False),
    "apu.lookup": ((("apu", "ApuTable.lookup"),), False),
    "topology.route": ((("topology", "Topology.route"),), False),
    "workloads.generate": ((("workloads", "generate"),), False),
}

# counter -> ((module, attribute path), ...); a function whose result is
# falsy counts as refused
COUNTED = {
    # Fabric.step_chiplets runs once per body of the main loop.
    "harness.loop_iterations": ((("noc", "Fabric.step_chiplets"),), False),
    "noc.router_accept": ((("noc", "Router.accept"),), True),
    "messages.flit_flag_calls": (
        (("messages", "Flit.is_head"), ("messages", "Flit.is_tail")), False
    ),
}


# Every per-layer metric the traced run prints, with its unit.  A name
# ending in a Stat field reads that field of the span or counter before it;
# a bare counter name reads its calls.
PER_LAYER_UNITS = {
    "harness.run.self_s": "s",
    "harness.loop_iterations": "count",
    "harness.loop_per_tick": "ratio",
    "harness.report.self_s": "s",
    "coherence.core_step.calls": "count",
    "coherence.core_step.self_s": "s",
    "coherence.core_step.useful_ratio": "ratio",
    "coherence.directory_step.calls": "count",
    "coherence.directory_step.self_s": "s",
    "coherence.directory_step.useful_ratio": "ratio",
    "coherence.core_handle.calls": "count",
    "coherence.core_handle.self_s": "s",
    "coherence.agent_probe.calls": "count",
    "coherence.agent_probe.self_s": "s",
    "coherence.checkers.self_s": "s",
    "noc.router_step.calls": "count",
    "noc.router_step.self_s": "s",
    "noc.router_step.useful_ratio": "ratio",
    "noc.router_accept.calls": "count",
    "noc.router_accept.refused": "count",
    "noc.hub_step.calls": "count",
    "noc.hub_step.self_s": "s",
    "noc.hub_step.useful_ratio": "ratio",
    "noc.boundary_step.calls": "count",
    "noc.boundary_step.self_s": "s",
    "noc.ingress_sink.calls": "count",
    "noc.ingress_sink.self_s": "s",
    "noc.mc_ni.self_s": "s",
    "noc.new_packet.calls": "count",
    "noc.new_packet.self_s": "s",
    "noc.registry_packets": "count",
    "sni.unit_step.calls": "count",
    "sni.unit_step.self_s": "s",
    "sni.pcm_check.calls": "count",
    "sni.pcm_check.self_s": "s",
    "sni.sni2_filter.calls": "count",
    "sni.sni2_filter.self_s": "s",
    "messages.encode.calls": "count",
    "messages.encode.self_s": "s",
    "messages.extract_stage.calls": "count",
    "messages.extract_stage.self_s": "s",
    "messages.flit_flag_calls": "count",
    "apu.lookup.calls": "count",
    "apu.lookup.self_s": "s",
    "topology.route.calls": "count",
    "topology.route.self_s": "s",
    "workloads.generate.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Stat:
    __slots__ = ("calls", "self_s", "useful", "refused", "present")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.useful = 0  # calls that reported progress
        self.refused = 0  # calls that returned a falsy result
        self.present = False


def _resolve(module: str, path: str):
    """(owner, attribute name, raw attribute) or None if it is gone."""
    try:
        owner = importlib.import_module(f"interposim.{module}")
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(name)
    if raw is None:
        return None
    return owner, name, raw


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name in (*TIMED, *COUNTED)}
        self._stack: list[float] = []  # child time of each open span

    def install(self) -> None:
        for table, wrap in ((TIMED, self._timed), (COUNTED, self._counted)):
            for name, (targets, flag) in table.items():
                stat = self.stats[name]
                for module, path in targets:
                    found = _resolve(module, path)
                    if found is not None:
                        owner, attr, raw = found
                        setattr(owner, attr, wrap(stat, raw, flag))
                        stat.present = True

    def values(self) -> dict:
        """Every name of PER_LAYER_UNITS that the stats give, or None
        for a name whose functions are all absent."""
        out = {}
        for metric in PER_LAYER_UNITS:
            name, _, field = metric.rpartition(".")
            if name not in self.stats:
                name, field = metric, "calls"
            if name not in self.stats:
                continue  # computed from the reports, not from wrappers
            stat = self.stats[name]
            if not stat.present:
                out[metric] = None
            elif field == "useful_ratio":
                out[metric] = stat.useful / stat.calls if stat.calls else None
            else:
                out[metric] = getattr(stat, field)
        return out

    def _timed(self, stat: Stat, fn, useful: bool):
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - stack.pop()
                stat.calls += 1
                if stack:
                    stack[-1] += elapsed
            if useful and result:
                stat.useful += 1
            return result

        return span

    @staticmethod
    def _counted(stat: Stat, raw, refusals: bool):
        if isinstance(raw, property):
            fget = raw.fget

            def getter(self):
                stat.calls += 1
                return fget(self)

            return property(getter)

        def counter(*args, **kwargs):
            stat.calls += 1
            result = raw(*args, **kwargs)
            if refusals and not result:
                stat.refused += 1
            return result

        return counter
