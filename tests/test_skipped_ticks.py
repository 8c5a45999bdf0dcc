"""Skipping ticks must not change a report byte.

``Simulator.run`` steps only the hubs that can move a beat and works out
the next tick at which anything can act: through a quiet stretch the
next core wake, attack trigger or permission update, and after a tick
that no hub can use the next interposer cycle, core wake or attack
trigger.  Each config below runs three times: as shipped; with
``ChipletHub.can_move`` patched to always say yes, which steps every hub
with work on every tick and never skips a chiplet tick; and under
``reference_loop.run_reference``, which skips no tick and steps every
directory, boundary, MC NI, SNI, router, hub and core with no gate.  The
three ``to_json()`` outputs must be equal, and the shipped run must run
the loop on fewer ticks than it simulates.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from interposim import noc, presets
from interposim.attacks import standard_suite
from interposim.coherence import _Txn
from interposim.harness import Simulator
from interposim.messages import MsgType
from interposim.workloads import WorkloadSpec
from reference_loop import run_reference
from test_golden_reports import CONFIGS


def _lose_a_response(sim: Simulator) -> Simulator:
    """Core 0 waits for a response to a request that was never sent, so
    the system never turns quiet and the loop makes no quiet jump."""
    sim.cores[0].txn = _Txn(MsgType.GETS, 0x80, "R", 0, had_line=False)
    return sim


def _watchdog() -> Simulator:
    """The deadlock of ``TestScheduler``."""
    cfg = replace(
        presets.desk_scale(seed=0), workload=WorkloadSpec(kind="idle"),
        watchdog_icycles=100,
    )
    sim = Simulator(cfg)
    sim.cores[1].load_ops([(5, "R", 0x40, 0), (2000, "R", 0xC0, 0)])
    return _lose_a_response(sim)


def _attack(index: int, machine: str):
    """One standard-suite attack on a desk-scale machine, triggered
    between interposer cycles: on an ``idle`` machine, on an idle one
    whose core 0 lost a response (``stalled``), or among the benign
    traffic of the preset's workload (``busy``)."""
    def build() -> Simulator:
        base = presets.desk_scale(seed=0)
        table = presets.attack_demo_table(n_chiplets=base.n_chiplets)
        cfg = replace(base, permissions=table)
        if machine != "busy":
            cfg = replace(cfg, workload=WorkloadSpec(kind="idle"))
        trigger = 201 + 202 * index if machine == "busy" else 41
        scenario = standard_suite(cfg.topology(), table, trigger_tick=trigger)[index]
        sim = Simulator(replace(cfg, attacks=(scenario,), label=scenario.name))
        return _lose_a_response(sim) if machine == "stalled" else sim

    return build


BUILDS = {name: (lambda b=build: Simulator(b())) for name, build in CONFIGS.items()}
BUILDS["watchdog"] = _watchdog
for machine in ("idle", "stalled", "busy"):
    BUILDS.update({f"attack-{i}-{machine}": _attack(i, machine) for i in range(5)})


def _run(build, every_tick: bool) -> tuple[str, int, int]:
    """(report JSON, loop bodies run, ticks simulated)."""
    bodies = 0
    step_chiplets = noc.Fabric.step_chiplets

    def counted(self, tick):
        nonlocal bodies
        bodies += 1
        return step_chiplets(self, tick)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noc.Fabric, "step_chiplets", counted)
        if every_tick:
            mp.setattr(noc.ChipletHub, "can_move", lambda self, tick: True)
        report = build().run()
    return report.to_json(), bodies, report.halt_tick + 1


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_skipping_idle_ticks_changes_no_report(name):
    shipped, bodies, ticks = _run(BUILDS[name], every_tick=False)
    stepped, stepped_bodies, _ = _run(BUILDS[name], every_tick=True)
    assert shipped == stepped
    assert shipped == run_reference(BUILDS[name]()).to_json()
    assert bodies < ticks
    assert bodies < stepped_bodies
