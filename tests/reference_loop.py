"""A main loop that steps everything on every tick, kept as a reference.

``run_reference(sim)`` runs an assembled ``Simulator`` in the same
per-tick order as ``Simulator.run``, but it skips no tick and gates no
step: on every interposer cycle it steps every directory, chiplet
boundary, MC NI, SNI and router, and on every tick every hub and every
core.  A step with nothing to do changes nothing, so whatever
``Simulator.run`` saves by skipping work must leave the report as this
loop writes it.

The loop's own rules for ending a run:

* the system is *quiet* when no packet is live, every directory is idle
  and no core waits for a response; a quiet tick counts as progress for
  the watchdog, since nothing is stuck;
* the run completes at the first multiple of 8 ticks at which the system
  is quiet, every core is done and no attack or permission update is
  pending;
* the watchdog and the cycle budget halt a run as ``Simulator.run``
  does.
"""

from __future__ import annotations

from interposim.harness import SimReport, Simulator
from interposim.noc import CLOCK_RATIO


def run_reference(sim: Simulator) -> SimReport:
    cfg = sim.cfg
    fabric = sim.fabric
    directories = sim.directories
    routers = [fabric.routers[r] for r in sorted(fabric.routers)]
    cores = sim.cores
    attacks = sorted(cfg.attacks, key=lambda s: (s.trigger_tick, s.name))

    tick = 0
    last_progress = 0
    while tick <= cfg.max_ticks:
        sim.swmr.tick = tick
        progressed = False
        if tick % CLOCK_RATIO == 0:
            icycle = tick // CLOCK_RATIO
            sim._apply_permission_updates(icycle)
            for directory in directories:
                progressed |= directory.step(tick)
            for boundary in fabric.boundaries:
                progressed |= boundary.step(icycle, tick)
            for ni in fabric.mc_nis:
                progressed |= ni.step_egress(icycle, tick)
            violations = []
            for sni in fabric.snis:
                violations.extend(sni.step(icycle))
            for router in routers:
                progressed |= router.step(tick)
            if violations:
                violations.sort(key=lambda v: v.sort_key())
                sim.violations = violations
                sim.halt_cause = "security"
                sim.halt_tick = tick
                sim.halt_detail = violations[0].detail
                return sim._report()
        for hub in fabric.hubs:
            progressed |= hub.step(tick)
        while attacks and attacks[0].trigger_tick <= tick:
            scenario = attacks.pop(0)
            fabric.inject_from_core_as(scenario.msg, scenario.src_core, tick)
            progressed = True
        for core in cores:
            progressed |= core.step(tick)

        quiet = (
            not fabric.registry
            and all(d.idle for d in directories)
            and not any(c.wake_tick() is None and not c.done for c in cores)
        )
        icycle = tick // CLOCK_RATIO
        if progressed or quiet:
            last_progress = icycle
        elif icycle - last_progress > cfg.watchdog_icycles:
            sim.halt_cause = "deadlock"
            sim.halt_tick = tick
            sim.halt_detail = f"no progress for {cfg.watchdog_icycles} interposer cycles"
            return sim._report()
        if (
            quiet
            and tick % 8 == 0
            and all(c.done for c in cores)
            and not attacks
            and not sim._pending_updates
        ):
            sim.halt_tick = tick
            return sim._report()
        tick += 1

    sim.halt_cause = "budget"
    sim.halt_tick = cfg.max_ticks
    sim.halt_detail = f"cycle budget of {cfg.max_ticks} ticks exhausted"
    return sim._report()
