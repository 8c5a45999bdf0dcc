"""Simulation harness: configuration, the main loop, and run reports.

One Simulator owns the whole system: the interconnect fabric, per-core
protocol engines, home-node directories, DRAM and the verification
machinery (memory oracle plus single-writer census).  The loop advances
a single global tick counter in a fixed order, so a (config, seed) pair
reproduces byte-identical reports.  Within one tick:

1. every fourth tick (one interposer cycle): permission updates, the
   directories with a message pending or a DRAM event due, in
   controller order, then the interposer fabric;
2. the chiplet hubs, which deliver packets to cores and agents;
3. the attacks whose trigger tick has come;
4. the cores whose wake tick has come, in core-id order.

Cores are stepped only when due.  ``Core.wake_tick()`` reads the fields
that gate ``Core.step`` (``evict_retry``, ``retry_tick``,
``next_issue_tick``) and is None while the core awaits a response.  The
simulator keeps a heap of (wake tick, core id), and every caller that
can change those fields re-posts the core: the loop after ``step``, the
delivery path after ``handle`` (the core may act in the same tick), and
``run`` for every core at its start.

After each tick's work and the watchdog check, one rule picks the next
tick.  While the system is quiet (no live packet, every directory idle,
no core awaiting a response) only a core wake, an attack trigger or a
permission update can act: the loop jumps to the earliest, restarting
the watchdog there, and with none pending the run completes at the tick
rounded up to a multiple of 8.  Otherwise it jumps only over chiplet
ticks at which no hub can move, to the next interposer cycle, core wake
or attack trigger; such a jump stays inside one interposer cycle, so a
lost response still ends in the watchdog's halt.

Exit codes: 0 completed, 2 security halt (machine-check), 3 deadlock or
exhausted cycle budget, 4 completed but a coherence check failed (an
oracle divergence or an SWMR violation in the report), 64 invalid
configuration, 70 a broken protocol invariant (``ProtocolAssertionError``:
a simulator bug).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType

from .apu import ApuTable, Permission
from .attacks import AttackScenario
from .coherence import (
    RETRY_BACKOFF_TICKS,
    ChipletAgent,
    Core,
    Directory,
    Dram,
    MemoryOracle,
    PrivateCache,
    SwmrChecker,
)
from .messages import ADDRESS_LIMIT, LINK_WIDTHS, PROBE_TYPES
from .noc import CLOCK_RATIO, Fabric, Packet
from .sni import SniConfig, SniKind, SniUnit
from .topology import Topology
from . import workloads
from .workloads import WorkloadSpec

EXIT_OK = 0
EXIT_SECURITY = 2
EXIT_DEADLOCK = 3
EXIT_COHERENCE = 4  # completed, but the oracle or the SWMR census failed
EXIT_CONFIG = 64
EXIT_PROTOCOL = 70  # sysexits EX_SOFTWARE: an internal invariant broke

VC_CHOICES = (4, 6, 8, 10)

REPORT_SCHEMA = "interposim-report-v1"


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Everything that defines one simulation run."""

    n_chiplets: int = 8
    cores_per_chiplet: int = 8
    n_mcs: int = 4
    interposer_width: int = 128
    vc_per_vnet: int = 4
    vc_depth: int = 4
    sni_enabled: bool = True
    sni2_rewrite: bool = True
    permissions: ApuTable | None = None  # None means READ_WRITE everywhere
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    attacks: tuple[AttackScenario, ...] = ()
    # (icycle, region, chiplet, Permission) applied via the privileged channel
    permission_updates: tuple[tuple[int, int, int, Permission], ...] = ()
    seed: int = 0
    max_ticks: int = 4_000_000
    watchdog_icycles: int = 50_000
    dram_latency: int = 100
    cache_lines: int = 256
    collect_delivery_log: bool = False
    label: str = "run"

    def validate(self) -> list[str]:
        errors = []
        if self.interposer_width not in LINK_WIDTHS:
            errors.append(
                f"interposer_width must be one of {LINK_WIDTHS}, "
                f"got {self.interposer_width}"
            )
        if self.vc_per_vnet not in VC_CHOICES:
            errors.append(f"vc_per_vnet must be one of {VC_CHOICES}")
        if self.vc_depth < 1:
            errors.append("vc_depth must be >= 1")
        try:
            topo = Topology(self.n_chiplets, self.cores_per_chiplet, self.n_mcs)
        except Exception as exc:
            errors.append(str(exc))
            return errors
        errors.extend(self.workload.validate(topo))
        if self.cache_lines < 2:
            errors.append("cache_lines must be >= 2 (one line plus a victim slot)")
        if self.dram_latency < 1:
            errors.append("dram_latency must be >= 1")
        if self.watchdog_icycles < 100:
            errors.append("watchdog_icycles must be >= 100")
        if self.max_ticks < 1:
            errors.append("max_ticks must be >= 1")
        if self.permissions and self.permissions.address_limit > ADDRESS_LIMIT:
            errors.append(
                f"permission table covers {self.permissions.address_limit:#x} bytes,"
                f" beyond the {ADDRESS_LIMIT:#x}-byte address space"
            )
        for icycle, region, chiplet, perm in self.permission_updates:
            table = self.permissions
            n_regions = table.n_regions if table else 64
            if not 0 <= region < n_regions:
                errors.append(f"permission update region {region} out of range")
            if not 0 <= chiplet < topo.n_chiplets:
                errors.append(f"permission update chiplet {chiplet} out of range")
            if not isinstance(perm, Permission):
                errors.append(f"permission update value {perm!r} invalid")
            if icycle < 0:
                errors.append("permission update cycle must be >= 0")
        for scenario in self.attacks:
            if not topo.is_core(scenario.src_core):
                errors.append(f"attack {scenario.name}: no core {scenario.src_core}")
        return errors

    def topology(self) -> Topology:
        return Topology(self.n_chiplets, self.cores_per_chiplet, self.n_mcs)

    def describe(self) -> dict:
        """JSON-safe echo of the configuration for the report."""
        table = self.permissions
        return {
            "label": self.label,
            "n_chiplets": self.n_chiplets,
            "cores_per_chiplet": self.cores_per_chiplet,
            "n_mcs": self.n_mcs,
            "interposer_width": self.interposer_width,
            "vc_per_vnet": self.vc_per_vnet,
            "vc_depth": self.vc_depth,
            "sni_enabled": self.sni_enabled,
            "sni2_rewrite": self.sni2_rewrite,
            # Constants, echoed until the schema drops them (docs/file_formats.md).
            "check_mc_traffic": True,
            "permissions": table.serialize().hex() if table else None,
            "workload": {
                "kind": self.workload.kind,
                "ops_per_core": self.workload.ops_per_core,
                "read_fraction": self.workload.read_fraction,
                "footprint_lines": self.workload.footprint_lines,
                "mean_gap_ticks": self.workload.mean_gap_ticks,
                "hot_mc": self.workload.hot_mc,
                "shared_lines": self.workload.shared_lines,
                "active_cores": list(self.workload.active_cores)
                if self.workload.active_cores is not None else None,
                "trace_path": self.workload.trace_path,
            },
            "attacks": [s.name for s in self.attacks],
            "seed": self.seed,
            "dram_latency": self.dram_latency,
            "retry_backoff_icycles": RETRY_BACKOFF_TICKS // CLOCK_RATIO,
            "cache_lines": self.cache_lines,
        }


@dataclass
class SimReport:
    config: dict
    halt_cause: str  # completed | security | deadlock | budget
    halt_tick: int
    halt_detail: str
    violations: list[dict]
    latency: dict
    sni: dict
    counters: dict
    ledger: dict
    coherence: dict
    delivery_log: dict | None = None

    @property
    def exit_code(self) -> int:
        if self.halt_cause == "completed" and (
            self.coherence["oracle_divergences"] or self.coherence["swmr_violations"]
        ):
            return EXIT_COHERENCE
        return {
            "completed": EXIT_OK,
            "security": EXIT_SECURITY,
            "deadlock": EXIT_DEADLOCK,
            "budget": EXIT_DEADLOCK,
        }[self.halt_cause]

    def to_dict(self) -> dict:
        out = {
            "schema": REPORT_SCHEMA,
            "config": self.config,
            "halt": {
                "cause": self.halt_cause,
                "tick": self.halt_tick,
                "icycle": self.halt_tick // CLOCK_RATIO,
                "detail": self.halt_detail,
            },
            "violations": self.violations,
            "latency": self.latency,
            "sni": self.sni,
            "counters": self.counters,
            "ledger": self.ledger,
            "coherence": self.coherence,
        }
        if self.delivery_log is not None:
            out["delivery_log"] = self.delivery_log
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


class Simulator:
    """One fully assembled system plus its event loop."""

    def __init__(self, cfg: RunConfig):
        errors = cfg.validate()
        if errors:
            raise ConfigError("; ".join(errors))
        self.cfg = cfg
        self.topo = cfg.topology()
        topo = self.topo
        base_table = cfg.permissions or ApuTable.uniform(Permission.READ_WRITE)
        self.tick = 0
        self.swmr = SwmrChecker()
        self.oracle = MemoryOracle()
        self.dram = Dram()
        self.leaked_deliveries = 0
        self.delivery_log: dict[str, list[str]] | None = (
            {} if cfg.collect_delivery_log else None
        )
        self.probes_delivered = {k: 0 for k in range(topo.n_chiplets)}

        self.fabric = Fabric(
            topo,
            cfg.interposer_width,
            cfg.vc_per_vnet,
            cfg.vc_depth,
            sni_factory=partial(self._sni_factory, base_table),
            deliver_chiplet=self._deliver_chiplet,
            deliver_mc=self._deliver_mc,
        )
        # Each SNI holds its interface router's permission table replica.
        self._snis = [*self.fabric.chiplet_snis.values(), *self.fabric.mc_snis.values()]
        self._pending_updates = sorted(cfg.permission_updates)

        self.directories = {
            m: Directory(
                m, topo, self.dram, self._make_dir_send(m), cfg.dram_latency
            )
            for m in range(topo.n_mcs)
        }
        self._dir_order = [self.directories[m] for m in sorted(self.directories)]
        self._n_cores = topo.n_cores
        self.cores: dict[int, Core] = {}
        for c in range(topo.n_cores):
            cache = PrivateCache(cfg.cache_lines, self.swmr.update)
            self.cores[c] = Core(
                c, topo, cache, self.fabric.inject_from_core, self.oracle.commit
            )
        self.agents = {
            k: ChipletAgent(
                k, [self.cores[c] for c in topo.core_range(k)], topo,
                self.fabric.inject_from_core,
            )
            for k in range(topo.n_chiplets)
        }

        ops = workloads.generate(cfg.workload, topo, base_table, cfg.seed)
        for c, stream in ops.items():
            self.cores[c].load_ops(stream)

        self._attack_queue = sorted(
            cfg.attacks, key=lambda s: (s.trigger_tick, s.name)
        )
        # Core wake-ups, filled by run(): a heap of (wake tick, core id),
        # each core's latest posted wake tick (an entry that no longer
        # matches it is stale), and the unfinished cores that posted none
        # because they wait for a response.
        self._wakeups: list[tuple[int, int]] = []
        self._wake: list[int | None] = [None] * topo.n_cores
        self._waiting: set[int] = set()
        self.halt_cause = "completed"
        self.halt_tick = 0
        self.halt_detail = ""
        self.violations = []

    # -- wiring -----------------------------------------------------------

    def _sni_factory(
        self, table: ApuTable, kind: SniKind, index: int, forward, drop
    ) -> SniUnit:
        cfg = self.cfg
        return SniUnit(
            SniConfig.for_link(kind, index, self.topo),
            cfg.interposer_width,
            table=table,
            forward=forward,
            drop_packet=drop,
            enabled=cfg.sni_enabled,
            rewrite_enabled=cfg.sni2_rewrite,
        )

    def _make_dir_send(self, mc: int):
        def send(msg, target_chiplet=None):
            self.fabric.inject_from_mc(msg, mc, self.tick, target_chiplet)

        return send

    def _log_delivery(self, key: str, msg) -> None:
        self.delivery_log.setdefault(key, []).append(msg.canonical_text())

    def _deliver_chiplet(self, chiplet: int, packet: Packet, tick: int) -> None:
        msg = packet.msg
        logging = self.delivery_log is not None
        if packet.target_chiplet is not None and msg.msg_type in PROBE_TYPES:
            self.probes_delivered[chiplet] += 1
            if logging:
                self._log_delivery(f"chiplet{chiplet}", msg)
            self.agents[chiplet].handle_probe(msg, tick)
        elif 0 <= msg.destination_id < self._n_cores:
            if logging:
                self._log_delivery(f"core{msg.destination_id}", msg)
            if packet.malicious:
                # A hostile packet made it past (or around) the SNIs.
                self.leaked_deliveries += 1
            core = self.cores[msg.destination_id]
            core.handle(msg, tick)
            # Deliveries precede the cores' turn, so it may act this tick.
            self._post(core, tick)
        # anything else is a delivered-but-unroutable packet; the SNIs
        # should make this unreachable for well-formed systems

    def _deliver_mc(self, mc: int, packet: Packet, tick: int) -> None:
        if self.delivery_log is not None:
            self._log_delivery(f"mc{mc}", packet.msg)
        if packet.malicious:
            self.leaked_deliveries += 1
        self.directories[mc].deliver(packet.msg, tick)

    # -- loop -------------------------------------------------------------

    def _post(self, core: Core, earliest: int) -> None:
        """Schedule core's next step at its wake tick, but not before
        ``earliest``; a core that waits for a response is not scheduled."""
        cid = core.id
        wake = core.wake_tick()
        if wake is not None:
            wake = max(wake, earliest)
            if wake != self._wake[cid]:
                heapq.heappush(self._wakeups, (wake, cid))
        if wake is None and not core.done:
            self._waiting.add(cid)
        else:
            self._waiting.discard(cid)
        self._wake[cid] = wake

    def _next_wake(self) -> int | None:
        """Earliest posted core wake tick, dropping stale heap entries."""
        heap = self._wakeups
        while heap and self._wake[heap[0][1]] != heap[0][0]:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def _dirs_idle(self) -> bool:
        return all(d.idle for d in self.directories.values())

    def _apply_permission_updates(self, icycle: int) -> None:
        while self._pending_updates and self._pending_updates[0][0] <= icycle:
            _, region, chiplet, perm = self._pending_updates.pop(0)
            # A single privileged write lands in every replica between
            # cycles: swap all snapshots at once.
            updated = self._snis[0].table.privileged_update(region, chiplet, perm)
            for unit in self._snis:
                unit.table = updated

    @property
    def replicas(self) -> MappingProxyType:
        """Read-only view of the table each interface router's SNI holds."""
        return MappingProxyType({u.cfg.attached_router: u.table for u in self._snis})

    def replicas_identical(self) -> bool:
        return len({unit.table.serialize() for unit in self._snis}) == 1

    def run(self) -> SimReport:
        cfg = self.cfg
        cores = self.cores
        # Post every core afresh: tests load ops after construction.
        self._wakeups = wakeups = []
        self._wake = [None] * len(cores)
        self._waiting = set()
        for core in cores.values():
            self._post(core, 0)
        fabric = self.fabric
        attack_queue = self._attack_queue
        tick = 0
        last_progress = 0
        halted = False
        while tick <= cfg.max_ticks:
            self.tick = tick
            self.swmr.tick = tick
            progressed = False
            if tick % CLOCK_RATIO == 0:
                icycle = tick // CLOCK_RATIO
                self._apply_permission_updates(icycle)
                for directory in self._dir_order:
                    events = directory.dram_events
                    if directory.inbox or (events and events[0][0] <= icycle):
                        progressed |= directory.step(icycle)
                violations, moved = fabric.step_interposer(tick)
                progressed |= moved
                if violations:
                    violations.sort(key=lambda v: v.sort_key())
                    self.violations = violations
                    self.halt_cause = "security"
                    self.halt_tick = tick
                    self.halt_detail = violations[0].detail
                    halted = True
                    break
            progressed |= fabric.step_chiplets(tick)
            while attack_queue and attack_queue[0].trigger_tick <= tick:
                scenario = attack_queue.pop(0)
                fabric.inject_from_core_as(
                    scenario.msg, scenario.src_core, tick
                )
                progressed = True
            while wakeups and wakeups[0][0] <= tick:
                wake, cid = heapq.heappop(wakeups)
                if self._wake[cid] == wake:
                    core = cores[cid]
                    progressed |= core.step(tick)
                    self._post(core, tick + 1)

            icycle = tick // CLOCK_RATIO
            if progressed:
                last_progress = icycle
            elif icycle - last_progress > cfg.watchdog_icycles:
                self.halt_cause = "deadlock"
                self.halt_tick = tick
                self.halt_detail = (
                    f"no progress for {cfg.watchdog_icycles} interposer cycles"
                )
                halted = True
                break

            # The next tick at which anything can act.
            nxt = tick + 1
            quiet = not fabric.registry and not self._waiting and self._dirs_idle()
            if quiet or (nxt % CLOCK_RATIO and fabric.chiplets_idle(nxt)):
                candidates = []
                wake = self._next_wake()
                if wake is not None:
                    candidates.append(wake)
                if attack_queue:
                    candidates.append(attack_queue[0].trigger_tick)
                if not quiet:
                    # Before the next interposer cycle only a core or attack acts.
                    candidates.append(nxt - nxt % CLOCK_RATIO + CLOCK_RATIO)
                elif self._pending_updates:
                    candidates.append(self._pending_updates[0][0] * CLOCK_RATIO)
                elif not candidates:
                    # Complete: halt on the 8-tick grid every report carries.
                    tick += -tick % 8
                    if tick <= cfg.max_ticks:
                        self.halt_tick = tick
                        halted = True
                    break
                nxt = max(nxt, min(candidates))
                if quiet and nxt > tick + 1:
                    # Nothing is stuck in a quiet stretch: restart the watchdog.
                    last_progress = nxt // CLOCK_RATIO
            tick = nxt
        if not halted:
            self.halt_cause = "budget"
            self.halt_tick = cfg.max_ticks
            self.halt_detail = f"cycle budget of {cfg.max_ticks} ticks exhausted"

        return self._report()

    # -- reporting --------------------------------------------------------

    def _sni_summary(self) -> dict:
        out = {}
        for name, unit in sorted(
            list(
                (f"sni1-chiplet{k}", u)
                for k, u in self.fabric.chiplet_snis.items()
            )
            + list((f"sni2-mc{m}", u) for m, u in self.fabric.mc_snis.items())
        ):
            s = unit.stats
            out[name] = {
                "checked": s.checked,
                "allowed": s.allowed,
                "violations": s.violations,
                "rewrites": s.rewrites,
                "filtered_per_chiplet": {
                    str(k): v for k, v in sorted(s.filtered_per_chiplet.items())
                },
            }
        return out

    def _report(self) -> SimReport:
        full_census = self.swmr.full_check(
            [core.cache for core in self.cores.values()]
        )
        counters = {
            "transactions": sum(c.stats_transactions for c in self.cores.values()),
            "retries": sum(c.stats_retries for c in self.cores.values()),
            "commits": self.oracle.commits,
            "probes_delivered": {
                str(k): v for k, v in sorted(self.probes_delivered.items())
            },
            "nacks_rewritten": sum(
                u.stats.rewrites for u in self.fabric.mc_snis.values()
            ),
            "replicas_identical": self.replicas_identical(),
            "final_tick": self.halt_tick,
        }
        return SimReport(
            config=self.cfg.describe(),
            halt_cause=self.halt_cause,
            halt_tick=self.halt_tick,
            halt_detail=self.halt_detail,
            violations=[json.loads(v.to_json()) for v in self.violations],
            latency=self.fabric.latency.summary(),
            sni=self._sni_summary(),
            counters=counters,
            ledger=self.fabric.ledger(),
            coherence={
                "swmr_violations": list(self.swmr.violations) + full_census,
                "oracle_divergences": list(self.oracle.divergences),
                "commits": self.oracle.commits,
            },
            delivery_log=(
                {k: list(v) for k, v in sorted(self.delivery_log.items())}
                if self.delivery_log is not None
                else None
            ),
        )


def run_config(cfg: RunConfig) -> SimReport:
    return Simulator(cfg).run()
