"""Simplified MOESI-style protocol engine with a hybrid sparse directory.

Per-core private caches generate GETS/GETX/PUT traffic toward home-node
directories that either probe a recorded dirty owner directly or fall
back to broadcasting probes to every chiplet while fetching DRAM in
parallel (the DRAM fetch is skipped when a directory entry is found).
Transient protocol states are reduced to per-address busy flags plus
response counting at the requester; the full transition subset is
documented in docs/protocol_transitions.md.

A sequential memory oracle and a single-writer/multiple-reader census
verify every run: replaying the global commit order must reproduce each
observed load value.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum

from .messages import (
    BROADCAST_ID,
    DATA_BLOCK_BYTES,
    NO_OWNER,
    CoherenceMessage,
    MsgType,
)
from .topology import LINE_SHIFT, Topology

LINE_BYTES = 1 << LINE_SHIFT
# Ticks before a core re-sends a NACKed request or write-back (20
# interposer cycles).
RETRY_BACKOFF_TICKS = 80


class ProtocolAssertionError(Exception):
    """Internal protocol invariant broke: a simulation bug, not an attack."""


class CacheState(Enum):
    M = "M"
    O = "O"
    E = "E"
    S = "S"
    I = "I"  # noqa: E741 - the protocol letter


OWNED_STATES = (CacheState.M, CacheState.O, CacheState.E)
DIRTY_STATES = (CacheState.M, CacheState.O)


def initial_line_value(address: int) -> int:
    """Deterministic pristine-memory content, shared by DRAM and oracle."""
    v = (address ^ 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    v = (v * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    return v ^ (v >> 31)


def value_to_block(value: int) -> bytes:
    return value.to_bytes(8, "little") + bytes(DATA_BLOCK_BYTES - 8)


def block_to_value(block: bytes) -> int:
    return int.from_bytes(block[:8], "little")


class CacheLine:
    __slots__ = ("state", "data")

    def __init__(self, state: CacheState, data: bytes):
        self.state = state
        self.data = data


class PrivateCache:
    """One private cache level per core (L1/L2 collapsed), LRU replacement."""

    def __init__(self, capacity: int, on_state_change=None):
        self.capacity = capacity
        self.lines: OrderedDict[int, CacheLine] = OrderedDict()
        self.on_state_change = on_state_change

    def _notify(self, address, old, new):
        if self.on_state_change is not None:
            self.on_state_change(address, old, new)

    def peek(self, address: int) -> CacheLine | None:
        return self.lines.get(address)

    def touch(self, address: int) -> CacheLine | None:
        line = self.lines.get(address)
        if line is not None:
            self.lines.move_to_end(address)
        return line

    def install(self, address: int, state: CacheState, data: bytes) -> None:
        if address in self.lines:
            raise ProtocolAssertionError(f"double install of line {address:#x}")
        if len(self.lines) >= self.capacity:
            raise ProtocolAssertionError("install into a full cache")
        self.lines[address] = CacheLine(state, data)
        self._notify(address, None, state)

    def set_state(self, address: int, state: CacheState) -> None:
        line = self.lines[address]
        old = line.state
        if old is not state:
            line.state = state
            self._notify(address, old, state)

    def drop(self, address: int) -> None:
        line = self.lines.pop(address, None)
        if line is not None:
            self._notify(address, line.state, None)

    def victim(self) -> tuple[int, CacheLine]:
        address = next(iter(self.lines))
        return address, self.lines[address]

    @property
    def full(self) -> bool:
        return len(self.lines) >= self.capacity


class SwmrChecker:
    """Incremental single-writer/multiple-reader census over all caches.

    Every cache state change flows through update(); a violation is
    recorded the moment two owners coexist, which is equivalent to
    walking all caches at each cycle boundary.
    """

    def __init__(self):
        self.census: dict[int, list[int]] = {}
        self.violations: list[str] = []
        self.tick = 0

    def update(self, address: int, old: CacheState | None, new: CacheState | None):
        me, o, s = self.census.get(address, (0, 0, 0))
        for state, delta in ((old, -1), (new, +1)):
            if state in (CacheState.M, CacheState.E):
                me += delta
            elif state is CacheState.O:
                o += delta
            elif state is CacheState.S:
                s += delta
        self.census[address] = [me, o, s]
        if me > 1 or (o > 0 and me > 0):
            self.violations.append(
                f"tick {self.tick}: SWMR broken at {address:#x} (M/E={me}, O={o}, S={s})"
            )

    def full_check(self, caches: list[PrivateCache]) -> list[str]:
        problems = []
        census: dict[int, list[int]] = {}
        for cache in caches:
            for address, line in cache.lines.items():
                me, o = census.setdefault(address, [0, 0])
                if line.state in (CacheState.M, CacheState.E):
                    census[address][0] += 1
                elif line.state is CacheState.O:
                    census[address][1] += 1
        for address, (me, o) in census.items():
            if me > 1 or (o > 0 and me > 0):
                problems.append(f"SWMR broken at {address:#x} (M/E={me}, O={o})")
        return problems


class MemoryOracle:
    """Flat sequential-consistency oracle fed with the global commit order."""

    def __init__(self):
        self.mem: dict[int, int] = {}
        self.commits = 0
        self.divergences: list[str] = []

    def commit(self, tick: int, core: int, kind: str, address: int, value: int):
        self.commits += 1
        if kind == "W":
            self.mem[address] = value
        else:
            expected = self.mem.get(address, initial_line_value(address))
            if value != expected:
                self.divergences.append(
                    f"tick {tick} core {core} read {address:#x}: "
                    f"saw {value:#x}, oracle says {expected:#x}"
                )


class Dram:
    """Flat backing store with deterministic pristine content."""

    def __init__(self):
        self.lines: dict[int, bytes] = {}

    def read(self, address: int) -> bytes:
        block = self.lines.get(address)
        if block is None:
            block = value_to_block(initial_line_value(address))
            self.lines[address] = block
        return block

    def write(self, address: int, data: bytes) -> None:
        self.lines[address] = data


@dataclass
class DirEntry:
    owner: int
    sharers: bool


class Directory:
    """Sparse home-node directory plus DRAM scheduling for one controller.

    Entries track dirty owners only (set by unblock messages); clean
    exclusive fills leave no entry, so a miss conservatively broadcasts.
    """

    def __init__(self, mc: int, topo: Topology, dram: Dram, send, dram_latency: int):
        """``dram_latency`` is in ticks."""
        self.node = topo.mc_node(mc)
        self.topo = topo
        self.dram = dram
        self.send = send  # send(msg, tick, target_chiplet=None)
        self.dram_latency = dram_latency
        self.busy: dict[int, int] = {}
        self.entries: dict[int, DirEntry] = {}
        self.inbox: deque[CoherenceMessage] = deque()
        # (due tick, address, requester, probes sent), in due order: the
        # step tick never decreases and the latency is fixed.
        self.dram_events: deque[tuple[int, int, int, int]] = deque()
        self.stats_strays = 0

    @property
    def idle(self) -> bool:
        return not self.busy and not self.inbox and not self.dram_events

    def deliver(self, msg: CoherenceMessage) -> None:
        self.inbox.append(msg)

    def _probe(
        self, kind: MsgType, address: int, requester: int, chiplets, tick: int
    ) -> int:
        # A message is frozen, so one serves every target chiplet; each
        # packet still gets its own flits.
        probe = CoherenceMessage(
            msg_type=kind,
            requester_id=self.node,
            destination_id=BROADCAST_ID,
            vnet=1,
            address=address,
            cur_owner=requester,
        )
        for chiplet in chiplets:
            self.send(probe, tick, chiplet)
        return len(chiplets)

    def _handle_request(self, msg: CoherenceMessage, tick: int) -> None:
        address = msg.address
        requester = msg.requester_id
        mtype = msg.msg_type

        if mtype in (MsgType.GETS, MsgType.GET_INSTR, MsgType.GETX):
            if address in self.busy:
                self.send(
                    CoherenceMessage(MsgType.NACK, self.node, requester, 2, address),
                    tick,
                )
                return
            self.busy[address] = requester
            entry = self.entries.get(address)
            probe = MsgType.PROBE if mtype is not MsgType.GETX else MsgType.PROBE_INV
            if entry is not None:
                owner_chiplet = self.topo.chiplet_of_core(entry.owner)
                if mtype is MsgType.GETX and entry.sharers:
                    chiplets = range(self.topo.n_chiplets)
                else:
                    chiplets = [owner_chiplet]
                n = self._probe(probe, address, requester, chiplets, tick)
                self.send(
                    CoherenceMessage(
                        MsgType.MEMORY_ACK, self.node, requester, 2, address, cur_owner=n
                    ),
                    tick,
                )
            else:
                n = self._probe(
                    probe, address, requester, range(self.topo.n_chiplets), tick
                )
                self.dram_events.append(
                    (tick + self.dram_latency, address, requester, n)
                )
        elif mtype is MsgType.PUT:
            if address in self.busy:
                self.send(
                    CoherenceMessage(MsgType.WB_NACK, self.node, requester, 1, address),
                    tick,
                )
            else:
                self.busy[address] = requester
                self.send(
                    CoherenceMessage(MsgType.WB_ACK, self.node, requester, 1, address),
                    tick,
                )
        elif mtype is MsgType.WRITEBACK_DATA:
            self.dram.write(address, msg.data_block)
            self.entries.pop(address, None)
            self.busy.pop(address, None)
        elif mtype is MsgType.UNBLOCK:
            self.entries[address] = DirEntry(owner=requester, sharers=False)
            self.busy.pop(address, None)
        elif mtype is MsgType.UNBLOCKS:
            if msg.cur_owner != NO_OWNER:
                self.entries[address] = DirEntry(owner=msg.cur_owner, sharers=True)
            else:
                self.entries.pop(address, None)
            self.busy.pop(address, None)
        else:
            # Only reachable through an unfiltered hostile packet.
            self.stats_strays += 1

    def step(self, tick: int) -> bool:
        progressed = False
        while self.inbox:
            self._handle_request(self.inbox.popleft(), tick)
            progressed = True
        events = self.dram_events
        while events and events[0][0] <= tick:
            _, address, requester, n = events.popleft()
            self.send(
                CoherenceMessage(
                    MsgType.MEMORY_DATA,
                    self.node,
                    requester,
                    2,
                    address,
                    cur_owner=n,
                    data_block=self.dram.read(address),
                ),
                tick,
            )
            progressed = True
        return progressed


class _Txn:
    __slots__ = (
        "kind", "address", "value", "expected", "resps",
        "shared", "owner_data", "owner_id", "mem_data",
    )

    def __init__(self, kind: MsgType, address: int, value: int):
        self.kind = kind
        self.address = address
        self.value = value
        self.expected: int | None = None  # set by the directory's summary
        self.resps = 0
        self.shared = False
        self.owner_data: bytes | None = None
        self.owner_id: int | None = None
        self.mem_data: bytes | None = None


class Core:
    """One core: sequential memory ops, one outstanding transaction."""

    def __init__(
        self,
        core_id: int,
        topo: Topology,
        cache: PrivateCache,
        send,
        commit,
    ):
        self.id = core_id
        self.topo = topo
        self.cache = cache
        self.send = send  # send(msg, tick)
        self.commit = commit  # commit(tick, core, kind, address, value)
        self.ops: list[tuple[int, str, int, int]] = []  # (gap, kind, addr, wvalue)
        self.op_idx = 0
        self.next_issue_tick = 0
        self.txn: _Txn | None = None
        self.retry_tick: int | None = None
        self.evict_addr: int | None = None
        self.evict_retry: int | None = None
        self.stats_retries = 0
        self.stats_transactions = 0
        self.stats_strays = 0

    @property
    def done(self) -> bool:
        return (
            self.op_idx >= len(self.ops)
            and self.txn is None
            and self.evict_addr is None
        )

    def wake_tick(self) -> int | None:
        """The tick from which step() acts, read from the fields that gate
        it: ``evict_retry`` while an eviction waits, ``retry_tick`` while
        a transaction waits, ``next_issue_tick`` while ops remain.  None
        while a response is awaited, or when the core is done."""
        if self.evict_addr is not None:
            return self.evict_retry
        if self.txn is not None:
            return self.retry_tick
        if self.op_idx < len(self.ops):
            return self.next_issue_tick
        return None

    def load_ops(self, ops, start_tick: int = 0) -> None:
        self.ops = list(ops)
        self.op_idx = 0
        self.next_issue_tick = start_tick + (self.ops[0][0] if self.ops else 0)

    # -- issue side -------------------------------------------------------

    def step(self, tick: int) -> bool:
        if self.evict_addr is not None:
            if self.evict_retry is not None and tick >= self.evict_retry:
                self._send_put(tick)
            return False
        if self.txn is not None:
            if self.retry_tick is not None and tick >= self.retry_tick:
                self.retry_tick = None
                self.stats_retries += 1
                # Fresh response accounting for each re-issue.
                txn = self.txn
                self.txn = _Txn(txn.kind, txn.address, txn.value)
                self._send_request(tick)
            return False
        if self.op_idx >= len(self.ops) or tick < self.next_issue_tick:
            return False

        _, kind, address, value = self.ops[self.op_idx]
        line = self.cache.touch(address)
        if line is not None and (
            kind == "R" or line.state in (CacheState.M, CacheState.E)
        ):
            if kind == "W":
                if line.state is CacheState.E:
                    self.cache.set_state(address, CacheState.M)
                line.data = value_to_block(value)
                self.commit(tick, self.id, "W", address, value)
            else:
                self.commit(tick, self.id, "R", address, block_to_value(line.data))
            self._advance_op(tick)
            return True

        # Miss or upgrade: make room first if a fill will be needed.
        if line is None and self.cache.full:
            victim_addr, victim = self.cache.victim()
            if victim.state in DIRTY_STATES:
                self.evict_addr = victim_addr
                self._send_put(tick)
                return True
            self.cache.drop(victim_addr)

        req = MsgType.GETX if kind == "W" else MsgType.GETS
        self.txn = _Txn(req, address, value)
        self.stats_transactions += 1
        self._send_request(tick)
        return True

    def _send_request(self, tick: int) -> None:
        txn = self.txn
        home = self.topo.mc_node(self.topo.home_mc(txn.address))
        self.send(
            CoherenceMessage(txn.kind, self.id, home, 0, txn.address), tick
        )

    def _send_put(self, tick: int) -> None:
        line = self.cache.peek(self.evict_addr)
        if line is None or line.state not in DIRTY_STATES:
            # Invalidated while we waited: nothing left to write back.
            self.evict_addr = None
            self.evict_retry = None
            return
        self.evict_retry = None
        home = self.topo.mc_node(self.topo.home_mc(self.evict_addr))
        self.send(
            CoherenceMessage(MsgType.PUT, self.id, home, 0, self.evict_addr), tick
        )

    def _advance_op(self, tick: int) -> None:
        self.op_idx += 1
        if self.op_idx < len(self.ops):
            self.next_issue_tick = tick + 1 + self.ops[self.op_idx][0]

    # -- response side ----------------------------------------------------

    def handle(self, msg: CoherenceMessage, tick: int) -> None:
        mtype = msg.msg_type
        if mtype is MsgType.WB_ACK or mtype is MsgType.WB_NACK:
            if msg.address != self.evict_addr:  # no such eviction: a stray
                self.stats_strays += 1
            elif mtype is MsgType.WB_ACK:
                self._finish_eviction(msg, tick)
            else:
                self.evict_retry = tick + RETRY_BACKOFF_TICKS
            return
        txn = self.txn
        if txn is None or msg.address != txn.address:
            # No matching transaction: can only happen downstream of an
            # unfiltered hostile packet.  Record it and move on.
            self.stats_strays += 1
            return
        if mtype is MsgType.NACK and self.topo.is_mc(msg.requester_id):
            self.retry_tick = tick + RETRY_BACKOFF_TICKS
            return
        if mtype in (MsgType.MEMORY_DATA, MsgType.MEMORY_ACK):
            txn.expected = msg.cur_owner
            if mtype is MsgType.MEMORY_DATA:
                txn.mem_data = msg.data_block
        elif mtype in (MsgType.DATA, MsgType.DATA_SHARED):
            txn.resps += 1
            txn.owner_data = msg.data_block
            txn.owner_id = msg.requester_id
            if mtype is MsgType.DATA_SHARED:
                txn.shared = True
        elif mtype is MsgType.SHARED_ACK:
            txn.resps += 1
            txn.shared = True
        elif mtype in (MsgType.ACK, MsgType.NACK):
            # A chiplet-sourced NACK stands in for that chiplet's probe
            # reply: it provably holds no copy of the line.
            txn.resps += 1
        else:
            self.stats_strays += 1
            return
        if txn.resps == txn.expected:
            self._complete(tick)

    def _finish_eviction(self, msg: CoherenceMessage, tick: int) -> None:
        address = self.evict_addr
        line = self.cache.peek(address)
        if line is None or line.state not in DIRTY_STATES:
            raise ProtocolAssertionError(
                f"core {self.id} write-back of non-dirty line {address:#x}"
            )
        home = self.topo.mc_node(self.topo.home_mc(address))
        self.send(
            CoherenceMessage(
                MsgType.WRITEBACK_DATA, self.id, home, 2, address,
                dirty=True, data_block=line.data,
            ),
            tick,
        )
        self.cache.drop(address)
        self.evict_addr = None

    def _complete(self, tick: int) -> None:
        txn = self.txn
        address = txn.address
        line = self.cache.peek(address)
        if line is not None:
            data = line.data  # upgrade kept the current shared copy
        elif txn.owner_data is not None:
            data = txn.owner_data
        elif txn.mem_data is not None:
            data = txn.mem_data
        else:
            raise ProtocolAssertionError(
                f"core {self.id} transaction on {address:#x} finished without data"
            )

        home = self.topo.mc_node(self.topo.home_mc(address))
        if txn.kind is MsgType.GETX:
            value = txn.value
            data = value_to_block(value)
            if line is not None:
                self.cache.set_state(address, CacheState.M)
                line.data = data
            else:
                self.cache.install(address, CacheState.M, data)
            self.commit(tick, self.id, "W", address, value)
            self.send(
                CoherenceMessage(MsgType.UNBLOCK, self.id, home, 3, address), tick
            )
        else:
            exclusive = not txn.shared and txn.owner_data is None
            state = CacheState.E if exclusive else CacheState.S
            self.cache.install(address, state, data)
            self.commit(tick, self.id, "R", address, block_to_value(data))
            owner = txn.owner_id if txn.owner_id is not None else NO_OWNER
            self.send(
                CoherenceMessage(
                    MsgType.UNBLOCKS, self.id, home, 3, address, cur_owner=owner
                ),
                tick,
            )
        self.txn = None
        self._advance_op(tick)


class ChipletAgent:
    """Per-chiplet probe handler: one reply per probe copy, on behalf of
    whichever core (if any) holds the line."""

    def __init__(self, chiplet: int, cores: list[Core], topo: Topology, send):
        self.chiplet = chiplet
        self.cores = cores
        self.topo = topo
        self.send = send  # send(msg, tick)

    def handle_probe(self, msg: CoherenceMessage, tick: int) -> None:
        address = msg.address
        requester = msg.cur_owner
        rep = self.topo.rep_core(self.chiplet)

        owner_core: Core | None = None
        shared = False
        holders: list[Core] = []
        for core in self.cores:
            if core.id == requester:
                continue  # the requester's own copy rides with its transaction
            line = core.cache.lines.get(address)
            if line is None:
                continue
            holders.append(core)
            if line.state in OWNED_STATES:
                owner_core = core
            elif line.state is CacheState.S:
                shared = True

        if msg.msg_type is MsgType.PROBE:
            if owner_core is not None:
                line = owner_core.cache.peek(address)
                if line.state in DIRTY_STATES:
                    owner_core.cache.set_state(address, CacheState.O)
                    self.send(
                        CoherenceMessage(
                            MsgType.DATA_SHARED, owner_core.id, requester, 2,
                            address, dirty=True, data_block=line.data,
                        ),
                        tick,
                    )
                else:  # clean exclusive: downgrade, let memory supply data
                    owner_core.cache.set_state(address, CacheState.S)
                    self.send(
                        CoherenceMessage(MsgType.SHARED_ACK, rep, requester, 2, address),
                        tick,
                    )
            elif shared:
                self.send(
                    CoherenceMessage(MsgType.SHARED_ACK, rep, requester, 2, address),
                    tick,
                )
            else:
                self.send(
                    CoherenceMessage(MsgType.ACK, rep, requester, 2, address),
                    tick,
                )
        elif msg.msg_type is MsgType.PROBE_INV:
            reply: CoherenceMessage | None = None
            for core in holders:
                line = core.cache.peek(address)
                if core is owner_core and line.state in DIRTY_STATES:
                    reply = CoherenceMessage(
                        MsgType.DATA, core.id, requester, 2, address,
                        dirty=True, data_block=line.data,
                    )
                core.cache.drop(address)
            if reply is not None:
                self.send(reply, tick)
            else:
                self.send(
                    CoherenceMessage(MsgType.ACK, rep, requester, 2, address),
                    tick,
                )
        else:
            raise ProtocolAssertionError(f"agent got non-probe {msg.type_name}")
