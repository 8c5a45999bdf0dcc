"""The mesh router as it was before ready lists, kept as a reference.

``ReferenceRouter`` is a copy of the earlier ``noc.Router``: on every
cycle it sorts the occupied VCs, rescans them for movable heads and
builds its candidate lists before it sends anything.  Only its storage
follows ``noc.Router``: a VC entry is (flit, packet, tick), the tick at
which the flit entered the VC.  The router tests
build one ``Fabric`` with it and one with ``noc.Router`` and compare the
flit traces.
"""

from collections import deque

from interposim.messages import Flit
from interposim.noc import (
    _HEAD, _HEAD_TAIL, _LOCAL_IDX, _OPP_IDX, _PORT_IDX, _TAIL,
)
from interposim.topology import Topology


class ReferenceRouter:
    """One mesh router: input-buffered, per-output wormhole arbitration.

    Ports are integer indices (E, W, N, S, LOCAL = 0..4) in the hot
    path; a per-destination routing table is precomputed when the mesh
    is wired up.
    """

    def __init__(self, rid: int, topo: Topology, vc_per_vnet: int, vc_depth: int):
        self.id = rid
        self.topo = topo
        self.vc_per_vnet = vc_per_vnet
        self.vc_depth = vc_depth
        self.buffers: dict[tuple[int, int, int], deque] = {}
        self.occupied: set[tuple[int, int, int]] = set()
        self.locks: list = [None] * 5
        self.last_grant: list = [None] * 5
        self.neighbors: list = [None] * 5  # Router per out-port index
        self.route_table: dict[int, int] = {}  # dest router id -> out-port idx
        self.local_sink = None  # sink(flit, packet, tick); never refuses
        self.trace = None  # trace(tick, packet, flit, link_label) or None

    def finish_wiring(self) -> None:
        """Precompute the XY routing decision for every destination."""
        for dest in self.topo.all_routers():
            if dest == self.id:
                self.route_table[dest] = _LOCAL_IDX
            else:
                self.route_table[dest] = _PORT_IDX[self.topo.route(self.id, dest)]

    def accept(self, port_idx: int, vnet: int, vc: int, flit: Flit, packet, tick: int) -> bool:
        key = (port_idx, vnet, vc)
        q = self.buffers.get(key)
        if q is None:
            q = self.buffers[key] = deque()
        if len(q) >= self.vc_depth:
            return False
        q.append((flit, packet, tick))
        self.occupied.add(key)
        return True

    def _try_send(self, out: int, key: tuple[int, int, int], tick: int) -> bool:
        q = self.buffers[key]
        flit, packet, _ = q[0]
        if out != _LOCAL_IDX and not self.neighbors[out].accept(
            _OPP_IDX[out], key[1], key[2], flit, packet, tick
        ):
            return False
        q.popleft()
        if not q:
            self.occupied.discard(key)
        pos = flit.position
        if pos is _HEAD:
            packet.hops += 1
            self.locks[out] = key
        elif pos is _HEAD_TAIL:
            packet.hops += 1
            self.locks[out] = None
        elif pos is _TAIL:
            self.locks[out] = None
        if out == _LOCAL_IDX:
            # After the hop count: the sink may deliver the packet.
            self.local_sink(flit, packet, tick)
        if self.trace is not None:
            label = (
                f"{self.id}->local" if out == _LOCAL_IDX
                else f"{self.id}->{self.neighbors[out].id}"
            )
            self.trace(tick, packet, flit, label)
        return True

    def step(self, tick: int) -> bool:
        if not self.occupied:
            return False
        moved = False
        heads: list[list] = [None] * 5
        route = self.route_table
        buffers = self.buffers
        for key in sorted(self.occupied):
            flit, packet, arrived = buffers[key][0]
            if arrived >= tick:
                continue
            pos = flit.position
            if pos is not _HEAD and pos is not _HEAD_TAIL:
                continue
            out = route[packet.dest_router]
            if heads[out] is None:
                heads[out] = [key]
            else:
                heads[out].append(key)
        for out in range(5):
            lock = self.locks[out]
            if lock is not None:
                if lock not in self.occupied:
                    continue  # rest of the worm still upstream
                if buffers[lock][0][2] >= tick:
                    continue
                if self._try_send(out, lock, tick):
                    moved = True
                continue
            cands = heads[out]
            if not cands:
                continue
            # Round-robin: first candidate strictly after the last grant,
            # wrapping to the smallest.
            last = self.last_grant[out]
            pick = None
            if last is not None:
                for key in cands:
                    if key > last:
                        pick = key
                        break
            if pick is None:
                pick = cands[0]
            if self._try_send(out, pick, tick):
                self.last_grant[out] = pick
                moved = True
        return moved
