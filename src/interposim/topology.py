"""Two-tier interconnect structure: chiplet hubs plus the interposer mesh.

Node ids: cores 0..63, memory controllers 64..67 (message address space);
chiplet hub routers 64+k; interposer routers 72 and up.  Interface
routers sit on the west/east mesh columns (chiplet links, one SNI-1
each); memory-controller routers occupy the middle column (one SNI-2
each).  Router-to-router links inside the mesh carry no SNI.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .messages import BROADCAST_ID, MC_NODE_BASE

INTERPOSER_ROUTER_BASE = 72
MESH_COLS = 3

# Cache-line interleaving across memory controllers.
LINE_SHIFT = 6


class Port(Enum):
    EAST = "E"
    WEST = "W"
    NORTH = "N"
    SOUTH = "S"
    LOCAL = "L"


class TopologyError(Exception):
    pass


@dataclass(frozen=True)
class Topology:
    """Mesh geometry and id maps for one system configuration."""

    n_chiplets: int = 8
    cores_per_chiplet: int = 8
    n_mcs: int = 4

    def __post_init__(self):
        if not 1 <= self.n_chiplets <= 8:
            raise TopologyError("n_chiplets must be 1-8")
        if self.n_chiplets * self.cores_per_chiplet > MC_NODE_BASE:
            raise TopologyError("core count exceeds node-id space (64)")
        if not 1 <= self.n_mcs <= 4:
            raise TopologyError("n_mcs must be 1-4")

    @property
    def n_cores(self) -> int:
        return self.n_chiplets * self.cores_per_chiplet

    @property
    def rows(self) -> int:
        return max(-(-self.n_chiplets // 2), self.n_mcs, 1)

    @property
    def n_routers(self) -> int:
        return MESH_COLS * self.rows

    # --- node-id helpers -------------------------------------------------

    def is_core(self, node: int) -> bool:
        return 0 <= node < self.n_cores

    def is_mc(self, node: int) -> bool:
        return MC_NODE_BASE <= node < MC_NODE_BASE + self.n_mcs

    def mc_node(self, mc: int) -> int:
        return MC_NODE_BASE + mc

    def mc_index(self, node: int) -> int:
        return node - MC_NODE_BASE

    def chiplet_of_core(self, core: int) -> int:
        return core // self.cores_per_chiplet

    def core_range(self, chiplet: int) -> range:
        base = chiplet * self.cores_per_chiplet
        return range(base, base + self.cores_per_chiplet)

    def rep_core(self, chiplet: int) -> int:
        """Node id used when a chiplet responds as a whole (hub core)."""
        return chiplet * self.cores_per_chiplet

    def home_mc(self, address: int) -> int:
        return (address >> LINE_SHIFT) % self.n_mcs

    # --- interposer router geometry -------------------------------------

    def chiplet_router(self, chiplet: int) -> int:
        """Interface router guarding one chiplet link (SNI-1 site)."""
        if not 0 <= chiplet < self.n_chiplets:
            raise TopologyError(f"chiplet {chiplet} out of range")
        rows = self.rows
        if chiplet < rows:
            return INTERPOSER_ROUTER_BASE + chiplet  # west column
        return INTERPOSER_ROUTER_BASE + rows + (chiplet - rows)  # east column

    def mc_router(self, mc: int) -> int:
        """Interface router guarding one memory-controller link (SNI-2 site)."""
        if not 0 <= mc < self.n_mcs:
            raise TopologyError(f"mc {mc} out of range")
        return INTERPOSER_ROUTER_BASE + 2 * self.rows + mc

    def coord(self, router: int) -> tuple[int, int]:
        idx = router - INTERPOSER_ROUTER_BASE
        rows = self.rows
        if not 0 <= idx < self.n_routers:
            raise TopologyError(f"unknown interposer router {router}")
        if idx < rows:
            return (0, idx)
        if idx < 2 * rows:
            return (2, idx - rows)
        return (1, idx - 2 * rows)

    def router_at(self, x: int, y: int) -> int:
        rows = self.rows
        if not (0 <= x < MESH_COLS and 0 <= y < rows):
            raise TopologyError(f"coordinate ({x},{y}) outside {MESH_COLS}x{rows} mesh")
        if x == 0:
            return INTERPOSER_ROUTER_BASE + y
        if x == 2:
            return INTERPOSER_ROUTER_BASE + rows + y
        return INTERPOSER_ROUTER_BASE + 2 * rows + y

    def all_routers(self) -> list[int]:
        return [INTERPOSER_ROUTER_BASE + i for i in range(self.n_routers)]

    def route(self, current: int, dest: int) -> Port:
        """Deterministic XY (X then Y) next-hop port."""
        cx, cy = self.coord(current)
        dx, dy = self.coord(dest)
        if cx < dx:
            return Port.EAST
        if cx > dx:
            return Port.WEST
        if cy < dy:
            return Port.NORTH
        if cy > dy:
            return Port.SOUTH
        return Port.LOCAL

    def neighbor(self, router: int, port: Port) -> int:
        x, y = self.coord(router)
        if port is Port.EAST:
            return self.router_at(x + 1, y)
        if port is Port.WEST:
            return self.router_at(x - 1, y)
        if port is Port.NORTH:
            return self.router_at(x, y + 1)
        if port is Port.SOUTH:
            return self.router_at(x, y - 1)
        raise TopologyError("LOCAL port has no mesh neighbor")

    def manhattan(self, a: int, b: int) -> int:
        ax, ay = self.coord(a)
        bx, by = self.coord(b)
        return abs(ax - bx) + abs(ay - by)

    def dest_router(self, dest_node: int, target_chiplet: int | None = None) -> int:
        """Interposer router a packet must reach for its final delivery."""
        if target_chiplet is not None:
            return self.chiplet_router(target_chiplet)
        if dest_node == BROADCAST_ID:
            raise TopologyError("broadcast packets need an explicit target chiplet")
        if self.is_mc(dest_node):
            return self.mc_router(self.mc_index(dest_node))
        if self.is_core(dest_node):
            return self.chiplet_router(self.chiplet_of_core(dest_node))
        raise TopologyError(f"unknown destination node {dest_node}")
