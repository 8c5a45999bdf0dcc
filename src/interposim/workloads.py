"""Deterministic workload generation: per-core memory operation streams.

A workload is a list of ``(gap_ticks, kind, address, write_value)``
tuples per core, generated from a seeded random.Random so that one
``(spec, topology, table, seed)`` combination always produces exactly
the same streams.  Addresses are always line-aligned and drawn from
regions the issuing chiplet is allowed to touch, so a benign workload
never trips an SNI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .apu import ApuTable
from .messages import ADDRESS_BITS
from .topology import LINE_SHIFT, Topology

LINE_BYTES = 1 << LINE_SHIFT

KINDS = ("uniform", "hotspot", "sharing", "trace", "idle")


class WorkloadError(Exception):
    pass


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of a traffic pattern."""

    kind: str = "uniform"
    ops_per_core: int = 100
    read_fraction: float = 0.7
    footprint_lines: int = 64
    mean_gap_ticks: int = 8
    hot_mc: int = 0
    shared_lines: int = 8
    active_cores: tuple[int, ...] | None = None
    trace_path: str | None = None

    def validate(self, topo: Topology) -> list[str]:
        errors = []
        if self.kind not in KINDS:
            errors.append(f"unknown workload kind {self.kind!r}")
        if self.ops_per_core < 0:
            errors.append("ops_per_core must be >= 0")
        if not 0.0 <= self.read_fraction <= 1.0:
            errors.append("read_fraction must be in [0, 1]")
        if self.footprint_lines < 1:
            errors.append("footprint_lines must be >= 1")
        if self.mean_gap_ticks < 0:
            errors.append("mean_gap_ticks must be >= 0")
        if self.kind == "hotspot" and not 0 <= self.hot_mc < topo.n_mcs:
            errors.append(f"hot_mc {self.hot_mc} out of range")
        if self.kind == "trace" and not self.trace_path:
            errors.append("trace workload needs trace_path")
        if self.active_cores is not None:
            for c in self.active_cores:
                if not topo.is_core(c):
                    errors.append(f"active core {c} does not exist")
        return errors


def _cores(spec: WorkloadSpec, topo: Topology) -> list[int]:
    if spec.active_cores is not None:
        return sorted(spec.active_cores)
    return list(range(topo.n_cores))


def _region_sets(table: ApuTable, chiplet: int) -> tuple[list[int], list[int]]:
    readable, writable = [], []
    for region, entry in enumerate(table.entries):
        perm = entry.permission_of(chiplet)
        if perm.allows_read:
            readable.append(region)
        if perm.allows_write:
            writable.append(region)
    return readable, writable


def _gap(rng: random.Random, mean: int) -> int:
    return rng.randint(0, 2 * mean) if mean else 0


def _wvalue(rng: random.Random) -> int:
    return rng.getrandbits(63) | 1


def generate(
    spec: WorkloadSpec, topo: Topology, table: ApuTable, seed: int
) -> dict[int, list[tuple[int, str, int, int]]]:
    """Build the per-core op streams for one run."""
    errors = spec.validate(topo)
    if errors:
        raise WorkloadError("; ".join(errors))
    if spec.kind == "idle":
        return {c: [] for c in _cores(spec, topo)}
    if spec.kind == "trace":
        return _from_trace(spec, topo)

    ops: dict[int, list[tuple[int, str, int, int]]] = {}
    for core in _cores(spec, topo):
        chiplet = topo.chiplet_of_core(core)
        # String seeds hash deterministically (unlike tuples with str parts).
        rng = random.Random(f"{seed}:{spec.kind}:{core}")
        readable, writable = _region_sets(table, chiplet)
        if spec.kind == "sharing":
            stream = _sharing_stream(spec, topo, table, rng)
        else:
            stream = _random_stream(
                spec, topo, rng, readable, writable, table.region_shift
            )
        ops[core] = stream
    return ops


def _pick_line(
    spec: WorkloadSpec, topo: Topology, rng: random.Random, region: int, shift: int
) -> int:
    base_line = (region << shift) >> LINE_SHIFT
    if spec.kind == "hotspot":
        # Force the line's home controller onto the hot one.
        delta = (spec.hot_mc - base_line) % topo.n_mcs
        off = rng.randrange(spec.footprint_lines) * topo.n_mcs + delta
    else:
        off = rng.randrange(spec.footprint_lines)
    return (base_line + off) << LINE_SHIFT


def _random_stream(spec, topo, rng, readable, writable, shift):
    stream = []
    for _ in range(spec.ops_per_core):
        write = rng.random() >= spec.read_fraction
        pool = writable if write else readable
        if not pool:
            write = False
            pool = readable
        if not pool:
            break  # this chiplet may touch nothing
        region = pool[rng.randrange(len(pool))]
        address = _pick_line(spec, topo, rng, region, shift)
        stream.append(
            (_gap(rng, spec.mean_gap_ticks), "W" if write else "R", address,
             _wvalue(rng) if write else 0)
        )
    return stream


def _sharing_stream(spec, topo, table, rng):
    """Producer/consumer traffic over one region every participating
    chiplet can write."""
    participants = sorted(
        {topo.chiplet_of_core(c) for c in _cores(spec, topo)}
    )
    common = None
    for region, entry in enumerate(table.entries):
        if all(entry.permission_of(k).allows_write for k in participants):
            common = region
            break
    if common is None:
        raise WorkloadError(
            "sharing workload needs a region writable by all active chiplets"
        )
    base = common << table.region_shift
    lines = [base + i * LINE_BYTES for i in range(spec.shared_lines)]
    stream = []
    for _ in range(spec.ops_per_core):
        write = rng.random() >= spec.read_fraction
        address = lines[rng.randrange(len(lines))]
        stream.append(
            (_gap(rng, spec.mean_gap_ticks), "W" if write else "R", address,
             _wvalue(rng) if write else 0)
        )
    return stream


def _from_trace(spec: WorkloadSpec, topo: Topology):
    """Replay a text trace: one ``cycle core R|W address`` record per line."""
    ops: dict[int, list[tuple[int, str, int, int]]] = {
        c: [] for c in _cores(spec, topo)
    }
    last_cycle: dict[int, int] = {}
    rng = random.Random(f"trace-values:{spec.trace_path}")
    with open(spec.trace_path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4 or parts[2] not in ("R", "W"):
                raise WorkloadError(f"{spec.trace_path}:{lineno}: bad record {line!r}")
            try:
                cycle, core = int(parts[0]), int(parts[1])
                address = int(parts[3], 0) & ~(LINE_BYTES - 1)
            except ValueError as exc:
                raise WorkloadError(f"{spec.trace_path}:{lineno}: {exc}") from None
            if not topo.is_core(core):
                raise WorkloadError(f"{spec.trace_path}:{lineno}: no core {core}")
            # A request the wire format cannot carry would fail to encode at
            # its tick; one beyond the permission table is the SNIs' to judge.
            if not 0 <= address < 1 << ADDRESS_BITS:
                raise WorkloadError(
                    f"{spec.trace_path}:{lineno}: address {parts[3]} does not fit"
                    f" in {ADDRESS_BITS} bits"
                )
            prev = last_cycle.get(core, -1)
            if cycle <= prev:
                raise WorkloadError(
                    f"{spec.trace_path}:{lineno}: cycles must increase per core"
                )
            gap = cycle - prev - 1
            last_cycle[core] = cycle
            value = _wvalue(rng) if parts[2] == "W" else 0
            ops.setdefault(core, []).append((gap, parts[2], address, value))
    return ops
