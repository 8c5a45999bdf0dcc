"""Named starting configurations for runs and tests.

System presets pick the machine shape; permission presets pick the
protection-table contents.  Both are plain constructors over RunConfig
and ApuTable, so every CLI flag can still override individual fields.
"""

from __future__ import annotations

from dataclasses import replace

from .apu import ApuEntry, ApuTable, Permission
from .harness import RunConfig
from .workloads import WorkloadSpec

RW = Permission.READ_WRITE
RO = Permission.READ_ONLY
NA = Permission.NO_ACCESS


# --- permission tables ---------------------------------------------------

def private_regions_table(
    n_chiplets: int = 8, n_regions: int = 64, region_shift: int = 26
) -> ApuTable:
    """Region i private (RW) to chiplet i modulo the chiplet count, with
    one region shared read-write between chiplets 0 and 1."""
    entries = []
    for region in range(n_regions):
        if region == n_chiplets:
            entries.append(ApuEntry.grants({0: RW, 1: RW}))
        else:
            entries.append(ApuEntry.grants({region % n_chiplets: RW}))
    return ApuTable(tuple(entries), region_shift)


def attack_demo_table(
    n_chiplets: int = 8, n_regions: int = 64, region_shift: int = 26
) -> ApuTable:
    """Mixed grants exercising every checker rule: chiplet 0 owns region
    0 exclusively, is read-only on region 1, and locked out of region 2;
    everything else is shared read-write."""
    perms = []
    for region in range(n_regions):
        cells = [RW] * 8
        if region == 0:
            cells = [RW] + [NA] * 7
        elif region == 1:
            cells[0] = RO
        elif region == 2:
            cells[0] = NA
        perms.append(ApuEntry(tuple(cells)))
    return ApuTable(tuple(perms), region_shift)


def observer_table(
    observer: int, n_regions: int = 64, region_shift: int = 26
) -> ApuTable:
    """All chiplets share everything except one observer chiplet with no
    access anywhere: the snooping-prevention setup."""
    cells = [RW] * 8
    cells[observer] = NA
    entry = ApuEntry(tuple(cells))
    return ApuTable((entry,) * n_regions, region_shift)


PERMISSION_PRESETS = {
    "all-rw": lambda: None,  # harness default: READ_WRITE everywhere
    "private-demo": private_regions_table,
    "attack-demo": attack_demo_table,
}


# --- system presets ------------------------------------------------------

def baseline(width: int = 128, seed: int = 0) -> RunConfig:
    """Full machine: 8 chiplets x 8 cores, 4 controllers, 3x4 mesh."""
    return RunConfig(
        n_chiplets=8,
        cores_per_chiplet=8,
        n_mcs=4,
        interposer_width=width,
        workload=WorkloadSpec(
            kind="uniform", ops_per_core=200, read_fraction=0.7,
            footprint_lines=64, mean_gap_ticks=8,
        ),
        seed=seed,
        label=f"baseline-{width}",
    )


def desk_scale(seed: int = 0) -> RunConfig:
    """Small fast configuration for development and oracle sweeps."""
    return RunConfig(
        n_chiplets=2,
        cores_per_chiplet=2,
        n_mcs=2,
        interposer_width=64,
        permissions=ApuTable.uniform(RW, 8, 29),
        workload=WorkloadSpec(
            kind="uniform", ops_per_core=200, read_fraction=0.7,
            footprint_lines=16, mean_gap_ticks=4,
        ),
        dram_latency=10,
        cache_lines=64,
        seed=seed,
        label="desk-scale",
    )


SYSTEM_PRESETS = {
    "baseline-64": lambda seed=0: baseline(64, seed),
    "baseline-128": lambda seed=0: baseline(128, seed),
    "desk-scale": desk_scale,
}


def get(name: str, seed: int = 0) -> RunConfig:
    try:
        cfg = SYSTEM_PRESETS[name](seed=seed)
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; choose from {sorted(SYSTEM_PRESETS)}"
        ) from None
    return replace(cfg, seed=seed)
