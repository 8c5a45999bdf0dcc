"""The benchmark's workloads: which simulations one round runs.

A round is one fresh process that builds every simulation of the
workload, runs them one after another and checks their reports.  Each
workload is sized so that a round takes about six seconds of host time
on a 2-CPU box.  The builders import the simulator inside their bodies
so that the parent process, which only schedules rounds, never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

OBSERVER = 7  # the chiplet locked out of every region in snoop-filter-64


def _mesh_uniform(seed: int, ops_per_core: int):
    """Preset baseline-128: 8x8 cores, uniform, 70 % reads, all-RW."""
    from dataclasses import replace

    from interposim import presets

    cfg = presets.get("baseline-128", seed=seed)
    return replace(
        cfg, workload=replace(cfg.workload, ops_per_core=ops_per_core)
    )


def _coherence_sweep(seed: int, ops_per_core: int):
    """Acceptance criterion 3: desk-scale 2x2 sharing over 64 lines."""
    from dataclasses import replace

    from interposim import presets
    from interposim.workloads import WorkloadSpec

    return replace(
        presets.desk_scale(seed=seed),
        workload=WorkloadSpec(
            kind="sharing", ops_per_core=ops_per_core, read_fraction=0.5,
            shared_lines=64, mean_gap_ticks=2,
        ),
        label="coherence-sweep",
    )


def _snoop_filter(seed: int, ops_per_core: int):
    """Acceptance criterion 2 (observer chiplet locked out, sharing on
    the other 56 cores), but at interposer width 64."""
    from dataclasses import replace

    from interposim import presets
    from interposim.workloads import WorkloadSpec

    active = tuple(c for c in range(64) if c // 8 != OBSERVER)
    return replace(
        presets.baseline(64, seed=seed),
        permissions=presets.observer_table(OBSERVER),
        workload=WorkloadSpec(
            kind="sharing", ops_per_core=ops_per_core, read_fraction=0.5,
            shared_lines=16, mean_gap_ticks=8, active_cores=active,
        ),
        label="snoop-filter-64",
    )


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # build(seed, ops_per_core) -> RunConfig
    sims_per_round: int  # consecutive seeds, starting at the run's seed
    ops_per_core: int
    active_cores: int
    all_rw: bool  # every chiplet may read and write every region
    observer: int | None = None

    @property
    def ops_per_sim(self) -> int:
        """Memory operations one simulation must commit."""
        return self.ops_per_core * self.active_cores

    def seeds(self, seed: int) -> list[int]:
        return [seed + i for i in range(self.sims_per_round)]

    def configs(self, seed: int) -> list:
        return [self.build(s, self.ops_per_core) for s in self.seeds(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mesh-uniform-128", _mesh_uniform, sims_per_round=1,
                 ops_per_core=100, active_cores=64, all_rw=True),
        Workload("coherence-sweep", _coherence_sweep, sims_per_round=2,
                 ops_per_core=2500, active_cores=4, all_rw=True),
        Workload("snoop-filter-64", _snoop_filter, sims_per_round=1,
                 ops_per_core=120, active_cores=56, all_rw=False,
                 observer=OBSERVER),
    )
}
