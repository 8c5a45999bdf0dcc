"""Pinned report digests: the behavioural contract of a refactor.

Each config below is cheap and exercises a different part of the
simulator.  ``tests/data/golden_reports.txt`` holds the sha256 of each
run's ``SimReport.to_json()``; a change that alters any report byte
fails here.  A change that alters reports on purpose must say why and
re-record the file:

    PYTHONPATH=src python tests/test_golden_reports.py > tests/data/golden_reports.txt

and, if the hop trace changes on purpose, ``ATTACK_HALT_TRACE`` from the
``attack-halt:trace`` line of ``python tests/test_golden_reports.py --traced``.

The digests are checked in this process and in fresh interpreters under
two ``PYTHONHASHSEED`` values, so no report may depend on set or dict
ordering of hashed keys.  Each config is also run with the hop trace
switched on, which must change no report byte; ``ATTACK_HALT_TRACE`` pins
the trace of the ``attack-halt`` run, one ``tick pid label`` line per
event.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from interposim import presets
from interposim.apu import Permission
from interposim.attacks import standard_suite
from interposim.harness import Simulator
from interposim.workloads import WorkloadSpec

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.txt"
SRC = Path(__file__).resolve().parent.parent / "src"


def _desk_w128():
    return replace(presets.desk_scale(seed=1), interposer_width=128,
                   label="desk-scale-w128")


def _baseline_short():
    cfg = presets.baseline(128, seed=2)
    return replace(cfg, workload=replace(cfg.workload, ops_per_core=6),
                   label="baseline-128-short")


def _observer_sharing():
    """Chiplet 7 locked out: SNI-2 rewrites its probes into NACKs."""
    active = tuple(c for c in range(64) if c // 8 != 7)
    return replace(
        presets.baseline(64, seed=3),
        permissions=presets.observer_table(7),
        workload=WorkloadSpec(
            kind="sharing", ops_per_core=4, read_fraction=0.5,
            shared_lines=8, mean_gap_ticks=8, active_cores=active,
        ),
        label="observer-sharing",
    )


def _attack_halt():
    """A denied read launched while benign traffic is in flight."""
    table = presets.attack_demo_table()
    cfg = replace(
        presets.baseline(128, seed=5), permissions=table,
        workload=WorkloadSpec(kind="uniform", ops_per_core=40, mean_gap_ticks=8),
        label="attack-halt",
    )
    scenario = standard_suite(cfg.topology(), table, trigger_tick=400)[1]
    return replace(cfg, attacks=(scenario,))


def _permission_update():
    """Chiplet 1 loses write access to region 0 mid-run."""
    return replace(
        presets.desk_scale(seed=4),
        permission_updates=((150, 0, 1, Permission.READ_ONLY),),
        label="permission-update",
    )


def _budget_halt():
    """The cycle budget runs out with nine packets still in flight."""
    return replace(presets.desk_scale(seed=0), max_ticks=500, label="budget-halt")


def _narrow_vcs():
    """Ten single-flit VCs per vnet: wide VC keys and steady backpressure."""
    cfg = presets.baseline(64, seed=6)
    return replace(
        cfg, vc_per_vnet=10, vc_depth=1,
        workload=replace(cfg.workload, ops_per_core=6), label="narrow-vcs",
    )


def _sni_off():
    """Every SNI a zero-delay wire: no check, no pipeline latency."""
    return replace(presets.desk_scale(seed=2), sni_enabled=False, label="sni-off")


def _rewrite_off():
    """Chiplet 7 locked out but SNI-2 filtering off: its probes get through."""
    return replace(_observer_sharing(), sni2_rewrite=False, label="rewrite-off")


def _hotspot_short():
    """Every core hammers MC 1: full hub egress and blocked links."""
    return replace(
        presets.baseline(64, seed=8),
        workload=WorkloadSpec(kind="hotspot", ops_per_core=8, mean_gap_ticks=2,
                              hot_mc=1),
        label="hotspot-short",
    )


def _quiet_updates():
    """Sparse traffic with long quiet stretches; one permission update
    falls due in a quiet stretch and the last comes long after the
    final op.  Both grant rights the table already gives."""
    return replace(
        presets.desk_scale(seed=0),
        workload=WorkloadSpec(kind="uniform", ops_per_core=6, read_fraction=0.7,
                              footprint_lines=16, mean_gap_ticks=400),
        permission_updates=((301, 7, 1, Permission.READ_WRITE),
                            (20000, 6, 0, Permission.READ_WRITE)),
        label="quiet-updates",
    )


def _shared_writes():
    """Write-heavy sharing through 2-deep VCs: multi-flit packets compete
    for outputs, hops are refused, and heads reach the front of a VC
    behind a departing tail."""
    return replace(
        presets.baseline(128, seed=9), vc_depth=2,
        workload=WorkloadSpec(kind="sharing", ops_per_core=8, read_fraction=0.2,
                              shared_lines=64, mean_gap_ticks=2),
        label="shared-writes",
    )


def _delivery_log():
    """Every delivery, per destination, in the report's delivery log."""
    return replace(presets.desk_scale(seed=0), collect_delivery_log=True,
                   label="delivery-log")


CONFIGS = {
    "desk-scale-w64": lambda: presets.desk_scale(seed=0),
    "desk-scale-w128": _desk_w128,
    "baseline-128-short": _baseline_short,
    "observer-sharing": _observer_sharing,
    "attack-halt": _attack_halt,
    "permission-update": _permission_update,
    "budget-halt": _budget_halt,
    "narrow-vcs": _narrow_vcs,
    "sni-off": _sni_off,
    "rewrite-off": _rewrite_off,
    "hotspot-short": _hotspot_short,
    "quiet-updates": _quiet_updates,
    "delivery-log": _delivery_log,
    "shared-writes": _shared_writes,
}

ATTACK_HALT_TRACE = "968df98bd6ea6bb692cef523dd0848dba617c5577c09cdc2b5e98c66ab44a159"
TRACE_KEY = "attack-halt:trace"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(traced: bool = False) -> dict[str, str]:
    """Each config's report digest.  Traced, every run has the hop trace
    switched on, and ``TRACE_KEY`` holds the digest of attack-halt's trace."""
    out = {}
    for name, build in CONFIGS.items():
        sim = Simulator(build())
        if traced:
            sim.fabric.enable_trace()
        out[name] = _sha256(sim.run().to_json())
        if traced and name == "attack-halt":
            out[TRACE_KEY] = _sha256("".join(
                f"{tick} {pid} {label}\n" for tick, pid, label in sim.fabric.trace_events
            ))
    return out


def _pinned(traced: bool = False) -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text(encoding="utf-8").splitlines())
    pinned = {name: digest for name, digest in pairs}
    return {**pinned, TRACE_KEY: ATTACK_HALT_TRACE} if traced else pinned


def test_pins_cover_every_config():
    assert sorted(_pinned()) == sorted(CONFIGS)


def test_digests_in_process():
    assert digests() == _pinned()


def test_hop_trace_changes_no_report_byte():
    assert digests(traced=True) == _pinned(traced=True)


def test_digests_across_hash_seeds():
    for traced in (False, True):
        for hash_seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
            out = subprocess.run(
                [sys.executable, __file__, *(["--traced"] if traced else [])],
                env=env, check=True, stdout=subprocess.PIPE, text=True,
            ).stdout
            seen = dict(line.split() for line in out.splitlines())
            assert seen == _pinned(traced), f"PYTHONHASHSEED={hash_seed} traced={traced}"


if __name__ == "__main__":
    for name, digest in digests(traced="--traced" in sys.argv).items():
        print(name, digest)
