"""Acceptance gate: the eight release criteria, one verdict line each.

Every test prints a single ``[criterion N] ... PASS|FAIL`` line on the
live terminal (bypassing capture) and then asserts, so a full run shows
the complete scorecard at a glance.
"""

import time
from dataclasses import replace

from interposim import presets
from interposim.apu import ApuTable, Permission
from interposim.attacks import standard_suite
from interposim.harness import EXIT_SECURITY, Simulator
from interposim.messages import MsgType, control_flit_count
from interposim.workloads import WorkloadSpec

from helpers import record_packets, with_sni


def _announce(capsys, num, label, passed, detail=""):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        tail = f" ({detail})" if detail else ""
        print(f"\n[criterion {num}] {label}: {status}{tail}")
    assert passed, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_1_threat_coverage(capsys):
    """Five attack templates: exact classification, zero leaked flits."""
    table = presets.attack_demo_table()
    base = replace(
        presets.baseline(128, seed=0),
        permissions=table,
        workload=WorkloadSpec(kind="idle"),
    )
    suite = standard_suite(base.topology(), table)
    correct = leaked = 0
    for scenario in suite:
        sim = Simulator(replace(base, attacks=(scenario,),
                                label=f"attack-{scenario.name}"))
        sim.fabric.enable_trace()
        packets = record_packets(sim)
        report = sim.run()
        detected = report.violations[0]["threat"] if report.violations else None
        if (report.halt_cause == "security"
                and report.exit_code == EXIT_SECURITY
                and detected == scenario.expected_threat.value):
            correct += 1
        bad_pids = {p.pid for p in packets if p.malicious}
        leaked += sum(1 for e in sim.fabric.trace_events if e[1] in bad_pids)
        leaked += sim.leaked_deliveries
    _announce(
        capsys, 1, "threat coverage",
        correct == len(suite) == 5 and leaked == 0,
        f"{correct}/5 classified, {leaked} leaked flits",
    )


def test_criterion_2_snooping_prevention(capsys):
    """8x8 sharing run: the locked-out observer sees zero probes; every
    filtered probe becomes exactly one NACK to the requester."""
    observer = 7
    active = tuple(c for c in range(64) if c // 8 != observer)
    cfg = replace(
        presets.baseline(128, seed=0),
        permissions=presets.observer_table(observer),
        workload=WorkloadSpec(kind="sharing", ops_per_core=250,
                              read_fraction=0.5, shared_lines=16,
                              mean_gap_ticks=8, active_cores=active),
        label="snooping-prevention",
    )
    t0 = time.time()
    sim = Simulator(cfg)
    packets = record_packets(sim)
    report = sim.run()
    dt = time.time() - t0
    txns = report.counters["transactions"]
    observer_probes = report.counters["probes_delivered"][str(observer)]
    filtered = sum(
        u.stats.filtered_per_chiplet.get(observer, 0)
        for u in sim.fabric.mc_snis
    )
    rep_core = cfg.topology().rep_core(observer)
    nacks_delivered = sum(
        1 for p in packets
        if p.deliver_tick >= 0 and p.msg.msg_type is MsgType.NACK
        and p.msg.requester_id == rep_core
    )
    ok = (
        report.halt_cause == "completed"
        and txns >= 10_000
        and observer_probes == 0
        and filtered > 0
        and nacks_delivered == filtered == report.counters["nacks_rewritten"]
        and dt < 300
    )
    _announce(
        capsys, 2, "snooping prevention", ok,
        f"{txns} txns, {observer_probes} observer probes, "
        f"{filtered} probes -> {nacks_delivered} NACKs, {dt:.0f}s",
    )


def test_criterion_3_coherence_sweep(capsys):
    """Desk-scale 2x2, 10^4 ops over 64 shared lines, 100 seeds."""
    t0 = time.time()
    clean = 0
    failures = []
    for seed in range(100):
        cfg = replace(
            presets.desk_scale(seed=seed),
            workload=WorkloadSpec(kind="sharing", ops_per_core=2500,
                                  read_fraction=0.5, shared_lines=64,
                                  mean_gap_ticks=2),
            label="coherence-sweep",
        )
        report = Simulator(cfg).run()
        if (report.halt_cause == "completed"
                and report.coherence["swmr_violations"] == []
                and report.coherence["oracle_divergences"] == []
                and report.counters["commits"] == 10_000):
            clean += 1
        elif len(failures) < 3:
            failures.append((seed, report.halt_cause))
    dt = time.time() - t0
    _announce(
        capsys, 3, "coherence correctness", clean == 100,
        f"{clean}/100 seeds clean, {dt:.0f}s" + (f", failures: {failures}" if failures else ""),
    )


def test_criterion_4_sni_latency_exact(capsys):
    """Added checker delay: exactly 2 cycles at SNI-1, 3 at SNI-2, zero
    tolerance, measured from flit timestamps on uncongested traffic."""
    details = []
    ok = True
    for width in (128, 64):
        cfg = replace(
            presets.baseline(width, seed=0),
            workload=WorkloadSpec(kind="uniform", ops_per_core=120,
                                  read_fraction=0.5, footprint_lines=64,
                                  mean_gap_ticks=120, active_cores=(0,)),
            label="sni-latency",
        )
        sim = Simulator(cfg)
        packets = record_packets(sim)
        report = sim.run()
        d1 = {p.sni_delay for p in packets if p.sni_kind == "sni1"}
        d2 = {p.sni_delay for p in packets if p.sni_kind == "sni2"}
        units1 = sum(1 for u in sim.fabric.chiplet_snis if u.stats.checked)
        units2 = sum(1 for u in sim.fabric.mc_snis if u.stats.checked)
        ok &= (report.halt_cause == "completed" and not report.violations
               and d1 == {2} and d2 == {3} and units1 == 8 and units2 == 4)
        details.append(f"w{width}: sni1={sorted(d1)} sni2={sorted(d2)}")
    _announce(capsys, 4, "SNI latency accounting", ok, "; ".join(details))


def test_criterion_5_latency_decomposition_signs(capsys):
    """Paired SNI-on/off: queuing strictly up and total up on both
    workloads; in-network down where broadcasts are filtered."""
    observer = 7
    active = tuple(c for c in range(64) if c // 8 != observer)
    seeds = (1, 2, 3)
    t0 = time.time()
    signs_ok = True
    details = []

    def paired(cfg):
        out = []
        for on in (True, False):
            report = Simulator(with_sni(cfg, on)).run()
            assert report.halt_cause == "completed", report.halt_detail
            out.append(report.latency)
        return out

    for seed in seeds:
        base = presets.baseline(128, seed=seed)
        on, off = paired(
            replace(base, workload=replace(base.workload, ops_per_core=100))
        )
        up_q = on["mean_queuing"] > off["mean_queuing"]
        up_t = on["mean_total"] > off["mean_total"]
        signs_ok &= up_q and up_t
        details.append(f"uni{seed}:{'qt' if up_q and up_t else 'X'}")
    for seed in seeds:
        cfg = replace(
            presets.baseline(128, seed=seed),
            permissions=presets.observer_table(observer),
            workload=WorkloadSpec(kind="sharing", ops_per_core=60,
                                  read_fraction=0.5, shared_lines=16,
                                  mean_gap_ticks=8, active_cores=active),
        )
        on, off = paired(cfg)
        up_q = on["mean_queuing"] > off["mean_queuing"]
        down_n = on["mean_in_network"] < off["mean_in_network"]
        up_t = on["mean_total"] > off["mean_total"]
        signs_ok &= up_q and down_n and up_t
        details.append(f"shr{seed}:{'qnt' if up_q and down_n and up_t else 'X'}")
    dt = time.time() - t0
    _announce(
        capsys, 5, "latency decomposition signs",
        signs_ok and dt < 600, " ".join(details) + f", {dt:.0f}s",
    )


def test_criterion_6_footprint_and_formats(capsys):
    """Table footprint, flit-count constants and golden vectors."""
    table = ApuTable.uniform(Permission.READ_WRITE)
    bits = len(table.serialize()) * 8
    sim = Simulator(replace(presets.baseline(128, seed=0),
                            workload=WorkloadSpec(kind="idle")))
    replica_bits = sum(len(t.serialize()) * 8 for t in sim.replicas.values())
    from test_messages import GOLDEN_PATH, TestGoldenVectors

    golden_ok = True
    try:
        TestGoldenVectors().test_vectors_byte_identical()
    except AssertionError:
        golden_ok = False
    vectors = len(GOLDEN_PATH.read_text(encoding="utf-8").splitlines())
    ok = (
        bits == 1024
        and len(sim.replicas) == 12
        and replica_bits == 12_288
        and control_flit_count(128) == 1
        and control_flit_count(64) == 2
        and golden_ok
    )
    _announce(
        capsys, 6, "footprint and format constants", ok,
        f"{bits} bits/table, {replica_bits} bits/12 replicas, "
        f"{vectors} golden vectors byte-identical",
    )


def test_criterion_7_neutrality(capsys):
    """All-ReadWrite permissions: SNI-on and SNI-off runs deliver the
    same message sequence to every destination."""
    base = replace(
        presets.baseline(128, seed=0),
        workload=WorkloadSpec(kind="uniform", ops_per_core=2600,
                              read_fraction=0.6, footprint_lines=96,
                              mean_gap_ticks=2, active_cores=(0,)),
        dram_latency=60,
        collect_delivery_log=True,
        label="neutrality",
    )
    logs = []
    delivered = []
    for on in (True, False):
        report = Simulator(with_sni(base, on)).run()
        assert report.halt_cause == "completed", report.halt_detail
        logs.append(report.delivery_log)
        delivered.append(report.ledger["packets_delivered"])
    ok = logs[0] == logs[1] and min(delivered) >= 10_000
    _announce(
        capsys, 7, "neutrality", ok,
        f"{delivered[0]} vs {delivered[1]} packets, "
        f"sequences {'identical' if logs[0] == logs[1] else 'DIFFER'}",
    )


def test_criterion_8_determinism(capsys):
    """Byte-identical reports across two invocations of three presets."""
    identical = []
    for name in ("baseline-64", "baseline-128", "desk-scale"):
        cfg = presets.get(name, seed=0)
        a = Simulator(cfg).run().to_json()
        b = Simulator(cfg).run().to_json()
        identical.append(a == b)
    _announce(
        capsys, 8, "determinism", all(identical),
        f"{sum(identical)}/3 presets byte-identical",
    )
