"""Harness tests: configuration, exit codes, accounting, permission updates."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from interposim import presets
from interposim.apu import Permission
from interposim.attacks import AttackScenario
from interposim.coherence import RETRY_BACKOFF_TICKS, CacheState, _Txn, value_to_block
from interposim.harness import (
    EXIT_COHERENCE,
    EXIT_DEADLOCK,
    EXIT_OK,
    EXIT_SECURITY,
    ConfigError,
    RunConfig,
    Simulator,
)
from interposim.noc import LatencyStats, Packet, nearest_rank
from interposim.sni import SniUnit, ThreatClass
from interposim.messages import CoherenceMessage, MsgType
from interposim.workloads import WorkloadSpec

from helpers import record_packets, with_sni


class TestConfigValidation:
    def test_defaults_are_valid(self):
        assert RunConfig().validate() == []

    def test_bad_width(self):
        assert RunConfig(interposer_width=96).validate()

    def test_bad_vc_count(self):
        assert RunConfig(vc_per_vnet=5).validate()

    def test_vc_choices_accepted(self):
        for n in (4, 6, 8, 10):
            assert RunConfig(vc_per_vnet=n).validate() == []

    def test_bad_topology(self):
        assert RunConfig(n_chiplets=12).validate()

    def test_bad_workload_propagates(self):
        assert RunConfig(workload=WorkloadSpec(kind="nope")).validate()

    def test_bad_permission_update(self):
        cfg = RunConfig(permission_updates=((0, 99, 0, Permission.READ_ONLY),))
        assert cfg.validate()

    def test_permission_update_for_a_missing_chiplet(self):
        """desk-scale has chiplets 0 and 1 only: an update for chiplet 5
        would be a silent no-op."""
        cfg = replace(
            presets.desk_scale(seed=0),
            permission_updates=((10, 0, 5, Permission.NO_ACCESS),),
        )
        assert cfg.validate() == ["permission update chiplet 5 out of range"]
        ok = replace(cfg, permission_updates=((10, 0, 1, Permission.NO_ACCESS),))
        assert ok.validate() == []
        with pytest.raises(ConfigError):
            Simulator(cfg)

    def test_simulator_rejects_invalid_config(self):
        with pytest.raises(ConfigError):
            Simulator(RunConfig(interposer_width=96))


def percentile(sorted_values: list[int], fraction: float) -> int:
    """Nearest-rank percentile over pre-sorted values: the reference for
    ``LatencyStats.percentile``."""
    if not sorted_values:
        return 0
    return sorted_values[nearest_rank(len(sorted_values), fraction) - 1]


def _packet(inject, grant, deliver, hops):
    p = Packet(0, CoherenceMessage(MsgType.GETS, 0, 64, 0, 0), 0, 0)
    p.inject_tick, p.first_grant_tick = inject, grant
    p.deliver_tick, p.hops = deliver, hops
    return p


class TestLatencyAggregation:
    def test_percentile_nearest_rank(self):
        values = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.95) == 100
        assert percentile(values, 0.99) == 100
        assert percentile([], 0.5) == 0

    @given(st.lists(st.integers(min_value=0, max_value=60)))
    def test_histogram_percentiles_match_sorted_list(self, values):
        """Empty, single and repeated totals included."""
        latency = LatencyStats()
        for total in values:
            latency.add(_packet(0, 0, total, 1))
        for fraction in (0.50, 0.95, 0.99):
            assert latency.percentile(fraction) == percentile(sorted(values), fraction)

    def test_decomposition_sums(self):
        latency = LatencyStats()
        for p in (_packet(0, 8, 20, 3), _packet(4, 8, 40, 5)):
            latency.add(p)
        stats = latency.summary()
        assert stats["packets"] == 2
        assert stats["mean_queuing"] + stats["mean_in_network"] == pytest.approx(
            stats["mean_total"]
        )
        assert stats["mean_total"] == pytest.approx((20 + 36) / 2)
        assert stats["mean_hops"] == 4.0

    def test_dropped_and_loopback_excluded(self):
        p = _packet(0, 1, 2, 0)
        p.loopback = True
        latency = LatencyStats()
        latency.add(p)
        assert latency.summary() == {"packets": 0}


class TestRunOutcomes:
    def test_clean_run_exit_zero(self):
        report = Simulator(presets.desk_scale(seed=0)).run()
        assert report.exit_code == EXIT_OK
        assert report.halt_cause == "completed"
        assert report.ledger["balanced"]
        assert report.ledger["packets_in_flight"] == 0
        assert report.counters["replicas_identical"]
        # Per-packet decomposition holds in the aggregates.
        lat = report.latency
        assert lat["mean_queuing"] + lat["mean_in_network"] == pytest.approx(
            lat["mean_total"], abs=1e-6
        )

    def test_completed_run_keeps_no_packet(self):
        sim = Simulator(presets.desk_scale(seed=1))
        assert sim.run().halt_cause == "completed"
        assert len(sim.fabric.registry) == 0

    def test_security_halt_exit_two(self):
        table = presets.attack_demo_table()
        cfg = replace(
            presets.baseline(128, seed=0),
            permissions=table,
            workload=WorkloadSpec(kind="idle"),
        )
        from interposim.attacks import standard_suite

        scenario = standard_suite(cfg.topology(), table)[0]
        report = Simulator(replace(cfg, attacks=(scenario,))).run()
        assert report.exit_code == EXIT_SECURITY
        assert report.violations

    def test_budget_exhaustion_exit_three(self):
        cfg = replace(presets.desk_scale(seed=0), max_ticks=500)
        report = Simulator(cfg).run()
        assert report.halt_cause == "budget"
        assert report.exit_code == EXIT_DEADLOCK
        assert report.halt_tick == 500
        assert report.counters["commits"] == 8
        # Nine packets are live at the halt; every one of them is held
        # in some buffer.
        assert report.ledger["packets_in_flight"] == 9
        assert report.ledger["balanced"]

    def test_broken_coherence_is_not_exit_zero(self):
        """A forged UNBLOCK that every SNI allows lets core 2 read a stale
        value; the run completes, but its oracle check failed."""
        forged = AttackScenario(
            "forged-unblock", ThreatClass.MASQUERADING, 2, 879,
            CoherenceMessage(MsgType.UNBLOCK, 2, 64, 3, 0x0),
        )
        cfg = replace(
            presets.desk_scale(seed=0),
            workload=WorkloadSpec(kind="sharing", ops_per_core=200,
                                  read_fraction=0.5, shared_lines=4,
                                  mean_gap_ticks=4),
            attacks=(forged,),
        )
        report = Simulator(cfg).run()
        assert report.halt_cause == "completed"
        assert report.halt_tick == 26976
        assert len(report.coherence["oracle_divergences"]) == 2
        assert report.exit_code == EXIT_COHERENCE == 4

    def test_report_json_is_stable(self):
        cfg = presets.desk_scale(seed=3)
        a = Simulator(cfg).run().to_json()
        b = Simulator(cfg).run().to_json()
        assert a == b

    def test_sni_delay_fields_reported(self):
        sim = Simulator(presets.desk_scale(seed=0))
        packets = record_packets(sim)
        report = sim.run()
        assert report.halt_cause == "completed"
        kinds = {p.sni_kind for p in packets if p.sni_kind}
        assert kinds == {"sni1", "sni2"}

    def test_delivery_log_collection(self):
        cfg = replace(presets.desk_scale(seed=0), collect_delivery_log=True)
        report = Simulator(cfg).run()
        assert report.delivery_log
        assert any(key.startswith("mc") for key in report.delivery_log)
        assert "delivery_log" in report.to_dict()


class TestPermissionUpdates:
    def test_privileged_update_hits_every_replica(self):
        cfg = replace(
            presets.desk_scale(seed=0),
            workload=WorkloadSpec(kind="idle"),
            max_ticks=200,
            permission_updates=((3, 1, 0, Permission.NO_ACCESS),),
        )
        sim = Simulator(cfg)
        sim.run()
        assert sim.replicas_identical()
        shift = cfg.permissions.region_shift
        for table in sim.replicas.values():
            assert table.permission(1 << shift, 0) is Permission.NO_ACCESS
            assert table.permission(0, 0) is Permission.READ_WRITE

    def test_an_sni_that_misses_the_swap_is_reported(self):
        """``replicas_identical`` compares the tables the SNIs hold."""

        class KeepsItsTable(SniUnit):
            def __setattr__(self, name, value):
                if name != "table" or "table" not in vars(self):
                    super().__setattr__(name, value)

        cfg = replace(
            presets.desk_scale(seed=0),
            workload=WorkloadSpec(kind="idle"),
            max_ticks=200,
            permission_updates=((3, 1, 0, Permission.NO_ACCESS),),
        )
        sim = Simulator(cfg)
        stale = sim.fabric.mc_snis[1]
        stale.__class__ = KeepsItsTable
        report = sim.run()
        assert report.counters["replicas_identical"] is False
        shift = cfg.permissions.region_shift
        table = sim.replicas[stale.cfg.attached_router]
        assert table.permission(1 << shift, 0) is Permission.READ_WRITE

    def test_update_changes_checker_outcome(self):
        """Revoking a region mid-run turns later benign reads into halts."""
        cfg = replace(
            presets.desk_scale(seed=0),
            workload=WorkloadSpec(kind="idle"),
            permission_updates=((10, 0, 0, Permission.NO_ACCESS),),
        )
        sim = Simulator(cfg)
        sim.cores[0].load_ops([(200, "R", 0x40, 0)])
        report = sim.run()
        assert report.halt_cause == "security"
        assert report.violations[0]["threat"] == "passive_reading"


def test_with_sni_labels():
    cfg = presets.desk_scale(seed=0)
    assert with_sni(cfg, False).sni_enabled is False
    assert with_sni(cfg, False).label.endswith("sni-off")
    assert with_sni(cfg, True).label.endswith("sni-on")


class TestScheduler:
    """Halt cause, halt tick and commit count pinned for the main loop's
    scheduling corner cases (the exhausted budget is pinned above): a
    deadlock the watchdog must catch, and a write-back that must wait
    for a busy line."""

    def test_watchdog_catches_a_core_waiting_forever(self):
        cfg = replace(
            presets.desk_scale(seed=0),
            workload=WorkloadSpec(kind="idle"),
            watchdog_icycles=100,
        )
        sim = Simulator(cfg)
        # The second read is due long after the watchdog fires.
        sim.cores[1].load_ops([(5, "R", 0x40, 0), (2000, "R", 0xC0, 0)])
        # A request that was never sent: no response will ever come, and
        # the waiting core must keep the system from being quiet until
        # the watchdog fires.
        sim.cores[0].txn = _Txn(MsgType.GETS, 0x80, 0)
        report = sim.run()
        assert report.halt_cause == "deadlock"
        assert report.exit_code == EXIT_DEADLOCK
        assert report.halt_tick == 584
        assert report.counters["commits"] == 1

    @staticmethod
    def _blocked_write_back():
        """Core 0 must evict dirty line a to write c, but a's home is busy
        with another requester, so every PUT is WB_NACKed until the test
        releases the line."""
        cfg = replace(
            presets.desk_scale(seed=0),
            workload=WorkloadSpec(kind="idle"),
            cache_lines=2,
        )
        sim = Simulator(cfg)
        core = sim.cores[0]
        a, b, c = 0x40, 0x80, 0xC0
        for address in (a, b):
            core.cache.install(address, CacheState.M, value_to_block(address))
        core.load_ops([(3, "W", c, 7)])
        home = sim.directories[sim.topo.home_mc(a)]
        home.busy[a] = 1
        sent = []  # (message type, tick) of everything core 0 sends
        send = core.send
        core.send = lambda msg, tick: (sent.append((msg.msg_type, tick)), send(msg, tick))
        return sim, core, home, a, sent

    def test_wb_nacked_write_back_retries_at_evict_retry(self):
        sim, core, home, a, sent = self._blocked_write_back()
        nacks = []
        handle = core.handle

        def logged_handle(msg, tick):
            if msg.msg_type is MsgType.WB_NACK:
                nacks.append(tick)
                if len(nacks) == 2:
                    home.busy.pop(a)
            handle(msg, tick)

        core.handle = logged_handle
        report = sim.run()
        puts = [tick for kind, tick in sent if kind is MsgType.PUT]
        assert puts == [3, 153, 301] and nacks == [73, 221]
        assert puts[1:] == [t + RETRY_BACKOFF_TICKS for t in nacks]
        assert report.halt_cause == "completed"
        assert report.counters["commits"] == 1
        assert report.halt_tick == 584

    def test_write_back_dropped_while_waiting_resumes_next_tick(self):
        """The victim is invalidated while its PUT waits to be retried:
        at evict_retry the core finds nothing to write back and issues
        its request on the following tick."""
        sim, core, home, a, sent = self._blocked_write_back()
        handle = core.handle

        def invalidating_handle(msg, tick):
            handle(msg, tick)
            if msg.msg_type is MsgType.WB_NACK:
                core.cache.drop(a)  # as a PROBE_INV from another requester
                home.busy.pop(a)

        core.handle = invalidating_handle
        report = sim.run()
        # WB_NACK at tick 73, so evict_retry is 73 + RETRY_BACKOFF_TICKS.
        evict_retry = 73 + RETRY_BACKOFF_TICKS
        assert sent[:2] == [(MsgType.PUT, 3), (MsgType.GETX, evict_retry + 1)]
        assert report.halt_cause == "completed"
        assert report.counters["commits"] == 1
        assert report.halt_tick == 328
