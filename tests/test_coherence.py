"""Protocol tests: caches, invariant checkers, directory walks, end-to-end
correctness sweeps on the desk-scale machine."""

from dataclasses import replace

import pytest

from interposim.coherence import (
    CacheState,
    Core,
    Directory,
    Dram,
    MemoryOracle,
    PrivateCache,
    ProtocolAssertionError,
    SwmrChecker,
    block_to_value,
    initial_line_value,
    value_to_block,
)
from interposim.harness import Simulator
from interposim.messages import BROADCAST_ID, NO_OWNER, CoherenceMessage, MsgType
from interposim.topology import Topology
from interposim import presets
from interposim.workloads import WorkloadSpec


class TestValueEncoding:
    def test_initial_value_deterministic(self):
        assert initial_line_value(0x40) == initial_line_value(0x40)
        assert initial_line_value(0x40) != initial_line_value(0x80)

    def test_block_roundtrip(self):
        value = 0x1122334455667788
        block = value_to_block(value)
        assert len(block) == 64
        assert block_to_value(block) == value


class TestPrivateCache:
    def test_lru_victim_order(self):
        cache = PrivateCache(2)
        cache.install(0x40, CacheState.S, value_to_block(1))
        cache.install(0x80, CacheState.S, value_to_block(2))
        cache.touch(0x40)  # refresh: 0x80 becomes the LRU victim
        addr, _ = cache.victim()
        assert addr == 0x80

    def test_double_install_rejected(self):
        cache = PrivateCache(4)
        cache.install(0x40, CacheState.E, value_to_block(1))
        with pytest.raises(ProtocolAssertionError):
            cache.install(0x40, CacheState.S, value_to_block(1))

    def test_install_into_full_cache_rejected(self):
        cache = PrivateCache(1)
        cache.install(0x40, CacheState.E, value_to_block(1))
        assert cache.full
        with pytest.raises(ProtocolAssertionError):
            cache.install(0x80, CacheState.E, value_to_block(2))

    def test_state_change_notifications(self):
        events = []
        cache = PrivateCache(4, lambda a, old, new: events.append((a, old, new)))
        cache.install(0x40, CacheState.E, value_to_block(1))
        cache.set_state(0x40, CacheState.M)
        cache.drop(0x40)
        assert events == [
            (0x40, None, CacheState.E),
            (0x40, CacheState.E, CacheState.M),
            (0x40, CacheState.M, None),
        ]


class TestSwmrChecker:
    def test_clean_sharing_passes(self):
        checker = SwmrChecker()
        a = PrivateCache(4, checker.update)
        b = PrivateCache(4, checker.update)
        a.install(0x40, CacheState.S, value_to_block(1))
        b.install(0x40, CacheState.S, value_to_block(1))
        assert checker.violations == []
        assert checker.full_check([a, b]) == []

    def test_two_writers_flagged(self):
        """Negative control: the checker must catch a fabricated breach."""
        checker = SwmrChecker()
        a = PrivateCache(4, checker.update)
        b = PrivateCache(4, checker.update)
        a.install(0x40, CacheState.M, value_to_block(1))
        b.install(0x40, CacheState.E, value_to_block(2))
        assert len(checker.violations) == 1
        assert "SWMR" in checker.violations[0]
        assert checker.full_check([a, b]) != []

    def test_owner_plus_writer_flagged(self):
        checker = SwmrChecker()
        a = PrivateCache(4, checker.update)
        b = PrivateCache(4, checker.update)
        a.install(0x40, CacheState.O, value_to_block(1))
        b.install(0x40, CacheState.M, value_to_block(2))
        assert checker.violations


def _oracle_ok(oracle: MemoryOracle) -> bool:
    return not oracle.divergences


class TestMemoryOracle:
    def test_replay_matches(self):
        oracle = MemoryOracle()
        oracle.commit(0, 0, "R", 0x40, initial_line_value(0x40))
        oracle.commit(1, 1, "W", 0x40, 77)
        oracle.commit(2, 0, "R", 0x40, 77)
        assert _oracle_ok(oracle)

    def test_corrupted_read_detected(self):
        """Negative control: a wrong load value must produce a divergence."""
        oracle = MemoryOracle()
        oracle.commit(0, 0, "W", 0x40, 77)
        oracle.commit(1, 1, "R", 0x40, 78)
        assert not _oracle_ok(oracle)
        assert "oracle says" in oracle.divergences[0]


class DirectoryHarness:
    """A directory whose sends are recorded as the packets the fabric
    would make: ``sent`` holds a (message, target chiplet) pair per
    target chiplet of a send, and ``sent_ticks`` the tick of each."""

    def __init__(self, topo: Topology, dram_latency: int = 5):
        self.sent = []  # (message, target_chiplet)
        self.sent_ticks = []
        self.dram = Dram()
        self.dir = Directory(0, topo, self.dram, self._send, dram_latency)

    def _send(self, msg, tick, chiplets=(None,)):
        for chiplet in chiplets:
            self.sent.append((msg, chiplet))
            self.sent_ticks.append(tick)

    def request(self, msg, tick=0):
        self.dir.deliver(msg)
        self.dir.step(tick)
        out, self.sent = self.sent, []
        return out


class TestDirectory:
    def test_miss_broadcasts_and_fetches_dram(self, topo8):
        h = DirectoryHarness(topo8)
        out = h.request(CoherenceMessage(MsgType.GETS, 5, 64, 0, 0x100))
        probes = [m for m, _ in out if m.msg_type is MsgType.PROBE]
        assert len(probes) == 8
        assert {t for m, t in out} == set(range(8))
        assert all(m.destination_id == BROADCAST_ID for m in probes)
        assert all(m.cur_owner == 5 for m in probes)  # original requester
        # DRAM summary arrives after the latency with the probe count.
        h.dir.step(5)
        (data, _), = h.sent
        assert data.msg_type is MsgType.MEMORY_DATA
        assert data.cur_owner == 8
        assert block_to_value(data.data_block) == initial_line_value(0x100)

    def test_busy_address_nacked(self, topo8):
        h = DirectoryHarness(topo8)
        h.request(CoherenceMessage(MsgType.GETS, 5, 64, 0, 0x100))
        out = h.request(CoherenceMessage(MsgType.GETS, 9, 64, 0, 0x100))
        (nack, _), = out
        assert nack.msg_type is MsgType.NACK
        assert nack.destination_id == 9

    def test_recorded_owner_probed_directly(self, topo8):
        h = DirectoryHarness(topo8)
        h.request(CoherenceMessage(MsgType.GETS, 5, 64, 0, 0x100))
        h.request(CoherenceMessage(MsgType.UNBLOCK, 5, 64, 3, 0x100))
        out = h.request(CoherenceMessage(MsgType.GETS, 20, 64, 0, 0x100))
        probes = [m for m, t in out if m.msg_type is MsgType.PROBE]
        targets = [t for m, t in out if m.msg_type is MsgType.PROBE]
        assert len(probes) == 1
        assert targets == [topo8.chiplet_of_core(5)]
        summary = [m for m, _ in out if m.msg_type is MsgType.MEMORY_ACK]
        assert summary and summary[0].cur_owner == 1

    def test_getx_on_shared_entry_broadcasts_invalidations(self, topo8):
        h = DirectoryHarness(topo8)
        h.request(CoherenceMessage(MsgType.GETS, 5, 64, 0, 0x100))
        h.request(
            CoherenceMessage(MsgType.UNBLOCKS, 20, 64, 3, 0x100, cur_owner=5)
        )
        out = h.request(CoherenceMessage(MsgType.GETX, 30, 64, 0, 0x100))
        invs = [m for m, _ in out if m.msg_type is MsgType.PROBE_INV]
        assert len(invs) == 8

    def test_writeback_path(self, topo8):
        h = DirectoryHarness(topo8)
        out = h.request(CoherenceMessage(MsgType.PUT, 5, 64, 0, 0x100))
        (ack, _), = out
        assert ack.msg_type is MsgType.WB_ACK
        block = value_to_block(123)
        h.request(
            CoherenceMessage(
                MsgType.WRITEBACK_DATA, 5, 64, 2, 0x100, dirty=True,
                data_block=block,
            )
        )
        assert h.dram.read(0x100) == block
        assert h.dir.idle

    def test_unblocks_without_owner_clears_entry(self, topo8):
        h = DirectoryHarness(topo8)
        h.request(CoherenceMessage(MsgType.GETS, 5, 64, 0, 0x100))
        h.dir.step(5)  # fire the pending DRAM fetch
        h.request(
            CoherenceMessage(MsgType.UNBLOCKS, 5, 64, 3, 0x100, cur_owner=NO_OWNER),
            tick=6,
        )
        assert 0x100 not in h.dir.entries
        assert h.dir.idle

    def test_sends_carry_the_step_tick(self, topo8):
        """Every reply leaves at the tick the directory stepped at, and the
        DRAM data exactly ``dram_latency`` ticks after the request, not
        one step before."""
        h = DirectoryHarness(topo8, dram_latency=400)
        out = h.request(CoherenceMessage(MsgType.GETS, 5, 64, 0, 0x100), tick=12)
        assert len(out) == 8 and h.sent_ticks == [12] * 8
        h.request(CoherenceMessage(MsgType.PUT, 9, 64, 0, 0x140), tick=16)
        assert h.sent_ticks[8:] == [16]
        assert not h.dir.step(12 + 400 - 4)
        assert h.sent == []
        assert h.dir.step(12 + 400)
        (data, _), = h.sent
        assert data.msg_type is MsgType.MEMORY_DATA
        assert h.sent_ticks[9:] == [412]

    def test_stray_type_counted_not_crashed(self, topo8):
        h = DirectoryHarness(topo8)
        h.request(CoherenceMessage(MsgType.ACK, 5, 64, 2, 0x100))
        assert h.dir.stats_strays == 1


class TestWriteBackResponses:
    """A WB_ACK or WB_NACK that matches no pending eviction, as a forged
    one that got past the SNIs would, is a stray like any other
    unmatched response."""

    @staticmethod
    def _core(topo):
        sent = []
        core = Core(1, topo, PrivateCache(4), lambda msg, tick: sent.append(msg),
                    lambda *commit: None)
        return core, sent

    @pytest.mark.parametrize("mtype", [MsgType.WB_ACK, MsgType.WB_NACK], ids=lambda m: m.name)
    def test_no_eviction_pending(self, topo_small, mtype):
        core, sent = self._core(topo_small)
        core.handle(CoherenceMessage(mtype, topo_small.mc_node(0), 1, 1, 0x40), 10)
        assert core.stats_strays == 1
        assert sent == []
        assert core.evict_retry is None
        assert core.done

    def test_other_address_leaves_the_eviction_pending(self, topo_small):
        core, sent = self._core(topo_small)
        core.cache.install(0x40, CacheState.M, value_to_block(7))
        core.evict_addr = 0x40
        home = topo_small.mc_node(topo_small.home_mc(0x40))
        core.handle(CoherenceMessage(MsgType.WB_ACK, home, 1, 1, 0x80), 10)
        assert core.stats_strays == 1
        assert sent == []
        assert core.evict_addr == 0x40
        core.handle(CoherenceMessage(MsgType.WB_ACK, home, 1, 1, 0x40), 11)
        (writeback,) = sent
        assert writeback.msg_type is MsgType.WRITEBACK_DATA
        assert core.evict_addr is None
        assert core.stats_strays == 1


def run_sweep(cfg):
    rep = Simulator(cfg).run()
    assert rep.halt_cause == "completed", rep.halt_detail
    assert rep.coherence["swmr_violations"] == []
    assert rep.coherence["oracle_divergences"] == []
    assert rep.ledger["balanced"]
    return rep


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_workload_clean(self, seed):
        run_sweep(presets.desk_scale(seed=seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_sharing_workload_clean(self, seed):
        cfg = replace(
            presets.desk_scale(seed=seed),
            workload=WorkloadSpec(kind="sharing", ops_per_core=300,
                                  read_fraction=0.5, shared_lines=8,
                                  mean_gap_ticks=2),
        )
        rep = run_sweep(cfg)
        assert rep.counters["commits"] == 4 * 300

    def test_hotspot_workload_clean(self):
        cfg = replace(
            presets.desk_scale(seed=1),
            workload=WorkloadSpec(kind="hotspot", ops_per_core=150,
                                  hot_mc=1, footprint_lines=16,
                                  mean_gap_ticks=2),
        )
        run_sweep(cfg)

    def test_exclusive_then_silent_upgrade(self):
        """A lone reader gets E and a later write upgrades without traffic."""
        cfg = replace(
            presets.desk_scale(seed=0),
            workload=WorkloadSpec(kind="idle"),
        )
        sim = Simulator(cfg)
        addr = 0x400
        sim.cores[0].load_ops([(0, "R", addr, 0), (2, "W", addr, 55)])
        rep = sim.run()
        assert rep.halt_cause == "completed"
        line = sim.cores[0].cache.peek(addr)
        assert line.state is CacheState.M
        assert block_to_value(line.data) == 55
        # The read miss was the only transaction; the write hit in E.
        assert sim.cores[0].stats_transactions == 1
        assert rep.coherence["oracle_divergences"] == []
