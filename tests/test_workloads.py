"""Workload generation tests: determinism, permission safety, formats."""

import pytest

from interposim.apu import ApuEntry, ApuTable, Permission
from interposim.topology import LINE_SHIFT, Topology
from interposim.workloads import (
    WorkloadError,
    WorkloadSpec,
    generate,
)

RW = Permission.READ_WRITE
RO = Permission.READ_ONLY
NA = Permission.NO_ACCESS


def restricted_table() -> ApuTable:
    """Chiplet 1 is read-only on region 0 and locked out of region 1."""
    entries = [ApuEntry.uniform(RW) for _ in range(64)]
    entries[0] = ApuEntry(tuple([RW, RO] + [RW] * 6))
    entries[1] = ApuEntry(tuple([RW, NA] + [RW] * 6))
    return ApuTable(tuple(entries))


class TestGeneration:
    def test_deterministic_for_fixed_seed(self, topo8, rw_table):
        spec = WorkloadSpec(kind="uniform", ops_per_core=50)
        a = generate(spec, topo8, rw_table, seed=7)
        b = generate(spec, topo8, rw_table, seed=7)
        assert a == b
        c = generate(spec, topo8, rw_table, seed=8)
        assert a != c

    def test_addresses_line_aligned_and_permitted(self, topo8):
        table = restricted_table()
        spec = WorkloadSpec(kind="uniform", ops_per_core=200, read_fraction=0.5)
        ops = generate(spec, topo8, table, seed=1)
        for core, stream in ops.items():
            chiplet = topo8.chiplet_of_core(core)
            for _, kind, address, value in stream:
                assert address % (1 << LINE_SHIFT) == 0
                perm = table.permission(address, chiplet)
                if kind == "W":
                    assert perm.allows_write
                    assert value != 0
                else:
                    assert perm.allows_read
                    assert value == 0

    def test_hotspot_targets_one_controller(self, topo8, rw_table):
        spec = WorkloadSpec(kind="hotspot", ops_per_core=100, hot_mc=2)
        ops = generate(spec, topo8, rw_table, seed=3)
        for stream in ops.values():
            assert all(topo8.home_mc(a) == 2 for _, _, a, _ in stream)

    def test_sharing_uses_one_common_pool(self, topo8, rw_table):
        spec = WorkloadSpec(kind="sharing", ops_per_core=100, shared_lines=4)
        ops = generate(spec, topo8, rw_table, seed=0)
        pools = {
            frozenset(a for _, _, a, _ in stream) for stream in ops.values()
        }
        union = frozenset().union(*pools)
        assert len(union) <= 4

    def test_sharing_requires_common_writable_region(self, topo8):
        entries = [ApuEntry.grants({r % 8: RW}) for r in range(64)]
        table = ApuTable(tuple(entries))
        spec = WorkloadSpec(kind="sharing", ops_per_core=10)
        with pytest.raises(WorkloadError):
            generate(spec, topo8, table, seed=0)

    def test_sharing_ignores_inactive_chiplets(self, topo8):
        """A locked-out observer chiplet does not block sharing as long
        as none of its cores are active."""
        entries = [ApuEntry(tuple([RW] * 7 + [NA]))] * 64
        table = ApuTable(tuple(entries))
        active = tuple(range(56))  # chiplets 0-6 only
        spec = WorkloadSpec(kind="sharing", ops_per_core=10, active_cores=active)
        ops = generate(spec, topo8, table, seed=0)
        assert sorted(ops) == list(active)

    def test_active_cores_subset(self, topo8, rw_table):
        spec = WorkloadSpec(kind="uniform", ops_per_core=5, active_cores=(0, 9))
        ops = generate(spec, topo8, rw_table, seed=0)
        assert sorted(ops) == [0, 9]
        assert sum(map(len, ops.values())) == 10

    def test_idle_workload(self, topo8, rw_table):
        ops = generate(WorkloadSpec(kind="idle"), topo8, rw_table, seed=0)
        assert all(stream == [] for stream in ops.values())


class TestValidation:
    def test_unknown_kind(self, topo8):
        assert WorkloadSpec(kind="nope").validate(topo8)

    def test_bad_fractions_and_counts(self, topo8):
        assert WorkloadSpec(read_fraction=1.5).validate(topo8)
        assert WorkloadSpec(ops_per_core=-1).validate(topo8)
        assert WorkloadSpec(footprint_lines=0).validate(topo8)

    def test_hot_mc_range(self, topo8):
        assert WorkloadSpec(kind="hotspot", hot_mc=4).validate(topo8)

    def test_missing_trace_path(self, topo8):
        assert WorkloadSpec(kind="trace").validate(topo8)

    def test_nonexistent_active_core(self, topo8):
        assert WorkloadSpec(active_cores=(64,)).validate(topo8)


class TestTrace:
    def test_trace_roundtrip(self, topo8, rw_table, tmp_path):
        path = tmp_path / "ops.trace"
        path.write_text(
            "# comment\n"
            "5 0 R 0x1000\n"
            "9 0 W 0x1040\n"
            "3 1 R 0x2000\n",
            encoding="utf-8",
        )
        spec = WorkloadSpec(kind="trace", trace_path=str(path))
        ops = generate(spec, topo8, rw_table, seed=0)
        assert [(g, k, a) for g, k, a, _ in ops[0]] == [
            (5, "R", 0x1000), (3, "W", 0x1040),
        ]
        assert ops[0][1][3] != 0  # write values are synthesized
        assert [(g, k, a) for g, k, a, _ in ops[1]] == [(3, "R", 0x2000)]

    def test_trace_rejects_bad_records(self, topo8, rw_table, tmp_path):
        for body in ("garbage\n", "1 0 X 0x40\n", "1 99 R 0x40\n",
                     "5 0 R 0x40\n5 0 R 0x80\n"):
            path = tmp_path / "bad.trace"
            path.write_text(body, encoding="utf-8")
            spec = WorkloadSpec(kind="trace", trace_path=str(path))
            with pytest.raises(WorkloadError):
                generate(spec, topo8, rw_table, seed=0)

    def test_trace_addresses_line_aligned(self, topo8, rw_table, tmp_path):
        path = tmp_path / "align.trace"
        path.write_text("1 0 R 0x1007\n", encoding="utf-8")
        spec = WorkloadSpec(kind="trace", trace_path=str(path))
        ops = generate(spec, topo8, rw_table, seed=0)
        assert ops[0][0][2] == 0x1000
