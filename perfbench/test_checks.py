"""The benchmark's checks pass on real reports and fail on perturbed ones.

    python3 -m pytest perfbench -q

Each workload is run once at a few operations per core; every check is
then shown to fail on a copy of a real report with one fact changed.
"""

import copy
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import meter  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from interposim.harness import Simulator  # noqa: E402

SMALL_OPS = {"mesh-uniform-128": 3, "coherence-sweep": 40, "snoop-filter-64": 3}


def small(name: str) -> suite.Workload:
    return replace(suite.WORKLOADS[name], ops_per_core=SMALL_OPS[name])


@pytest.fixture(scope="module")
def reports() -> dict:
    out = {}
    for name in suite.WORKLOADS:
        wl = small(name)
        out[name] = [Simulator(cfg).run().to_dict() for cfg in wl.configs(5)]
    return out


def problems(report: dict, name: str) -> list[str]:
    completed, found = checks.check_report(report, small(name))
    assert completed
    return found


@pytest.mark.parametrize("name", sorted(suite.WORKLOADS))
def test_real_reports_pass(reports, name):
    for report in reports[name]:
        assert problems(report, name) == []


def test_snoop_report_exercises_the_filter(reports):
    report = reports["snoop-filter-64"][0]
    assert report["counters"]["nacks_rewritten"] > 0
    assert report["ledger"]["packets_dropped"] > 0


def test_added_keys_are_ignored(reports):
    report = copy.deepcopy(reports["mesh-uniform-128"][0])
    report["schema"] = "interposim-report-v2"
    report["ledger"]["stage_residency"] = {"hub": 0}
    report["profile"] = {}
    assert problems(report, "mesh-uniform-128") == []


def test_incomplete_run_counts_as_failed(reports):
    report = copy.deepcopy(reports["coherence-sweep"][0])
    report["halt"]["cause"] = "deadlock"
    completed, found = checks.check_report(report, small("coherence-sweep"))
    assert not completed and "deadlock" in found[0]


def _set(path: str, fn):
    def mutate(report):
        *parents, key = path.split(".")
        node = report
        for part in parents:
            node = node[part]
        node[key] = fn(node[key])
    return mutate


def _first_sni(field: str, fn):
    def mutate(report):
        unit = report["sni"][sorted(report["sni"])[0]]
        unit[field] = fn(unit[field])
    return mutate


def _drop(key: str):
    def mutate(report):
        del report[key]
    return mutate


PERTURBATIONS = [
    ("coherence-sweep", "commits", _set("counters.commits", lambda v: v - 1)),
    ("mesh-uniform-128", "oracle divergences",
     _set("coherence.oracle_divergences", lambda v: v + ["tick 9: stale read"])),
    ("coherence-sweep", "SWMR violations",
     _set("coherence.swmr_violations", lambda v: v + ["SWMR broken"])),
    ("mesh-uniform-128", "still in flight",
     _set("ledger.packets_in_flight", lambda v: v + 1)),
    ("snoop-filter-64", "!= injected",
     _set("ledger.packets_delivered", lambda v: v - 1)),
    ("snoop-filter-64", "disagree",
     _set("counters.nacks_rewritten", lambda v: v + 1)),
    ("mesh-uniform-128", "disagree", _first_sni("rewrites", lambda v: v + 1)),
    ("snoop-filter-64", "SNIs checked", _first_sni("checked", lambda v: v + 1)),
    ("coherence-sweep", "SNIs checked",
     _set("latency.packets", lambda v: v + 1)),
    ("mesh-uniform-128", "all-RW", _first_sni("allowed", lambda v: v - 1)),
    ("coherence-sweep", "all-RW", _first_sni("violations", lambda v: v + 1)),
    ("mesh-uniform-128", "SNI-1 pipeline",
     _set("latency.mean_queuing", lambda v: 7.9)),
    ("snoop-filter-64", "observer chiplet 7 received 1",
     _set(f"counters.probes_delivered.{suite.OBSERVER}", lambda v: 1)),
    ("mesh-uniform-128", "report lacks 'ledger'", _drop("ledger")),
]


@pytest.mark.parametrize("name,expect,mutate", PERTURBATIONS)
def test_each_check_can_fail(reports, name, expect, mutate):
    report = copy.deepcopy(reports[name][0])
    mutate(report)
    found = problems(report, name)
    assert any(expect in p for p in found), found


def test_observer_check_needs_a_rewrite(reports):
    report = copy.deepcopy(reports["snoop-filter-64"][0])
    report["counters"]["nacks_rewritten"] = 0
    found = checks.observer_shielded(report, small("snoop-filter-64"))
    assert found is not None and "0 probes rewritten" in found


def test_uninstalled_tracer_marks_every_name_absent():
    values = tracing.Tracer().values()
    assert values and all(v is None for v in values.values())


def test_vanished_function_resolves_to_absent():
    assert tracing._resolve("harness", "Simulator.no_such_method") is None
    assert tracing._resolve("noc", "NoSuchClass.step") is None
    assert tracing._resolve("no_such_module", "step") is None
    assert tracing._resolve("sni", "pcm_check") is not None


def test_cross_checks_can_fail(reports):
    rounds = reports["snoop-filter-64"]
    checked = sum(u["checked"] for r in rounds for u in r["sni"].values())
    injected = sum(r["ledger"]["packets_injected"] for r in rounds)
    values = {"sni.pcm_check.calls": checked, "noc.new_packet.calls": injected}
    assert worker._cross_checks(values, rounds) == []
    values["sni.pcm_check.calls"] += 1
    values["noc.new_packet.calls"] -= 1
    assert len(worker._cross_checks(values, rounds)) == 2
    absent = {"sni.pcm_check.calls": None, "noc.new_packet.calls": None}
    assert worker._cross_checks(absent, rounds) == []



def test_sampler_discounts_its_own_time():
    sampler = meter.Sampler()
    sampler.samples = [(1.0, 0.001), (2.0, 0.002), (3.0, 0.004)]
    assert sampler.busy(1.5, 3.0) == pytest.approx(0.002)
    assert sampler.busy(0.0, 9.0) == pytest.approx(0.007)
    assert sampler.speed() == pytest.approx(meter.REFERENCE_CHUNK_S / 0.002)
