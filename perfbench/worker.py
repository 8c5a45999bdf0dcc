"""One round of a benchmark workload, in a process of its own.

Run by ``run.py``, never by hand.  The round imports the simulator from
the checkout's ``src``, builds every ``Simulator`` of the workload, runs
them one after another and checks each report.  It prints one JSON line:

* ``setup_s``: from the moment the parent spawned this process to the
  first simulated tick (interpreter start, import, configs, every
  ``Simulator`` including its workload generation);
* ``wall_s``: ``Simulator.run()`` plus ``SimReport.to_json()``, summed
  over the round's simulations; ``ticks`` and ``flits`` the matching
  simulated chiplet ticks and injected flits;
* ``peak_rss_mb``: this process's ``ru_maxrss``;
* the report digests, the problems the checks found and, with
  ``--trace``, the per-layer values.

Times are meter seconds (see ``meter.py``); ``raw_setup_s`` and
``raw_wall_s`` are the same spans in host seconds, less the sampling.

The timed region uses only ``RunConfig`` presets, ``Simulator(cfg).run()``
and the report.  Simulator internals are read only in traced rounds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from meter import Sampler

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_simulator():
    sys.path.insert(0, str(SRC))
    import interposim

    if not Path(interposim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"interposim imported from {interposim.__file__}, not {SRC}")
    from interposim.harness import Simulator

    return Simulator


def _cross_checks(values: dict, reports: list[dict]) -> list[str]:
    """Wrapper counts against the reports, where the functions exist."""
    problems = []
    checked = sum(u["checked"] for r in reports for u in r["sni"].values())
    calls = values["sni.pcm_check.calls"]
    if calls is not None and calls != checked:
        problems.append(f"pcm_check ran {calls} times, SNIs checked {checked}")
    injected = sum(r["ledger"]["packets_injected"] for r in reports)
    calls = values["noc.new_packet.calls"]
    if calls is not None and calls != injected:
        problems.append(f"new_packet ran {calls} times, {injected} packets injected")
    return problems


def run_round(workload: str, seed: int, spawned_at: float, trace: bool,
              sampler: Sampler) -> dict:
    Simulator = _import_simulator()
    import checks
    import suite
    import tracing

    wl = suite.WORKLOADS[workload]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()  # before construction, which binds callbacks

    sims = [Simulator(cfg) for cfg in wl.configs(seed)]
    setup_span = [spawned_at, time.monotonic()]

    run_spans, reports, digests, registry_sizes = [], [], [], []
    for run_seed in wl.seeds(seed):
        sim = sims.pop(0)  # so that the finished simulator can be freed
        start = time.monotonic()
        report = sim.run()
        text = report.to_json()
        run_spans.append([start, time.monotonic()])
        if tracer is not None:
            packets = getattr(getattr(sim, "fabric", None), "registry", None)
            registry_sizes.append(None if packets is None else len(packets))
        reports.append(report.to_dict())
        digests.append([run_seed, hashlib.sha256(text.encode()).hexdigest()])
        del sim, report
        gc.collect()  # a finished simulator holds reference cycles
    sampler.stop()
    speed = sampler.speed()
    raw_setup_s = setup_span[1] - setup_span[0] - sampler.busy(*setup_span)
    gross_wall_s = sum(end - start for start, end in run_spans)
    raw_wall_s = gross_wall_s - sum(sampler.busy(*span) for span in run_spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, problems = 0, []
    for run_seed, report in zip(wl.seeds(seed), reports):
        completed, found = checks.check_report(report, wl)
        if completed:
            problems += [f"seed {run_seed}: {p}" for p in found]
        else:
            failed += 1

    ticks = sum(r["halt"]["tick"] for r in reports)
    out = {
        "setup_s": raw_setup_s * speed,
        "wall_s": raw_wall_s * speed,
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": raw_wall_s,
        "gross_wall_s": gross_wall_s,
        "speed": speed,
        "ticks": ticks,
        "flits": sum(r["ledger"]["flits_injected"] for r in reports),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(reports),
        "failed": failed,
        "problems": problems,
        "digests": digests,
    }
    if tracer is not None:
        values = tracer.values()
        loops = values["harness.loop_iterations"]
        values["harness.loop_per_tick"] = None if loops is None else loops / ticks
        values["noc.registry_packets"] = (
            None if None in registry_sizes else sum(registry_sizes)
        )
        out["layers"] = values
        out["problems"] += _cross_checks(values, reports)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sampler = Sampler()
    sampler.start()  # before the simulator is imported: set-up is sampled too
    try:
        result = run_round(args.workload, args.seed, args.spawned_at,
                           args.trace, sampler)
    finally:
        sampler.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
