"""Host-time benchmark of interposim: run one workload, check it, print metrics.

    python3 perfbench/run.py --workload mesh-uniform-128 --seed 0 --seconds 30 --trace 0

Each round runs in a fresh process (``worker.py``) that builds and runs
the workload's simulations and checks their reports, while ``meter.py``
samples how fast the host runs.  Times are reported in meter seconds
(see ``meter.py``), so that a host that slows down under other load does
not read as a slower simulator; the raw host seconds are printed before
the result.  Untraced, rounds repeat while another one still fits in
``--seconds``, and every end-to-end metric is the median over the rounds
of a per-round figure.  Traced (``--trace 1``), one untraced round is
followed by one traced round, whose per-layer values are printed with
the tracing overhead.

The report digests go to standard output before the result; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every round's raw figures are also written to
``perfbench/out/``.  Exit code 0 means the workload ran, whether or not
its checks passed; anything else means it could not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from suite import WORKLOADS
from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
TIME_LIMIT_S = 170  # a run must end within 180 s


class RoundError(Exception):
    pass


def run_round(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RoundError(f"round did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RoundError(f"round exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RoundError("round printed no result")
    return json.loads(lines[-1])


def end_to_end(rounds: list[dict]) -> dict:
    median = statistics.median
    return {
        "wall_s": (median(r["wall_s"] for r in rounds), "s"),
        "ticks_per_s": (median(r["ticks"] / r["wall_s"] for r in rounds), "ticks/s"),
        "flits_per_s": (median(r["flits"] / r["wall_s"] for r in rounds), "flits/s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in rounds), "MB"),
        "setup_s": (median(r["setup_s"] for r in rounds), "s"),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    # Samples land in whichever span is open, in proportion to its length.
    to_meter = traced["wall_s"] / traced["gross_wall_s"]
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s" and values.get(name) is not None:
            values[name] *= to_meter
    values["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    absent = sorted(name for name in PER_LAYER_UNITS if values.get(name) is None)
    if absent:
        print("absent per-layer metrics: " + ", ".join(absent))
    return {name: (values.get(name), unit) for name, unit in PER_LAYER_UNITS.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()

    def remaining() -> float:
        return TIME_LIMIT_S - (time.monotonic() - start)

    rounds = []
    try:
        if args.trace:
            for trace in (False, True):
                rounds.append(run_round(args.workload, args.seed, trace, remaining()))
        else:
            while True:
                rounds.append(run_round(args.workload, args.seed, False, remaining()))
                elapsed = time.monotonic() - start
                per_round = elapsed / len(rounds)
                if elapsed + per_round > min(args.seconds, TIME_LIMIT_S - 10):
                    break
    except RoundError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    digests = sorted({(seed, digest) for r in rounds for seed, digest in r["digests"]})
    for seed, digest in digests:
        print(f"report sha256 {args.workload} seed {seed}: {digest}")
    raw_wall = statistics.median(r["raw_wall_s"] for r in rounds)
    raw_setup = statistics.median(r["raw_setup_s"] for r in rounds)
    speed = statistics.median(r["speed"] for r in rounds)
    print(f"host seconds: wall_s {raw_wall:.4f}, setup_s {raw_setup:.4f}; "
          f"machine speed {speed:.3f} of the reference")

    if args.trace:
        metrics = per_layer(rounds[0], rounds[1])
    else:
        metrics = end_to_end(rounds)
    OUT_DIR.mkdir(exist_ok=True)
    out_name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (OUT_DIR / out_name).write_text(json.dumps(rounds, indent=1) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
