"""Paired benchmark of a change against its parent commit: writes BENCH_<n>.json.

    python3 tools/bench_pairs.py --out BENCH_11.json --pairs 10 --seconds 30 \\
        --row mesh-uniform-128:0 --row mesh-uniform-128:7 \\
        --row coherence-sweep:0 --row snoop-filter-64:0 \\
        --claim flits_per_s:mesh-uniform-128:0:7 --change "what the change does"

The parent commit (``--parent``, default ``HEAD``) is exported with
``git archive`` into a temporary directory, so the parent side runs the
committed files only and nothing is registered in ``.git``.  The change
side is the working tree.  For each row (workload and seed) the script
runs ``perfbench/run.py`` once per side and pair, and the side that runs
first alternates from pair to pair, so that a slow spell of a shared
host falls on both sides alike.

Each run is the median over its rounds, in meter seconds
(``perfbench/README.md``).  For each end-to-end metric the file gives
the median and inclusive quartiles of the runs per side, the relative
change of the medians, how many pairs the change won, and whether the
gap between the medians exceeds the parent's interquartile range.  A row
also records whether the two sides printed the same report digests, and
the range of host speeds its rounds saw.  With ``--traced`` each
workload gets one traced seed-0 round per side, whose per-layer values
are kept next to each other.

Exit code 0 means every run ran; the file is written either way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def export_commit(rev: str, dest: Path) -> str:
    """Write the files of commit ``rev`` under ``dest``; return its hash."""
    commit = subprocess.run(
        ["git", "rev-parse", rev], cwd=REPO, check=True,
        stdout=subprocess.PIPE, text=True,
    ).stdout.strip()
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", commit], cwd=REPO, check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return commit


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One ``perfbench/run.py`` run: its metrics, digests and rounds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {' '.join(cmd[1:])} exited {proc.returncode}")
    result = json.loads(lines[-1])
    digests = sorted(line for line in lines if line.startswith("report sha256 "))
    name = f"{workload}-seed{seed}{'-trace' if trace else ''}.json"
    rounds = json.loads((root / "perfbench" / "out" / name).read_text())
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "correct": result["correct"] and result["failed"] == 0,
        "digests": digests,
        "rounds": len(rounds),
        "speeds": [r["speed"] for r in rounds],
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(before: list[float], after: list[float], better: str) -> dict:
    sign = -1 if better == "lower" else 1
    b, a = quartiles(before), quartiles(after)
    gap = (statistics.median(after) - statistics.median(before)) * sign
    return {
        "better": better,
        "before": b,
        "after": a,
        "change": round(statistics.median(after) / statistics.median(before) - 1, 4),
        "pairs_better": sum((y - x) * sign > 0 for x, y in zip(before, after)),
        "median_gap_exceeds_before_iqr": gap > b["q3"] - b["q1"],
    }


def bench_row(parent: Path, workload: str, seed: int, pairs: int, seconds: float,
              better: dict[str, str]) -> dict:
    """``better`` maps each end-to-end metric to "lower" or "higher"."""
    runs = {"parent": [], "repo": []}
    for i in range(pairs):
        order = ("parent", "repo") if i % 2 == 0 else ("repo", "parent")
        for side in order:
            root = parent if side == "parent" else REPO
            runs[side].append(run_once(root, workload, seed, seconds, trace=False))
            last = runs[side][-1]
            print(f"{workload} seed {seed} pair {i + 1} {side}: "
                  f"wall_s {last['metrics']['wall_s']:.4f}", file=sys.stderr)
    before, after = runs["parent"], runs["repo"]
    speeds = [s for r in before + after for s in r["speeds"]]
    digests = {d for r in before + after for d in r["digests"]}
    return {
        "workload": workload,
        "seeds": [seed],
        "pairs": pairs,
        "rounds": {"parent": sum(r["rounds"] for r in before),
                   "repo": sum(r["rounds"] for r in after)},
        "report_digests_equal": len(digests) == len(before[0]["digests"]),
        "all_checks_passed": all(r["correct"] for r in before + after),
        "host_speed_range": [round(min(speeds), 3), round(max(speeds), 3)],
        "metrics": {
            name: compare([r["metrics"][name] for r in before],
                          [r["metrics"][name] for r in after], direction)
            for name, direction in better.items()
        },
    }


def traced(parent: Path, workload: str) -> dict:
    sides = {side: run_once(root, workload, 0, 0, trace=True)
             for side, root in (("parent", parent), ("repo", REPO))}
    out = {}
    for name, value in sides["parent"]["metrics"].items():
        after = sides["repo"]["metrics"][name]
        out[name] = {
            "before": None if value is None else round(value, 4),
            "after": None if after is None else round(after, 4),
        }
    out["correct"] = {"before": sides["parent"]["correct"],
                      "after": sides["repo"]["correct"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--row", action="append", required=True,
                        help="WORKLOAD:SEED, once per row")
    parser.add_argument("--claim", help="METRIC:WORKLOAD:SEED:HELD_OUT_SEED")
    parser.add_argument("--change", default="", help="one sentence on the change")
    parser.add_argument("--traced", action="store_true",
                        help="also one traced seed-0 round per workload and side")
    parser.add_argument("--tmp", type=Path, default=None,
                        help="where to export the parent (default: system temp)")
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    rows = [(w, int(s)) for w, s in (r.rsplit(":", 1) for r in args.row)]
    out: dict = {"change": args.change}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-parent-", dir=args.tmp) as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        out["parent_commit"] = export_commit(args.parent, parent)
        out["command"] = (f"python3 perfbench/run.py --workload W --seed S "
                          f"--seconds {args.seconds:g}")
        out["method"] = (
            f"{args.pairs} pairs per row, parent export and working tree run one "
            "after the other, the side that runs first alternating; each run is "
            "a median over its rounds (perfbench/run.py), and each row gives the "
            f"median and quartiles (inclusive) of the {args.pairs} runs per side. "
            "pairs_better counts the pairs the change won. Written by "
            "tools/bench_pairs.py."
        )
        out["units"] = "times in meter seconds (perfbench/README.md, 'Meter seconds')"
        out["machine"] = {
            "vcpus": os.cpu_count(),
            "python": platform.python_version(),
            "os": f"{platform.system()} {platform.machine()}",
        }
        if args.claim:
            metric, workload, seed, held_out = args.claim.split(":")
            out["claim"] = {"metric": metric, "workload": workload,
                            "seed": int(seed), "held_out_seed": int(held_out)}
        out["workloads"] = []
        try:
            for workload, seed in rows:
                row = bench_row(parent, workload, seed, args.pairs, args.seconds, better)
                ok &= row["report_digests_equal"] and row["all_checks_passed"]
                out["workloads"].append(row)
            if args.traced:
                out["traced_seed0"] = {
                    w: traced(parent, w) for w in dict.fromkeys(w for w, _ in rows)
                }
                out["traced_note"] = (
                    "one traced round per side (perfbench/run.py --trace 1), seed 0; "
                    "counts are exact and repeat, self_s are meter seconds"
                )
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            ok = False
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
