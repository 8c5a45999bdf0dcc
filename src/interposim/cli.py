"""Command line front end.

Subcommands:
  run              simulate one configuration, write a JSON report
  compare          run a configuration with and without the SNIs (or at
                   both link widths) and emit a CSV of latency aggregates
  attack-suite     launch each hostile template in its own run and print
                   the expected-vs-detected matrix (on the attack-demo
                   table unless --permissions is given)
  validate-config  check flags/files without simulating

Exit codes: 0 success, 2 security halt, 3 deadlock/budget, 4 a run that
completed with a failed coherence check (oracle divergence or SWMR
violation), 64 bad configuration or usage, 70 a broken protocol
invariant (a simulator bug; ``error: ...`` is printed in place of a
report).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import replace

from . import presets
from .apu import ApuError, ApuTable, Permission
from .attacks import AttackError, load_scenarios, standard_suite
from .coherence import ProtocolAssertionError
from .harness import (
    EXIT_CONFIG,
    EXIT_PROTOCOL,
    ConfigError,
    RunConfig,
    Simulator,
)
from .workloads import KINDS as WORKLOAD_KINDS, WorkloadError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset", default="baseline-128",
        choices=sorted(presets.SYSTEM_PRESETS),
        help="starting configuration",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--width", type=int, choices=(64, 128), help="interposer link width")
    parser.add_argument("--vc-per-vnet", type=int, choices=(4, 6, 8, 10))
    parser.add_argument(
        "--sni", choices=("on", "off"), help="enable/disable all SNI checking"
    )
    parser.add_argument(
        "--rewrite", choices=("on", "off"), help="enable/disable SNI-2 probe filtering"
    )
    parser.add_argument(
        "--permissions",
        help="permission preset name or a permission-map file path",
    )
    parser.add_argument("--workload", choices=WORKLOAD_KINDS)
    parser.add_argument("--ops", type=int, help="operations per core")
    parser.add_argument("--read-fraction", type=float)
    parser.add_argument("--footprint-lines", type=int)
    parser.add_argument("--mean-gap", type=int, help="mean ticks between ops")
    parser.add_argument("--trace", help="trace file for --workload trace")
    parser.add_argument("--max-ticks", type=int)
    parser.add_argument("--dram-latency", type=int, help="in interposer cycles")


def _load_permissions(token: str) -> ApuTable | None:
    if token in presets.PERMISSION_PRESETS:
        return presets.PERMISSION_PRESETS[token]()
    with open(token, encoding="utf-8") as fh:
        return ApuTable.from_map_text(fh.read())


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = presets.get(args.preset, seed=args.seed)
    if args.width is not None:
        cfg = replace(cfg, interposer_width=args.width)
    if args.vc_per_vnet is not None:
        cfg = replace(cfg, vc_per_vnet=args.vc_per_vnet)
    if args.sni is not None:
        cfg = replace(cfg, sni_enabled=args.sni == "on")
    if args.rewrite is not None:
        cfg = replace(cfg, sni2_rewrite=args.rewrite == "on")
    if args.permissions is not None:
        cfg = replace(cfg, permissions=_load_permissions(args.permissions))
    wl = cfg.workload
    updates = {}
    if args.workload is not None:
        updates["kind"] = args.workload
    if args.ops is not None:
        updates["ops_per_core"] = args.ops
    if args.read_fraction is not None:
        updates["read_fraction"] = args.read_fraction
    if args.footprint_lines is not None:
        updates["footprint_lines"] = args.footprint_lines
    if args.mean_gap is not None:
        updates["mean_gap_ticks"] = args.mean_gap
    if args.trace is not None:
        updates["trace_path"] = args.trace
    if updates:
        cfg = replace(cfg, workload=replace(wl, **updates))
    if args.max_ticks is not None:
        cfg = replace(cfg, max_ticks=args.max_ticks)
    if args.dram_latency is not None:
        cfg = replace(cfg, dram_latency=args.dram_latency)
    return cfg


def _summarize(report, out=None) -> None:
    out = out if out is not None else sys.stdout
    lat = report.latency
    print(f"halt: {report.halt_cause} at tick {report.halt_tick}", file=out)
    if report.halt_detail:
        print(f"  detail: {report.halt_detail}", file=out)
    for v in report.violations:
        print(f"  violation: [{v['threat']}] {v['detail']}", file=out)
    print(
        f"packets: {report.ledger['packets_injected']} injected, "
        f"{report.ledger['packets_delivered']} delivered, "
        f"{report.ledger['packets_dropped']} dropped",
        file=out,
    )
    if lat.get("packets"):
        print(
            f"latency (ticks): queuing {lat['mean_queuing']:.2f} + "
            f"in-network {lat['mean_in_network']:.2f} = "
            f"total {lat['mean_total']:.2f}; mean hops {lat['mean_hops']:.2f}",
            file=out,
        )


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    if args.attacks:
        topo = cfg.topology()
        cfg = replace(cfg, attacks=tuple(load_scenarios(args.attacks, topo)))
    if args.delivery_log:
        cfg = replace(cfg, collect_delivery_log=True)
    report = Simulator(cfg).run()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.out}")
    _summarize(report)
    return report.exit_code


def _cmd_compare(args) -> int:
    cfg = _build_config(args)
    if args.what == "sni":
        variants = [
            replace(cfg, sni_enabled=True, label=f"{cfg.label}+sni"),
            replace(cfg, sni_enabled=False, label=f"{cfg.label}-nosni"),
        ]
    else:
        variants = [
            replace(cfg, interposer_width=64, label=f"{cfg.label}-w64"),
            replace(cfg, interposer_width=128, label=f"{cfg.label}-w128"),
        ]
    rows = []
    worst = 0
    for variant in variants:
        report = Simulator(variant).run()
        worst = max(worst, report.exit_code)
        lat = report.latency
        rows.append(
            {
                "label": variant.label,
                "sni": int(variant.sni_enabled),
                "width": variant.interposer_width,
                "packets": lat.get("packets", 0),
                "mean_queuing": lat.get("mean_queuing", 0),
                "mean_in_network": lat.get("mean_in_network", 0),
                "mean_total": lat.get("mean_total", 0),
                "mean_hops": lat.get("mean_hops", 0),
                "p95_total": lat.get("p95_total", 0),
            }
        )
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"csv written to {args.out}")
    else:
        sys.stdout.write(text)
    base, other = rows[0], rows[1]
    for key in ("mean_queuing", "mean_in_network", "mean_total", "mean_hops"):
        print(f"{key}: {base[key]} vs {other[key]}")
    return worst


def _cmd_attack_suite(args) -> int:
    cfg = _build_config(args)
    if args.permissions is None:
        # The preset's own table may deny nothing: attack the demo table.
        cfg = replace(
            cfg, permissions=presets.attack_demo_table(n_chiplets=cfg.n_chiplets)
        )
    topo = cfg.topology()
    if args.attacks:
        scenarios = load_scenarios(args.attacks, topo)
    else:
        table = cfg.permissions or ApuTable.uniform(Permission.READ_WRITE)
        scenarios = standard_suite(topo, table)
    all_ok = True
    print(f"{'scenario':<28} {'expected':<16} {'detected':<16} result")
    for scenario in scenarios:
        run_cfg = replace(
            cfg, attacks=(scenario,), label=f"attack-{scenario.name}"
        )
        report = Simulator(run_cfg).run()
        detected = (
            report.violations[0]["threat"] if report.violations else "(none)"
        )
        ok = (
            report.halt_cause == "security"
            and detected == scenario.expected_threat.value
        )
        all_ok &= ok
        print(
            f"{scenario.name:<28} {scenario.expected_threat.value:<16} "
            f"{detected:<16} {'ok' if ok else 'MISS'}"
        )
    print("attack suite:", "all detected" if all_ok else "DETECTION GAPS")
    return 0 if all_ok else 1


def _cmd_validate(args) -> int:
    cfg = _build_config(args)
    if args.attacks:
        load_scenarios(args.attacks, cfg.topology())
    errors = cfg.validate()
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    Simulator(cfg)  # builds the workload, as a run does: reads the trace
    print("configuration ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interposim",
        description="Flit-level simulator of a security-filtered interposer NoC",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one configuration")
    _add_common(p_run)
    p_run.add_argument("--attacks", help="JSON attack scenario file")
    p_run.add_argument("--out", help="write the JSON report here")
    p_run.add_argument(
        "--delivery-log", action="store_true",
        help="include per-destination delivery sequences in the report",
    )
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="paired runs + CSV of aggregates")
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--what", choices=("sni", "width"), default="sni",
        help="dimension to vary between the two runs",
    )
    p_cmp.add_argument("--out", help="write the CSV here")
    p_cmp.set_defaults(func=_cmd_compare)

    p_atk = sub.add_parser("attack-suite", help="one run per hostile template")
    _add_common(p_atk)
    p_atk.add_argument("--attacks", help="JSON attack scenario file")
    p_atk.set_defaults(func=_cmd_attack_suite)

    p_val = sub.add_parser("validate-config", help="check without simulating")
    _add_common(p_val)
    p_val.add_argument("--attacks", help="JSON attack scenario file")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, WorkloadError, AttackError, ApuError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProtocolAssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
