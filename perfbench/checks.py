"""Correctness checks on one simulation report.

Every check reads the report as the plain dict of ``SimReport.to_dict()``
and looks up only the keys it needs, so a report that gains keys still
passes.  Each check is either computed apart from the simulator (the
commit count comes from the benchmark's own workload definition) or is a
property the method must have (conservation, complete mediation).  None
compares against a stored copy of an earlier report.

A check returns ``None`` when it holds and a one-line problem otherwise.
"""

from __future__ import annotations

# SNI-1 judges a packet in a 2-cycle pipeline and an interposer cycle is
# 4 chiplet ticks, so every checked packet queues for at least 8 ticks.
SNI1_PIPELINE_TICKS = 2 * 4


def halt_completed(report: dict, wl) -> str | None:
    cause = report["halt"]["cause"]
    if cause != "completed":
        return f"halt cause {cause!r}, expected 'completed'"
    return None


def commits_match_workload(report: dict, wl) -> str | None:
    commits = report["counters"]["commits"]
    if commits != wl.ops_per_sim:
        return (
            f"{commits} commits, expected {wl.ops_per_core} ops x "
            f"{wl.active_cores} cores = {wl.ops_per_sim}"
        )
    return None


def oracle_and_swmr_clean(report: dict, wl) -> str | None:
    coherence = report["coherence"]
    divergences = coherence["oracle_divergences"]
    swmr = coherence["swmr_violations"]
    if divergences or swmr:
        return (
            f"{len(divergences)} oracle divergences, "
            f"{len(swmr)} SWMR violations"
        )
    return None


def packets_conserved(report: dict, wl) -> str | None:
    ledger = report["ledger"]
    injected = ledger["packets_injected"]
    delivered = ledger["packets_delivered"]
    dropped = ledger["packets_dropped"]
    in_flight = ledger["packets_in_flight"]
    if delivered + dropped != injected or in_flight != 0:
        return (
            f"delivered {delivered} + dropped {dropped} != injected "
            f"{injected}, or {in_flight} packets still in flight"
        )
    return None


def _sni_units(report: dict) -> list[dict]:
    return [report["sni"][name] for name in sorted(report["sni"])]


def drops_agree(report: dict, wl) -> str | None:
    """Packet flags (the ledger) against SNI statistics: every drop is a
    probe copy an SNI-2 rewrote into a NACK."""
    dropped = report["ledger"]["packets_dropped"]
    nacks = report["counters"]["nacks_rewritten"]
    rewrites = sum(unit["rewrites"] for unit in _sni_units(report))
    if not dropped == nacks == rewrites:
        return (
            f"packets_dropped {dropped}, nacks_rewritten {nacks}, "
            f"SNI rewrites {rewrites} disagree"
        )
    return None


def complete_mediation(report: dict, wl) -> str | None:
    """Every packet that crossed the interposer was judged exactly once.

    NACKs an SNI-2 spawns are delivered but never judged; the probe
    copies it drops were judged but never delivered.
    """
    checked = sum(unit["checked"] for unit in _sni_units(report))
    delivered_via_mesh = report["latency"]["packets"]
    spawned = report["counters"]["nacks_rewritten"]
    dropped = report["ledger"]["packets_dropped"]
    expected = delivered_via_mesh - spawned + dropped
    if checked != expected:
        return (
            f"SNIs checked {checked} packets, expected {delivered_via_mesh} "
            f"delivered over the mesh - {spawned} spawned + {dropped} dropped "
            f"= {expected}"
        )
    return None


def sni_neutral(report: dict, wl) -> str | None:
    """With read-write access everywhere no SNI may refuse or rewrite."""
    if not wl.all_rw:
        return None
    for name in sorted(report["sni"]):
        unit = report["sni"][name]
        if (unit["allowed"] != unit["checked"] or unit["violations"]
                or unit["rewrites"]):
            return (
                f"{name}: allowed {unit['allowed']} of {unit['checked']}, "
                f"{unit['violations']} violations, {unit['rewrites']} rewrites "
                f"on an all-RW table"
            )
    return None


def sni_pipeline_delay(report: dict, wl) -> str | None:
    if not wl.all_rw:
        return None
    queuing = report["latency"]["mean_queuing"]
    if queuing < SNI1_PIPELINE_TICKS:
        return (
            f"mean queuing {queuing} ticks is below the "
            f"{SNI1_PIPELINE_TICKS}-tick SNI-1 pipeline"
        )
    return None


def observer_shielded(report: dict, wl) -> str | None:
    """The locked-out chiplet sees no probe, and the filter did work."""
    if wl.observer is None:
        return None
    probes = report["counters"]["probes_delivered"][str(wl.observer)]
    rewritten = report["counters"]["nacks_rewritten"]
    if probes != 0 or rewritten < 1:
        return (
            f"observer chiplet {wl.observer} received {probes} probes, "
            f"{rewritten} probes rewritten"
        )
    return None


CHECKS = (
    commits_match_workload,
    oracle_and_swmr_clean,
    packets_conserved,
    drops_agree,
    complete_mediation,
    sni_neutral,
    sni_pipeline_delay,
    observer_shielded,
)


def _run(check, report: dict, wl) -> str | None:
    try:
        return check(report, wl)
    except (KeyError, TypeError) as exc:
        return f"{check.__name__}: report lacks {exc}"


def check_report(report: dict, wl) -> tuple[bool, list[str]]:
    """Return (completed, problems).

    A run that did not complete is a failed operation; the remaining
    checks speak only of completed runs and are skipped for it.
    """
    problem = _run(halt_completed, report, wl)
    if problem is not None:
        return False, [problem]
    problems = [_run(check, report, wl) for check in CHECKS]
    return True, [p for p in problems if p is not None]
