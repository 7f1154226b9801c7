"""Live reconfiguration under load: zero-loss op-by-op audit (§11).

Not a paper figure -- the paper reconfigures only to recover from
failures -- but the operational question any deployment hits first:
can the chain be *changed* (rescaled, migrated, restructured, re-
classified) while carrying traffic, without dropping or reordering a
single packet?  Each row runs one operation against a fresh Ch-3
chain under offered load on impaired-but-reliable links (PROTOCOL.md
§8) and audits exactly-once, per-flow-ordered egress across the
switch.  Lost and Reordered must read 0 on every row.
"""

from __future__ import annotations

from ..chaos.scenario import Scenario, Step, mbox, monitors
from ..chaos.scenario import run as run_scenario
from ..core.costs import CostModel
from ..core.reconfig import ClassifierRule, ClassifierSet, ReconfigOp
from .runner import ExperimentResult, quick_mode

OFFERED_PPS = 2e4
DROP_RATE = 0.02
DUP_RATE = 0.01
REORDER_RATE = 0.01
CORRUPT_RATE = 0.005

#: The scripted operations, one row each.
OPS = (
    ("classifier", ReconfigOp(kind="classifier", classifier=ClassifierSet(
        version=1, rules=(ClassifierRule(action="allow"),)))),
    ("rescale", ReconfigOp(kind="rescale", position=1, n_threads=4)),
    ("migrate", ReconfigOp(kind="migrate", position=1)),
    ("evacuate", ReconfigOp(kind="evacuate", position=2)),
    ("insert", ReconfigOp(kind="insert", index=1,
                          middlebox=mbox("monitor", name="probe"))),
    ("remove", ReconfigOp(kind="remove", middlebox_name="monitor2")),
)


def point(op: ReconfigOp, duration_s: float, seed: int) -> Scenario:
    """One row: the operation fires at 40% of the run and must commit;
    the drain covers retransmission tails + the hold release pump."""
    return Scenario(
        chain=monitors(3), seed=seed, costs=CostModel(cycle_jitter_frac=0.0),
        duration_s=duration_s, rate_pps=OFFERED_PPS, reliable_links=True,
        impair=(DROP_RATE, DUP_RATE, REORDER_RATE, CORRUPT_RATE),
        steps=(Step(duration_s * 0.4, op=op, expect="committed"),),
        checks=("egress-loss", "egress-order"), drain_s=60e-3)


def run(seed: int = 0) -> ExperimentResult:
    duration_s = 30e-3 if quick_mode() else 60e-3
    result = ExperimentResult(
        experiment="Live reconfiguration under load: zero-loss audit per "
                   f"operation (Ch-3, f=1, {OFFERED_PPS:g} pps offered, "
                   f"drop={DROP_RATE:g} impaired links)",
        headers=["Operation", "Sent", "Released", "Lost", "Reordered",
                 "Held pkts", "Migrated KB", "Drain ms", "Switch ms",
                 "Total ms"])
    for name, op in OPS:
        out = run_scenario(point(op, duration_s, seed)).checked()
        generator, oracle, (report,) = out.generator, out.oracle, out.reconfigs
        result.add(
            name,
            generator.sent,
            oracle.released,
            generator.sent - oracle.released,
            oracle.out_of_order,
            report.held_packets,
            round(report.bytes_transferred / 1024.0, 1),
            round(report.drain_s * 1e3, 2),
            round(report.switch_s * 1e3, 2),
            round(report.total_s * 1e3, 2))
    result.notes.append(
        "Lost = offered - released after the drain runway; Reordered = "
        "per-flow egress order inversions (ShadowOracle).  Both must be "
        "0: the two-phase switch (prepare/warm, drain, hold, migrate, "
        "re-bind, release in order) is lossless by design, PROTOCOL.md "
        "§11.")
    result.notes.append(
        f"Links impaired throughout: drop={DROP_RATE:g} dup={DUP_RATE:g} "
        f"reorder={REORDER_RATE:g} corrupt={CORRUPT_RATE:g} per hop, "
        "recovered by the §8 reliability layer; the operation fires at "
        "40% of the run under full offered load.")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
