"""Calibration provenance: every cost-model constant and its source.

``python -m repro.experiments.calibration`` prints the table; tests
assert the constants stay anchored to the paper.
"""

from __future__ import annotations

from ..core.costs import DEFAULT_COSTS, CostModel
from .runner import ExperimentResult

__all__ = ["provenance", "run"]

#: (field, value formatter, paper source)
_PROVENANCE = [
    ("cpu_hz", "{:.1e} Hz", "§7.1: Xeon D-1540 at 2.0 GHz"),
    ("processing_cycles", "{:.0f} cy", "Table 2: packet processing 355±12"),
    ("locking_cycles", "{:.0f} cy", "Table 2: locking 152±11"),
    ("piggyback_copy_cycles", "{:.0f} cy",
     "Table 2: copying piggybacked state 58±6 (construction)"),
    ("piggyback_apply_cycles", "{:.0f} cy",
     "derived: replica-side apply (dependency check + small memcpy)"),
    ("piggyback_attach_cycles", "{:.0f} cy",
     "derived: forwarder attach of one fed-back log"),
    ("forwarder_cycles", "{:.0f} cy", "Table 2: forwarder 8±2"),
    ("buffer_cycles", "{:.0f} cy", "Table 2: buffer 100±4"),
    ("cycle_jitter_frac", "{:.0%}", "Table 2's ± bands (~3%)"),
    ("per_state_byte_cycles", "{:.3f} cy/B", "Fig 5 calibration"),
    ("per_wire_byte_cycles", "{:.2f} cy/B", "DPDK rx/tx byte handling"),
    ("mbuf_extension_cycles", "{:.0f} cy",
     "Fig 5: chained mbuf when piggyback exceeds tailroom"),
    ("nic_pps", "{:.3g} pps",
     "footnote 1: ConnectX-3 engine 9.6-10.6 Mpps (midpoint)"),
    ("nic_queue_depth", "{:.0f} descriptors", "typical DPDK rx ring"),
    ("hop_delay_s", "{:.1e} s", "§7.3: 6-7 us one-way per hop (midpoint)"),
    ("bandwidth_bps", "{:.0e} bps", "§7.1: 40 GbE data plane"),
    ("feedback_bandwidth_bps", "{:.0e} bps",
     "§7.1: 10 GbE buffer->forwarder dissemination link"),
    ("htm_commit_cycles", "{:.0f} cy", "§3.2 hybrid TM extension"),
    ("lock_wakeup_cycles", "{:.0f} cy",
     "adaptive-mutex handoff under light contention (Fig 6 dips)"),
    ("lock_spin_threshold", "{:.0f} waiters",
     "derived: this many queued spinners skip the handoff wakeup"),
    ("n_partitions", "{:.0f}", "§4.2: exceeds the 8-core count"),
    ("propagation_timeout_s", "{:.0e} s", "§5.1 forwarder timer (chosen)"),
    ("ftmb_pal_crit_cycles", "{:.0f} cy",
     "FTMB in-lock PAL logging (fits Fig 6's 1.2x at sharing 8)"),
    ("ftmb_pal_tx_cycles", "{:.0f} cy",
     "FTMB PAL assembly/transmit (fits Fig 7's 1-thread ratio)"),
    ("snapshot_stall_s", "{:.0e} s", "§7.4: 6 ms artificial delay"),
    ("snapshot_period_s", "{:.0e} s", "§7.4: every 50 ms"),
    ("log_header_bytes", "{:.0f} B", "derived: piggyback log header"),
    ("depvec_entry_bytes", "{:.0f} B",
     "derived: 2 B partition index + 4 B seqno"),
    ("key_bytes", "{:.0f} B", "derived: a 5-tuple-sized key"),
    ("commit_header_bytes", "{:.0f} B", "derived: commit vector header"),
    ("message_header_bytes", "{:.0f} B",
     "derived: IP option + message framing"),
    ("hop_header_bytes", "{:.0f} B",
     "derived: 3 B seq + 1 B back-distance + 4 B checksum"),
]


def provenance(costs: CostModel = DEFAULT_COSTS):
    """(field, formatted value, source) rows."""
    rows = []
    for field, fmt, source in _PROVENANCE:
        rows.append((field, fmt.format(getattr(costs, field)), source))
    return rows


def run(costs: CostModel = DEFAULT_COSTS) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Cost-model calibration provenance",
        headers=["Constant", "Value", "Source"])
    for row in provenance(costs):
        result.add(*row)
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
