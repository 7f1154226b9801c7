"""The calibrated cost model.

Every constant that turns protocol actions into virtual time lives
here, each annotated with its source in the paper.  The simulation's
absolute numbers are only as good as this table; the *shapes* of the
reproduced figures come from the protocol structure itself.

Paper sources:

* Table 2 (per-packet CPU cycles for MazuNAT in a chain of two):
  packet processing 355 +/- 12, locking 152 +/- 11, copying
  piggybacked state 58 +/- 6, forwarder 8 +/- 2, buffer 100 +/- 4.
* Footnote 1: the Mellanox ConnectX-3 NIC processes at most
  9.6--10.6 Mpps; we use the midpoint 10.5 Mpps.  FTMB's one PAL
  message per data packet then halves goodput to ~5.26 Mpps (§7.3).
* §7.3: FTC adds 6--7 us of one-way network latency per hop.
* §7.4: FTMB+Snapshot stalls 6 ms every 50 ms per middlebox.
* §7.1: Xeon D-1540 at 2.0 GHz, 8 cores, packet size 256 B, f = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CostModel", "DEFAULT_COSTS"]


@dataclass(frozen=True)
class CostModel:
    """Cycle/latency constants for the simulated data plane."""

    cpu_hz: float = 2.0e9

    # -- Table 2 cycle costs ------------------------------------------------
    processing_cycles: float = 355.0     # middlebox packet transaction body
    locking_cycles: float = 152.0        # 2PL acquire/release per packet
    piggyback_copy_cycles: float = 58.0  # construct one log at the head
    #: Applying one received log at a replica (dependency check + small
    #: memcpy into the state store) -- cheaper than construction.
    piggyback_apply_cycles: float = 25.0
    #: The forwarder attaching one fed-back log to an incoming packet.
    piggyback_attach_cycles: float = 12.0
    forwarder_cycles: float = 8.0        # per packet at the chain ingress
    buffer_cycles: float = 100.0         # per packet at the chain egress

    #: Measurement jitter on the above (Table 2 reports +/- values).
    cycle_jitter_frac: float = 0.03

    # -- byte-proportional costs ---------------------------------------------
    #: Copying state bytes into/out of piggyback logs (Fig 5 calibration).
    per_state_byte_cycles: float = 0.045
    #: Touching packet bytes on rx+tx (DPDK buffer handling).
    per_wire_byte_cycles: float = 0.12
    #: Appending a piggyback message larger than the packet's tailroom
    #: forces a chained mbuf / buffer extension (Fig 5: small packets
    #: suffer disproportionately once state size approaches packet size).
    mbuf_extension_cycles: float = 50.0

    # -- NIC / network ---------------------------------------------------------
    nic_pps: float = 10.5e6
    #: Descriptors per NIC receive queue (typical DPDK rx ring size).
    nic_queue_depth: int = 1024
    hop_delay_s: float = 6.5e-6
    bandwidth_bps: float = 40e9
    #: The paper disseminates buffer->forwarder state on a 10 GbE link.
    feedback_bandwidth_bps: float = 10e9

    #: Committing an uncontended hardware transaction (hybrid TM fast
    #: path, §3.2) instead of taking the partition locks.
    htm_commit_cycles: float = 40.0

    #: Lock handoff wakeup latency under light contention (adaptive
    #: mutex behaviour; responsible for the mid-sharing-level dips all
    #: systems show in Fig 6).
    lock_wakeup_cycles: float = 500.0
    lock_spin_threshold: int = 2

    # -- protocol parameters ---------------------------------------------------
    n_partitions: int = 16
    #: Forwarder timer for propagating packets when traffic pauses (§5.1).
    propagation_timeout_s: float = 100e-6

    # -- competing systems ---------------------------------------------------
    #: FTMB: logging a shared-state access inside the critical section.
    ftmb_pal_crit_cycles: float = 170.0
    #: FTMB: assembling and transmitting a PAL message, outside locks.
    ftmb_pal_tx_cycles: float = 130.0
    #: FTMB+Snapshot (§7.4): stall length and period.
    snapshot_stall_s: float = 6e-3
    snapshot_period_s: float = 50e-3

    # -- serialization sizes (for piggyback byte accounting) -----------------
    log_header_bytes: int = 8
    depvec_entry_bytes: int = 6          # 2 B partition index + 4 B seqno
    key_bytes: int = 13                  # a 5-tuple-sized key
    commit_header_bytes: int = 8
    message_header_bytes: int = 8        # IP option + message framing
    #: Per-hop reliability header when ``reliable_links`` is on: 3 B
    #: sequence + 1 B same-flow back-distance + 4 B checksum
    #: (``repro.net.channel``).
    #: Only frames carry it, so disabled runs see identical wire sizes.
    hop_header_bytes: int = 8

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.cpu_hz

    def with_overrides(self, **kwargs) -> "CostModel":
        """A copy with some constants replaced (for ablations)."""
        return replace(self, **kwargs)


DEFAULT_COSTS = CostModel()
