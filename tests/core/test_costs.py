"""Tests for the calibrated cost model."""

import dataclasses

import pytest

from repro.core.costs import DEFAULT_COSTS


class TestCostModel:
    def test_table2_constants(self):
        """The Table 2 calibration anchors (paper §7.2)."""
        assert DEFAULT_COSTS.processing_cycles == 355.0
        assert DEFAULT_COSTS.locking_cycles == 152.0
        assert DEFAULT_COSTS.piggyback_copy_cycles == 58.0
        assert DEFAULT_COSTS.forwarder_cycles == 8.0
        assert DEFAULT_COSTS.buffer_cycles == 100.0

    def test_platform_constants(self):
        assert DEFAULT_COSTS.cpu_hz == 2.0e9          # Xeon D-1540
        assert DEFAULT_COSTS.nic_pps == 10.5e6        # ConnectX-3 midpoint
        assert DEFAULT_COSTS.hop_delay_s == 6.5e-6    # §7.3's 6-7 us
        assert DEFAULT_COSTS.feedback_bandwidth_bps == 10e9

    def test_snapshot_constants(self):
        assert DEFAULT_COSTS.snapshot_stall_s == 6e-3    # §7.4
        assert DEFAULT_COSTS.snapshot_period_s == 50e-3

    def test_partitions_exceed_core_count(self):
        """§4.2: partitions > max CPU cores (8 on the testbed)."""
        assert DEFAULT_COSTS.n_partitions > 8

    def test_cycles_to_seconds(self):
        assert DEFAULT_COSTS.cycles_to_seconds(2.0e9) == 1.0
        assert DEFAULT_COSTS.cycles_to_seconds(355) == pytest.approx(177.5e-9)

    def test_with_overrides_copies(self):
        custom = DEFAULT_COSTS.with_overrides(nic_pps=5e6)
        assert custom.nic_pps == 5e6
        assert DEFAULT_COSTS.nic_pps == 10.5e6
        assert custom.processing_cycles == DEFAULT_COSTS.processing_cycles

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_COSTS.nic_pps = 1

    def test_sharing8_arithmetic_matches_paper(self):
        """The paper's fully-serialized Monitor rates fall out of the
        Table 2 constants: NF 2e9/507 = 3.94 Mpps, FTC 2e9/565 = 3.54,
        FTMB 2e9/677 = 2.95."""
        c = DEFAULT_COSTS
        nf = c.cpu_hz / (c.processing_cycles + c.locking_cycles)
        ftc = c.cpu_hz / (c.processing_cycles + c.locking_cycles +
                          c.piggyback_copy_cycles)
        ftmb = c.cpu_hz / (c.processing_cycles + c.locking_cycles +
                           c.ftmb_pal_crit_cycles)
        assert nf / 1e6 == pytest.approx(3.94, abs=0.01)
        assert ftc / 1e6 == pytest.approx(3.54, abs=0.01)
        assert ftmb / 1e6 == pytest.approx(2.95, abs=0.01)
        assert ftc / ftmb == pytest.approx(1.2, abs=0.01)  # Fig 6
        assert 1 - ftc / nf == pytest.approx(0.09, abs=0.02)  # §7.3

    def test_ftmb_pal_ceiling_arithmetic(self):
        """One PAL per packet through the OL NIC halves its rate."""
        assert DEFAULT_COSTS.nic_pps / 2 == pytest.approx(5.25e6)
