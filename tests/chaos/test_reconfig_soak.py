"""Reconfiguration soak: scripted live operations under impairment.

A ``reconfig_scenario`` schedule fires a classifier swap, a
rescale, a migration, an insert, and a remove against a chain under
offered load with a mid-run data-impairment window, then audits the
invariants (zero loss / zero reorder in the crash-free modes, auditor
and oracle cleanliness in all modes).  Marked ``soak_reconfig`` so CI
can run the long modes on their own schedule.
"""

import pytest

from repro.chaos import reconfig_scenario, run

pytestmark = pytest.mark.soak_reconfig


def run_reconfig_schedule(**params):
    return run(reconfig_scenario(**params))


def outcomes(out):
    """(committed, aborted) reconfigurations of one run."""
    return (sum(1 for r in out.reconfigs if r.committed),
            sum(1 for r in out.reconfigs if r.aborted))


def _assert_clean(result):
    assert result.violations == [], "\n".join(
        f"{v.invariant}: {v.detail}" for v in result.violations)


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_clean_schedule_zero_loss(seed):
    result = run_reconfig_schedule(seed=seed)
    _assert_clean(result)
    assert outcomes(result) == (5, 0)
    assert result.oracle.released == result.generator.sent  # zero loss


def test_crash_during_reconfig_invariants_hold():
    # Crashes lose in-flight packets by design; the audit is
    # invariants-only (no duplicates, no reorders, ops terminal).
    result = run_reconfig_schedule(seed=1, crashes=True)
    _assert_clean(result)
    assert sum(outcomes(result)) == 5


def test_leader_failover_mid_switch():
    # A replicated control plane with elections forced mid-schedule:
    # the successor must resume or formally abort every open op.
    result = run_reconfig_schedule(seed=7, orchestrators=3)
    _assert_clean(result)
    assert len(result.ensemble.election_log) >= 1
    assert sum(outcomes(result)) == 5
    assert result.oracle.released == result.generator.sent


def test_determinism_same_seed_same_run():
    a = run_reconfig_schedule(seed=5)
    b = run_reconfig_schedule(seed=5)
    _assert_clean(a)
    _assert_clean(b)
    # Packet ids come from a process-global counter, so same-seed runs
    # are compared on relative id sequences (see test_impaired_soak).
    rel_a = [p - a.oracle.order[0] for p in a.oracle.order]
    rel_b = [p - b.oracle.order[0] for p in b.oracle.order]
    assert rel_a == rel_b
    assert a.generator.sent == b.generator.sent
    assert a.oracle.released == b.oracle.released
    assert outcomes(a) == outcomes(b)
