"""The acceptance soak's known-red schedules, pinned as expected failures.

``repro chaos --seed 0`` (50 schedules) ends with ``release-safety``
violations; schedule 34 alone reproduces them in about two seconds.
An impaired-data schedule with no crash reaches the same invariant.
The marks are strict: the change that fixes the bug makes a test
pass, which fails the suite until that change removes the mark.
"""

import pytest

from repro.chaos import chaos_scenario, impaired_scenario, run


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_schedule_34_of_seed_0_has_no_violations():
    out = run(chaos_scenario(seed=34, chain_length=3, f=1, index=34))
    assert out.violations == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13, second way in")
def test_an_impaired_data_plane_without_crash_has_no_violations():
    """Reliable hops under heavy drop and reorder, one orchestrator, no
    crash and no control-plane impairment: the 16 ms periodic audit
    finds a replica accounting for fewer packets than were released."""
    out = run(impaired_scenario(0, drop_rate=0.3, reorder_rate=0.2,
                                rate_pps=1e5, duration_s=20e-3))
    assert out.violations == []
