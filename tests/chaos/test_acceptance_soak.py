"""The acceptance soak's known-red schedule, pinned as an expected failure.

``repro chaos --seed 0`` (50 schedules) ends with ``release-safety``
violations; schedule 34 alone reproduces them in about two seconds.
The mark is strict: the change that fixes the bug makes this test
pass, which fails the suite until that change removes the mark.
"""

import pytest

from repro.chaos import chaos_scenario, run


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_schedule_34_of_seed_0_has_no_violations():
    out = run(chaos_scenario(seed=34, chain_length=3, f=1, index=34))
    assert out.violations == []
