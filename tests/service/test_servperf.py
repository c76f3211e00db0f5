"""Serving throughput floors (``-m servperf``; excluded from tier-1).

Wall-clock floors regress loudly when the gate loses its edge.  Every
rung of the ext2 stress ladder must clear an absolute submissions/sec
floor set far below the ~11–16k measured at the shallowest to deepest
rung, so slow CI hosts pass — these are tripwires, not benchmarks;
BENCH_SERVE.json records the honest numbers.
"""

import pytest

from repro.bench.servebench import DEFAULT_CASES, run_servebench

#: Submissions/sec floor on every rung, with generous CI headroom.
SUBS_PER_SEC_FLOOR = 2_000


@pytest.mark.servperf
class TestServePerfFloor:
    def test_every_ladder_rung_meets_the_floor(self):
        report = run_servebench(DEFAULT_CASES, repeats=2)
        # Seeded, so the simulated quantities are fixed; a change here
        # is a behaviour change, not a perf regression.
        assert report.cases[-1].decide_rounds == 4880
        for case in report.cases:
            assert case.subs_per_sec >= SUBS_PER_SEC_FLOOR, case
