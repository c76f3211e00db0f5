"""Tests for the optimizer throughput harness and its perf floor."""

from __future__ import annotations

import json

import pytest

from repro.bench.optbench import (
    bench_workload,
    run_optbench,
    smoke_lines,
    time_optimize,
)
from repro.errors import OptimizerError

#: Conservative candidate-plans/sec floor for the 6-relation star bushy
#: search with the fast path on.  The reference machine measures
#: ~6k plans/sec; 2,000 trips on a 3x regression (e.g. the caches or
#: pruning silently disabled, which alone costs ~3x) while leaving
#: headroom for slower CI hosts.
PLANS_PER_SEC_FLOOR = 2_000


@pytest.mark.optperf
class TestOptPerfFloor:
    def test_6_relation_bushy_meets_floor(self):
        report = run_optbench((6,), spaces=("bushy",), repeats=2)
        (case,) = report.cases
        assert case.candidates == 486  # seeded search space is fixed
        assert case.plans_per_sec >= PLANS_PER_SEC_FLOOR


class TestWorkloads:
    def test_star_and_chain_have_the_requested_size(self):
        assert len(bench_workload(4, topology="star").query.relations) == 4
        assert len(bench_workload(5, topology="chain").query.relations) == 5

    def test_invalid_workloads_are_rejected(self):
        with pytest.raises(OptimizerError):
            bench_workload(1)
        with pytest.raises(OptimizerError):
            bench_workload(4, topology="ring")


class TestHarness:
    def test_report_covers_requested_cases(self):
        report = run_optbench(
            (4,), spaces=("left-deep", "bushy"), repeats=1
        )
        assert [(c.n_relations, c.space) for c in report.cases] == [
            (4, "left-deep"),
            (4, "bushy"),
        ]
        # Plan identity against the exhaustive search is checked by
        # optbench --smoke, the golden plan corpus and the optimizer
        # oracle tests; the harness itself only times the fast path.
        for case in report.cases:
            assert case.candidates == case.costed + case.pruned
            assert case.wall_seconds > 0
            assert case.plans_per_sec > 0

    def test_counters_are_deterministic(self):
        one = run_optbench((4,), spaces=("bushy",), repeats=1)
        two = run_optbench((4,), spaces=("bushy",), repeats=1)
        assert one.cases[0].candidates == two.cases[0].candidates
        assert one.cases[0].pruned == two.cases[0].pruned
        assert one.cases[0].simulated == two.cases[0].simulated
        assert one.cases[0].chosen_parcost == two.cases[0].chosen_parcost

    def test_entry_records_every_case(self, tmp_path):
        from repro.bench.optbench import append_trajectory

        report = run_optbench((4,), spaces=("bushy",), repeats=1)
        entry = report.to_entry("local")
        assert entry["label"] == "local"
        case = entry["workloads"]["4rel/bushy"]
        assert case["candidates"] == report.cases[0].candidates
        assert case["wall_seconds"] >= 0
        path = tmp_path / "BENCH_OPT.json"
        append_trajectory(path, entry)
        trajectory = json.loads(path.read_text())
        assert len(trajectory) == 1
        assert "4rel/bushy" in trajectory[0]["workloads"]

    def test_table_mentions_every_case(self):
        report = run_optbench((4,), spaces=("bushy",), repeats=1)
        table = report.to_table()
        assert "bushy" in table

    def test_time_optimize_returns_the_last_repeats_caches(self):
        schema = bench_workload(4)
        wall, plan, caches = time_optimize(schema, "bushy", repeats=2)
        assert wall > 0 and plan is not None
        assert caches.stats.candidates > 0


class TestSmoke:
    def test_smoke_lines_are_byte_stable_and_healthy(self):
        one = smoke_lines()
        two = smoke_lines()
        assert one == two
        assert not any(line.startswith("smoke failed") for line in one)

    def test_cli_smoke_prints_the_stable_lines(self, run_cli):
        code, lines = run_cli("optbench", "--smoke")
        assert code == 0
        assert lines == smoke_lines()
