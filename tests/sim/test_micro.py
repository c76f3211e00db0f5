"""Tests for the page-level micro simulator and adjustment protocols."""

import pytest

from repro.config import paper_machine
from repro.core import (
    InterWithAdjPolicy,
    InterWithoutAdjPolicy,
    IntraOnlyPolicy,
    SchedulingPolicy,
    Start,
    Adjust,
)
from repro.core.task import IOPattern
from repro.errors import SimulationError
from repro.faults.schedule import DiskDegradation, FaultSchedule, QueryDeadline
from repro.sim.micro import MicroSimulator, ScanSpec, spec_for_io_rate

MACHINE = paper_machine()


class Fixed(SchedulingPolicy):
    """Start every pending task at a fixed parallelism; never adjust."""

    name = "fixed"

    def __init__(self, alloc):
        self.alloc = alloc

    def decide(self, state):
        return [Start(t, self.alloc[t.name]) for t in state.pending]


class AdjustOnce(SchedulingPolicy):
    """Start one task, then adjust it when a trigger time passes."""

    name = "adjust-once"

    def __init__(self, start_x, new_x, after_pages):
        self.start_x = start_x
        self.new_x = new_x
        self.after_pages = after_pages
        self._adjusted = False

    def reset(self):
        self._adjusted = False

    def decide(self, state):
        if state.pending and not state.running:
            return [Start(state.pending[0], self.start_x)]
        if (
            state.running
            and not self._adjusted
            and state.running[0].remaining_seq_time
            < 0.7 * state.running[0].task.seq_time
        ):
            self._adjusted = True
            return [Adjust(state.running[0].task, self.new_x)]
        return []


class TestScanSpec:
    def test_io_rate_calibration(self):
        spec = spec_for_io_rate("t", MACHINE, io_rate=40.0, n_pages=100)
        assert spec.io_rate(MACHINE) == pytest.approx(40.0)

    def test_random_pattern_calibration(self):
        spec = spec_for_io_rate(
            "t", MACHINE, io_rate=30.0, n_pages=100, pattern=IOPattern.RANDOM
        )
        assert spec.io_rate(MACHINE) == pytest.approx(30.0)

    def test_rate_above_service_rejected(self):
        with pytest.raises(SimulationError):
            spec_for_io_rate("t", MACHINE, io_rate=61.0, n_pages=10)
        with pytest.raises(SimulationError):
            spec_for_io_rate(
                "t", MACHINE, io_rate=36.0, n_pages=10, pattern=IOPattern.RANDOM
            )

    def test_to_task_mirrors_spec(self):
        spec = spec_for_io_rate("t", MACHINE, io_rate=20.0, n_pages=200)
        task = spec.to_task(MACHINE)
        assert task.io_count == 200.0
        assert task.io_rate == pytest.approx(20.0)
        assert task.payload is spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_pages": 0, "cpu_per_page": 0.1},
            {"n_pages": 5, "cpu_per_page": -0.1},
            {"n_pages": 5, "cpu_per_page": 0.1, "partitioning": "hash"},
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            ScanSpec(name="bad", **kwargs)


class TestCalibration:
    def test_solo_io_task_matches_model(self):
        spec = spec_for_io_rate("io", MACHINE, io_rate=55.0, n_pages=4000)
        result = MicroSimulator(MACHINE).run([spec], Fixed({"io": 4}))
        achieved = 4000 / result.elapsed
        assert achieved == pytest.approx(4 * 55.0, rel=0.05)

    def test_solo_cpu_task_matches_model(self):
        spec = spec_for_io_rate("cpu", MACHINE, io_rate=8.0, n_pages=400)
        result = MicroSimulator(MACHINE).run([spec], Fixed({"cpu": 8}))
        achieved = 400 / result.elapsed
        assert achieved == pytest.approx(8 * 8.0, rel=0.05)

    def test_io_rate_capped_by_bandwidth(self):
        # 8 slaves of a 55 ios/s task demand 440 > B = 240.
        spec = spec_for_io_rate("io", MACHINE, io_rate=55.0, n_pages=4000)
        result = MicroSimulator(MACHINE).run([spec], Fixed({"io": 8}))
        achieved = 4000 / result.elapsed
        assert achieved <= MACHINE.io_bandwidth * 1.02

    def test_random_task_capped_by_random_bandwidth(self):
        spec = spec_for_io_rate(
            "idx", MACHINE, io_rate=30.0, n_pages=2000, pattern=IOPattern.RANDOM
        )
        result = MicroSimulator(MACHINE).run([spec], Fixed({"idx": 8}))
        achieved = 2000 / result.elapsed
        assert achieved <= MACHINE.total_random_bandwidth * 1.02

    def test_all_pages_processed_exactly_once(self):
        spec = spec_for_io_rate("t", MACHINE, io_rate=30.0, n_pages=777)
        result = MicroSimulator(MACHINE).run([spec], Fixed({"t": 3}))
        assert result.io_served == 777


class TestPageAdjustmentProtocol:
    """Figure 5: the maxpage protocol."""

    def test_grow_parallelism_speeds_up(self):
        spec = spec_for_io_rate("t", MACHINE, io_rate=10.0, n_pages=600)
        slow = MicroSimulator(MACHINE).run([spec], Fixed({"t": 2}))
        grown = MicroSimulator(MACHINE, consult_interval=0.25).run(
            [spec], AdjustOnce(2, 8, 0.3)
        )
        assert grown.elapsed < slow.elapsed
        assert grown.adjustments == 1

    def test_shrink_parallelism_slows_down(self):
        spec = spec_for_io_rate("t", MACHINE, io_rate=10.0, n_pages=600)
        fast = MicroSimulator(MACHINE).run([spec], Fixed({"t": 8}))
        shrunk = MicroSimulator(MACHINE, consult_interval=0.25).run(
            [spec], AdjustOnce(8, 2, 0.3)
        )
        assert shrunk.elapsed > fast.elapsed

    def test_work_conserved_across_adjustment(self):
        spec = spec_for_io_rate("t", MACHINE, io_rate=20.0, n_pages=953)
        result = MicroSimulator(MACHINE, consult_interval=0.25).run(
            [spec], AdjustOnce(3, 7, 0.3)
        )
        assert result.io_served == 953  # every page read exactly once

    def test_parallelism_history_records_change(self):
        spec = spec_for_io_rate("t", MACHINE, io_rate=10.0, n_pages=600)
        result = MicroSimulator(MACHINE, consult_interval=0.25).run(
            [spec], AdjustOnce(2, 6, 0.3)
        )
        history = result.records[0].parallelism_history
        assert [x for __, x in history] == [2.0, 6.0]


class TestRangeAdjustmentProtocol:
    """Figure 6: interval repartitioning."""

    def _spec(self, n_pages=600):
        return spec_for_io_rate(
            "rng",
            MACHINE,
            io_rate=20.0,
            n_pages=n_pages,
            pattern=IOPattern.RANDOM,
            partitioning="range",
        )

    def test_work_conserved(self):
        result = MicroSimulator(MACHINE, consult_interval=0.25).run(
            [self._spec(751)], AdjustOnce(3, 6, 0.3)
        )
        assert result.io_served == 751

    def test_grow_speeds_up(self):
        spec = self._spec()
        slow = MicroSimulator(MACHINE).run([spec], Fixed({"rng": 2}))
        grown = MicroSimulator(MACHINE, consult_interval=0.25).run(
            [spec], AdjustOnce(2, 4, 0.3)
        )
        assert grown.elapsed < slow.elapsed

    def test_shrink_works(self):
        spec = self._spec()
        result = MicroSimulator(MACHINE, consult_interval=0.25).run(
            [spec], AdjustOnce(6, 2, 0.3)
        )
        assert result.io_served == 600
        assert result.records[0].parallelism_history[-1][1] == 2.0


class TestFigure7Shape:
    """The micro engine must reproduce the paper's qualitative result."""

    def _workload(self, kind, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        specs = []
        for i in range(10):
            n_pages = int(rng.integers(100, 1200))
            if kind == "uniform-cpu":
                rate = float(rng.uniform(5, 30))
            elif kind == "extreme":
                rate = (
                    float(rng.uniform(50, 58))
                    if i % 2 == 0
                    else float(rng.uniform(5, 12))
                )
            else:
                raise ValueError(kind)
            specs.append(
                spec_for_io_rate(f"t{i}", MACHINE, io_rate=rate, n_pages=n_pages)
            )
        return specs

    def test_uniform_workload_ties(self):
        specs = self._workload("uniform-cpu", 3)
        intra = MicroSimulator(MACHINE).run(list(specs), IntraOnlyPolicy(integral=True))
        adaptive = MicroSimulator(MACHINE).run(
            list(specs), InterWithAdjPolicy(integral=True)
        )
        assert adaptive.elapsed == pytest.approx(intra.elapsed, rel=0.02)

    def test_extreme_workload_adaptive_wins(self):
        import numpy as np

        wins = []
        for seed in range(3):
            specs = self._workload("extreme", seed)
            intra = MicroSimulator(MACHINE).run(
                list(specs), IntraOnlyPolicy(integral=True)
            )
            adaptive = MicroSimulator(MACHINE).run(
                list(specs), InterWithAdjPolicy(integral=True)
            )
            wins.append((intra.elapsed - adaptive.elapsed) / intra.elapsed)
        assert np.mean(wins) > 0.03  # adaptive clearly wins on average


class TestArrivals:
    def test_late_arrival_waits(self):
        early = spec_for_io_rate("early", MACHINE, io_rate=10.0, n_pages=300)
        late = spec_for_io_rate(
            "late", MACHINE, io_rate=10.0, n_pages=100, arrival_time=2.0
        )
        result = MicroSimulator(MACHINE).run(
            [early, late], IntraOnlyPolicy(integral=True)
        )
        late_record = next(r for r in result.records if r.task.name == "late")
        assert late_record.started_at >= 2.0

    @pytest.mark.parametrize("degrade_until", [None, 80.5])
    def test_cancel_before_arrival_ends_the_run_at_the_cancel(
        self, degrade_until
    ):
        # "b" is cancelled at t=1 before it arrives at t=30; once "a" is
        # done and "b" cancelled nothing is left, so the run must stop
        # there and not at the next armed event (the arrival at t=30 or
        # the end of the degradation window).
        a = spec_for_io_rate("a", MACHINE, io_rate=40.0, n_pages=200)
        b = spec_for_io_rate(
            "b", MACHINE, io_rate=40.0, n_pages=50, arrival_time=30.0
        )
        faults = [QueryDeadline(at=1.0, task="b")]
        if degrade_until is not None:
            faults.append(
                DiskDegradation(
                    disk=0,
                    start=0.5,
                    duration=degrade_until - 0.5,
                    factor=0.5,
                )
            )
        result = MicroSimulator(MACHINE, faults=FaultSchedule(tuple(faults))).run(
            [a, b], IntraOnlyPolicy(integral=True)
        )
        assert [r.task.name for r in result.records] == ["a"]
        assert [c.task.name for c in result.cancel_records] == ["b"]
        finished_at = result.records[0].finished_at
        assert result.elapsed == pytest.approx(max(finished_at, 1.0))
        assert result.elapsed < 2.0
